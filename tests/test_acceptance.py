"""Acceptance gate.

Seven criteria, one test each, every one at zero tolerance: all
arithmetic is exact, so there are no epsilons anywhere.  Each test
prints a single CRITERION line to the real stdout so the verdicts
survive output capture.
"""

import random
import sys
from contextlib import contextmanager

from lrhopf import (
    Field,
    NCElement,
    build_and_verify_right_action,
    build_rewrite_system,
    character_criterion,
    check_anchor_r_linear,
    check_leibniz,
    check_local_confluence,
    enumerate_basis,
    l_letter,
    left_divide,
    lie_algebra_from_brackets,
    make_base_field_algebra,
    make_character_module,
    normal_form,
    obstructed_example,
    partial_map_from_witness,
    partial_map_system,
    r_letter,
    relation_elements,
    solve_partial,
    theorem1_pipeline,
    verify_certificate,
    verify_partial,
    verify_witness,
)
from lrhopf.lierinehart import Anchor, Derivation, LieRinehartData
from lrhopf.lierinehart import character_action

import oracles


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"CRITERION {number}: FAIL ({label})", file=sys.__stdout__)
        raise
    print(f"CRITERION {number}: PASS ({label})", file=sys.__stdout__)


def _assemble(fld):
    R, L, anchor, chi = obstructed_example(fld)
    data = make_character_module(R, L, anchor, chi)
    return R, L, anchor, chi, data, build_rewrite_system(data)


def _replay_divide(system, g, t, env, certificate):
    """Independent Farkas replay for a divisibility refusal: the
    functional must kill every product g.w and not the target."""
    fld = system.field
    extended = enumerate_basis(system, env.degree + g.degree)
    assert len(certificate) == extended.dim

    def functional(elem):
        return sum((u * c for u, c in zip(certificate,
                                          extended.coords(elem))),
                   fld.zero)

    for word in env.basis:
        product = normal_form(g.concat(NCElement.from_word(fld, word)),
                              system)
        assert not functional(product)
    assert functional(normal_form(t, system))


def _criterion_1_body(fld):
    """Criterion pass, extension system infeasible with verified
    certificate, x never left-divides y at degrees 1..8."""
    R, L, anchor, chi, data, system = _assemble(fld)

    crit = character_criterion(R, L, anchor, chi)
    assert crit.ok

    outcome = solve_partial(data)
    assert not outcome.feasible
    linear = partial_map_system(data)
    assert verify_certificate(linear, outcome.certificate)
    assert oracles.kills_columns(linear, outcome.certificate)

    x = NCElement.from_word(fld, (r_letter(1),))
    y = NCElement.from_word(fld, (r_letter(2),))
    for degree in range(1, 9):
        env = enumerate_basis(system, degree)
        div = left_divide(x, y, env)
        assert not div.feasible, f"degree {degree}"
        _replay_divide(system, x, y, env, div.certificate)

    pipeline = theorem1_pipeline(fld, degree=8)
    assert pipeline.ok
    assert [step.verdict for step in pipeline.narrative] == ["pass"] * 5


def _criterion_2_body(fld):
    """The eight defining relations all normalize to zero and the
    truncated bases have dimension d + 3 spanned by the unit, x, y and
    the generator powers."""
    R, L, anchor, chi, data, system = _assemble(fld)
    x, y, a = r_letter(1), r_letter(2), l_letter(0)

    def word(*letters):
        return NCElement.from_word(fld, letters)

    eight = [
        ("generator-straightening-x", word(a, x) - word(y)),
        ("generator-straightening-y", word(a, y)),
        ("absorb-x", word(x, a)),
        ("absorb-y", word(y, a)),
        ("square-x", word(x, x)),
        ("square-y", word(y, y)),
        ("product-xy", word(x, y)),
        ("product-yx", word(y, x)),
    ]
    for name, rel in eight:
        assert not normal_form(rel, system), name

    rels = relation_elements(system)
    assert len(rels) == 8
    for name, rel in rels:
        assert not normal_form(rel, system), name

    for degree in range(9):
        env = enumerate_basis(system, degree)
        assert env.dim == degree + 3
        labels = env.basis_labels()
        assert labels[:3] == ("1", "x", "y")
        for n, tall in enumerate(labels[3:], start=1):
            assert tall == " ".join(["ā"] * n)


def test_criterion_1_theorem_reproduction():
    with criterion(1, "main theorem reproduced over Q"):
        _criterion_1_body(Field(0))


def test_criterion_2_presentation():
    with criterion(2, "defining relations and basis dimensions"):
        _criterion_2_body(Field(0))


def test_criterion_3_criterion_equivalence():
    with criterion(3, "criterion equals the direct conjunction"):
        fld = Field(0)
        rng = random.Random(101)
        examined = passes = fails = 0
        while examined < 120:
            R, L, anchor, chi = oracles.random_character_candidate(rng, fld)
            data = oracles.candidate_data(R, L, anchor, chi)
            crit = character_criterion(R, L, anchor, chi)
            direct = (check_leibniz(data).ok
                      and check_anchor_r_linear(data).ok)
            assert crit.ok == direct
            examined += 1
            if crit.ok:
                passes += 1
            else:
                fails += 1
        assert examined >= 100
        assert passes > 0 and fails > 0


def test_criterion_4_confluence_and_strategy_agreement():
    with criterion(4, "local confluence and strategy independence"):
        fld = Field(0)
        K = make_base_field_algebra(fld)
        chi = oracles.natural_character(K)

        def classical(labels, brackets):
            L = lie_algebra_from_brackets(fld, labels, brackets)
            anchor = Anchor(tuple(Derivation.zero(K)
                                  for _ in range(L.dim)))
            return make_character_module(K, L, anchor, chi)

        systems = [
            _assemble(fld)[5],
            build_rewrite_system(classical(("b1",), {})),
            build_rewrite_system(classical(("b1", "b2"), {})),
            build_rewrite_system(classical(
                ("b1", "b2"), {(0, 1): (fld.one, fld.zero)})),
        ]
        rng = random.Random(202)
        for system in systems:
            assert check_local_confluence(enumerate_basis(system, 3)).ok
            for _ in range(200):
                elem = oracles.random_nc_element(rng, system)
                left = normal_form(elem, system, "leftmost")
                right = oracles.rightmost_normal_form(elem, system)
                assert left == right


def test_criterion_5_positive_controls():
    with criterion(5, "positive controls extend and match counting"):
        fld = Field(0)

        # the nilpotent-line example with the scaling derivation
        from lrhopf import Character, make_monomial_quotient
        R = make_monomial_quotient(("x",), ("x^2",), fld)
        E = Derivation.from_variable_images(R, {"x": R.basis_element(1)})
        chi = Character.from_variable_values(R, {"x": fld.zero})
        L = lie_algebra_from_brackets(fld, ("a",), {})
        data = make_character_module(R, L, Anchor((E,)), chi)
        outcome = solve_partial(data)
        assert outcome.feasible
        assert outcome.nullity == 1
        candidate = partial_map_from_witness(data, outcome)
        assert [str(v) for v in candidate.values] == ["1"]
        assert verify_partial(candidate).ok
        env = enumerate_basis(build_rewrite_system(data), 8)
        assert build_and_verify_right_action(candidate, env).ok

        # base field control: the zero map extends, and the bases count
        # like commutative polynomial algebras
        K = make_base_field_algebra(fld)
        kchi = oracles.natural_character(K)
        one_dim = lie_algebra_from_brackets(fld, ("b1",), {})
        kdata = make_character_module(
            K, one_dim, Anchor((Derivation.zero(K),)), kchi)
        kout = solve_partial(kdata)
        assert kout.feasible
        assert all(not c for c in kout.witness)
        ksys = build_rewrite_system(kdata)
        for degree in range(9):
            assert enumerate_basis(ksys, degree).dim == degree + 1

        two_dim = lie_algebra_from_brackets(fld, ("b1", "b2"), {})
        kdata2 = make_character_module(
            K, two_dim,
            Anchor((Derivation.zero(K), Derivation.zero(K))), kchi)
        ksys2 = build_rewrite_system(kdata2)
        for degree in range(9):
            expected = (degree + 1) * (degree + 2) // 2
            assert enumerate_basis(ksys2, degree).dim == expected


def test_criterion_6_certificate_integrity():
    with criterion(6, "every certificate and witness re-verifies"):
        fld = Field(0)
        checked = 0

        # obstruction systems, feasible and infeasible
        R, L, anchor, chi, data, system = _assemble(fld)
        for problem_data in (data,):
            linear = partial_map_system(problem_data)
            out = solve_partial(problem_data)
            assert not out.feasible
            assert verify_certificate(linear, out.certificate)
            assert oracles.kills_columns(linear, out.certificate)
            checked += 1

        from lrhopf import Character, make_monomial_quotient
        R2 = make_monomial_quotient(("x",), ("x^2",), fld)
        E = Derivation.from_variable_images(R2, {"x": R2.basis_element(1)})
        chi2 = Character.from_variable_values(R2, {"x": fld.zero})
        L2 = lie_algebra_from_brackets(fld, ("a",), {})
        data2 = make_character_module(R2, L2, Anchor((E,)), chi2)
        linear2 = partial_map_system(data2)
        out2 = solve_partial(data2)
        assert out2.feasible
        assert verify_witness(linear2, out2.witness)
        assert oracles.substitute(linear2, out2.witness)
        checked += 1

        # divisibility outcomes at every degree, both verdicts
        x = NCElement.from_word(fld, (r_letter(1),))
        y = NCElement.from_word(fld, (r_letter(2),))
        abar = NCElement.from_word(fld, (l_letter(0),))
        for degree in range(1, 9):
            env = enumerate_basis(system, degree)
            refusal = left_divide(x, y, env)
            assert not refusal.feasible
            _replay_divide(system, x, y, env, refusal.certificate)
            checked += 1
            success = left_divide(abar, y, env)
            assert success.feasible
            product = normal_form(
                abar.concat(env.element(success.witness)), system)
            assert product == normal_form(y, system)
            checked += 1

        # plain random linear systems, solver against the oracle
        from lrhopf import LinearSystem, solve_linear
        rng = random.Random(303)
        for _ in range(60):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            entries = []
            for r in range(rows):
                for c in range(cols):
                    v = rng.randint(-4, 4)
                    if v and rng.random() < 0.7:
                        entries.append((r, c, fld.scalar(v)))
            rhs = tuple(fld.scalar(rng.randint(-4, 4)) for _ in range(rows))
            problem = LinearSystem(rows=rows, cols=cols,
                                   entries=tuple(entries), rhs=rhs,
                                   field=fld)
            out = solve_linear(problem)
            if out.feasible:
                assert verify_witness(problem, out.witness)
                assert oracles.substitute(problem, out.witness)
            else:
                assert verify_certificate(problem, out.certificate)
                assert oracles.kills_columns(problem, out.certificate)
            checked += 1
        assert checked >= 75


def test_criterion_7_field_independence():
    with criterion(7, "criteria 1 and 2 hold over small prime fields"):
        for p in (2, 3, 5):
            fld = Field(p)
            _criterion_1_body(fld)
            _criterion_2_body(fld)
