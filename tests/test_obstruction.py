"""Partial-map solving, right-action certification, the full pipeline."""

import random
from collections import Counter
from fractions import Fraction
from dataclasses import replace
from functools import partial

import pytest

from lrhopf import (
    Anchor,
    Character,
    Derivation,
    Field,
    NCElement,
    PipelineError,
    SolveOutcome,
    UnsupportedInputError,
    build_and_verify_right_action,
    build_rewrite_system,
    enumerate_basis,
    l_letter,
    left_divide,
    lie_algebra_from_brackets,
    make_character_module,
    make_monomial_quotient,
    normal_form,
    obstructed_example,
    partial_map_from_witness,
    partial_map_system,
    r_letter,
    solve_partial,
    tensor_action,
    theorem1_pipeline,
    validate_lie_rinehart,
    verify_certificate,
    verify_divide_certificate,
    verify_divide_witness,
    verify_partial,
)
from lrhopf import lierinehart, obstruction
from lrhopf.cli import main
from lrhopf.lierinehart import LieRinehartData
from lrhopf.obstruction import PartialMap, right_act_word
from lrhopf.reports import FAIL

import oracles


# ----------------------------------------------------------- linear system

def test_system_shape(obstructed):
    data = obstructed[4]
    system = partial_map_system(data)
    # one block of R.dim x R.dim rows per L generator, no cocycle rows
    # for a one-dimensional L
    assert system.rows == 9
    assert system.cols == 3


def test_cocycle_rows_appear_for_larger_l(classical, q):
    data = classical(("b1", "b2"), {(0, 1): (q.one, q.zero)})
    system = partial_map_system(data)
    # two 1x1 anchor blocks plus one cocycle row for the single pair
    assert system.rows == 3
    assert system.cols == 2


def test_tensor_action_unsupported(q):
    R = make_monomial_quotient(("x",), ("x^2",), q)
    L = lie_algebra_from_brackets(q, ("a",), {})
    act = tensor_action(R, 1, {})
    anchor = Anchor((Derivation.zero(R),))
    data = LieRinehartData(R=R, L=L, action=act, anchor=anchor,
                           validated=True)
    with pytest.raises(UnsupportedInputError):
        partial_map_system(data)


def test_partial_map_system_scalars_hold_fractions(obstructed, euler, q):
    """The rows are assembled from kernel values, ints where integral, but
    every entry and right-hand side of the system is a Scalar holding a
    Fraction: on both presets, the Euler structure with its anchor halved,
    and random valid character structures."""
    R, L, anchor, chi = euler[:4]
    half = Derivation.from_variable_images(
        R, {"x": q.parse("1/2") * R.basis_element(1)})
    datas = [obstructed[4], euler[4],
             make_character_module(R, L, Anchor((half,)), chi)]
    rng = random.Random("partial-fractions")
    while len(datas) < 20:
        data = oracles.random_valid_structure(rng, q)
        if data.action.kind == "character":
            datas.append(data)
    fractional = 0
    for data in datas:
        system = partial_map_system(data)
        values = [s for _, _, s in system.entries] + list(system.rhs)
        assert all(type(s.value) is Fraction for s in values)
        fractional += any(s.value.denominator > 1 for s in values)
    assert fractional


# ----------------------------------------------------- obstructed instance

def test_obstructed_infeasible_certificate_frozen(obstructed, q):
    data = obstructed[4]
    out = solve_partial(data)
    assert not out.feasible
    assert out.witness is None
    expected = [q.zero] * 9
    expected[5] = q.one
    assert list(out.certificate) == expected
    # independent replay with raw rational arithmetic
    system = partial_map_system(data)
    assert oracles.kills_columns(system, out.certificate)


def test_forced_candidates_fail_verification(obstructed, q):
    R, data = obstructed[0], obstructed[4]
    zero = PartialMap(data=data, values=(R.zero,))
    rep = verify_partial(zero)
    assert not rep.ok
    assert rep.witnesses[0] == {"condition": "anchor-reconstruction",
                                "pair": ["a", "x"],
                                "lhs": "0", "rhs": "y"}
    unit = PartialMap(data=data, values=(R.unit,))
    rep2 = verify_partial(unit)
    assert not rep2.ok
    assert rep2.witnesses[0]["lhs"] == "x"


def test_bracket_compatibility_witness(q):
    """On K[x]/(x^2) with L abelian on a and b, anchored by the Euler
    derivation x |-> x for a and by 0 for b, the candidate (1, x)
    reconstructs both anchors, so only the bracket side refutes it:
    values on [a, b] = 0 give 0, against rho_a(x) - rho_b(1) = x."""
    R = make_monomial_quotient(("x",), ("x^2",), q)
    L = lie_algebra_from_brackets(q, ("a", "b"), {})
    x = R.basis_element(1)
    anchor = Anchor((Derivation.from_variable_images(R, {"x": x}),
                     Derivation.zero(R)))
    chi = Character.from_variable_values(R, {"x": q.zero})
    data = make_character_module(R, L, anchor, chi)
    rep = verify_partial(PartialMap(data=data, values=(R.unit, x)))
    assert not rep.ok
    assert rep.witnesses == [{"condition": "bracket-compatibility",
                              "pair": ["a", "b"], "lhs": "0", "rhs": "x"}]


def test_forced_candidate_breaks_right_action(obstructed, q):
    data, system = obstructed[4], obstructed[5]
    env = enumerate_basis(system, 4)
    unit = PartialMap(data=data, values=(obstructed[0].unit,))
    rep = build_and_verify_right_action(unit, env)
    assert not rep.ok
    assert rep.witnesses[0] == {"relation": "straighten[a,x]",
                                "argument": "1", "image": "x - y"}


# ---------------------------------------------------------- euler instance

def test_euler_feasible_frozen(euler, q):
    data = euler[4]
    out = solve_partial(data)
    assert out.feasible
    assert out.witness == (q.one, q.zero)
    assert out.nullity == 1
    assert out.nullspace == ((q.zero, q.one),)
    system = partial_map_system(data)
    assert oracles.substitute(system, out.witness)
    # the nullspace direction solves the homogeneous system
    assert oracles.substitute(
        system.__class__(rows=system.rows, cols=system.cols,
                         entries=system.entries,
                         rhs=tuple(q.zero for _ in range(system.rows)),
                         field=q),
        out.nullspace[0])


def test_euler_partial_map_verifies(euler):
    data = euler[4]
    out = solve_partial(data)
    p = partial_map_from_witness(data, out)
    assert [str(v) for v in p.values] == ["1"]
    assert p.free_parameters == 1
    assert verify_partial(p).ok


def test_euler_right_action_certified(euler):
    data, system = euler[4], euler[5]
    p = partial_map_from_witness(data, solve_partial(data))
    env = enumerate_basis(system, 8)
    assert build_and_verify_right_action(p, env).ok


def test_right_act_word_fold(euler, q):
    data = euler[4]
    R = euler[0]
    p = partial_map_from_witness(data, solve_partial(data))
    # unit . a-bar = values[a] = 1
    assert right_act_word(p, R.unit, (l_letter(0),)).coeffs == R.unit.coeffs
    # x . a-bar = chi(x) values[a] = 0
    assert not right_act_word(p, R.unit, (r_letter(1), l_letter(0)))
    # unit . x = x
    assert right_act_word(p, R.unit, (r_letter(1),)).coeffs == \
        R.basis_element(1).coeffs


def test_right_action_requires_matching_envelope(euler, obstructed):
    p = partial_map_from_witness(euler[4], solve_partial(euler[4]))
    foreign = enumerate_basis(obstructed[5], 3)
    from lrhopf import LrhInputError
    with pytest.raises(LrhInputError):
        build_and_verify_right_action(p, foreign)


# -------------------------------------------------------- classical sanity

def test_classical_zero_anchor_always_extends(classical, q):
    data = classical(("b1", "b2"), {})
    out = solve_partial(data)
    assert out.feasible
    assert out.witness == (q.zero, q.zero)
    p = partial_map_from_witness(data, out)
    assert verify_partial(p).ok
    env = enumerate_basis(build_rewrite_system(data), 4)
    assert build_and_verify_right_action(p, env).ok


def test_deciders_agree_on_random_instances(q):
    """Whenever the linear solver says feasible, the reconstructed
    candidate must survive both independent verifiers; when it says
    infeasible, a handful of systematically chosen candidates must all
    be rejected."""
    rng = random.Random(55)
    feasible_seen = infeasible_seen = 0
    for _ in range(80):
        made = oracles.random_character_candidate(rng, q)
        if made is None:
            continue
        R, L, anchor, chi = made
        from lrhopf import ConstructionRefusedError
        try:
            data = make_character_module(R, L, anchor, chi)
        except ConstructionRefusedError:
            continue
        out = solve_partial(data)
        if out.feasible:
            feasible_seen += 1
            p = partial_map_from_witness(data, out)
            assert verify_partial(p).ok
            env = enumerate_basis(build_rewrite_system(data), 3)
            assert build_and_verify_right_action(p, env).ok
        else:
            infeasible_seen += 1
            system = partial_map_system(data)
            assert oracles.kills_columns(system, out.certificate)
            candidates = [tuple(R.zero for _ in range(L.dim)),
                          tuple(R.unit for _ in range(L.dim))]
            for i in range(R.dim):
                candidates.append(tuple(R.basis_element(i)
                                        for _ in range(L.dim)))
            for values in candidates:
                p = PartialMap(data=data, values=values)
                assert not verify_partial(p).ok
    assert feasible_seen > 0 and infeasible_seen > 0


# ----------------------------------------------------------- full pipeline

def test_pipeline_over_q(q):
    report = theorem1_pipeline(q, degree=8)
    assert report.ok
    assert report.degree_used == 8
    names = [step.name for step in report.narrative]
    assert names == ["character-criterion", "local-confluence",
                     "truncated-basis", "no-right-extension",
                     "no-antipode-divisibility"]
    assert all(step.ok for step in report.narrative)
    expected = [q.zero] * 9
    expected[5] = q.one
    assert list(report.partial_outcome.certificate) == expected
    d = report.to_dict()
    assert d["verdict"] == "pass"
    assert d["degree"] == 8
    assert len(d["steps"]) == 5
    text = report.render_text()
    assert "no-right-extension" in text


def test_pipeline_verdict_stable_across_fields():
    for fld in (Field(0), Field(2), Field(3), Field(5)):
        report = theorem1_pipeline(fld, degree=5)
        assert report.ok, fld.kind
        assert not report.partial_outcome.feasible
        assert not report.divisibility_outcome.feasible


def test_pipeline_dimension_matches_counting(q):
    report = theorem1_pipeline(q, degree=8)
    step = report.narrative[2]
    assert step.name == "truncated-basis"
    assert any("11" in line for line in step.narrative)


def test_obstructed_example_is_reusable(q):
    R, L, anchor, chi = obstructed_example(q)
    data = make_character_module(R, L, anchor, chi)
    assert data.validated
    assert R.labels == ("1", "x", "y")
    assert L.labels == ("a",)
    assert str(anchor.rho(0).column(1)) == "y"
    assert str(anchor.rho(0).column(2)) == "0"


def _counted(calls, name, real, *args):
    calls.append(name)
    return real(*args)


def test_pipeline_solves_divisibility_once(q, monkeypatch):
    """One solve and one replay at the top degree decide every degree."""
    calls = []
    for name in ("left_divide", "verify_divide_certificate"):
        monkeypatch.setattr(obstruction, name, partial(
            _counted, calls, name, getattr(obstruction, name)))
    assert theorem1_pipeline(q, degree=8).ok
    assert calls == ["left_divide", "verify_divide_certificate"]


@pytest.mark.parametrize("p", [0, 2, 5])
def test_top_certificate_prefixes_refute_every_lower_degree(p):
    """The nesting behind the single solve: the degree-8 functional cut
    to the degree-d basis still kills every x.w with deg w <= d and not
    y, replayed against products normalised by the rightmost-first
    oracle in a fresh rewrite system."""
    fld = Field(p)
    cert = theorem1_pipeline(fld, degree=8).divisibility_outcome.certificate
    fresh = build_rewrite_system(
        make_character_module(*obstructed_example(fld)))
    assert len(cert) == enumerate_basis(fresh, 8).dim
    x = NCElement.from_word(fld, (r_letter(1),))
    y = NCElement.from_word(fld, (r_letter(2),))
    for d in range(1, 9):
        env = enumerate_basis(fresh, d)  # deg(x) = 0: rows = columns
        cut = cert[:env.dim]
        functional = lambda elem: sum(
            (u * c for u, c in zip(cut, env.coords(
                oracles.rightmost_normal_form(elem, fresh)))),
            fld.zero)
        for word in env.basis:
            assert not functional(x.concat(NCElement.from_word(fld, word)))
        assert functional(y)


def test_divisibility_replay_refuses_tampered_certificates(q):
    """The replay rejects a functional of the wrong length, and one with a
    single entry changed at a row that some column x.w touches."""
    system = build_rewrite_system(
        make_character_module(*obstructed_example(q)))
    env = enumerate_basis(system, 5)
    x = NCElement.from_word(q, (r_letter(1),))
    y = NCElement.from_word(q, (r_letter(2),))
    cert = left_divide(x, y, env).certificate
    replay = obstruction.verify_divide_certificate
    assert replay(x, y, env, cert)
    assert not replay(x, y, env, cert[:-1])
    assert not replay(x, y, env, cert + (q.zero,))
    touched = sorted({env.position(w) for word in env.basis
                      for w in normal_form(
                          x.concat(NCElement.from_word(q, word)),
                          system).terms})
    assert touched
    for row in touched:
        changed = list(cert)
        changed[row] = changed[row] + q.one
        assert not replay(x, y, env, tuple(changed))


def _zero_certificate(real, g, t, env):
    out = real(g, t, env)
    return replace(out, certificate=(env.system.field.zero,)
                   * len(out.certificate))


def _claim_feasible(real, g, t, env):
    zero = env.system.field.zero
    return SolveOutcome(verdict="feasible", witness=(zero,) * env.dim,
                        nullity=0, nullspace=())


@pytest.mark.parametrize("fake", [_zero_certificate, _claim_feasible])
def test_divisibility_replay_still_guards_the_pipeline(fake, q, monkeypatch,
                                                        capsys):
    """A refusal the replay cannot confirm, or a claimed witness, stops
    the pipeline at the divisibility step, named with the top degree."""
    monkeypatch.setattr(obstruction, "left_divide",
                        partial(fake, obstruction.left_divide))
    with pytest.raises(PipelineError) as caught:
        theorem1_pipeline(q, degree=6)
    assert caught.value.step == "left-divisibility"
    assert "at degree 6" in str(caught.value)
    assert main(["theorem1", "--degree", "5"]) == 3
    err = capsys.readouterr().err
    assert "left-divisibility" in err and "degree 5" in err


def _failed_report(real, *args):
    return replace(real(*args), verdict=FAIL)


def _zeroed_solve(real, system):
    out = real(system)
    return replace(out, certificate=(system.field.zero,)
                   * len(out.certificate))


def _claimed_solution(real, system):
    return SolveOutcome(verdict="feasible",
                        witness=(system.field.zero,) * system.cols,
                        nullity=0, nullspace=())


@pytest.mark.parametrize("target, fake, step", [
    ("character_criterion", _failed_report, "character-criterion"),
    ("check_local_confluence", _failed_report, "local-confluence"),
    ("solve_linear", _zeroed_solve, "right-extension-system"),
    ("solve_linear", _claimed_solution, "right-extension-system"),
], ids=["criterion", "confluence", "zeroed-certificate", "claimed-witness"])
def test_every_pipeline_step_is_guarded(target, fake, step, q, monkeypatch,
                                        capsys):
    """A failed criterion or confluence report, an extension certificate
    the replay cannot confirm, or a claimed extension stops the pipeline
    at its own step: theorem1 exits 3 and prints nothing."""
    monkeypatch.setattr(obstruction, target,
                        partial(fake, getattr(obstruction, target)))
    with pytest.raises(PipelineError) as caught:
        theorem1_pipeline(q, degree=4)
    assert caught.value.step == step
    assert main(["theorem1", "--degree", "4"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert f"pipeline step '{step}' diverged" in err


@pytest.mark.parametrize("p", (0, 2, 3))
def test_random_queries_replay_their_evidence(p):
    """On seeded valid structures over Q, GF(2) and GF(3), every answer
    replays.  left_divide on random g and t, or on t = g.s for a random
    s, gives a witness that verify_divide_witness accepts or a
    certificate that verify_divide_certificate accepts.  On
    character-kind structures solve_partial gives a candidate that
    verify_partial and the right-action check accept, or a certificate
    that verify_certificate accepts.  Both verdicts occur for both."""
    fld = Field(p)
    rng = random.Random(f"random-queries/{p}")
    divides, partials = Counter(), Counter()
    for _ in range(30):
        data = oracles.random_valid_structure(rng, fld)
        assert all(r.ok for r in validate_lie_rinehart(data))
        data = replace(data, validated=True)
        system = build_rewrite_system(data)
        env = enumerate_basis(system, 3)  # holds every random s
        for _ in range(4):
            g = oracles.random_nc_element(rng, system)
            t = oracles.random_nc_element(rng, system)
            if rng.random() < 0.5:
                t = g.concat(t)
            out = left_divide(g, t, env)
            divides[out.feasible] += 1
            if out.feasible:
                assert verify_divide_witness(g, t, env, out.witness)
            else:
                assert verify_divide_certificate(g, t, env, out.certificate)
        if data.action.kind != "character":
            continue
        out = solve_partial(data)
        partials[out.feasible] += 1
        if out.feasible:
            candidate = partial_map_from_witness(data, out)
            assert verify_partial(candidate).ok
            assert build_and_verify_right_action(candidate, env).ok
        else:
            assert verify_certificate(partial_map_system(data),
                                      out.certificate)
    assert set(divides) == set(partials) == {True, False}, (divides,
                                                              partials)


def test_theorem1_computes_the_criterion_once(q, monkeypatch):
    """theorem1_pipeline runs character_criterion once per run, counted
    under the names both obstruction and lierinehart reach it by, and the
    R-linearity check of its condition (a) once; the report is the one
    an uncounted run gives."""
    expected = theorem1_pipeline(q, degree=4).to_dict()
    calls = Counter()

    def counted(name, real, *args):
        calls[name] += 1
        return real(*args)

    for module, name in ((obstruction, "character_criterion"),
                         (lierinehart, "character_criterion"),
                         (lierinehart, "check_anchor_r_linear")):
        monkeypatch.setattr(module, name,
                            partial(counted, name, getattr(module, name)))
    assert theorem1_pipeline(q, degree=4).to_dict() == expected
    assert calls == {"character_criterion": 1, "check_anchor_r_linear": 1}


def test_check_runs_the_r_linearity_check_once(monkeypatch, capsys):
    """`check` on a character file runs check_anchor_r_linear once: the
    character criterion takes the sweep's report as its condition (a).
    The output is the one an uncounted run gives."""
    assert main(["check", "obstructed-example"]) == 0
    expected = capsys.readouterr()
    calls = Counter()

    def counted(real, *args):
        calls[real.__name__] += 1
        return real(*args)

    monkeypatch.setattr(lierinehart, "check_anchor_r_linear",
                        partial(counted, lierinehart.check_anchor_r_linear))
    assert main(["check", "obstructed-example"]) == 0
    assert capsys.readouterr() == expected
    assert calls == {"check_anchor_r_linear": 1}
