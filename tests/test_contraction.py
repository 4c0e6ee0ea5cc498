"""Structure-constant contraction against the naive raw-value reference:
products, brackets, actions, derivations, anchors, and the first
failures reported by the axiom checks built on them."""

import dataclasses
import json
import random
from fractions import Fraction
from itertools import chain

import pytest

from lrhopf import (
    AlgebraMismatchError,
    Anchor,
    CommAlgebra,
    Derivation,
    Field,
    build_rewrite_system,
    character_action,
    check_leibniz,
    check_lie_algebra,
    check_module_action,
    enumerate_basis,
    left_action_on_R,
    make_base_field_algebra,
    make_monomial_quotient,
    tensor_action,
)
from lrhopf.lierinehart import LieAlgebra, LieRinehartData, ModuleAction
from lrhopf.problemfile import parse_problem_text, render_problem

import oracles

FIELDS = [Field(0), Field(2), Field(3)]


def _value(rng, fld):
    if fld.characteristic:
        return fld.scalar(rng.randint(1, fld.characteristic - 1))
    return fld.scalar(rng.choice((-2, -1, 1, 2, Fraction(1, 2),
                                  Fraction(-2, 3))))


def _vector(rng, fld, size, density=0.5):
    return tuple(_value(rng, fld) if rng.random() < density else fld.zero
                 for _ in range(size))


def _matrix(rng, fld, rows, cols, density=0.3):
    return tuple(_vector(rng, fld, cols, density) for _ in range(rows))


def _tensor(rng, fld, rows, cols, size, density=0.3):
    return tuple(_matrix(rng, fld, cols, size, density) for _ in range(rows))


def _labels(prefix, size):
    return tuple(f"{prefix}{t}" for t in range(size))


def _lie_case(rng, fld):
    """A valid Lie algebra, or one broken by an antisymmetric change (so
    Jacobi is reached) or by a one-sided change."""
    L = rng.choice(oracles.lie_pool(fld) + [oracles.sl2(fld)])
    kind = rng.choice(("valid", "antisymmetric", "one-sided"))
    if kind == "valid":
        return L
    table = [[list(vec) for vec in row] for row in L.table]
    a, b, c = (rng.randrange(L.dim) for _ in range(3))
    delta = _value(rng, fld)
    table[a][b][c] = table[a][b][c] + delta
    if kind == "antisymmetric" and a != b:
        table[b][a][c] = table[b][a][c] - delta
    return LieAlgebra(fld, L.labels, tuple(tuple(tuple(vec) for vec in row)
                                           for row in table))


def _action_case(rng, R, m):
    """A character action, or a tensor action with a few random entries;
    one in the unit slice replaces the identity there."""
    if rng.random() < 0.3:
        return character_action(oracles.natural_character(R), m)
    return tensor_action(R, m, {
        (rng.randrange(R.dim), rng.randrange(m), rng.randrange(m)):
            _value(rng, R.field) for _ in range(rng.randint(0, 3))})


def _render(L, raw_vec):
    return L.render(tuple(L.field.scalar(x) for x in raw_vec))


def _naive_left_action(v, r, R, anchor, p):
    """The left action of v on r as a dense fold along each word, right
    to left: an R-letter multiplies, an L-letter applies its anchor."""
    n = R.dim
    total = [0] * n
    for word, c in v.terms.items():
        acc = oracles.raw(r.coeffs)
        for letter in reversed(word):
            if letter.kind == "R":
                unit = [int(k == letter.index) for k in range(n)]
                acc = oracles.naive_contract(oracles.raw(R.mul_table), unit,
                                             acc, n, p)
            else:
                acc = oracles.naive_apply(
                    oracles.raw(anchor.derivations[letter.index].matrix),
                    acc, p)
        total = [t + c.value * x for t, x in zip(total, acc)]
    return [t % p if p else t for t in total]


@pytest.mark.parametrize("fld", FIELDS, ids=str)
def test_contractions_match_naive_reference(fld):
    """Random structure tensors, valid or not: every product, bracket,
    action, derivation image, anchor combination and left action of the
    enveloping algebra on R equals the dense raw-value sum."""
    rng = random.Random(f"contract-{fld}")
    p = fld.characteristic
    for _ in range(80):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        density = rng.choice((0.0, 0.3, 1.0))
        R = CommAlgebra(fld, _labels("e", n),
                        _tensor(rng, fld, n, n, n, density))
        L = LieAlgebra(fld, _labels("b", m),
                       _tensor(rng, fld, m, m, m, density))
        action = ModuleAction("tensor", R, _tensor(rng, fld, n, m, m,
                                                   density))
        anchor = Anchor(tuple(Derivation(R, _matrix(rng, fld, n, n, density))
                              for _ in range(m)))
        u, v = _vector(rng, fld, m), _vector(rng, fld, m)
        r = R.element(_vector(rng, fld, n))
        s = R.element(_vector(rng, fld, n))

        assert oracles.raw(L.bracket(u, v)) == oracles.naive_contract(
            oracles.raw(L.table), oracles.raw(u), oracles.raw(v), m, p)
        assert oracles.raw(action.act(r, u)) == oracles.naive_contract(
            oracles.raw(action.tensor), oracles.raw(r.coeffs),
            oracles.raw(u), m, p)
        assert oracles.raw((r * s).coeffs) == oracles.naive_contract(
            oracles.raw(R.mul_table), oracles.raw(r.coeffs),
            oracles.raw(s.coeffs), n, p)
        for d in anchor.derivations:
            assert oracles.raw(d.apply(r).coeffs) == oracles.naive_apply(
                oracles.raw(d.matrix), oracles.raw(r.coeffs), p)
        # compiling the rules and acting on R read the tables only, so
        # the structure need not be valid
        env = enumerate_basis(build_rewrite_system(LieRinehartData(
            R=R, L=L, action=action, anchor=anchor, validated=True)), 1)
        for _ in range(3):
            w = oracles.random_nc_element(rng, env.system)
            assert oracles.raw(left_action_on_R(w, r, env).coeffs) == \
                _naive_left_action(w, r, R, anchor, p)


@pytest.mark.parametrize("fld", FIELDS, ids=str)
def test_lie_check_reports_the_reference_failure(fld):
    rng = random.Random(f"lie-check-{fld}")
    seen = set()
    for _ in range(90):
        L = _lie_case(rng, fld)
        expected = oracles.naive_lie_check(oracles.raw(L.table),
                                           fld.characteristic)
        report = check_lie_algebra(L)
        if expected is None:
            assert report.ok
            seen.add("pass")
            continue
        law, indices, value = expected
        witness = report.witnesses[0]
        assert not report.ok
        assert witness["law"] == law
        seen.add(law)
        if law == "jacobi":
            assert witness["triple"] == [L.labels[t] for t in indices]
            assert witness["value"] == _render(L, value)
        else:
            assert witness["pair"] == [L.labels[t] for t in indices]
    assert seen == {"pass", "antisymmetry", "jacobi"}


@pytest.mark.parametrize("fld", FIELDS, ids=str)
def test_action_check_reports_the_reference_failure(fld):
    rng = random.Random(f"action-check-{fld}")
    seen = set()
    for _ in range(90):
        R = rng.choice(oracles.quotient_pool(fld))
        action = _action_case(rng, R, rng.randint(1, 3))
        expected = oracles.naive_action_check(
            oracles.raw(R.mul_table), oracles.raw(action.tensor),
            fld.characteristic)
        report = check_module_action(R, action)
        if expected is None:
            assert report.ok
            seen.add("pass")
            continue
        law, indices = expected
        witness = report.witnesses[0]
        assert not report.ok
        assert witness["law"] == law
        seen.add(law)
        if law == "unit-acts-as-identity":
            assert witness["element"] == f"index {indices[0]}"
        else:
            i, j, a = indices
            assert witness["triple"] == [R.labels[i], R.labels[j],
                                         f"index {a}"]
    assert seen == {"pass", "unit-acts-as-identity", "action-associativity"}


@pytest.mark.parametrize("fld", FIELDS, ids=str)
def test_leibniz_check_reports_the_reference_failure(fld):
    rng = random.Random(f"leibniz-check-{fld}")
    seen = set()
    for _ in range(90):
        R = rng.choice(oracles.quotient_pool(fld))
        L = _lie_case(rng, fld)
        action = _action_case(rng, R, L.dim)
        if rng.random() < 0.4:
            derivations = [Derivation.zero(R)] * L.dim
        else:
            derivations = [Derivation(R, _matrix(rng, fld, R.dim, R.dim))
                           for _ in range(L.dim)]
        data = LieRinehartData(R=R, L=L, action=action,
                               anchor=Anchor(tuple(derivations)))
        expected = oracles.naive_leibniz_check(
            oracles.raw(L.table), oracles.raw(action.tensor),
            [oracles.raw(d.matrix) for d in derivations], fld.characteristic)
        report = check_leibniz(data)
        if expected is None:
            assert report.ok
            seen.add("pass")
            continue
        (i, a, b), lhs, rhs = expected
        assert not report.ok
        assert report.witnesses[0] == {
            "triple": [R.labels[i], L.labels[a], L.labels[b]],
            "lhs": _render(L, lhs), "rhs": _render(L, rhs)}
        seen.add("fail")
    assert seen == {"pass", "fail"}


def test_action_check_refuses_a_foreign_algebra(q):
    R = make_monomial_quotient(("x",), ("x^2",), q)
    other = make_monomial_quotient(("y",), ("y^2",), q)
    action = tensor_action(R, 2, {})
    assert check_module_action(R, action).ok
    with pytest.raises(AlgebraMismatchError):
        check_module_action(other, action)
    with pytest.raises(AlgebraMismatchError):
        check_module_action(make_base_field_algebra(q),
                            tensor_action(make_base_field_algebra(Field(2)),
                                          1, {}))


def _summed_entries_doc(rng, fld):
    """A structure-constants problem file with a tensor action, in which
    constants, brackets and tensor entries are each given twice, and as
    a pair that cancels to zero, with a fractional value over Q, and
    with a zero unit-row override; valid or not."""
    p = fld.characteristic
    n, m = rng.randint(2, 3), rng.randint(1, 3)
    r_labels = ["1"] + [f"e{t}" for t in range(1, n)]
    l_labels = [f"b{a}" for a in range(m)]

    def summed(index):
        """An entry given twice and a pair that cancels, at random
        indices drawn by `index`, each with a coefficient."""
        c = rng.choice(("1/2", "2/3", "3")) if not p \
            else str(rng.randint(1, 2 * p))
        twice, cancels = index(), index()
        return [twice + [c], twice + [c], cancels + [c], cancels + ["-" + c]]

    constants = summed(lambda: [rng.randrange(n) for _ in range(3)])
    constants.append([0, rng.randrange(1, n), 0, "0"])
    brackets = summed(lambda: [rng.choice(l_labels) for _ in range(3)])
    values = summed(lambda: [rng.choice(r_labels), rng.choice(l_labels),
                             rng.choice(l_labels)])
    image = f"2*{r_labels[-1]} + 1 - 1 - {r_labels[1]}"
    return {"field": {"kind": fld.kind, "p": p} if p else {"kind": fld.kind},
            "algebra": {"kind": "structure-constants", "dim": n,
                        "labels": r_labels, "constants": constants},
            "lie": {"dim": m, "labels": l_labels, "brackets": brackets},
            "anchor": {l_labels[0]: {r_labels[1]: image}},
            "action": {"kind": "tensor", "values": values}}


@pytest.mark.parametrize("fld", FIELDS + [Field(7)], ids=str)
def test_cached_rows_are_the_nonzero_raw_entries(fld):
    """Each structure's sparse rows hold exactly the nonzero raw entries
    of its dense table, integral values as ints and keys ascending, are
    made once, and belong to that object: a dataclasses.replace copy
    starts without them and rebuilds equal rows.  The structures are
    random valid ones with one entry broken, and structures parsed from
    problem files, whose constructors keep the rows they build: rendered
    random valid structures, and structure-constants files whose entries
    add up."""
    def nonzero(vec):
        return {k: x for k, x in enumerate(oracles.raw(vec)) if x}

    rng = random.Random(f"cached-rows/{fld}")
    cases = [(oracles.break_one_entry(
        rng, oracles.random_valid_structure(rng, fld)), False)
        for _ in range(20)]
    cases += [(parse_problem_text(render_problem(
        oracles.random_valid_structure(rng, fld))), True) for _ in range(10)]
    cases += [(parse_problem_text(json.dumps(_summed_entries_doc(rng, fld))),
               True) for _ in range(20)]
    for data, parsed in cases:
        owners = [(data.R, "sparse_table"), (data.L, "sparse_table"),
                  (data.action, "sparse_tensor")]
        owners += [(d, "sparse_columns") for d in data.anchor.derivations]
        if parsed:  # kept by the constructors, before any check reads it
            assert all(name in vars(owner) for owner, name in owners)
        for owner, name, table in (
                (data.R, "sparse_table", data.R.mul_table),
                (data.L, "sparse_table", data.L.table),
                (data.action, "sparse_tensor", data.action.tensor)):
            assert getattr(owner, name) == tuple(
                tuple(nonzero(vec) for vec in row) for row in table)
        for d in data.anchor.derivations:
            assert d.sparse_columns == tuple(
                nonzero(col) for col in zip(*d.matrix))
        for owner, name in owners:
            rows = getattr(owner, name)
            if name != "sparse_columns":
                rows = chain.from_iterable(rows)
            for row in rows:
                assert list(row) == sorted(row)
                for v in row.values():
                    assert type(v) is (int if v.denominator == 1
                                       else Fraction)
        for owner, name in owners[:4]:
            rows = getattr(owner, name)
            assert getattr(owner, name) is rows
            copy = dataclasses.replace(owner)
            assert copy == owner and name not in vars(copy)
            assert getattr(copy, name) == rows
