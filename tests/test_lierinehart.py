"""Lie algebras, module actions, anchors, and the character criterion."""

import random
from fractions import Fraction
from itertools import chain
from pathlib import Path

import pytest

from lrhopf import (
    AlgebraMismatchError,
    Anchor,
    Character,
    ConstructionRefusedError,
    Derivation,
    Field,
    FieldMismatchError,
    LrhInputError,
    Scalar,
    algebra_from_constants,
    character_action,
    character_criterion,
    check_anchor_lie_hom,
    check_derivation,
    check_anchor_r_linear,
    check_leibniz,
    check_lie_algebra,
    check_module_action,
    lie_algebra_from_brackets,
    make_character_module,
    make_monomial_quotient,
    tensor_action,
    validate_lie_rinehart,
)
import lrhopf.finalg as finalg
import lrhopf.lierinehart as lierinehart
from lrhopf.lierinehart import (LieRinehartData, anchor_work,
                                anchor_work_bound)
from lrhopf.problemfile import PRESETS, parse_problem

import oracles


# ---------------------------------------------------------------- Lie axioms

def test_oversized_lie_algebra_is_refused_before_its_table(q):
    """Dimension 115 has more basis triples than MAX_CHECK_WORK; a dense
    bracket table of dimension 20 has too many term products."""
    labels = [f"b{a}" for a in range(115)]
    assert lie_algebra_from_brackets(q, labels[:114], {}).dim == 114
    with pytest.raises(LrhInputError, match="MAX_CHECK_WORK"):
        lie_algebra_from_brackets(q, labels, {})
    dense = {(a, b): (q.one,) * 20 for a in range(20) for b in range(20)}
    with pytest.raises(LrhInputError, match="MAX_CHECK_WORK"):
        lie_algebra_from_brackets(q, labels[:20], dense)


def test_lie_pool_satisfies_axioms(q):
    for L in oracles.lie_pool(q):
        assert check_lie_algebra(L).ok


def test_symmetric_bracket_fails_antisymmetry(q):
    L = lie_algebra_from_brackets(q, ("b1", "b2"),
                                  {(0, 1): (q.one, q.zero),
                                   (1, 0): (q.one, q.zero)})
    report = check_lie_algebra(L)
    assert not report.ok
    w = report.witnesses[0]
    assert w["law"] == "antisymmetry"
    assert w["pair"] == ["b1", "b2"]
    assert w["lhs"] == "b1"
    assert w["rhs"] == "-(b1)"


def test_jacobi_violation_witness(q):
    """[b1,b2] = b1 and [b1,b3] = b2 (rest zero) breaks Jacobi at the
    only interesting triple."""
    L = lie_algebra_from_brackets(q, ("b1", "b2", "b3"),
                                  {(0, 1): (q.one, q.zero, q.zero),
                                   (0, 2): (q.zero, q.one, q.zero)})
    report = check_lie_algebra(L)
    assert not report.ok
    w = report.witnesses[0]
    assert w["law"] == "jacobi"
    assert w["triple"] == ["b1", "b2", "b3"]
    assert w["value"] == "-b2"


def test_nonzero_diagonal_caught(q):
    L = lie_algebra_from_brackets(q, ("b1",), {(0, 0): (q.one,)})
    report = check_lie_algebra(L)
    assert not report.ok
    w = report.witnesses[0]
    assert w["law"] == "antisymmetry"
    assert w["pair"] == ["b1", "b1"]


def test_bracket_bilinearity(q):
    rng = random.Random(5)
    for L in oracles.lie_pool(q):
        n = len(L.labels)
        for _ in range(10):
            u = tuple(q.scalar(rng.randint(-3, 3)) for _ in range(n))
            v = tuple(q.scalar(rng.randint(-3, 3)) for _ in range(n))
            w = tuple(q.scalar(rng.randint(-3, 3)) for _ in range(n))
            uvw = L.bracket(u, tuple(a + b for a, b in zip(v, w)))
            parts = tuple(a + b for a, b in zip(L.bracket(u, v),
                                                L.bracket(u, w)))
            assert uvw == parts


# ------------------------------------------------------------ module actions

def test_character_action_uses_scalar_rule(q):
    R = make_monomial_quotient(("x",), ("x^2",), q)
    chi = oracles.natural_character(R)
    act = character_action(chi, 2)
    # 1 acts as identity, x acts as chi(x) = 0
    vec = (q.one, q.scalar(2))
    assert act.act(R.unit, vec) == vec
    assert act.act(R.basis_element(1), vec) == (q.zero, q.zero)
    assert check_module_action(R, act).ok


def test_tensor_action_unit_defaults_to_identity(q):
    R = make_monomial_quotient(("x",), ("x^2",), q)
    act = tensor_action(R, 1, {})
    assert act.tensor[0][0] == (q.one,)
    assert act.tensor[1][0] == (q.zero,)
    assert check_module_action(R, act).ok


def test_bad_tensor_action_witness(q):
    """x acting as the identity cannot be associative when x^2 = 0."""
    R = make_monomial_quotient(("x",), ("x^2",), q)
    act = tensor_action(R, 1, {(1, 0, 0): q.one})
    report = check_module_action(R, act)
    assert not report.ok
    w = report.witnesses[0]
    assert w["law"] == "action-associativity"
    assert w["triple"] == ["x", "x", "index 0"]


# ------------------------------------------------------- anchor and Leibniz

def test_anchor_hom_failure_frozen(q):
    """Two vector-field analogues with [E1, E2] = E2 forced onto an
    abelian Lie algebra: the bracket of anchors does not vanish."""
    R = make_monomial_quotient(("x",), ("x^3",), q)
    E1 = Derivation.from_variable_images(R, {"x": R.basis_element(1)})
    E2 = Derivation.from_variable_images(R, {"x": R.basis_element(2)})
    L = lie_algebra_from_brackets(q, ("b1", "b2"), {})
    chi = oracles.natural_character(R)
    data = oracles.candidate_data(R, L, Anchor((E1, E2)), chi)
    report = check_anchor_lie_hom(data)
    assert not report.ok
    w = report.witnesses[0]
    assert w["pair"] == ["b1", "b2"]
    assert w["difference-matrix"] == [["0", "0", "0"],
                                      ["0", "0", "0"],
                                      ["0", "-1", "0"]]


def test_anchor_hom_passes_for_matching_bracket(q):
    R = make_monomial_quotient(("x",), ("x^3",), q)
    E1 = Derivation.from_variable_images(R, {"x": R.basis_element(1)})
    E2 = Derivation.from_variable_images(R, {"x": R.basis_element(2)})
    L = lie_algebra_from_brackets(q, ("b1", "b2"),
                                  {(0, 1): (q.zero, q.one)})
    assert check_lie_algebra(L).ok
    chi = oracles.natural_character(R)
    data = oracles.candidate_data(R, L, Anchor((E1, E2)), chi)
    assert check_anchor_lie_hom(data).ok


def test_anchor_hom_reads_both_orders_of_a_non_antisymmetric_table(q):
    """[E1, E2] = E2 for E1: x -> x and E2: x -> x^2 on K[x]/(x^3).  A
    table with [b1, b2] = b2 but [b2, b1] = 0, not -b2, passes at the
    pair (b1, b2) and is reported at (b2, b1): the bracket side is read
    for every ordered pair, since an invalid table need not be
    antisymmetric."""
    R = make_monomial_quotient(("x",), ("x^3",), q)
    E1, E2 = (Derivation.from_variable_images(R, {"x": R.basis_element(k)})
              for k in (1, 2))
    L = lie_algebra_from_brackets(q, ("b1", "b2"), {
        (0, 1): (q.zero, q.one), (1, 0): (q.zero, q.zero)})
    data = oracles.candidate_data(R, L, Anchor((E1, E2)),
                                  oracles.natural_character(R))
    report = check_anchor_lie_hom(data)
    assert report.to_dict() == \
        oracles.dense_check_anchor_lie_hom(data).to_dict()
    w = report.witnesses[0]
    assert w["pair"] == ["b2", "b1"]
    assert w["difference-matrix"] == [["0", "0", "0"],
                                      ["0", "0", "0"],
                                      ["0", "1", "0"]]


def test_anchor_work_counts_the_products_of_the_anchor_checks(q,
                                                              monkeypatch):
    """On structures whose anchor checks pass, so run to the end,
    anchor_work is one step per basis pair of each derivation check and
    per Lie basis pair and column of the homomorphism check, plus exactly
    the term products the checks multiply out: [E1, E2] = E2 on
    K[x]/(x^3), four equal dense anchors on K[x]/(x^12) and random valid
    structures over Q and GF(3)."""
    products = []

    def counted(reduce, *terms):
        products.append(sum(len(rows[t]) for coeffs, rows in terms
                            for t in coeffs))
        return combine_rows(reduce, *terms)

    combine_rows = finalg.combine_rows
    monkeypatch.setattr(finalg, "combine_rows", counted)
    monkeypatch.setattr(lierinehart, "combine_rows", counted)
    R = make_monomial_quotient(("x",), ("x^3",), q)
    E1, E2 = (Derivation.from_variable_images(R, {"x": R.basis_element(k)})
              for k in (1, 2))
    L = lie_algebra_from_brackets(q, ("b1", "b2"), {(0, 1): (q.zero, q.one)})
    cases = [oracles.candidate_data(R, L, Anchor((E1, E2)),
                                    oracles.natural_character(R))]
    R = make_monomial_quotient(("x",), ("x^12",), q)
    dense = Derivation.from_variable_images(R, {"x": R.element(
        (q.zero,) + (q.one,) * 11)})
    L = lie_algebra_from_brackets(q, ("a", "b", "c", "d"), {})
    cases.append(oracles.candidate_data(R, L, Anchor((dense,) * 4),
                                        oracles.natural_character(R)))
    rng = random.Random("anchor-work")
    cases += [oracles.random_valid_structure(rng, fld)
              for fld in (q, Field(3)) for _ in range(20)]
    for data in cases:
        R, L, anchor = data.R, data.L, data.anchor
        products.clear()
        assert all(check_derivation(R, d.matrix).ok
                   for d in anchor.derivations)
        assert check_anchor_lie_hom(data).ok
        steps = L.dim * R.dim ** 2 + L.dim ** 2 * R.dim
        assert anchor_work(R, L, anchor) == steps + sum(products)
        assert anchor_work(R, L, anchor) <= anchor_work_bound(R.dim, L.dim)


def test_anchor_work_bound_is_the_work_of_full_tables(q):
    """Structure constants, anchor matrices and brackets with every entry
    nonzero reach anchor_work_bound, which check_anchor_size reads to skip
    the count; valid or not, these tables are only counted here."""
    for n, m in ((1, 1), (2, 3), (4, 2), (5, 4)):
        labels = ["1"] + [f"e{k}" for k in range(1, n)]
        R = algebra_from_constants(q, labels, {
            (i, j, k): q.one for i in range(n) for j in range(n)
            for k in range(n)})
        full = Derivation(R, tuple((q.one,) * n for _ in range(n)))
        L = lie_algebra_from_brackets(q, [f"b{a}" for a in range(m)], {
            (a, b): (q.one,) * m for a in range(m) for b in range(m)})
        assert anchor_work(R, L, Anchor((full,) * m)) == \
            anchor_work_bound(n, m)


def test_r_linearity_failure_frozen(q):
    """Euler operator on K[x]/(x^3) against the evaluation character:
    x.a acts as chi(x) = 0 but x * rho(a) multiplies by x, caught at
    the triple (x, a, x).  The Leibniz rule alone still holds, so the
    two checks are genuinely independent."""
    R = make_monomial_quotient(("x",), ("x^3",), q)
    E = Derivation.from_variable_images(R, {"x": R.basis_element(1)})
    chi = oracles.natural_character(R)
    L = lie_algebra_from_brackets(q, ("a",), {})
    data = oracles.candidate_data(R, L, Anchor((E,)), chi)
    report = check_anchor_r_linear(data)
    assert not report.ok
    w = report.witnesses[0]
    assert w["triple"] == ["x", "a", "x"]
    assert w["lhs"] == "0"
    assert w["rhs"] == "x^2"
    assert check_leibniz(data).ok


def test_leibniz_failure_frozen():
    """D(x) = 1 is a derivation of GF(2)[x]/(x^2), but its image escapes
    ker(chi) and the Leibniz rule breaks at (x, a, a)."""
    g = Field(2)
    R = make_monomial_quotient(("x",), ("x^2",), g)
    D = Derivation.from_variable_images(R, {"x": R.unit})
    chi = oracles.natural_character(R)
    L = lie_algebra_from_brackets(g, ("a",), {})
    data = oracles.candidate_data(R, L, Anchor((D,)), chi)
    report = check_leibniz(data)
    assert not report.ok
    w = report.witnesses[0]
    assert w["triple"] == ["x", "a", "a"]
    assert w["lhs"] == "0"
    assert w["rhs"] == "a"
    crit = character_criterion(R, L, data.anchor, chi)
    assert not crit.ok
    conditions = [wit["condition"] for wit in crit.witnesses]
    assert conditions == ["r-linearity", "anchor-into-kernel"]
    assert crit.witnesses[0]["triple"] == ["x", "a", "x"]
    assert crit.witnesses[1]["pair"] == ["a", "x"]
    assert crit.witnesses[1]["value"] == "1"


def test_criterion_on_valid_example(obstructed):
    R, L, anchor, chi, data, system = obstructed
    report = character_criterion(R, L, anchor, chi)
    assert report.ok
    assert check_leibniz(data).ok
    assert check_anchor_r_linear(data).ok


def test_criterion_equals_conjunction_randomly(q):
    """The two-condition criterion must agree with running the raw
    Leibniz and R-linearity checks, across a spread of random anchors
    and quotient bases."""
    rng = random.Random(40)
    passes = fails = 0
    for _ in range(120):
        made = oracles.random_character_candidate(rng, q)
        if made is None:
            continue
        R, L, anchor, chi = made
        data = oracles.candidate_data(R, L, anchor, chi)
        crit = character_criterion(R, L, anchor, chi)
        direct = check_leibniz(data).ok and check_anchor_r_linear(data).ok
        assert crit.ok == direct
        if crit.ok:
            passes += 1
        else:
            fails += 1
    assert passes > 0 and fails > 0


def test_leibniz_on_non_basis_elements(q):
    """The mixed rule is multilinear, so basis verification extends to
    arbitrary elements; spot-check that on random inputs."""
    rng = random.Random(41)
    R = make_monomial_quotient(("x", "y"), ("x*y", "x^2", "y^2"), q)
    chi = oracles.natural_character(R)
    E = Derivation.from_variable_images(
        R, {"x": R.basis_element(2), "y": R.zero})
    L = lie_algebra_from_brackets(q, ("a",), {})
    data = oracles.candidate_data(R, L, Anchor((E,)), chi)
    assert check_leibniz(data).ok
    action = data.action
    for _ in range(30):
        r = oracles.random_element(rng, R)
        u = (q.scalar(rng.randint(-3, 3)),)
        v = (q.scalar(rng.randint(-3, 3)),)
        lhs = L.bracket(u, action.act(r, v))
        correction = Derivation.from_columns(
            R, data.anchor.columns_of(finalg.sparse_row(u))).apply(r)
        rhs = tuple(
            a + b for a, b in zip(
                action.act(r, L.bracket(u, v)),
                action.act(correction, v)))
        assert lhs == rhs


# --------------------------------------------------------------- assembly

def test_make_character_module_validates(obstructed):
    R, L, anchor, chi, data, system = obstructed
    assert data.validated
    reports = validate_lie_rinehart(data)
    assert all(rep.ok for rep in reports)
    names = [rep.name for rep in reports]
    assert "algebra-axioms" in names
    assert "lie-algebra" in names
    assert "anchor-lie-homomorphism" in names
    assert "leibniz-compatibility" in names


def test_make_character_module_refuses_bad_candidate():
    g = Field(2)
    R = make_monomial_quotient(("x",), ("x^2",), g)
    D = Derivation.from_variable_images(R, {"x": R.unit})
    chi = oracles.natural_character(R)
    L = lie_algebra_from_brackets(g, ("a",), {})
    with pytest.raises(ConstructionRefusedError) as err:
        make_character_module(R, L, Anchor((D,)), chi)
    assert err.value.report is not None
    assert err.value.report.name == "character-criterion"
    assert not err.value.report.ok


@pytest.mark.parametrize("broken, message, report", [
    ("character", "component check 'character' failed", "character"),
    ("anchor", "anchor image of a is not a derivation", "derivation"),
])
def test_make_character_module_refuses_each_failed_check(q, broken, message,
                                                          report):
    """K[x]/(x^2) with the Euler anchor x -> x and chi(x) = 0 is valid.
    chi(x) = 1 is not multiplicative, and x -> 1 is no derivation over Q:
    each is refused with the report of the check that failed."""
    R = make_monomial_quotient(("x",), ("x^2",), q)
    L = lie_algebra_from_brackets(q, ("a",), {})
    image = R.unit if broken == "anchor" else R.basis_element(1)
    anchor = Anchor((Derivation.from_variable_images(R, {"x": image}),))
    chi = Character.from_variable_values(
        R, {"x": q.one if broken == "character" else q.zero})
    with pytest.raises(ConstructionRefusedError, match=message) as err:
        make_character_module(R, L, anchor, chi)
    assert err.value.report.name == report
    assert not err.value.report.ok


def test_character_criterion_refuses_values_over_another_field(obstructed):
    """The obstructed example's character written over GF(5) is refused
    by the criterion and by the constructor, not passed as a Q
    character."""
    R, L, anchor, chi, _, _ = obstructed
    foreign = Character(R, tuple(Field(5).scalar(int(v.value))
                                 for v in chi.values))
    with pytest.raises(FieldMismatchError, match="GF\\(5\\) used in Q"):
        character_criterion(R, L, anchor, foreign)
    with pytest.raises(FieldMismatchError, match="GF\\(5\\) used in Q"):
        make_character_module(R, L, anchor, foreign)


@pytest.mark.parametrize("count", [1, 2, 4])
def test_character_criterion_refuses_a_character_of_another_length(
        obstructed, count):
    """A character with fewer or more values than R.dim is refused, where
    fewer used to end in IndexError inside the criterion."""
    R, L, anchor, chi, _, _ = obstructed
    values = (chi.values + (R.field.zero,))[:count]
    with pytest.raises(LrhInputError, match="wrong length"):
        character_criterion(R, L, anchor, Character(R, values))


def test_character_criterion_refuses_a_character_of_another_algebra(
        obstructed, euler):
    """The Euler example's character lives on K[x]/(x^2), not on the
    obstructed example's base algebra: it is refused, where it used to
    end in IndexError."""
    R, L, anchor, _, _, _ = obstructed
    with pytest.raises(AlgebraMismatchError, match="different base algebra"):
        character_criterion(R, L, anchor, euler[3])


def test_make_character_module_refuses_a_foreign_anchor(obstructed, q):
    """x -> x on K[x]/(x^3) has a matrix that passes Leibniz on the
    obstructed example's base algebra; as an anchor there it is refused
    by the derivation check, before the anchor's shape is compared."""
    R, L, _, chi, _, _ = obstructed
    cubic = make_monomial_quotient(("x",), ("x^3",), q)
    foreign = Derivation.from_variable_images(
        cubic, {"x": cubic.basis_element(1)})
    with pytest.raises(AlgebraMismatchError,
                       match="derivation is over a different algebra"):
        make_character_module(R, L, Anchor((foreign,)), chi)


def test_classical_case_has_trivial_criterion(classical):
    data = classical(("b1", "b2"), {})
    assert data.validated
    assert data.R.dim == 1
    reports = validate_lie_rinehart(data)
    assert all(rep.ok for rep in reports)


# ------------------------------------------------- against the dense checks

@pytest.mark.parametrize("fld", [Field(0), Field(2), Field(3), Field(7)],
                         ids=str)
def test_reports_match_the_dense_reference_checks(fld):
    """Every report of validate_lie_rinehart and character_criterion,
    witnesses included, equals the dense Scalar reference's, on random
    valid structures and on copies with one table entry broken."""
    rng = random.Random(f"dense-reference/{fld}")
    broken_failures = 0
    for _ in range(50):
        valid = oracles.random_valid_structure(rng, fld)
        for data in (valid, oracles.break_one_entry(rng, valid)):
            reports = validate_lie_rinehart(data)
            assert [r.to_dict() for r in reports] == \
                [r.to_dict() for r in oracles.dense_validate(data)]
            chi = data.action.character or oracles.natural_character(data.R)
            args = (data.R, data.L, data.anchor, chi)
            assert character_criterion(*args).to_dict() == \
                oracles.dense_character_criterion(*args).to_dict()
            if data is valid:
                assert all(r.ok for r in reports)
            else:
                broken_failures += not all(r.ok for r in reports)
    assert broken_failures >= 25


def test_checks_combine_no_tuple_whose_rows_are_all_empty(monkeypatch):
    """validate_lie_rinehart and character_criterion never call
    combine_rows with only empty coefficient rows, whose sum is {}: on
    both presets, the sl2 and criterion-fails files and random valid
    structures over Q and GF(3), each with a copy with one entry broken.
    Every report still equals the dense reference's."""
    data_dir = Path(__file__).parent / "data"
    valid = [parse_problem(source) for source in (
        *sorted(PRESETS), str(data_dir / "sl2.lrh"),
        str(data_dir / "criterion-fails.lrh"))]
    rng = random.Random("all-empty-rows")
    valid += [oracles.random_valid_structure(rng, fld)
              for fld in (Field(0), Field(3)) for _ in range(30)]
    cases = [(data, oracles.break_one_entry(rng, data)) for data in valid]
    calls = []

    def recorded(reduce, *terms):
        calls.append(any(coeffs for coeffs, _ in terms))
        return combine_rows(reduce, *terms)

    combine_rows = finalg.combine_rows
    monkeypatch.setattr(finalg, "combine_rows", recorded)
    monkeypatch.setattr(lierinehart, "combine_rows", recorded)
    failures = 0
    for pair in cases:
        for data in pair:
            reports = validate_lie_rinehart(data)
            assert [r.to_dict() for r in reports] == \
                [r.to_dict() for r in oracles.dense_validate(data)]
            chi = data.action.character or oracles.natural_character(data.R)
            args = (data.R, data.L, data.anchor, chi)
            criterion = character_criterion(*args)
            assert criterion.to_dict() == \
                oracles.dense_character_criterion(*args).to_dict()
            failures += not (criterion.ok and all(r.ok for r in reports))
    assert calls and all(calls)
    assert failures >= 60


# ------------------------------------------------------ kernel-form rows

def _rows(data):
    """Every sparse raw row the checks read, each with its Scalar vector."""
    R, L, action = data.R, data.L, data.action
    pairs = [(R.sparse_table, R.mul_table), (L.sparse_table, L.table),
             (action.sparse_tensor, action.tensor)]
    pairs += [((d.sparse_columns,), (tuple(zip(*d.matrix)),))
              for d in data.anchor.derivations]
    return [(row, vec) for rows, vecs in pairs
            for row, vec in zip(chain.from_iterable(rows),
                                chain.from_iterable(vecs))]


def test_sparse_rows_hold_integral_rationals_as_ints(q):
    """Over Q the cached rows hold an integral value as an int and any
    other value as a Fraction, equal to the Scalar it comes from: on a
    structure with fractional constants in every table, and on random
    valid structures and copies with one entry broken (by 1/2 at times)."""
    R = make_monomial_quotient(("x",), ("x^3",), q)
    D = Derivation.from_variable_images(R, {"x": R.element(
        (q.zero, q.parse("1/2"), q.scalar(3)))})
    L = lie_algebra_from_brackets(q, ("a", "b"), {
        (0, 1): (q.parse("2/3"), q.scalar(2))})
    action = tensor_action(R, 2, {(1, 0, 1): q.parse("1/2"),
                                  (2, 1, 0): q.scalar(-4)})
    cases = [LieRinehartData(R=R, L=L, action=action, anchor=Anchor((D, D)))]
    rng = random.Random("kernel-rows")
    for _ in range(30):
        valid = oracles.random_valid_structure(rng, q)
        cases += [valid, oracles.break_one_entry(rng, valid)]
    kinds = set()
    for data in cases:
        for row, vec in _rows(data):
            assert row == {k: c.value for k, c in enumerate(vec) if c}
            for v in row.values():
                assert type(v) is (int if v.denominator == 1 else Fraction)
                kinds.add(type(v))
    assert kinds == {int, Fraction}


def test_failing_reports_render_scalars_holding_fractions(q, monkeypatch):
    """The rows hold ints, but every Scalar rendered into a failing
    report's witness holds a Fraction, as every Scalar over Q does: on
    random valid structures with one entry broken, through
    validate_lie_rinehart and character_criterion."""
    rendered = []
    original = Scalar.__str__

    def recording(self):
        rendered.append(type(self.value))
        return original(self)

    monkeypatch.setattr(Scalar, "__str__", recording)
    rng = random.Random("fraction-witnesses")
    failures = 0
    for _ in range(60):
        data = oracles.break_one_entry(
            rng, oracles.random_valid_structure(rng, q))
        chi = data.action.character or oracles.natural_character(data.R)
        reports = validate_lie_rinehart(data)
        reports.append(character_criterion(data.R, data.L, data.anchor, chi))
        failures += sum(not r.ok for r in reports)
    assert failures >= 30 and rendered
    assert set(rendered) == {Fraction}


def test_validation_reads_the_cached_derivation_columns(obstructed,
                                                        monkeypatch):
    """validate_lie_rinehart and make_character_module check each anchor
    derivation on the sparse columns it has cached: once every table is
    cached, no sparse row is built again."""
    R, L, anchor, chi, data, _ = obstructed
    first = [r.to_dict() for r in validate_lie_rinehart(data)]
    built = []
    sparse_row = finalg.sparse_row
    monkeypatch.setattr(finalg, "sparse_row",
                        lambda vec: built.append(vec) or sparse_row(vec))
    assert [r.to_dict() for r in validate_lie_rinehart(data)] == first
    assert make_character_module(R, L, anchor, chi).validated
    assert built == []


def test_given_anchor_columns_are_kept_in_kernel_form(q, monkeypatch):
    """Derivation.from_columns keeps the columns it is given as its
    sparse_columns: each value in kernel form (an integral Fraction over
    Q is an int), zeros dropped, keys ascending.  Anchors built through
    from_variable_images and from_columns are checked by
    validate_lie_rinehart with no sparse row built but that of the
    variable image, and every report equals the dense reference's."""
    R = make_monomial_quotient(("x",), ("x^4",), q)
    L = lie_algebra_from_brackets(q, ("a", "b"), {})
    action = character_action(oracles.natural_character(R), 2)
    tables = (R.sparse_table, L.sparse_table, action.sparse_tensor)
    half = R.element((q.zero, q.parse("1/2"), q.zero, q.zero))
    built = []
    sparse_row = finalg.sparse_row
    monkeypatch.setattr(finalg, "sparse_row",
                        lambda vec: built.append(vec) or sparse_row(vec))
    # x -> x/2: D(x^2) = 2x * x/2 sums to the integral Fraction 1
    D = Derivation.from_variable_images(R, {"x": half})
    # x -> x^2 + x^3, its columns given with keys descending, an integral
    # Fraction and zeros
    E = Derivation.from_columns(R, [{}, {3: Fraction(1), 2: 1, 0: 0},
                                    {3: Fraction(4, 2)}, {1: Fraction(0)}])
    data = LieRinehartData(R=R, L=L, action=action, anchor=Anchor((D, E)))
    reports = validate_lie_rinehart(data)
    assert built == [half.coeffs]
    assert tables == (R.sparse_table, L.sparse_table, action.sparse_tensor)
    assert [r.to_dict() for r in reports] == \
        [r.to_dict() for r in oracles.dense_validate(data)]
    assert E.sparse_columns == ({}, {2: 1, 3: 1}, {3: 2}, {})
    for d in (D, E):
        for col, vec in zip(d.sparse_columns, zip(*d.matrix)):
            assert list(col) == sorted(col)
            assert col == {k: c.value for k, c in enumerate(vec) if c}
            for v in col.values():
                assert v and type(v) is (int if v.denominator == 1
                                         else Fraction)


@pytest.mark.parametrize("fld", [Field(0), Field(2), Field(3)], ids=str)
def test_criterion_condition_a_is_the_r_linearity_check(fld):
    """Condition (a) of character_criterion is check_anchor_r_linear on
    the character action: on seeded random valid structures and copies
    with one entry broken, (a) fails exactly when that check does, its
    witness that check's first one with "condition": "r-linearity" as
    first key, and its narrative line stands exactly when it passes."""
    rng = random.Random(f"criterion-r-linearity/{fld}")
    held = "(a) anchor is R-linear for the character action"
    failures = 0
    for _ in range(100):
        valid = oracles.random_valid_structure(rng, fld)
        for data in (valid, oracles.break_one_entry(rng, valid)):
            chi = data.action.character or oracles.natural_character(data.R)
            args = (data.R, data.L, data.anchor, chi)
            linear = check_anchor_r_linear(oracles.candidate_data(*args))
            criterion = character_criterion(*args)
            found = [w for w in criterion.witnesses
                     if w["condition"] == "r-linearity"]
            if linear.ok:
                assert found == [] and held in criterion.narrative
            else:
                assert criterion.witnesses[0] == {
                    "condition": "r-linearity", **linear.witnesses[0]}
                assert next(iter(criterion.witnesses[0])) == "condition"
                assert held not in criterion.narrative
                failures += 1
    assert failures >= 10
