"""Field arithmetic and the certified linear solver."""

import random
import time
from fractions import Fraction

import pytest

from lrhopf import (
    Field,
    FieldMismatchError,
    LinearSystem,
    LrhInputError,
    solve_linear,
    solve_partial,
    validate_lie_rinehart,
    verify_certificate,
    verify_witness,
)

from lrhopf.problemfile import (
    parse_problem,
    parse_problem_text,
    render_problem,
)

from lrhopf.scalars import (MAX_CHARACTERISTIC, MAX_SOLVE_CELLS,
                            check_solve_size)

import oracles


def test_field_kinds():
    assert Field(0).kind == "rationals"
    assert Field(7).kind == "prime-field"
    assert str(Field(0)) == "Q"
    assert str(Field(5)) == "GF(5)"


@pytest.mark.parametrize("p", [0, 7])
def test_zero_and_one_are_shared(p):
    f = Field(p)
    assert f.one is f.one
    assert f.zero is f.zero
    assert f.zero.value == 0 and f.one.value == 1
    # the cache is invisible to equality, hashing and repr
    g = Field(p)
    assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
    assert f != Field(2) and {f: 1}[g] == 1


@pytest.mark.parametrize("bad", [1, 4, 6, 9, 15, -3])
def test_nonprime_characteristic_rejected(bad):
    with pytest.raises(LrhInputError):
        Field(bad)


def test_characteristic_over_the_limit_is_refused_at_once():
    """Primality is decided by trial division, which on a 31-digit prime
    ran past 5 s; characteristics over 2^32 are refused before it."""
    big_prime = 4294967291  # the largest prime under 2^32
    assert Field(big_prime).characteristic == big_prime
    for p in (2 ** 32 + 15, 10 ** 30 + 57):  # both prime
        start = time.perf_counter()
        with pytest.raises(LrhInputError, match="MAX_CHARACTERISTIC"):
            Field(p)
        assert time.perf_counter() - start < 0.5
    assert MAX_CHARACTERISTIC == 2 ** 32


@pytest.mark.parametrize("p", [0, 7])
def test_overlong_literals_are_refused(p):
    """More digits than int() reads from text raised a bare ValueError."""
    for text in ("9" * 5000, "-" + "1" * 5000, "1/" + "3" * 5000):
        with pytest.raises(FieldMismatchError):
            Field(p).parse(text)


def test_rational_arithmetic():
    q = Field(0)
    a = q.scalar(Fraction(1, 2))
    b = q.scalar(3)
    assert str(a + b) == "7/2"
    assert str(a * b) == "3/2"
    assert str(a - b) == "-5/2"
    assert str(a / b) == "1/6"
    assert str(-a) == "-1/2"
    assert not q.zero
    assert q.one


def test_prime_field_arithmetic():
    g = Field(5)
    a, b = g.scalar(3), g.scalar(4)
    assert (a + b).value == 2
    assert (a * b).value == 2
    assert (a - b).value == 4
    assert (a / b).value == (3 * 4) % 5  # 4^{-1} = 4 mod 5
    assert a.inverse().value == 2


@pytest.mark.parametrize("p", [0, 2, 3, 7])
def test_operators_return_canonical_raw_values(p):
    """Every operator, on Scalars and on mixed int operands, gives a
    Fraction over Q and an int in [0, p) over GF(p)."""
    f = Field(p)
    values = [f.scalar(v) for v in (-7, -1, 0, 1, 2, 5, 12)]
    values += [f.parse("-3"), f.parse("11"), f.zero, f.one]
    if p == 0:
        values += [f.scalar(Fraction(-5, 6)), f.parse("4/6")]
    results = list(values)
    for a in values:
        results += [-a, a + 3, 3 + a, a - 3, 3 - a, a * -4, -4 * a]
        for b in values:
            results += [a + b, a - b, a * b] + ([a / b] if b else [])
        if a:
            results.append(a.inverse())
    for r in results:
        assert r.field == f
        if p == 0:
            assert type(r.value) is Fraction
        else:
            assert type(r.value) is int and 0 <= r.value < p


@pytest.mark.parametrize("p", [0, 2, 3, 7])
def test_field_raw_operations(p):
    """reduce canonicalises raw results; inverse inverts nonzero ones."""
    f = Field(p)
    raws = [Fraction(-5, 6), Fraction(7), Fraction(1, 3)] if p == 0 \
        else list(range(1, p))
    for v in raws:
        assert f.reduce(v * f.inverse(v)) == f.one.value
    if p:
        assert [f.reduce(v) for v in (-1, p, 2 * p + 1)] == [p - 1, 0, 1]
    else:
        assert f.reduce(Fraction(-4, 6)) == Fraction(-2, 3)


def test_rational_inverse_is_exact_on_ints():
    """Over Q the kernel holds integral values as ints; inverting one
    gives the exact Fraction, never a float."""
    q = Field(0)
    for v, want in ((3, Fraction(1, 3)), (-4, Fraction(-1, 4)),
                    (1, Fraction(1)), (Fraction(-5, 6), Fraction(-6, 5))):
        got = q.inverse(v)
        assert type(got) is Fraction and got == want


def test_kernel_form_round_trips():
    """Field.kernel turns an integral rational into an int and leaves the
    rest; Field.wrap gives back a Scalar holding a Fraction."""
    q, gf7 = Field(0), Field(7)
    assert type(q.kernel(Fraction(6, 3))) is int
    assert q.kernel(Fraction(1, 2)) == Fraction(1, 2)
    assert type(gf7.kernel(5)) is int and gf7.kernel(5) == 5
    for v in (0, 2, -7, Fraction(1, 2)):
        s = q.wrap(q.kernel(Fraction(v)))
        assert type(s.value) is Fraction and s == q.scalar(v)
    assert gf7.wrap(3) == gf7.scalar(3)


def test_oversized_systems_are_refused_before_elimination():
    """rows x cols over MAX_SOLVE_CELLS is refused before any row is
    built; the two-term U(sl2) system at degree 14 and every one-generator
    extension system that MAX_CHECK_WORK admits are within the limit."""
    q = Field(0)
    too_big = LinearSystem(rows=1000, cols=MAX_SOLVE_CELLS // 1000 + 1,
                           entries=(), rhs=(q.zero,) * 1000, field=q)
    start = time.perf_counter()
    with pytest.raises(LrhInputError, match="MAX_SOLVE_CELLS"):
        solve_linear(too_big)
    assert time.perf_counter() - start < 0.5
    check_solve_size(816, 680)
    check_solve_size(114 * 114, 114)
    with pytest.raises(LrhInputError, match="MAX_SOLVE_CELLS"):
        check_solve_size(MAX_SOLVE_CELLS + 1, 1)


def test_mixed_fields_refused():
    with pytest.raises(FieldMismatchError):
        Field(0).scalar(1) + Field(3).scalar(1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Field(0).one / Field(0).zero
    with pytest.raises(ZeroDivisionError):
        Field(3).one / Field(3).zero


def test_parse_literals():
    q = Field(0)
    assert q.parse("-3/4").value == Fraction(-3, 4)
    assert q.parse(" 7 ").value == 7
    g = Field(2)
    assert g.parse("5").value == 1
    with pytest.raises(FieldMismatchError):
        g.parse("1/2")
    with pytest.raises(FieldMismatchError):
        q.parse("x")
    with pytest.raises(FieldMismatchError):
        q.parse("1.5")
    # A literal with no "/" is read through int(), and gives the value
    # Fraction(text) gives over Q (as a Fraction) and int(text) over
    # GF(7), or the refusal it gave before.  An Arabic-Indic three is a
    # digit to the grammar, int() and Fraction() alike.
    g7 = Field(7)
    for text in ("0", "-0", "+7", "007", "3/06", "-1/2", "1/0", "1e3", "½",
                 "\u0663", "7" * 4300):
        if text in ("1/0", "1e3", "½"):
            with pytest.raises(FieldMismatchError, match="bad rational"):
                q.parse(text)
        else:
            value = q.parse(text).value
            assert type(value) is Fraction and value == Fraction(text)
        if "/" in text:
            with pytest.raises(FieldMismatchError, match="fractions are not"):
                g7.parse(text)
        elif text in ("1e3", "½"):
            with pytest.raises(FieldMismatchError, match="bad GF"):
                g7.parse(text)
        else:
            assert g7.parse(text).value == int(text) % 7


def test_gf_fraction_scalar_refused():
    with pytest.raises(FieldMismatchError):
        Field(3).scalar(Fraction(1, 2))
    assert Field(3).scalar(Fraction(4, 1)).value == 1


@pytest.mark.parametrize("p", [0, 5])
def test_inexact_values_refused(p):
    """Floats and text are no field values: GF(5) used to store 2.5 as
    it came, and Q read it as 5/2."""
    for bad in (2.5, 1e-3, "1/2", None):
        with pytest.raises(FieldMismatchError):
            Field(p).scalar(bad)


def test_system_validation():
    q = Field(0)
    with pytest.raises(LrhInputError):
        LinearSystem(rows=1, cols=1, entries=((0, 1, q.one),),
                     rhs=(q.zero,), field=q)
    with pytest.raises(LrhInputError):
        LinearSystem(rows=1, cols=1,
                     entries=((0, 0, q.one), (0, 0, q.one)),
                     rhs=(q.zero,), field=q)
    with pytest.raises(LrhInputError):
        LinearSystem(rows=2, cols=1, entries=(), rhs=(q.zero,), field=q)


def test_contradictory_rows_certificate():
    """The two-row system a = 1, a = 0: infeasible, and the certificate
    is (a multiple of) the difference of the rows."""
    q = Field(0)
    system = LinearSystem(rows=2, cols=1,
                          entries=((0, 0, q.one), (1, 0, q.one)),
                          rhs=(q.one, q.zero), field=q)
    out = solve_linear(system)
    assert out.verdict == "infeasible"
    assert verify_certificate(system, out.certificate)
    u0, u1 = out.certificate
    assert u0 == -u1 and u0
    assert oracles.kills_columns(system, out.certificate)


def _random_system(rng, fld, rows, cols):
    entries = []
    for r in range(rows):
        for c in range(cols):
            v = rng.randint(-2, 2)
            if v:
                entries.append((r, c, fld.scalar(v)))
    rhs = tuple(fld.scalar(rng.randint(-2, 2)) for _ in range(rows))
    return LinearSystem(rows=rows, cols=cols, entries=tuple(entries),
                        rhs=rhs, field=fld)


def test_solver_matches_fraction_oracle():
    """120 random rational systems against an independent elimination
    with a different pivot order: verdicts, ranks, and evidence agree."""
    rng = random.Random(2024)
    q = Field(0)
    for _ in range(120):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        system = _random_system(rng, q, rows, cols)
        matrix, rhs = oracles.raw_matrix(system)
        expect_feasible, _, rank = oracles.frac_solve(matrix, rhs)
        out = solve_linear(system)
        assert out.feasible == expect_feasible
        if out.feasible:
            assert out.nullity == cols - rank
            assert len(out.nullspace) == out.nullity
            assert oracles.substitute(system, out.witness)
            assert verify_witness(system, out.witness)
            zero_rhs = LinearSystem(rows=rows, cols=cols,
                                    entries=system.entries,
                                    rhs=(q.zero,) * rows, field=q)
            for direction in out.nullspace:
                assert oracles.substitute(zero_rhs, direction)
        else:
            assert oracles.kills_columns(system, out.certificate)
            assert verify_certificate(system, out.certificate)


def test_solver_matches_exhaustive_gf_search():
    """Small GF(2) and GF(3) systems against brute-force enumeration of
    every candidate vector; solution counts pin down the nullity."""
    rng = random.Random(77)
    for p in (2, 3):
        fld = Field(p)
        for _ in range(60):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            system = _random_system(rng, fld, rows, cols)
            matrix, rhs = oracles.raw_matrix(system)
            expect_feasible, count = oracles.gf_exhaustive(matrix, rhs, p)
            out = solve_linear(system)
            assert out.feasible == expect_feasible
            if out.feasible:
                assert p ** out.nullity == count
                assert oracles.substitute(system, out.witness)
            else:
                assert oracles.kills_columns(system, out.certificate)


def test_verifiers_reject_wrong_evidence():
    q = Field(0)
    system = LinearSystem(rows=1, cols=1, entries=((0, 0, q.one),),
                          rhs=(q.one,), field=q)
    assert verify_witness(system, (q.one,))
    assert not verify_witness(system, (q.zero,))
    assert not verify_certificate(system, (q.one,))   # u.A != 0
    assert not verify_certificate(system, (q.zero,))  # u.b == 0


def test_verifiers_reject_evidence_of_the_wrong_length():
    """A certificate with an extra entry used to verify, one with an
    entry short raised IndexError, and a short witness verified when the
    missing column had no entries."""
    q = Field(0)
    contradictory = LinearSystem(rows=2, cols=1,
                                 entries=((0, 0, q.one), (1, 0, q.one)),
                                 rhs=(q.one, q.zero), field=q)
    assert verify_certificate(contradictory, (q.one, -q.one))
    assert not verify_certificate(contradictory, (q.one, -q.one, q.one))
    assert not verify_certificate(contradictory, (q.one,))
    wide = LinearSystem(rows=1, cols=2, entries=((0, 0, q.one),),
                        rhs=(q.one,), field=q)
    assert verify_witness(wide, (q.one, q.zero))
    assert not verify_witness(wide, (q.one,))
    assert not verify_witness(wide, (q.one, q.zero, q.zero))


def test_verifiers_refuse_evidence_over_another_field():
    """Evidence over GF(5) for a system over Q is refused up front, also
    where no system entry would meet it: a 1 x 2 system with no entries
    used to accept a GF(5) witness."""
    q, gf5 = Field(0), Field(5)
    empty = LinearSystem(rows=1, cols=2, entries=(), rhs=(q.zero,),
                         field=q)
    with pytest.raises(FieldMismatchError):
        verify_witness(empty, (gf5.one, gf5.zero))
    with pytest.raises(FieldMismatchError):
        verify_certificate(empty, (gf5.one,))
    system = LinearSystem(rows=2, cols=1,
                          entries=((0, 0, q.one), (1, 0, q.one)),
                          rhs=(q.one, q.zero), field=q)
    with pytest.raises(FieldMismatchError):
        verify_witness(system, (gf5.one,))
    with pytest.raises(FieldMismatchError):
        verify_certificate(system, (q.one, gf5.one))
    assert verify_certificate(system, (q.one, -q.one))


@pytest.mark.parametrize("p", [0, 2, 3])
def test_verifiers_agree_with_the_scalar_reference(p):
    """The replays on kernel values accept exactly the evidence that the
    former Scalar replays (oracles.reference_verify_*) accept: on the
    solver's evidence for seeded systems over Q, GF(2) and GF(3) up to
    8 x 8, on copies with one entry changed, and on evidence of the
    other kind.  Both verdicts occur for both replays."""
    fld = Field(p)
    rng = random.Random(f"verify-reference/{p}")
    seen = {"witness": set(), "certificate": set()}
    for _ in range(150):
        system = _reference_system(rng, fld, rng.randint(1, 8),
                                   rng.randint(1, 8))
        out = solve_linear(system)
        evidence = out.witness if out.feasible else out.certificate
        copies = [evidence]
        for _ in range(2):
            k = rng.randrange(len(evidence))
            delta = fld.scalar(rng.randint(1, p - 1) if p else
                               rng.choice((-1, 1, Fraction(1, 2))))
            copies.append(evidence[:k] + (evidence[k] + delta,)
                          + evidence[k + 1:])
        for x in copies + [tuple(fld.scalar(rng.randint(-2, 2))
                                 for _ in range(system.cols))]:
            verdict = verify_witness(system, x)
            assert verdict == oracles.reference_verify_witness(system, x)
            seen["witness"].add(verdict)
        for u in copies + [tuple(fld.scalar(rng.randint(-2, 2))
                                 for _ in range(system.rows))]:
            verdict = verify_certificate(system, u)
            assert verdict == oracles.reference_verify_certificate(system, u)
            seen["certificate"].add(verdict)
    assert seen == {"witness": {True, False}, "certificate": {True, False}}


def _reference_system(rng, fld, rows, cols):
    """Random system with a random density, some explicit zero entries
    and, half the time, a right-hand side in the column span."""
    density = rng.choice((0.15, 0.4, 0.8))
    entries = []
    raw = [[0] * cols for _ in range(rows)]
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                v = rng.randint(-3, 3)
                if fld.characteristic == 0 and rng.random() < 0.3:
                    v = Fraction(v, rng.randint(1, 3))
                raw[r][c] = v
                entries.append((r, c, fld.scalar(v)))
            elif rng.random() < 0.05:
                entries.append((r, c, fld.scalar(0)))
    if rng.random() < 0.5:
        x = [rng.randint(-2, 2) for _ in range(cols)]
        rhs = [sum(row[c] * x[c] for c in range(cols)) for row in raw]
    else:
        rhs = [rng.randint(-2, 2) for _ in range(rows)]
    return LinearSystem(rows=rows, cols=cols, entries=tuple(entries),
                        rhs=tuple(fld.scalar(v) for v in rhs), field=fld)


def test_solver_equals_dense_reference():
    """440 seeded systems over Q, GF(2), GF(3) and GF(7), square, wide
    and tall up to 12 x 12: the sparse solver's whole outcome (verdict,
    witness, nullity, nullspace, certificate) equals the former dense
    solver's, so the pivot rule and row operations are unchanged."""
    rng = random.Random(3141)
    verdicts = set()
    for p in (0, 2, 3, 7):
        fld = Field(p)
        for k in range(110):
            if k % 3 == 0:    # tall: rows >> cols
                rows, cols = rng.randint(8, 12), rng.randint(1, 3)
            elif k % 3 == 1:  # wide
                rows, cols = rng.randint(1, 4), rng.randint(6, 12)
            else:
                rows, cols = rng.randint(1, 12), rng.randint(1, 12)
            system = _reference_system(rng, fld, rows, cols)
            out = solve_linear(system)
            assert out == oracles.dense_solve(system)
            verdicts.add((p, out.verdict))
    assert len(verdicts) == 8  # both verdicts occur over every field


def _column_sparse_system(rng, fld, rows, cols):
    """A tall system whose columns hold one or two entries each, valued
    other than +-1 where the field has such values, and half the time a
    right-hand side A.x in the column span.  Most pivots are the only
    row holding their column, and a later pivot often clears such a
    row through another of its columns."""
    values = {0: (2, -3, Fraction(3, 2), Fraction(-5, 4)), 2: (1,),
              3: (1, 2), 7: (2, 3, 4, 5)}[fld.characteristic]
    raw = {}
    for c in range(cols):
        for r in rng.sample(range(rows), rng.choice((1, 1, 2))):
            raw[r, c] = rng.choice(values)
    if rng.random() < 0.5:
        x = [rng.choice((0, 1, 2)) for _ in range(cols)]
        rhs = [0] * rows
        for (r, c), v in raw.items():
            rhs[r] += v * x[c]
    else:
        rhs = [rng.choice((0, 0, 0, 1)) for _ in range(rows)]
    return LinearSystem(rows=rows, cols=cols,
                        entries=tuple((r, c, fld.scalar(v))
                                      for (r, c), v in raw.items()),
                        rhs=tuple(fld.scalar(v) for v in rhs), field=fld)


@pytest.mark.parametrize("p", [0, 2, 3, 7])
def test_column_sparse_systems_equal_dense_reference(p):
    """Seeded tall systems of 20 to 40 rows with one or two entries per
    column, like the systems of left_divide: a pivot that is its
    column's only holder is left unscaled, also over GF(p), where every
    pivot that clears is scaled to a leading one, and later pivots clear
    such rows.  The whole outcome equals the former dense solver's,
    which scales every pivot, and both verdicts occur."""
    fld = Field(p)
    rng = random.Random(f"column-sparse/{p}")
    verdicts = set()
    for _ in range(40):
        rows = rng.randint(20, 40)
        system = _column_sparse_system(rng, fld, rows,
                                       rng.randint(rows // 2, rows - 2))
        out = solve_linear(system)
        assert out == oracles.dense_solve(system)
        verdicts.add(out.verdict)
    assert verdicts == {"feasible", "infeasible"}


def _system_with_empty_columns(rng, fld, rows, cols):
    """A tall system in which about a third of the columns hold no entry,
    some of them an explicit zero, and the others one to four entries,
    and half the time a right-hand side A.x in the column span."""
    values = {0: (1, -1, 2, Fraction(3, 2)), 7: (1, 2, 3, 6)}[
        fld.characteristic]
    empty = set(rng.sample(range(cols), cols // 3))
    raw, entries = {}, []
    for c in range(cols):
        if c in empty:
            entries += [(r, c, fld.scalar(0)) for r in range(rows)
                        if rng.random() < 0.1]
            continue
        for r in rng.sample(range(rows), rng.randint(1, 4)):
            raw[r, c] = rng.choice(values)
            entries.append((r, c, fld.scalar(raw[r, c])))
    if rng.random() < 0.5:
        x = [rng.choice((0, 1, 2)) for _ in range(cols)]
        rhs = [0] * rows
        for (r, c), v in raw.items():
            rhs[r] += v * x[c]
    else:
        rhs = [rng.choice((0, 0, 1)) for _ in range(rows)]
    return LinearSystem(rows=rows, cols=cols, entries=tuple(entries),
                        rhs=tuple(fld.scalar(v) for v in rhs),
                        field=fld), empty


@pytest.mark.parametrize("p", [0, 7])
def test_empty_columns_equal_dense_reference(p):
    """Seeded tall systems of 12 to 30 rows, about a third of whose
    columns are empty and the others sparse, so that a column no row
    holds is passed over before any pivot search.  The whole outcome
    equals the former dense solver's, every empty column is free in a
    feasible answer, and both verdicts occur."""
    fld = Field(p)
    rng = random.Random(f"empty-columns/{p}")
    verdicts = set()
    for _ in range(40):
        rows = rng.randint(12, 30)
        system, empty = _system_with_empty_columns(
            rng, fld, rows, rng.randint(3, rows // 2))
        out = solve_linear(system)
        assert out == oracles.dense_solve(system)
        if out.feasible:
            assert out.nullity >= len(empty)
            assert all(out.witness[c] == fld.zero for c in empty)
        verdicts.add(out.verdict)
    assert verdicts == {"feasible", "infeasible"}


def _low_rank_system(rng, fld, rows, cols):
    """A `rows` x `cols` system whose augmented rows are integer
    combinations of a few base rows, a fifth of them with one entry moved
    by +-1, and over Q some entries divided by 2 or 3.  Rank is low, so
    elimination combines each pivot row into many others and clears most
    rows to zero, and a perturbed right-hand side leaves a zero row with
    a nonzero right-hand side."""
    base = [[rng.choice((0, 0, 0, 1, -1, 2, 3)) for _ in range(cols + 1)]
            for _ in range(rng.randint(1, min(rows, cols, 6)))]
    raw = []
    for _ in range(rows):
        row = [0] * (cols + 1)
        for vec in base:
            m = rng.randint(-3, 3)
            row = [x + m * v for x, v in zip(row, vec)]
        if rng.random() < 0.2:
            row[rng.randrange(cols + 1)] += rng.choice((1, -1))
        if not fld.characteristic:
            row = [Fraction(x, rng.randint(1, 3)) if rng.random() < 0.3
                   else x for x in row]
        raw.append(row)
    return LinearSystem(rows=rows, cols=cols,
                        entries=tuple((r, c, fld.scalar(raw[r][c]))
                                      for r in range(rows)
                                      for c in range(cols) if raw[r][c]),
                        rhs=tuple(fld.scalar(row[cols]) for row in raw),
                        field=fld)


@pytest.mark.parametrize("p", [0, 2, 3, 7])
def test_low_rank_systems_equal_dense_reference(p):
    """Seeded low-rank systems of up to 30 x 20, in which pivot rows are
    combined many times before a row cancels, so that an infeasible
    answer's certificate comes out of a long run of row operations.  The
    whole outcome equals the former dense solver's, which carries the
    certificate along as a dense block, every certificate passes
    verify_certificate, and both verdicts occur."""
    fld = Field(p)
    rng = random.Random(f"low-rank/{p}")
    verdicts = set()
    for _ in range(60):
        system = _low_rank_system(rng, fld, rng.randint(8, 30),
                                  rng.randint(4, 20))
        out = solve_linear(system)
        assert out == oracles.dense_solve(system)
        if not out.feasible:
            assert verify_certificate(system, out.certificate)
        verdicts.add(out.verdict)
    assert verdicts == {"feasible", "infeasible"}


def _row_kind_system(rng, kind, rows, cols):
    """A random system over Q whose entries are integers or hold
    fractions, and whose right-hand side is integral or fractional, as
    `kind` says; half the time the right-hand side is A.x for a random x,
    integral when both entries and right-hand side are."""
    q = Field(0)
    fractional_rows, fractional_rhs = {
        "integral rows, fractional rhs": (False, True),
        "fractional rows, integral rhs": (True, False),
        "integral rows and rhs": (False, False)}[kind]
    raw = [[0] * cols for _ in range(rows)]
    entries = []
    for r in range(rows):
        for c in range(cols):
            if rng.random() < 0.5:
                v = rng.randint(-3, 3)
                if fractional_rows and rng.random() < 0.5:
                    v = Fraction(v, rng.randint(2, 4))
                raw[r][c] = v
                entries.append((r, c, q.scalar(v)))
    if rng.random() < 0.5 and fractional_rows == fractional_rhs:
        x = [Fraction(rng.randint(-2, 2), rng.randint(2, 3))
             if fractional_rhs else rng.randint(-2, 2) for _ in range(cols)]
        rhs = [sum(row[c] * x[c] for c in range(cols)) for row in raw]
    else:
        rhs = [Fraction(rng.randint(-3, 3), rng.randint(2, 5))
               if fractional_rhs else rng.randint(-3, 3) for _ in range(rows)]
    return LinearSystem(rows=rows, cols=cols, entries=tuple(entries),
                        rhs=tuple(q.scalar(v) for v in rhs), field=q)


@pytest.mark.parametrize("kind", ["integral rows, fractional rhs",
                                  "fractional rows, integral rhs",
                                  "integral rows and rhs"])
def test_rational_row_kinds_equal_dense_reference(kind):
    """Over Q only a row that holds a non-integral value, in its entries
    or its right-hand side, is scaled to integers, and a pivot is
    inverted only for the evidence that needs it.  Seeded systems of each
    kind, square, wide and tall: the whole outcome equals the former
    dense solver's, both verdicts occur, and every Scalar of the evidence
    holds a Fraction."""
    rng = random.Random(f"row-kinds/{kind}")
    verdicts = set()
    for k in range(90):
        rows, cols = ((rng.randint(6, 10), rng.randint(1, 3)),
                      (rng.randint(1, 3), rng.randint(4, 9)),
                      (rng.randint(1, 8), rng.randint(1, 8)))[k % 3]
        system = _row_kind_system(rng, kind, rows, cols)
        out = solve_linear(system)
        assert out == oracles.dense_solve(system)
        evidence = (out.witness, *out.nullspace) if out.feasible \
            else (out.certificate,)
        assert all(type(s.value) is Fraction
                   for vec in evidence for s in vec)
        verdicts.add(out.verdict)
    assert verdicts == {"feasible", "infeasible"}


def test_fractional_rhs_on_an_integral_row():
    """2x = 3/2 takes no scaling of its integral row: the witness is 3/4,
    a Fraction like every Scalar over Q."""
    q = Field(0)
    system = LinearSystem(rows=2, cols=1, entries=((0, 0, q.scalar(2)),),
                          rhs=(q.parse("3/2"), q.zero), field=q)
    out = solve_linear(system)
    assert out == oracles.dense_solve(system)
    assert out.witness == (q.parse("3/4"),)
    assert type(out.witness[0].value) is Fraction


def test_explicit_zero_entries_never_pivot():
    """Explicit zero entries are dropped on loading, so a zero is never
    taken as a pivot: GF(2) reads scalar(2) as 0, and Q holds scalar(0)."""
    g = Field(2)
    system = LinearSystem(
        rows=1, cols=3,
        entries=((0, 0, g.scalar(2)), (0, 1, g.scalar(1)),
                 (0, 2, g.scalar(1))),
        rhs=(g.one,), field=g)
    out = solve_linear(system)
    assert out == oracles.dense_solve(system)
    assert out.feasible and out.nullity == 2
    assert [s.value for s in out.witness] == [0, 1, 0]
    assert oracles.substitute(system, out.witness)

    q = Field(0)
    system = LinearSystem(
        rows=2, cols=2,
        entries=((0, 0, q.scalar(0)), (0, 1, q.one), (1, 0, q.scalar(2)),
                 (1, 1, q.scalar(0))),
        rhs=(q.scalar(3), q.scalar(4)), field=q)
    out = solve_linear(system)
    assert out == oracles.dense_solve(system)
    assert out.feasible and out.nullity == 0
    assert [s.value for s in out.witness] == [2, 3]
    assert oracles.substitute(system, out.witness)


# ------------------------------------------------- coercion at the boundary

def test_kernel_does_not_coerce_values_it_built(classical, monkeypatch):
    """Field.scalar coerces outside values only: once problems are parsed,
    the axiom checks and the extension solve never call it."""
    problems = [parse_problem(name)
                for name in ("obstructed-example", "euler-example")]
    for fld in (Field(0), Field(7)):
        data = classical(("e", "f", "h"),
                         {(0, 1): (0, 0, 1), (2, 0): (2, 0, 0),
                          (2, 1): (0, -2, 0)}, fld)
        problems.append(parse_problem_text(render_problem(data)))
    calls = []
    original = Field.scalar

    def counting(self, value):
        calls.append(value)
        return original(self, value)

    monkeypatch.setattr(Field, "scalar", counting)
    for data in problems:
        assert all(report.ok for report in validate_lie_rinehart(data))
        solve_partial(data)
    assert calls == []
