"""Exact field arithmetic and certified sparse linear solving.

Everything downstream computes over a ``Field``: the rationals or a
prime field GF(p).  All arithmetic is exact -- rationals are stdlib
``Fraction`` (always lowest terms, positive denominator), prime-field
elements are residues in [0, p).  There is no floating point anywhere
in this package.

``Field`` owns the arithmetic on these raw values (``reduce``,
``inverse``, ``zero.value``, ``one.value``); ``Field.scalar`` coerces
values from outside the package, and nothing else.  ``Field`` also owns
the one ownership check: ``Field.require`` refuses a raw number, or any
value, element or structure over another field, and
``Field.require_vector`` a vector of another length as well; every
module asks them, never comparing fields or lengths by hand.

``Scalar`` is the boundary type: systems come in and evidence goes out
as Scalars, and its operators work through the field's raw operations.
Inside the kernel (rewriting, normal forms, elimination) an integral
rational is a plain int, which Python multiplies far faster than a
Fraction; ``Field.kernel`` converts a raw value on its way in and
``Field.wrap`` makes the Scalar, over Q always holding a Fraction, on
its way out.
``solve_linear`` decides A.x = b by deterministic exact sparse
Gauss-Jordan elimination on the augmented rows [A | b], one {col: value}
dict of kernel values per equation with b_r at key ``cols``, so one row
operation updates A and b alike.  It is fraction-free on integer rows
over Q, with a per-column index of the rows that hold each column.  Only
a row that holds a non-integral value is scaled to integers first, and a
pivot row that is the only holder of its column is used to clear
nothing.  It always hands back checkable evidence: a particular witness
plus a nullspace basis when feasible, or a Farkas-style row vector u
with u.A = 0 and u.b != 0 when infeasible.  The evidence is normalised
lazily: a pivot is inverted only where an evidence entry needs it.
``verify_witness`` and ``verify_certificate`` recheck that evidence
from the sparse input on kernel values, reduced by ``Field.reduce``,
independently of the elimination path that produced it: they read
only the system and the evidence, and refuse evidence over another
field.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence, Union

from .errors import FieldMismatchError, LrhInputError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/0*[1-9]\d*)?$")  # no zero denominator
_INTEGER_RE = re.compile(r"^[+-]?\d+$")
# Primality is decided by trial division, about 3 ms at this limit.
MAX_CHARACTERISTIC = 2 ** 32
# rows x cols of the largest system solve_linear accepts (see README).
MAX_SOLVE_CELLS = 1_500_000


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Field:
    """Exact coefficient field: characteristic 0 means the rationals,
    a prime p means GF(p).  Scalars are immutable, so all callers share
    the `zero` and `one` made with the field."""

    characteristic: int = 0

    def __post_init__(self):
        if self.characteristic > MAX_CHARACTERISTIC:
            raise LrhInputError(
                f"characteristic {self.characteristic} is over the limit "
                f"of 2^32 (MAX_CHARACTERISTIC)")
        if self.characteristic != 0 and not _is_prime(self.characteristic):
            raise LrhInputError(
                f"characteristic must be 0 or prime, got {self.characteristic}"
            )
        object.__setattr__(self, "zero", self.scalar(0))
        object.__setattr__(self, "one", self.scalar(1))

    @classmethod
    def prime(cls, p: int) -> "Field":
        """GF(p); Field(0) is the rationals, so p = 0 is refused here."""
        if p == 0:
            raise LrhInputError("GF(0) is not a field; characteristic 0 is Q")
        return cls(p)

    @property
    def kind(self) -> str:
        return "rationals" if self.characteristic == 0 else "prime-field"

    def reduce(self, v):
        """Canonical form of a sum, difference or product of raw values:
        the residue mod p; over Q the Fraction itself, in lowest terms."""
        p = self.characteristic
        return v % p if p else v

    def inverse(self, v):
        """Raw inverse of a nonzero raw value, exact on an int over Q."""
        p = self.characteristic
        return pow(v, p - 2, p) if p else Fraction(1, v)

    def kernel(self, v):
        """A raw value as the kernel holds it: over Q an integral value
        becomes an int; every other value is returned as it is."""
        return v.numerator if not self.characteristic and \
            v.denominator == 1 else v

    def wrap(self, v) -> "Scalar":
        """The Scalar of a reduced raw value from the kernel; over Q it
        holds a Fraction, as every Scalar over Q does."""
        if self.characteristic or type(v) is Fraction:
            return Scalar(self, v)
        return Scalar(self, Fraction(v))

    def require(self, values, what: str) -> None:
        """Refuse the first of `values` that is not a value over this
        field -- one with no ``.field``, such as an int, or a Scalar,
        element or algebra over another field -- naming it as `what`."""
        for v in values:
            try:
                fld = v.field
            except AttributeError:
                raise FieldMismatchError(
                    f"{what} {v!r} is not a value over {self}") from None
            if fld is not self and fld != self:
                raise FieldMismatchError(f"{what} over {fld} used in {self}")

    def require_vector(self, values, size: int, what: str) -> None:
        """Refuse a vector of another length than `size`, or with an
        entry that `require` refuses, naming it as `what`."""
        if len(values) != size:
            raise LrhInputError(f"{what} has wrong length")
        self.require(values, f"{what} entry")

    def scalar(self, value: Union[int, Fraction, "Scalar"]) -> "Scalar":
        """Coerce a value from outside the package into this field."""
        if isinstance(value, Scalar):
            self.require((value,), "scalar")
            return value
        if not isinstance(value, (int, Fraction)):
            raise FieldMismatchError(f"{value!r} is not an exact value")
        p = self.characteristic
        if p == 0:
            return Scalar(self, Fraction(value))
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise FieldMismatchError(
                    f"fraction {value} is not a GF({p}) literal"
                )
            value = value.numerator
        return Scalar(self, self.reduce(value))

    def parse(self, text: str) -> "Scalar":
        """Parse a scalar literal: decimal integers and p/q fractions over
        the rationals, decimal integers over GF(p)."""
        text = text.strip()
        rational = self.characteristic == 0
        if rational and not _RATIONAL_RE.match(text):
            raise FieldMismatchError(f"bad rational literal {text!r}")
        if not rational and not _INTEGER_RE.match(text):
            raise FieldMismatchError(
                f"bad GF({self.characteristic}) literal {text!r}"
                + (" (fractions are not prime-field literals)"
                   if "/" in text else "")
            )
        try:  # a literal with no "/" reads faster through int()
            if "/" in text:  # a fraction, over Q only
                return Scalar(self, Fraction(text))
            value = int(text)
        except ValueError:  # more digits than int() converts from text
            raise FieldMismatchError(
                f"literal of {len(text)} characters is too long") from None
        return Scalar(self, Fraction(value) if rational
                      else self.reduce(value))

    def __str__(self):
        return "Q" if self.characteristic == 0 else f"GF({self.characteristic})"


@dataclass(frozen=True)
class Scalar:
    """Immutable exact field element.  Arithmetic refuses mixed fields."""

    field: Field
    value: Union[int, Fraction]

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            self.field.require((other,), "scalar")
            return other
        if isinstance(other, int):
            return self.field.scalar(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        fld = self.field
        return Scalar(fld, fld.reduce(self.value + other.value))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        fld = self.field
        return Scalar(fld, fld.reduce(self.value - other.value))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        fld = self.field
        return Scalar(fld, fld.reduce(self.value * other.value))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            raise ZeroDivisionError(f"division by zero in {self.field}")
        fld = self.field
        quotient = self.value * fld.inverse(other.value)
        return Scalar(fld, fld.reduce(quotient))

    def inverse(self) -> "Scalar":
        return self.field.one / self

    def __neg__(self):
        fld = self.field
        return Scalar(fld, fld.reduce(-self.value))

    def __bool__(self):
        return self.value != 0

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"Scalar({self.field}, {self.value})"


RATIONALS = Field(0)


@dataclass(frozen=True)
class LinearSystem:
    """Sparse exact linear system A.x = rhs.

    entries is a sequence of (row, col, Scalar) triples, at most one per
    position; rhs is dense of length rows.
    """

    rows: int
    cols: int
    entries: tuple
    rhs: tuple
    field: Field = dc_field(default=RATIONALS)

    def __post_init__(self):
        fld = self.field
        seen = set()
        for r, c, s in self.entries:
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise LrhInputError(f"entry ({r},{c}) out of range")
            if (r, c) in seen:
                raise LrhInputError(f"duplicate entry at ({r},{c})")
            seen.add((r, c))
        fld.require((s for _, _, s in self.entries), "system entry")
        fld.require_vector(self.rhs, self.rows, "rhs")


@dataclass(frozen=True)
class SolveOutcome:
    """Verdict of an exact solve, with re-checkable evidence attached.

    feasible: witness is one particular solution, nullity the dimension
    of the solution space, nullspace a basis of it.  infeasible:
    certificate u satisfies u.A = 0 and u.rhs != 0 exactly.
    """

    verdict: str  # "feasible" | "infeasible"
    witness: tuple = None
    nullity: int = None
    nullspace: tuple = None
    certificate: tuple = None

    @property
    def feasible(self) -> bool:
        return self.verdict == "feasible"


def check_solve_size(rows: int, cols: int) -> None:
    """Refuse a system of more than MAX_SOLVE_CELLS cells, before it is
    built or eliminated."""
    if rows * cols > MAX_SOLVE_CELLS:
        raise LrhInputError(
            f"a linear system of {rows} rows and {cols} columns has "
            f"{rows * cols} cells, over the limit of {MAX_SOLVE_CELLS} "
            f"(MAX_SOLVE_CELLS)")


def solve_linear(system: LinearSystem) -> SolveOutcome:
    """Exact sparse Gauss-Jordan elimination with deterministic pivoting.

    Columns are taken left to right.  Each takes as pivot the first row
    at or below the current rank with a nonzero entry in that column,
    swapped up to the rank, and the column is cleared from every other
    row, so all evidence is reproducible.

    Row r is the sparse {col: value} dict of row r of [A | b], with b_r
    at key n = system.cols, so every row operation below updates A and b
    together.  Its values are kernel values: read through Field.kernel
    over Q, so an integral rational is an int, and as residues in
    [0, p) over GF(p); no zero is stored, explicit input zeros included.
    A set per column holds the rows with an entry there, so finding the
    pivot and the rows to clear reads no other row.  A column that no
    row holds, as most columns of theorem1's systems are, is passed over
    before any search.  A pivot row that is the only row holding its
    column, as most are in the systems of left_divide, is taken without
    a search and has nothing to clear.  No pivot row is ever scaled.
    With y the pivot entry and f the entry of the row to clear, a row
    is cleared over GF(p) as row - (f.y^-1).pivot, and over Q
    fraction-free as (y.row - f.pivot) / g, g being the content of the
    resulting augmented row.  Over Q a row holding a Fraction is first
    scaled by the lcm of its denominators; every other row is left as
    it is.  Each row operation is logged as (r, pr, f, y, g): row r :=
    (y.row r - f.row pr) / g, with y = g = 1 and f = f.y^-1 over GF(p),
    and the scaling of row r by s over Q as (r, r, 0, s, 1).

    A row below the rank holds no entry of A, so the system is
    infeasible exactly when one of them is not empty.  Then one pass
    over the log, last operation first, takes w = e_r0 for the first
    such row r0 through each operation's transpose: w[pr] -= w[r].f/g,
    then w[r] *= y/g.  The Farkas certificate is w divided by its entry
    on r0: the one combination that vanishes on A of r0's original row,
    with coefficient 1, and the original pivot rows.  Pivots depend
    only on A's zero pattern, and the evidence is normalised at the
    end, and lazily: a pivot column's witness entry is b_r / a_r[c],
    read from key n, and a nullspace vector's entry -a_r[f] / a_r[c],
    and a pivot is inverted only when one of these is nonzero, once
    per pivot.  Most right-hand sides are zero, so most pivots are
    never inverted.  Only the evidence is wrapped into Scalars.
    """
    check_solve_size(system.rows, system.cols)
    fld = system.field
    p = fld.characteristic
    reduce, inverse = fld.reduce, fld.inverse
    nrows, ncols = system.rows, system.cols

    read = reduce if p else fld.kernel
    a = [{} for _ in range(nrows)]  # row r of [A | b], b_r at key ncols
    for r, c, s in system.entries:
        v = read(s.value)
        if v:
            a[r][c] = v
    for r, s in enumerate(system.rhs):
        v = read(s.value)
        if v:
            a[r][ncols] = v
    log = []  # (r, pr, f, y, g): row r := (y.row r - f.row pr) / g
    if not p:  # kernel values: a Fraction is never integral
        for r, row in enumerate(a):
            if Fraction in map(type, row.values()):
                scale = lcm(*(v.denominator for v in row.values()))
                log.append((r, r, 0, scale, 1))
                a[r] = {c: v.numerator * (scale // v.denominator)
                        for c, v in row.items()}
    holders = [set() for _ in range(ncols + 1)]
    for r, row in enumerate(a):
        for c in row:
            holders[c].add(r)
    order = list(range(nrows))  # the row at each position
    where = list(range(nrows))  # the position of each row

    pivots = []  # (row, col)
    for col in range(ncols):
        rank = len(pivots)
        holding = holders[col]
        if not holding:  # no row holds this column: nothing to search
            continue
        sole = len(holding) == 1
        if sole:  # no search: the one holder, unless it is a pivot row
            (pr,) = holding
            at = where[pr]
            if at < rank:
                continue
        else:
            at = min((where[r] for r in holding if where[r] >= rank),
                     default=None)
            if at is None:
                continue
            pr = order[at]
        order[at], order[rank] = order[rank], pr
        where[order[at]], where[pr] = at, rank
        pivots.append((pr, col))
        if sole:  # no other row to clear
            continue
        pivot = a[pr]
        y = pivot[col]
        if p:  # clear as row - (f.y^-1).pivot, logged with y = 1
            inv, y = inverse(y), 1
        for r in [r for r in holding if r != pr]:
            row = a[r]
            f = row[col] * inv % p if p else row[col]
            if y != 1:
                row = a[r] = {c: y * v for c, v in row.items()}
            for c, v in pivot.items():
                x = row.get(c, 0) - f * v
                if p:
                    x %= p
                if x:
                    if c not in row:
                        holders[c].add(r)
                    row[c] = x
                else:
                    del row[c]
                    holders[c].discard(r)
            g = 1 if p else gcd(*row.values()) or 1  # 0: a zero row
            if g != 1:
                a[r] = {c: v // g for c, v in row.items()}
            log.append((r, pr, f, y, g))

    def dense(sparse, size):
        out = [fld.zero] * size
        for k, v in sparse.items():
            out[k] = fld.wrap(reduce(v))
        return tuple(out)

    for r0 in order[len(pivots):]:
        if a[r0]:  # below the rank a row holds only b
            w = {r0: 1}  # e_r0 times the logged operations, last first
            for r, pr, f, y, g in reversed(log):
                x = w.get(r)
                if x:
                    x = Fraction(x, g) if g != 1 else x
                    w[pr] = reduce(w.get(pr, 0) - x * f)
                    w[r] = reduce(x * y)
            own = inverse(w[r0])
            return SolveOutcome(verdict="infeasible", certificate=dense(
                {k: v * own for k, v in w.items() if v}, nrows))

    scales = {}  # row -> inverse of its pivot, taken on first use

    def over_pivot(x, r, c):
        inv = scales.get(r)
        if inv is None:
            inv = scales[r] = inverse(a[r][c])
        return x * inv

    witness = dense({c: over_pivot(a[r][ncols], r, c) for r, c in pivots
                     if ncols in a[r]}, ncols)
    pivot_cols = {c for _, c in pivots}
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    nullspace = []
    for f in free_cols:
        v = {f: 1}
        for r, c in pivots:
            x = a[r].get(f)
            if x:
                v[c] = over_pivot(-x, r, c)
        nullspace.append(dense(v, ncols))
    return SolveOutcome(verdict="feasible", witness=witness,
                        nullity=len(free_cols), nullspace=tuple(nullspace))


def verify_witness(system: LinearSystem, witness: Sequence[Scalar]) -> bool:
    """Exact residual check A.witness == rhs, component-wise, on kernel
    values from the sparse entries; a witness of the wrong length fails,
    and one over another field raises FieldMismatchError."""
    if len(witness) != system.cols:
        return False
    system.field.require(witness, "witness")
    kernel, reduce = system.field.kernel, system.field.reduce
    x = [kernel(s.value) for s in witness]
    residual = [0] * system.rows
    for r, c, s in system.entries:
        if x[c]:
            residual[r] += kernel(s.value) * x[c]
    return not any(reduce(v - kernel(want.value))
                   for v, want in zip(residual, system.rhs))


def verify_certificate(system: LinearSystem, u: Sequence[Scalar]) -> bool:
    """Farkas check: u.A == 0 and u.rhs != 0, on kernel values from the
    sparse entries; a certificate of the wrong length fails, and one over
    another field raises FieldMismatchError."""
    if len(u) != system.rows:
        return False
    system.field.require(u, "certificate")
    kernel, reduce = system.field.kernel, system.field.reduce
    u = [kernel(s.value) for s in u]
    ua = [0] * system.cols
    for r, c, s in system.entries:
        if u[r]:
            ua[c] += u[r] * kernel(s.value)
    if any(map(reduce, ua)):
        return False
    return bool(reduce(sum(x * kernel(s.value)
                           for x, s in zip(u, system.rhs) if x)))
