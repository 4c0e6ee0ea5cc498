"""Lie algebras, module actions, anchors, and the axioms tying them to a
commutative base algebra.

The central object is LieRinehartData: a base algebra R, a Lie algebra L
over the same field, an R-module action on L, and an anchor mapping L
into derivations of R.  Three laws connect the pieces:

  * the anchor is a Lie algebra homomorphism into derivations,
  * the anchor is R-linear with respect to the action,
  * the bracket and the action satisfy the mixed Leibniz rule
      [xi, r.zeta] = r.[xi, zeta] + anchor(xi)(r).zeta .

Each law gets its own check_* verdict.  For actions through a character
(r.xi = chi(r) xi) there is a two-part criterion that is equivalent to
the conjunction of R-linearity and the Leibniz rule, and a constructor
that refuses to build the data when the criterion fails.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain

from .errors import ConstructionRefusedError, LrhInputError
from .finalg import (
    MAX_CHECK_WORK,
    AlgebraElement,
    Character,
    CommAlgebra,
    Derivation,
    check_algebra_axioms,
    check_character,
    check_derivation,
    check_table_size,
    check_work,
    combine_rows,
    dense_row,
    dense_table,
    derivation_work,
    entry_table,
    product_row,
    render_linear,
    sparse_row,
    sparse_table,
)
from .reports import FAIL, PASS, VerdictReport


@dataclass(frozen=True)
class LieAlgebra:
    """Finite-dimensional Lie algebra as a dense bracket table:
    table[a][b] is the coefficient vector of [xi_a, xi_b]."""

    field: object
    labels: tuple
    table: tuple

    @property
    def dim(self) -> int:
        return len(self.labels)

    @cached_property
    def sparse_table(self) -> tuple:
        """table as sparse raw rows, sparse_table[a][b] = [xi_a, xi_b];
        made on first use and kept by this object, not by its copies."""
        return sparse_table(self.table)

    def bracket(self, u: tuple, v: tuple) -> tuple:
        """[u, v] of two L-coordinate vectors (Field.require_vector)."""
        for vec in (u, v):
            self.field.require_vector(vec, self.dim, "Lie vector")
        row = product_row(self.field.reduce, self.sparse_table,
                          sparse_row(u), sparse_row(v))
        return dense_row(self.field, row, self.dim)

    def render(self, vec: tuple) -> str:
        return render_linear(vec, self.labels)


def lie_algebra_from_brackets(fld, labels, brackets: dict) -> LieAlgebra:
    """brackets maps (a, b) index pairs to coefficient vectors.  A pair
    whose mirror is absent is completed antisymmetrically; explicitly
    given mirrors are kept verbatim so a bad table can be fed to the
    checker unchanged."""
    labels = tuple(labels)
    m = len(labels)
    check_table_size("the Lie algebra", m)
    table = [[{} for _ in range(m)] for _ in range(m)]
    for (a, b), vec in brackets.items():
        if not (0 <= a < m and 0 <= b < m):
            raise LrhInputError(f"bracket index pair ({a},{b}) out of range")
        vec = [fld.scalar(c).value for c in vec]
        if len(vec) != m:
            raise LrhInputError("bracket vector has wrong length")
        row = table[a][b] = {c: fld.kernel(x) for c, x in enumerate(vec) if x}
        if (b, a) not in brackets:
            table[b][a] = {c: fld.reduce(-x) for c, x in row.items()}
    table = tuple(map(tuple, table))
    check_table_size("the Lie algebra", m, table, sides=3)
    L = LieAlgebra(field=fld, labels=labels,
                   table=dense_table(fld, table, m))
    L.__dict__["sparse_table"] = table
    return L


@dataclass(frozen=True)
class ModuleAction:
    """Action of the base algebra on the Lie algebra, stored densely as
    tensor[i][a][b] with e_i . xi_a = sum_b tensor[i][a][b] xi_b.  The
    character kind keeps the defining character alongside its tensor
    expansion chi(e_i) * identity."""

    kind: str  # "character" or "tensor"
    algebra: CommAlgebra
    tensor: tuple
    character: Character = None

    @property
    def lie_dim(self) -> int:
        return len(self.tensor[0])

    @cached_property
    def sparse_tensor(self) -> tuple:
        """tensor as sparse raw rows, sparse_tensor[i][a] = e_i.xi_a; made
        on first use and kept by this object, not by its copies."""
        return sparse_table(self.tensor)

    def act(self, r: AlgebraElement, vec: tuple) -> tuple:
        """r . (sum_a vec_a xi_a) as an L-coordinate vector; an r over
        another algebra, or a vector that Field.require_vector refuses,
        is refused."""
        self.algebra.require((r,), "action applied across algebras")
        fld = self.algebra.field
        fld.require_vector(vec, self.lie_dim, "Lie vector")
        row = product_row(fld.reduce, self.sparse_tensor,
                          sparse_row(r.coeffs), sparse_row(vec))
        return dense_row(fld, row, self.lie_dim)


def character_action(chi: Character, lie_dim: int) -> ModuleAction:
    """r.xi = chi(r) xi, its sparse tensor e_i.xi_a = {a: chi(e_i)} kept."""
    alg = chi.algebra
    fld = alg.field
    values = [chi.values[i] for i in range(alg.dim)]
    zero = (fld.zero,) * lie_dim
    tensor = tuple(tuple(zero[:a] + (v,) + zero[a + 1:]
                         for a in range(lie_dim)) for v in values)
    action = ModuleAction(kind="character", algebra=alg, tensor=tensor,
                          character=chi)
    raw = (fld.kernel(v.value) for v in values)
    action.__dict__["sparse_tensor"] = tuple(
        tuple({a: v} if v else {} for a in range(lie_dim)) for v in raw)
    return action


def tensor_action(algebra: CommAlgebra, lie_dim: int,
                  entries: dict) -> ModuleAction:
    """entries maps (i, a, b) to scalars; everything absent is zero
    except the unit slice, which defaults to the identity."""
    fld = algebra.field
    tensor = entry_table(fld, (algebra.dim, lie_dim, lie_dim), entries,
                         "action index")
    if not any(key[0] == 0 for key in entries):
        for a in range(lie_dim):
            tensor[0][a] = {a: 1}
    tensor = tuple(map(tuple, tensor))
    action = ModuleAction(kind="tensor", algebra=algebra,
                          tensor=dense_table(fld, tensor, lie_dim))
    action.__dict__["sparse_tensor"] = tensor
    return action


@dataclass(frozen=True)
class Anchor:
    """One derivation of R per Lie basis element."""

    derivations: tuple

    @property
    def lie_dim(self) -> int:
        return len(self.derivations)

    def rho(self, a: int) -> Derivation:
        return self.derivations[a]


@dataclass(frozen=True)
class LieRinehartData:
    R: CommAlgebra
    L: LieAlgebra
    action: ModuleAction
    anchor: Anchor
    validated: bool = False


def _check_shapes(R: CommAlgebra, L: LieAlgebra, anchor: Anchor,
                  action: ModuleAction = None) -> None:
    """Refuse parts that make no one structure: a Lie algebra over
    another field than R, or an anchor, or an action when one is given,
    over another algebra than R or not of L's dimension."""
    R.field.require((L,), "Lie algebra")
    if action is not None:
        R.require((action,), "action is over a different base algebra")
    if anchor.lie_dim != L.dim or (action is not None
                                   and action.lie_dim != L.dim):
        raise LrhInputError("action/anchor dimension does not match L")
    R.require(anchor.derivations, "anchor lands in a different algebra")


# ---------------------------------------------------------------------------
# the individual laws

def check_lie_algebra(L: LieAlgebra) -> VerdictReport:
    """Antisymmetry first (including [xi,xi] = 0, which matters in
    characteristic 2), then Jacobi, all in lexicographic index order.

    Jacobi is tested on the triples a < b < c only.  Once the bracket is
    alternating, the Jacobiator J(a, b, c) is trilinear and alternating:
    it vanishes when two indices agree and changes sign under a swap.  So
    it vanishes on every triple exactly when it does on the sorted ones,
    and the lexicographically first failing triple of the full m^3 scan
    is sorted, since it comes before every other ordering of its indices;
    the sorted scan reports the same triple with the same value.  A
    triple whose three brackets [xi_b, xi_c], [xi_c, xi_a], [xi_a, xi_b]
    are all 0 has Jacobiator 0 and is not combined."""
    name = "lie-algebra"
    m = L.dim
    table = L.sparse_table
    reduce = L.field.reduce
    for a in range(m):
        for b in range(a, m):
            if a == b:
                if table[a][a]:
                    return VerdictReport(name=name, verdict=FAIL, witnesses=[{
                        "law": "antisymmetry",
                        "pair": [L.labels[a], L.labels[a]],
                        "value": L.render(L.table[a][a])}])
            else:
                mirrored = {c: reduce(-x) for c, x in table[b][a].items()}
                if table[a][b] != mirrored:
                    return VerdictReport(name=name, verdict=FAIL, witnesses=[{
                        "law": "antisymmetry",
                        "pair": [L.labels[a], L.labels[b]],
                        "lhs": L.render(L.table[a][b]),
                        "rhs": "-(" + L.render(L.table[b][a]) + ")"}])

    for a in range(m):
        for b in range(a + 1, m):
            for c in range(b + 1, m):
                # [xi_a,[xi_b,xi_c]] + [xi_b,[xi_c,xi_a]] + [xi_c,[xi_a,xi_b]]
                bc, ca, ab = table[b][c], table[c][a], table[a][b]
                if not (bc or ca or ab):
                    continue
                total = combine_rows(reduce, (bc, table[a]), (ca, table[b]),
                                     (ab, table[c]))
                if total:
                    return VerdictReport(name=name, verdict=FAIL, witnesses=[{
                        "law": "jacobi",
                        "triple": [L.labels[a], L.labels[b], L.labels[c]],
                        "value": L.render(dense_row(L.field, total, m))}])
    return VerdictReport(name=name, verdict=PASS, narrative=[
        f"antisymmetry and Jacobi verified over all {m}^3 basis triples"])


def check_module_action(R: CommAlgebra, action: ModuleAction) -> VerdictReport:
    """Unit slice is the identity; action tensor is associative over the
    multiplication of R.  A side whose coefficient row (e_i e_j, or
    e_j.xi_a) is empty is 0 and is not combined."""
    R.require((action,), "action is over a different base algebra")
    name = "module-action"
    m = action.lie_dim
    tensor = action.sparse_tensor
    for a, row in enumerate(tensor[0]):
        if row != {a: 1}:
            return VerdictReport(name=name, verdict=FAIL, witnesses=[{
                "law": "unit-acts-as-identity", "element": f"index {a}",
                "value": render_linear(action.tensor[0][a],
                                       tuple(f"xi_{b}" for b in range(m)))}])
    reduce = R.field.reduce
    table = R.sparse_table
    # acting_on[a][k] is e_k.xi_a
    acting_on = [[slab[a] for slab in tensor] for a in range(m)]
    for i in range(R.dim):
        for j in range(R.dim):
            for a in range(m):
                # (e_i e_j).xi_a against e_i.(e_j.xi_a)
                ij, ja = table[i][j], tensor[j][a]
                lhs = combine_rows(reduce, (ij, acting_on[a])) if ij else {}
                rhs = combine_rows(reduce, (ja, tensor[i])) if ja else {}
                if lhs != rhs:
                    return VerdictReport(name=name, verdict=FAIL, witnesses=[{
                        "law": "action-associativity",
                        "triple": [R.labels[i], R.labels[j], f"index {a}"]}])
    return VerdictReport(name=name, verdict=PASS, narrative=[
        "unit slice is the identity; action associative on all basis "
        "triples"])


def anchor_work(R: CommAlgebra, L: LieAlgebra, anchor: Anchor) -> int:
    """Steps of the anchor checks: check_derivation once per anchor
    (derivation_work), and check_anchor_lie_hom, one step per Lie basis
    pair and column of R and one per term product.  anchor([xi_a, xi_b])
    adds up the columns of the anchors in the bracket; each commutator
    multiplies every entry t of one anchor's columns against column t of
    the other, in both orders."""
    cols = [d.sparse_columns for d in anchor.derivations]
    nnz = [sum(map(len, c)) for c in cols]
    # columns, over all anchors, that hold e_t; entries of column t
    hits = Counter(chain.from_iterable(chain.from_iterable(cols)))
    sizes = [sum(map(len, column)) for column in zip(*cols)]
    brackets = chain.from_iterable(chain.from_iterable(L.sparse_table))
    return (derivation_work(R.sparse_table, cols) + L.dim ** 2 * R.dim
            + sum(map(nnz.__getitem__, brackets))
            + 2 * sum(hits[t] * size for t, size in enumerate(sizes)))


def anchor_work_bound(dim: int, lie_dim: int) -> int:
    """anchor_work when every table entry, column and bracket is full:
    the most it can be for an algebra of dimension `dim` and `lie_dim`
    anchors."""
    n, m = dim, lie_dim
    return m * (n ** 2 + 3 * n ** 4) + m ** 2 * n + m ** 3 * n ** 2 \
        + 2 * m ** 2 * n ** 3


def check_anchor_size(R: CommAlgebra, L: LieAlgebra, anchor: Anchor) -> None:
    """Refuse an anchor whose checks would take more than MAX_CHECK_WORK
    steps (anchor_work).  The steps are counted only when
    anchor_work_bound is over the limit, so small structures cost no
    count."""
    if anchor_work_bound(R.dim, L.dim) > MAX_CHECK_WORK:
        check_work(f"the anchor of {L.dim} derivations of an algebra of "
                   f"dimension {R.dim}", anchor_work(R, L, anchor))


def check_anchor_lie_hom(data: LieRinehartData) -> VerdictReport:
    """anchor([xi_a, xi_b]) = [D_a, D_b] for every ordered basis pair:
    column j is one signed sum, anchor([xi_a, xi_b])(e_j) - D_a(D_b(e_j))
    + D_b(D_a(e_j)), over the derivations' own columns, the bracket
    combining by_column[j][c] = D_c(e_j); a column of no terms is 0."""
    _check_shapes(data.R, data.L, data.anchor, data.action)
    name = "anchor-lie-homomorphism"
    R, L = data.R, data.L
    reduce = R.field.reduce
    columns = [d.sparse_columns for d in data.anchor.derivations]
    by_column = [col if any(col) else () for col in zip(*columns)]
    for a, cols_a in enumerate(columns):
        for b, cols_b in enumerate(columns):
            bracket = L.sparse_table[a][b]
            diff = [combine_rows(
                reduce, (bracket if col else {}, col),
                ({t: -x for t, x in cb.items()}, cols_a), (ca, cols_b))
                if ca or cb or bracket and col else {}
                for ca, cb, col in zip(cols_a, cols_b, by_column)]
            if any(diff):
                matrix = Derivation.from_columns(R, diff).matrix
                return VerdictReport(name=name, verdict=FAIL, witnesses=[{
                    "pair": [L.labels[a], L.labels[b]],
                    "difference-matrix": [[str(c) for c in row]
                                          for row in matrix]}])
    return VerdictReport(name=name, verdict=PASS, narrative=[
        f"anchor respects the bracket on all {L.dim}^2 basis pairs"])


def check_anchor_r_linear(data: LieRinehartData) -> VerdictReport:
    """anchor(e_i . xi_a)(e_j) = e_i * anchor(xi_a)(e_j) for all i, a, j,
    character_criterion (a) on a character's action; e_i . xi_a combines
    by_column[j][b] = anchor(xi_b)(e_j), read once per check.  A side with
    no entries to combine is 0 and is not combined."""
    _check_shapes(data.R, data.L, data.anchor, data.action)
    name = "anchor-r-linearity"
    R, L = data.R, data.L
    reduce = R.field.reduce
    table = R.sparse_table
    tensor = data.action.sparse_tensor
    columns = [d.sparse_columns for d in data.anchor.derivations]
    by_column = [col if any(col) else () for col in zip(*columns)]
    for i in range(R.dim):
        for a, row in enumerate(tensor[i]):
            for j in range(R.dim):
                img, col = columns[a][j], by_column[j]
                lhs = combine_rows(reduce, (row, col)) if row and col else {}
                rhs = combine_rows(reduce, (img, table[i])) if img else {}
                if lhs != rhs:
                    return VerdictReport(name=name, verdict=FAIL, witnesses=[{
                        "triple": [R.labels[i], L.labels[a], R.labels[j]],
                        "lhs": R.render_row(lhs),
                        "rhs": R.render_row(rhs)}])
    return VerdictReport(name=name, verdict=PASS, narrative=[
        f"R-linearity verified on all {R.dim}x{L.dim}x{R.dim} triples"])


def check_leibniz(data: LieRinehartData) -> VerdictReport:
    """[xi_a, e_i . xi_b] = e_i . [xi_a, xi_b] + anchor(xi_a)(e_i) . xi_b
    on every basis triple, both sides in L-coordinates.  A side whose
    coefficient rows are all empty is 0 and is not combined."""
    _check_shapes(data.R, data.L, data.anchor, data.action)
    name = "leibniz-compatibility"
    R, L = data.R, data.L
    m = L.dim
    reduce = L.field.reduce
    table = L.sparse_table
    tensor = data.action.sparse_tensor
    # acting_on[b][k] is e_k.xi_b
    acting_on = [[slab[b] for slab in tensor] for b in range(m)]
    for i in range(R.dim):
        for a in range(m):
            shift = data.anchor.rho(a).sparse_columns[i]
            for b in range(m):
                # [xi_a, e_i.xi_b] against
                # e_i.[xi_a, xi_b] + anchor(xi_a)(e_i).xi_b
                ib, ab = tensor[i][b], table[a][b]
                lhs = combine_rows(reduce, (ib, table[a])) if ib else {}
                rhs = combine_rows(reduce, (ab, tensor[i]),
                                   (shift, acting_on[b])) \
                    if ab or shift else {}
                if lhs != rhs:
                    return VerdictReport(name=name, verdict=FAIL, witnesses=[{
                        "triple": [R.labels[i], L.labels[a], L.labels[b]],
                        "lhs": L.render(dense_row(L.field, lhs, m)),
                        "rhs": L.render(dense_row(L.field, rhs, m))}])
    return VerdictReport(name=name, verdict=PASS, narrative=[
        f"mixed Leibniz rule verified on all {R.dim}x{L.dim}^2 triples"])


# ---------------------------------------------------------------------------
# character modules

def character_criterion(R: CommAlgebra, L: LieAlgebra, anchor: Anchor,
                        chi: Character) -> VerdictReport:
    """Two conditions, jointly equivalent to the action r.xi = chi(r) xi
    making the data a valid structure:

      (a) chi(e_i) * anchor(xi_a)(e_j) = e_i * anchor(xi_a)(e_j)
          (R-linearity of the anchor under the character action), and
      (b) chi(anchor(xi_a)(e_i)) = 0 (anchor values land in ker chi).

    The verdict is the conjunction; witnesses carry the first failure of
    each condition, (a) as check_anchor_r_linear finds it on
    character_action(chi, dim L).  Parts that make no one structure
    (_check_shapes), and a character over another base algebra or with
    another number of values than R.dim, are refused."""
    _check_shapes(R, L, anchor)
    R.require((chi,), "character is over a different base algebra")
    R.field.require_vector(chi.values, R.dim, "character vector")
    data = LieRinehartData(R=R, L=L, action=character_action(chi, L.dim),
                           anchor=anchor)
    return _criterion_of(data, check_anchor_r_linear(data))


def _criterion_of(data: LieRinehartData,
                  linear: VerdictReport) -> VerdictReport:
    """character_criterion of checked parts with a character's action,
    given `linear`, the check_anchor_r_linear report of `data`, as its
    condition (a)."""
    R, L = data.R, data.L
    reduce = R.field.reduce
    values = [R.field.kernel(v.value) for v in data.action.character.values]

    def kernel_failure():
        for a, d in enumerate(data.anchor.derivations):
            for i, img in enumerate(d.sparse_columns):
                value = reduce(sum(values[k] * x for k, x in img.items()))
                if value:
                    return {"condition": "anchor-into-kernel",
                            "pair": [L.labels[a], R.labels[i]],
                            "value": str(value)}

    witnesses, narrative = [], []
    for found, held in (
            (None if linear.ok else
             {"condition": "r-linearity", **linear.witnesses[0]},
             "(a) anchor is R-linear for the character action"),
            (kernel_failure(),
             "(b) every anchor value is annihilated by chi")):
        if found:
            witnesses.append(found)
        else:
            narrative.append(held)
    return VerdictReport(name="character-criterion",
                         verdict=FAIL if witnesses else PASS,
                         witnesses=witnesses, narrative=narrative)


def make_character_module(R: CommAlgebra, L: LieAlgebra, anchor: Anchor,
                          chi: Character) -> LieRinehartData:
    """Build validated data with the action r.xi = chi(r) xi.  Refuses
    when any component is malformed, when the anchor fails to be a Lie
    homomorphism, or when the character criterion fails; the refusal
    carries the offending report."""
    return _character_module(R, L, anchor, chi)


def _character_module(R: CommAlgebra, L: LieAlgebra, anchor: Anchor,
                      chi: Character, criterion=None) -> LieRinehartData:
    """make_character_module; `criterion`, when given, is the criterion's
    report of the same parts and is not recomputed.  The data is built
    once, marked validated, and returned only if every check passes."""
    for report in (check_algebra_axioms(R), check_lie_algebra(L),
                   check_character(R, chi.values)):
        if not report.ok:
            raise ConstructionRefusedError(
                f"component check '{report.name}' failed", report=report)
    for a, d in enumerate(anchor.derivations):
        report = check_derivation(R, d)
        if not report.ok:
            raise ConstructionRefusedError(
                f"anchor image of {L.labels[a]} is not a derivation",
                report=report)

    data = LieRinehartData(R=R, L=L, action=character_action(chi, L.dim),
                           anchor=anchor, validated=True)
    hom = check_anchor_lie_hom(data)
    if not hom.ok:
        raise ConstructionRefusedError(
            "anchor is not a Lie algebra homomorphism", report=hom)
    criterion = criterion or _criterion_of(data, check_anchor_r_linear(data))
    if not criterion.ok:
        raise ConstructionRefusedError(
            "character-action criterion failed", report=criterion)
    return data


def validate_lie_rinehart(data: LieRinehartData) -> list:
    """Every check in one sweep: component laws first, then the three
    compatibility laws.  Returns the reports in a fixed order."""
    _check_shapes(data.R, data.L, data.anchor, data.action)
    reports = [
        check_algebra_axioms(data.R),
        check_lie_algebra(data.L),
        check_module_action(data.R, data.action),
    ]
    for a, d in enumerate(data.anchor.derivations):
        reports.append(replace(check_derivation(data.R, d),
                               name=f"derivation[{data.L.labels[a]}]"))
    if data.action.kind == "character":
        reports.append(check_character(data.R, data.action.character.values))
    reports.extend([
        check_anchor_lie_hom(data),
        check_anchor_r_linear(data),
        check_leibniz(data),
    ])
    return reports
