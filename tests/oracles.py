"""Independent oracles and shared random generators for the test suite.

The solvers and counters here deliberately avoid the package's own
algorithms: rational systems are decided by a plain Fraction echelon
with a different pivot order, prime-field systems by exhaustive
enumeration in raw integers, monomial products by direct exponent
arithmetic, basis sizes by binomial counting, and structure-constant
contractions, with the axiom checks built on them, by dense loops over
raw values, and normal forms by rewriting the rightmost redex first.
Tests compare the package's answers against these.  The
exceptions are the package's former dense code, kept verbatim as
references that the sparse code must reproduce exactly: ``dense_solve``,
its dense elimination, the ``dense_check_*`` functions, its axiom
checks on dense Scalar tables,
``reference_verify_divide_certificate``, its certificate replay that
normalises every column from scratch, ``reference_check_local_confluence``,
its confluence check with one reduction per overlap in sorted order,
``reference_basis_labels``, its letter-by-letter basis labels, and
``reference_verify_witness`` and ``reference_verify_certificate``, its
solver replays in Scalar arithmetic.
"""

from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import comb

from lrhopf import (
    FAIL,
    PASS,
    LinearSystem,
    Anchor,
    Character,
    CommAlgebra,
    Derivation,
    Field,
    FieldMismatchError,
    LieRinehartData,
    NCElement,
    SolveOutcome,
    VerdictReport,
    character_action,
    check_derivation,
    enumerate_basis,
    lie_algebra_from_brackets,
    make_base_field_algebra,
    make_monomial_quotient,
    normal_form,
    tensor_action,
)
from lrhopf.enveloping import (_columns, _combine, _from_raw,
                               _kernel_terms, _normal_column, _reduce,
                               _relation_pairs, _word_sort_key,
                               rewrite_once_at)
from lrhopf.finalg import render_linear


# ---------------------------------------------------------------------------
# linear algebra

def frac_solve(matrix, rhs):
    """Feasibility, one witness, and rank over the rationals, by plain
    Fraction elimination choosing the LAST usable pivot row (the package
    picks the first, so agreement is not an artifact of shared choices).
    matrix is a list of Fraction rows."""
    rows = [list(map(Fraction, row)) + [Fraction(v)]
            for row, v in zip(matrix, rhs)]
    m = len(rows)
    n = len(matrix[0]) if matrix else 0
    pivots = []
    used = set()
    for col in range(n):
        pivot = None
        for r in range(m - 1, -1, -1):
            if r not in used and rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        used.add(pivot)
        pivots.append((pivot, col))
        scale = rows[pivot][col]
        rows[pivot] = [x / scale for x in rows[pivot]]
        for r in range(m):
            if r != pivot and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b
                           for a, b in zip(rows[r], rows[pivot])]
    for r in range(m):
        if r not in used and rows[r][n]:
            return False, None, len(pivots)
    witness = [Fraction(0)] * n
    for r, col in pivots:
        witness[col] = rows[r][n]
    return True, witness, len(pivots)


def gf_exhaustive(matrix, rhs, p):
    """(feasible, number of solutions) for integer matrices mod p by
    trying every vector.  Only sensible for tiny systems."""
    m = len(matrix)
    n = len(matrix[0]) if matrix else 0
    count = 0
    for cand in product(range(p), repeat=n):
        ok = True
        for r in range(m):
            total = sum(matrix[r][c] * cand[c] for c in range(n)) % p
            if total != rhs[r] % p:
                ok = False
                break
        if ok:
            count += 1
    return count > 0, count


def dense_solve(system):
    """Reference copy of the package's former dense solver, kept for the
    equality test only: the same pivot rule and row operations, on a
    dense Scalar matrix with a dense rows x rows identity block T."""
    fld = system.field
    nrows, ncols = system.rows, system.cols
    a = [[fld.zero] * ncols for _ in range(nrows)]
    for r, c, s in system.entries:
        a[r][c] = s
    b = list(system.rhs)
    t = [[fld.one if i == j else fld.zero for j in range(nrows)]
         for i in range(nrows)]

    pivots = []  # (row, col)
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, nrows):
            if a[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        if pivot_row != rank:
            a[rank], a[pivot_row] = a[pivot_row], a[rank]
            b[rank], b[pivot_row] = b[pivot_row], b[rank]
            t[rank], t[pivot_row] = t[pivot_row], t[rank]
        inv = a[rank][col].inverse()
        a[rank] = [x * inv for x in a[rank]]
        b[rank] = b[rank] * inv
        t[rank] = [x * inv for x in t[rank]]
        for r in range(nrows):
            if r != rank and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
                b[r] = b[r] - f * b[rank]
                t[r] = [x - f * y for x, y in zip(t[r], t[rank])]
        pivots.append((rank, col))
        rank += 1

    for r in range(rank, nrows):
        if b[r]:
            return SolveOutcome(verdict="infeasible",
                                certificate=tuple(t[r]))

    witness = [fld.zero] * ncols
    for r, c in pivots:
        witness[c] = b[r]
    pivot_cols = {c for _, c in pivots}
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    nullspace = []
    for f in free_cols:
        v = [fld.zero] * ncols
        v[f] = fld.one
        for r, c in pivots:
            v[c] = -a[r][f]
        nullspace.append(tuple(v))
    return SolveOutcome(verdict="feasible", witness=tuple(witness),
                        nullity=len(free_cols), nullspace=tuple(nullspace))


def raw_matrix(system):
    """Dense plain-number matrix and rhs out of a LinearSystem."""
    matrix = [[0] * system.cols for _ in range(system.rows)]
    for r, c, v in system.entries:
        matrix[r][c] = v.value
    return matrix, [v.value for v in system.rhs]


def substitute(system, witness):
    """Check A.witness == b using raw values only."""
    matrix, rhs = raw_matrix(system)
    p = system.field.characteristic
    for r in range(system.rows):
        total = sum(matrix[r][c] * witness[c].value
                    for c in range(system.cols))
        if p:
            if total % p != rhs[r] % p:
                return False
        elif total != rhs[r]:
            return False
    return True


def kills_columns(system, certificate):
    """Check u.A == 0 and u.b != 0 using raw values only."""
    matrix, rhs = raw_matrix(system)
    p = system.field.characteristic
    for c in range(system.cols):
        total = sum(certificate[r].value * matrix[r][c]
                    for r in range(system.rows))
        if (total % p if p else total) != 0:
            return False
    total = sum(certificate[r].value * rhs[r] for r in range(system.rows))
    return (total % p if p else total) != 0


# ---------------------------------------------------------------------------
# structure constants on raw values
#
# Tables, tensors, matrices and vectors here are nested lists of plain
# Fractions (p = 0) or ints (p prime); every sum runs over every index,
# zero or not, and is reduced mod p once at the end.

def raw(obj):
    """Plain values out of a Scalar or any nesting of Scalar tuples."""
    if hasattr(obj, "value"):
        return obj.value
    return [raw(x) for x in obj]


def _reduced(vec, p):
    return [x % p if p else x for x in vec]


def naive_contract(table, u, v, size, p):
    """sum_{i,j} u[i] v[j] table[i][j] (products, brackets, actions)."""
    return _reduced([sum(u[i] * v[j] * table[i][j][k]
                         for i in range(len(u)) for j in range(len(v)))
                     for k in range(size)], p)


def naive_apply(matrix, vec, p):
    """Matrix times vector: a derivation applied to coordinates."""
    return _reduced([sum(row[j] * vec[j] for j in range(len(vec)))
                     for row in matrix], p)


def naive_of_vector(matrices, vec, p):
    """sum_a vec[a] matrices[a]: the anchor of a general Lie element."""
    n = len(matrices[0])
    return [_reduced([sum(vec[a] * matrices[a][i][j]
                          for a in range(len(vec))) for j in range(n)], p)
            for i in range(n)]


def _basis(t, size):
    return [int(k == t) for k in range(size)]


def naive_lie_check(table, p):
    """First failure of check_lie_algebra in its order: ("antisymmetry",
    (a, b), None) or ("jacobi", (a, b, c), value), or None."""
    m = len(table)
    for a in range(m):
        for b in range(a, m):
            mirrored = _reduced([-x for x in table[b][a]], p)
            if (a == b and any(table[a][a])) or (
                    a != b and _reduced(table[a][b], p) != mirrored):
                return "antisymmetry", (a, b), None
    for a in range(m):
        for b in range(m):
            for c in range(m):
                value = [sum(x) for x in zip(
                    naive_contract(table, _basis(a, m), table[b][c], m, p),
                    naive_contract(table, _basis(b, m), table[c][a], m, p),
                    naive_contract(table, _basis(c, m), table[a][b], m, p))]
                value = _reduced(value, p)
                if any(value):
                    return "jacobi", (a, b, c), value
    return None


def naive_action_check(mul_table, tensor, p):
    """First failure of check_module_action: ("unit-acts-as-identity",
    (a,)) or ("action-associativity", (i, j, a)), or None."""
    n, m = len(mul_table), len(tensor[0])
    for a in range(m):
        if _reduced(tensor[0][a], p) != _basis(a, m):
            return "unit-acts-as-identity", (a,)
    for i in range(n):
        for j in range(n):
            for a in range(m):
                lhs = naive_contract(tensor, mul_table[i][j], _basis(a, m),
                                     m, p)
                rhs = naive_contract(tensor, _basis(i, n), tensor[j][a], m,
                                     p)
                if lhs != rhs:
                    return "action-associativity", (i, j, a)
    return None


def naive_leibniz_check(bracket_table, tensor, anchor_matrices, p):
    """First (i, a, b) with [xi_a, e_i.xi_b] != e_i.[xi_a, xi_b] +
    anchor(xi_a)(e_i).xi_b, with both sides, or None."""
    n, m = len(tensor), len(bracket_table)
    for i in range(n):
        for a in range(m):
            image = naive_apply(anchor_matrices[a], _basis(i, n), p)
            for b in range(m):
                lhs = naive_contract(bracket_table, _basis(a, m),
                                     tensor[i][b], m, p)
                rhs = _reduced([x + y for x, y in zip(
                    naive_contract(tensor, _basis(i, n), bracket_table[a][b],
                                   m, p),
                    naive_contract(tensor, image, _basis(b, m), m, p))], p)
                if lhs != rhs:
                    return (i, a, b), lhs, rhs
    return None


# ---------------------------------------------------------------------------
# monomial arithmetic and dimension counting

def monomial_product_mod_ideal(ma, mb, relation_exps):
    """Exponent-tuple product reduced by a monomial ideal: the product
    monomial, or None when it falls into the ideal."""
    prod = tuple(a + b for a, b in zip(ma, mb))
    for rel in relation_exps:
        if all(p >= r for p, r in zip(prod, rel)):
            return None
    return prod


def pbw_dimension(r_dim, l_dim, degree):
    """Expected size of the degree-truncated basis: the base algebra's
    basis (unit included) plus nondecreasing Lie words of each length."""
    return r_dim + sum(comb(t + l_dim - 1, l_dim - 1)
                       for t in range(1, degree + 1))


def overlap_count(r_dim, l_dim):
    """Three-letter words xyz over the non-unit R-letters and the L-letters
    in which (x, y) and (y, z) are both rule left-hand sides.  Every pair
    is one except a nondecreasing pair of L-letters."""
    letters = [("R", i) for i in range(1, r_dim)]
    letters += [("L", a) for a in range(l_dim)]

    def reducible(x, y):
        return not (x[0] == y[0] == "L" and x[1] <= y[1])

    return sum(1 for x, y, z in product(letters, repeat=3)
               if reducible(x, y) and reducible(y, z))


def naive_rules(mul, anchor_matrices, tensor, bracket, p):
    """The rule table spelled out from raw tables: (x, y) -> [(word,
    value)], letters as ("R", i) and ("L", a), the unit R-letter as the
    empty word, in the order merge, straighten, absorb, bracket.  The
    anchor of xi_a sends e_i to column i of its matrix."""
    n, m = len(mul), len(bracket)

    def r_word(k):
        return () if k == 0 else (("R", k),)

    def body(vec, word, swap=None):
        out = [(swap, 1)] if swap else []
        return out + [(word(k), c % p if p else c)
                      for k, c in enumerate(vec) if c]

    rules = {}
    for i, j in product(range(n), repeat=2):
        rules[("R", i), ("R", j)] = body(mul[i][j], r_word)
    for a, i in product(range(m), range(n)):
        column = [row[i] for row in anchor_matrices[a]]
        rules[("L", a), ("R", i)] = body(column, r_word, (("R", i), ("L", a)))
    for i, a in product(range(n), range(m)):
        rules[("R", i), ("L", a)] = body(tensor[i][a], lambda b: (("L", b),))
    for a, b in product(range(m), repeat=2):
        if a > b:
            rules[("L", a), ("L", b)] = body(bracket[a][b],
                                             lambda c: (("L", c),),
                                             (("L", b), ("L", a)))
    return rules


def rightmost_normal_form(elem, system):
    """Normal form of `elem` by rewriting the rightmost redex first, on raw
    values, with a memo local to the call: a third reduction order to hold
    the package's collection and leftmost rewriting against.  It reads the
    compiled rule table, which a test checks against `naive_rules`, and
    assumes that the rules terminate."""
    fld, rules = system.field, system.rules
    p = fld.characteristic
    memo = {}

    def combine(terms):
        out = {}
        for word, c in terms:
            for w, d in memo[word].items():
                out[w] = out.get(w, 0) + c * d
        return {w: v % p if p else v for w, v in out.items()}

    stack = list(elem.terms)
    while stack:
        word = stack[-1]
        if word in memo:
            stack.pop()
            continue
        redexes = [k for k in range(len(word) - 1)
                   if (word[k], word[k + 1]) in rules]
        if not redexes:
            memo[word] = {word: 1}
            stack.pop()
            continue
        k = redexes[-1]
        reduct = [(word[:k] + body + word[k + 2:], c)
                  for body, c in rules[word[k], word[k + 1]]]
        missing = [w for w, _ in reduct if w not in memo]
        if missing:
            stack += missing
        else:
            memo[word] = combine(reduct)
            stack.pop()
    total = combine((w, c.value) for w, c in elem.terms.items())
    return NCElement(fld, {w: fld.scalar(v) for w, v in total.items()})


def reference_verify_divide_certificate(g, t, env, certificate):
    """The package's former certificate replay, kept verbatim as the
    reference for the degree-by-degree one: every column g.w and the
    target are normalised from scratch, in one pass of leftmost
    rewriting, and each column meets the certificate in a dot product
    on raw values."""
    system = env.system
    fld = system.field
    g = normal_form(g, system, "leftmost")  # rows sized as in left_divide
    extended = enumerate_basis(system, env.degree + g.degree)
    if len(certificate) != extended.dim:
        return False
    if any(x.field is not fld and x.field != fld
           for x in (t, *certificate)):
        raise FieldMismatchError("certificate, target and rewrite system "
                                 "over different fields")
    u = [fld.kernel(s.value) for s in certificate]
    columns = _columns(g, env.basis)
    target = _kernel_terms(t)
    memo = _reduce([w for terms in columns + [target] for w, _ in terms],
                   system, "leftmost")
    position = extended.locate()

    def value(terms):
        # only the normal form's few terms meet the certificate
        normal = _normal_column(terms, memo, fld.reduce)
        return fld.reduce(sum(u[position(w)] * c for w, c in normal.items()))

    if any(value(terms) for terms in columns):
        return False
    return bool(value(target))


def reference_check_local_confluence(env):
    """The package's former confluence check, kept verbatim as the
    reference for the one-pass check: the overlaps are sorted in basis
    order and each is reduced both ways in a leftmost pass of its own,
    stopping at the first one whose reducts differ."""
    system = env.system
    name = "local-confluence"
    pairs = _relation_pairs(system)
    after = {}
    for x, y in pairs:
        after.setdefault(x, []).append(y)
    overlaps = sorted(((x, y, z) for x, y in pairs
                       for z in after.get(y, ())), key=_word_sort_key)
    for word in overlaps:
        left, right = (rewrite_once_at(word, pos, system) for pos in (0, 1))
        memo = _reduce([w for w, _ in left + right], system, "leftmost")
        left, right = (_combine({}, terms, memo, system.field.reduce)
                       for terms in (left, right))
        if left != right:
            shown = [system.render_element(_from_raw(system.field, r.items()))
                     for r in (left, right)]
            return VerdictReport(name=name, verdict=FAIL, witnesses=[{
                "word": system.render_word(word), "positions": [0, 1],
                "reduct-at-0": shown[0], "reduct-at-1": shown[1]}])
    return VerdictReport(name=name, verdict=PASS, narrative=[
        f"{len(overlaps)} overlapping redex pairs examined, all joins agree"])


def reference_basis_labels(env):
    """The package's former basis labels: render_word on each word."""
    return tuple(env.system.render_word(w) for w in env.basis)


def _reference_apply_sparse(system, x):
    """A.x computed from the sparse entries."""
    out = [system.field.zero] * system.rows
    for r, c, s in system.entries:
        out[r] = out[r] + s * x[c]
    return out


def reference_verify_witness(system: LinearSystem, witness) -> bool:
    """The package's former witness replay in Scalar arithmetic."""
    if len(witness) != system.cols:
        return False
    residual = _reference_apply_sparse(system, witness)
    return all(not (r - want) for r, want in zip(residual, system.rhs))


def reference_verify_certificate(system: LinearSystem, u) -> bool:
    """The package's former Farkas replay in Scalar arithmetic."""
    if len(u) != system.rows:
        return False
    ua = [system.field.zero] * system.cols
    for r, c, s in system.entries:
        ua[c] = ua[c] + u[r] * s
    if any(ua):
        return False
    return bool(sum((u[r] * s for r, s in enumerate(system.rhs)),
                    system.field.zero))


# ---------------------------------------------------------------------------
# random structure generators (seeded by the caller)

def quotient_pool(fld):
    return [
        make_base_field_algebra(fld),
        make_monomial_quotient(("x",), ("x^2",), fld),
        make_monomial_quotient(("x",), ("x^3",), fld),
        make_monomial_quotient(("x", "y"), ("x*y", "x^2", "y^2"), fld),
        make_monomial_quotient(("x", "y"), ("x^2", "y^2"), fld),
    ]


def lie_pool(fld):
    one, zero = fld.one, fld.zero
    return [
        lie_algebra_from_brackets(fld, ("b1",), {}),
        lie_algebra_from_brackets(fld, ("b1", "b2"), {}),
        lie_algebra_from_brackets(fld, ("b1", "b2"),
                                  {(0, 1): (one, zero)}),
        lie_algebra_from_brackets(fld, ("b1", "b2", "b3"),
                                  {(0, 1): (zero, zero, one)}),
    ]


def natural_character(R: CommAlgebra) -> Character:
    """The evaluation-at-zero character: every generator goes to 0.  For
    monomial quotients with nilpotent generators this is the only one."""
    if R.variables is None:
        return Character(R, (R.field.one,) + (R.field.zero,) * (R.dim - 1))
    return Character.from_variable_values(
        R, {v: R.field.zero for v in R.variables})


def random_element(rng, R, lo=-2, hi=2):
    return R.element(tuple(R.field.scalar(rng.randint(lo, hi))
                           for _ in range(R.dim)))


def random_derivation(rng, R, tries=12):
    """A random valid derivation of R, or None if the draw keeps landing
    on maps that violate Leibniz (they are filtered, never repaired)."""
    if R.variables is None:
        return Derivation.zero(R)
    for _ in range(tries):
        images = {v: random_element(rng, R) for v in R.variables}
        cand = Derivation.from_variable_images(R, images)
        if check_derivation(R, cand.matrix).ok:
            return cand
    return None


def random_character_candidate(rng, fld):
    """(R, L, anchor, chi) with every anchor image a genuine derivation;
    nothing else is filtered, so the compatibility laws may or may not
    hold -- which is the point for equivalence testing."""
    while True:
        R = rng.choice(quotient_pool(fld))
        L = rng.choice(lie_pool(fld))
        derivs = []
        for _ in range(L.dim):
            d = random_derivation(rng, R)
            if d is None:
                break
            derivs.append(d)
        if len(derivs) != L.dim:
            continue
        return R, L, Anchor(tuple(derivs)), natural_character(R)


# (variables, relations, allowed images): a derivation that sends each
# variable into the span of the allowed basis labels is R-linear for the
# evaluation-at-zero character and lands in its kernel.
_NILPOTENT_POOL = (
    ((), (), ()),
    (("x",), ("x^2",), ("x",)),
    (("x",), ("x^3",), ("x^2",)),
    (("x", "y"), ("x*y", "x^2", "y^2"), ("x", "y")),
    (("x", "y"), ("x^2", "y^2"), ("x*y",)),
)


def sl2(fld):
    one, zero = fld.one, fld.zero
    return lie_algebra_from_brackets(fld, ("e", "f", "h"), {
        (0, 1): (zero, zero, one), (0, 2): (-2 * one, zero, zero),
        (1, 2): (zero, 2 * one, zero)})


def random_valid_structure(rng, fld) -> LieRinehartData:
    """A valid structure drawn at random: a nilpotent base algebra from
    _NILPOTENT_POOL, a Lie algebra, the evaluation-at-zero character
    acting as a character or as a tensor, and anchor(xi_a) = s_a D for
    one derivation D, with s_a = 0 on every xi_a that occurs in a bracket
    so that the anchor is a Lie homomorphism."""
    variables, relations, allowed = rng.choice(_NILPOTENT_POOL)
    R = make_monomial_quotient(variables, relations, fld) if variables \
        else make_base_field_algebra(fld)
    L = rng.choice(lie_pool(fld) + [sl2(fld)])
    images = {v: R.element(tuple(
        fld.scalar(rng.randint(-2, 2)) if label in allowed else fld.zero
        for label in R.labels)) for v in variables}
    in_brackets = {c for row in L.table for vec in row
                   for c, x in enumerate(vec) if x}
    derivations = []
    for a in range(L.dim):
        s = 0 if a in in_brackets else rng.randint(-2, 2)
        derivations.append(Derivation.from_variable_images(
            R, {v: s * image for v, image in images.items()})
            if variables else Derivation.zero(R))
    chi = natural_character(R)
    if rng.random() < 0.5:
        action = character_action(chi, L.dim)
    else:
        action = tensor_action(R, L.dim, {
            (i, a, a): chi.values[i] for i in range(R.dim)
            for a in range(L.dim)})
    return LieRinehartData(R=R, L=L, action=action,
                           anchor=Anchor(tuple(derivations)))


def _bumped(nested, index, delta):
    """Copy of a nested tuple with entry `index` increased by delta."""
    out = list(nested)
    out[index[0]] = out[index[0]] + delta if len(index) == 1 \
        else _bumped(nested[index[0]], index[1:], delta)
    return tuple(out)


def break_one_entry(rng, data) -> LieRinehartData:
    """A copy of `data` with one entry of the multiplication table, the
    bracket table, the action tensor or one anchor matrix changed by a
    nonzero value."""
    R, L, action, anchor = data.R, data.L, data.action, data.anchor
    fld = R.field
    p = fld.characteristic
    delta = fld.scalar(rng.randint(1, p - 1) if p else
                       rng.choice((-2, -1, 1, 2, Fraction(1, 2))))
    n, m = R.dim, L.dim
    where = rng.choice(("algebra", "lie", "action", "anchor"))
    if where == "algebra":
        R = replace(R, mul_table=_bumped(R.mul_table, (
            rng.randrange(n), rng.randrange(n), rng.randrange(n)), delta))
        chi = action.character and Character(R, action.character.values)
        action = replace(action, algebra=R, character=chi)
        anchor = Anchor(tuple(Derivation(R, d.matrix)
                              for d in anchor.derivations))
    elif where == "lie":
        L = replace(L, table=_bumped(L.table, (
            rng.randrange(m), rng.randrange(m), rng.randrange(m)), delta))
    elif where == "action":
        action = replace(action, tensor=_bumped(action.tensor, (
            rng.randrange(n), rng.randrange(m), rng.randrange(m)), delta))
    else:
        a = rng.randrange(m)
        d = anchor.derivations[a]
        broken = Derivation(R, _bumped(d.matrix, (
            rng.randrange(n), rng.randrange(n)), delta))
        anchor = Anchor(anchor.derivations[:a] + (broken,)
                        + anchor.derivations[a + 1:])
    return LieRinehartData(R=R, L=L, action=action, anchor=anchor)


def candidate_data(R, L, anchor, chi) -> LieRinehartData:
    return LieRinehartData(R=R, L=L, action=character_action(chi, L.dim),
                           anchor=anchor)


def random_nc_element(rng, system, max_terms=4, max_len=3):
    """Random noncommutative element over both letter alphabets."""
    from lrhopf import l_letter, r_letter
    letters = [r_letter(i) for i in range(1, system.r_dim)]
    letters += [l_letter(a) for a in range(system.l_dim)]
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        word = tuple(rng.choice(letters)
                     for _ in range(rng.randint(0, max_len)))
        c = system.field.scalar(rng.randint(-3, 3))
        terms[word] = terms.get(word, system.field.zero) + c
    return NCElement(system.field, {w: c for w, c in terms.items() if c})


# ---------------------------------------------------------------------------
# dense reference axiom checks
#
# The package's former axiom checks, kept as references for the equality
# test: the same laws in the same loop order, on the dense Scalar tables,
# with their own dense contraction, anchor combination and commutator.
# Each returns the VerdictReport the package's check must equal.

def _dense_combine(vectors, coeffs, size, zero):
    out = [zero] * size
    for vec, c in zip(vectors, coeffs):
        if not c:
            continue
        for k, x in enumerate(vec):
            if x:
                out[k] = out[k] + c * x
    return tuple(out)


def _dense_of_vector(anchor, vec):
    alg = anchor.derivations[0].algebra
    rows = zip(*(d.matrix for d in anchor.derivations))
    return Derivation(alg, tuple(
        _dense_combine(row_i, vec, alg.dim, alg.field.zero) for row_i in rows))


def _dense_commutator(d1, d2):
    alg = d1.algebra
    cols1 = tuple(zip(*d1.matrix))
    cols2 = tuple(zip(*d2.matrix))
    comm = [_dense_combine(cols1 + cols2, c2 + tuple(-x for x in c1),
                           alg.dim, alg.field.zero)
            for c1, c2 in zip(cols1, cols2)]
    return Derivation(alg, tuple(zip(*comm)))


def dense_check_algebra_axioms(algebra):
    name = "algebra-axioms"
    n = algebra.dim
    labels = algebra.labels
    table = algebra.mul_table
    zero = algebra.field.zero
    for i in range(n):
        for j in range(n):
            if table[i][j] != table[j][i]:
                return VerdictReport(name=name, verdict=FAIL, witnesses=[{
                    "law": "commutativity", "pair": [labels[i], labels[j]],
                    "lhs": str(algebra.basis_product(i, j)),
                    "rhs": str(algebra.basis_product(j, i))}])
    for i, prod in enumerate(table[0]):
        if prod[i] != algebra.field.one or any(prod[:i] + prod[i + 1:]):
            return VerdictReport(name=name, verdict=FAIL, witnesses=[{
                "law": "unit", "element": labels[i],
                "lhs": str(algebra.element(prod))}])
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = _dense_combine(table[k], table[i][j], n, zero)
                rhs = _dense_combine(table[i], table[j][k], n, zero)
                if lhs != rhs:
                    return VerdictReport(name=name, verdict=FAIL, witnesses=[{
                        "law": "associativity",
                        "triple": [labels[i], labels[j], labels[k]],
                        "lhs": str(algebra.element(lhs)),
                        "rhs": str(algebra.element(rhs))}])
    return VerdictReport(name=name, verdict=PASS, narrative=[
        f"checked commutativity, unit law and associativity over all "
        f"{n}^3 basis triples"])


def dense_check_derivation(algebra, matrix):
    name = "derivation"
    n = algebra.dim
    d = Derivation(algebra, matrix)
    unit_image = d.column(0)
    if unit_image:
        return VerdictReport(name=name, verdict=FAIL, witnesses=[{
            "law": "unit-annihilation", "value": str(unit_image)}])
    table = algebra.mul_table
    zero = algebra.field.zero
    images = tuple(zip(*matrix))
    for i in range(n):
        for j in range(n):
            lhs = _dense_combine(images, table[i][j], n, zero)
            rhs = _dense_combine([row[j] for row in table] + list(table[i]),
                                 images[i] + images[j], n, zero)
            if lhs != rhs:
                return VerdictReport(name=name, verdict=FAIL, witnesses=[{
                    "law": "leibniz",
                    "pair": [algebra.labels[i], algebra.labels[j]],
                    "lhs": str(algebra.element(lhs)),
                    "rhs": str(algebra.element(rhs))}])
    return VerdictReport(name=name, verdict=PASS, narrative=[
        f"Leibniz verified on all {n}^2 basis pairs, D(1)=0"])


def dense_check_character(algebra, values):
    name = "character"
    n = algebra.dim
    if values[0] != algebra.field.one:
        return VerdictReport(name=name, verdict=FAIL, witnesses=[{
            "law": "unit-value", "value": str(values[0])}])
    for i in range(n):
        for j in range(n):
            lhs = sum((v * c for v, c in zip(values, algebra.mul_table[i][j])
                       if c), algebra.field.zero)
            rhs = values[i] * values[j]
            if (lhs - rhs):
                return VerdictReport(name=name, verdict=FAIL, witnesses=[{
                    "law": "multiplicativity",
                    "pair": [algebra.labels[i], algebra.labels[j]],
                    "lhs": str(lhs), "rhs": str(rhs)}])
    return VerdictReport(name=name, verdict=PASS, narrative=[
        f"chi(1)=1 and multiplicativity verified on all {n}^2 basis pairs"])


def dense_check_lie_algebra(L):
    name = "lie-algebra"
    m = L.dim
    for a in range(m):
        for b in range(a, m):
            if a == b:
                if any(L.table[a][a]):
                    return VerdictReport(name=name, verdict=FAIL, witnesses=[{
                        "law": "antisymmetry",
                        "pair": [L.labels[a], L.labels[a]],
                        "value": L.render(L.table[a][a])}])
            else:
                mirrored = tuple(-c for c in L.table[b][a])
                if L.table[a][b] != mirrored:
                    return VerdictReport(name=name, verdict=FAIL, witnesses=[{
                        "law": "antisymmetry",
                        "pair": [L.labels[a], L.labels[b]],
                        "lhs": L.render(L.table[a][b]),
                        "rhs": "-(" + L.render(L.table[b][a]) + ")"}])
    table = L.table
    for a in range(m):
        for b in range(m):
            for c in range(m):
                total = _dense_combine(
                    table[a] + table[b] + table[c],
                    table[b][c] + table[c][a] + table[a][b], m, L.field.zero)
                if any(total):
                    return VerdictReport(name=name, verdict=FAIL, witnesses=[{
                        "law": "jacobi",
                        "triple": [L.labels[a], L.labels[b], L.labels[c]],
                        "value": L.render(total)}])
    return VerdictReport(name=name, verdict=PASS, narrative=[
        f"antisymmetry and Jacobi verified over all {m}^3 basis triples"])


def dense_check_module_action(R, action):
    name = "module-action"
    m = action.lie_dim
    tensor = action.tensor
    for a, row in enumerate(tensor[0]):
        if row[a] != R.field.one or any(row[:a] + row[a + 1:]):
            return VerdictReport(name=name, verdict=FAIL, witnesses=[{
                "law": "unit-acts-as-identity", "element": f"index {a}",
                "value": render_linear(row,
                                       tuple(f"xi_{b}" for b in range(m)))}])
    acting_on = [[slab[a] for slab in tensor] for a in range(m)]
    for i in range(R.dim):
        for j in range(R.dim):
            for a in range(m):
                lhs = _dense_combine(acting_on[a], R.mul_table[i][j], m,
                                     R.field.zero)
                rhs = _dense_combine(tensor[i], tensor[j][a], m,
                                     R.field.zero)
                if lhs != rhs:
                    return VerdictReport(name=name, verdict=FAIL, witnesses=[{
                        "law": "action-associativity",
                        "triple": [R.labels[i], R.labels[j], f"index {a}"]}])
    return VerdictReport(name=name, verdict=PASS, narrative=[
        "unit slice is the identity; action associative on all basis "
        "triples"])


def dense_check_anchor_lie_hom(data):
    name = "anchor-lie-homomorphism"
    L = data.L
    for a in range(L.dim):
        for b in range(L.dim):
            lhs = _dense_of_vector(data.anchor, L.table[a][b])
            rhs = _dense_commutator(data.anchor.rho(a), data.anchor.rho(b))
            if lhs.matrix != rhs.matrix:
                diff = tuple(tuple(x - y for x, y in zip(r1, r2))
                             for r1, r2 in zip(lhs.matrix, rhs.matrix))
                return VerdictReport(name=name, verdict=FAIL, witnesses=[{
                    "pair": [L.labels[a], L.labels[b]],
                    "difference-matrix": [[str(c) for c in row]
                                          for row in diff]}])
    return VerdictReport(name=name, verdict=PASS, narrative=[
        f"anchor respects the bracket on all {L.dim}^2 basis pairs"])


def dense_check_anchor_r_linear(data):
    name = "anchor-r-linearity"
    R, L = data.R, data.L
    for i in range(R.dim):
        for a in range(L.dim):
            scaled = _dense_of_vector(data.anchor, data.action.tensor[i][a])
            for j in range(R.dim):
                lhs = scaled.column(j)
                image = data.anchor.rho(a).column(j).coeffs
                rhs = _dense_combine(R.mul_table[i], image, R.dim,
                                     R.field.zero)
                if lhs.coeffs != rhs:
                    return VerdictReport(name=name, verdict=FAIL, witnesses=[{
                        "triple": [R.labels[i], L.labels[a], R.labels[j]],
                        "lhs": str(lhs), "rhs": str(R.element(rhs))}])
    return VerdictReport(name=name, verdict=PASS, narrative=[
        f"R-linearity verified on all {R.dim}x{L.dim}x{R.dim} triples"])


def dense_check_leibniz(data):
    name = "leibniz-compatibility"
    R, L = data.R, data.L
    m = L.dim
    tensor = data.action.tensor
    acting_on = [[slab[b] for slab in tensor] for b in range(m)]
    for i in range(R.dim):
        for a in range(m):
            shift = tuple(row[i] for row in data.anchor.rho(a).matrix)
            for b in range(m):
                lhs = _dense_combine(L.table[a], tensor[i][b], m,
                                     L.field.zero)
                rhs = _dense_combine(list(tensor[i]) + acting_on[b],
                                     L.table[a][b] + shift, m, L.field.zero)
                if lhs != rhs:
                    return VerdictReport(name=name, verdict=FAIL, witnesses=[{
                        "triple": [R.labels[i], L.labels[a], L.labels[b]],
                        "lhs": L.render(lhs), "rhs": L.render(rhs)}])
    return VerdictReport(name=name, verdict=PASS, narrative=[
        f"mixed Leibniz rule verified on all {R.dim}x{L.dim}^2 triples"])


def dense_character_criterion(R, L, anchor, chi):
    name = "character-criterion"

    def r_linearity_failure():
        for i in range(R.dim):
            for a in range(anchor.lie_dim):
                for j in range(R.dim):
                    img = anchor.rho(a).column(j).coeffs
                    lhs = tuple(chi.values[i] * c for c in img)
                    rhs = _dense_combine(R.mul_table[i], img, R.dim,
                                         R.field.zero)
                    if lhs != rhs:
                        return {"condition": "r-linearity",
                                "triple": [R.labels[i], L.labels[a],
                                           R.labels[j]],
                                "lhs": str(R.element(lhs)),
                                "rhs": str(R.element(rhs))}

    def kernel_failure():
        for a in range(anchor.lie_dim):
            for i in range(R.dim):
                value = chi.apply(anchor.rho(a).column(i))
                if value:
                    return {"condition": "anchor-into-kernel",
                            "pair": [L.labels[a], R.labels[i]],
                            "value": str(value)}

    witnesses, narrative = [], []
    for found, held in (
            (r_linearity_failure(),
             "(a) anchor is R-linear for the character action"),
            (kernel_failure(),
             "(b) every anchor value is annihilated by chi")):
        if found:
            witnesses.append(found)
        else:
            narrative.append(held)
    return VerdictReport(name=name, verdict=PASS if not witnesses else FAIL,
                         witnesses=witnesses, narrative=narrative)


def dense_validate(data):
    """The reports of validate_lie_rinehart, in its order."""
    reports = [dense_check_algebra_axioms(data.R),
               dense_check_lie_algebra(data.L),
               dense_check_module_action(data.R, data.action)]
    for a, d in enumerate(data.anchor.derivations):
        rep = dense_check_derivation(data.R, d.matrix)
        reports.append(VerdictReport(
            name=f"derivation[{data.L.labels[a]}]", verdict=rep.verdict,
            witnesses=rep.witnesses, narrative=rep.narrative))
    if data.action.kind == "character":
        reports.append(dense_check_character(
            data.R, data.action.character.values))
    reports += [dense_check_anchor_lie_hom(data),
                dense_check_anchor_r_linear(data),
                dense_check_leibniz(data)]
    return reports
