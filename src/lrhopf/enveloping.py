"""The enveloping algebra of a Lie-Rinehart structure, by term rewriting.

Elements are K-linear combinations of words in two letter kinds: R-letters
(images of the base-algebra basis, with the unit identified with the empty
word) and L-letters (images of the Lie-algebra basis).  Four rewrite rule
families orient the defining relations:

  R1  e_i e_j          -> sum_k c[i][j][k] e_k          (merge R-letters)
  R2  xi_a e_i         -> e_i xi_a + sum_k rho_a(e_i)_k e_k
  R3  e_i xi_a         -> sum_b t[i][a][b] xi_b          (i not the unit)
  R4  xi_a xi_b (a>b)  -> xi_b xi_a + sum_c f[a][b][c] xi_c

Every rule strictly decreases the measure (L-letter count, R-letter count,
inversion count) in lexicographic order, so rewriting terminates; words
irreducible under all four families are the empty word, single non-unit
R-letters, and nondecreasing L-letter words.  Truncating by L-letter count
gives finite bases; local confluence is checked per input rather than
assumed, and the induced action on the base algebra is certified by letting
every defining relation act on every basis element.

Collection from the left on raw field values (`normal_form`'s default)
is the solver's path.  It moves an L-letter past a whole power a^i of a
normal word in one step, by the binomial formula for x.a^i in U(L) (de
Graaf, Lie Algebras: Theory and Algorithms, ch. 6), where rewriting
takes i swaps.  The confluence check and the divisibility replays reduce
by leftmost rewriting, one rule at a time; the confluence check reduces
the reducts of every overlap in one pass.  The two are steps of one
reduction loop with one step budget, on raw values, but each keeps a
memo of its own, so the replays check the solver's products by another
algorithm and without sharing its bookkeeping.  The certificate replay
builds its columns one degree at a time, by NF(g.w'.l) = NF(NF(g.w').l)
for a basis word w'.l, which holds because the rules are confluent, and
stops at the first degree whose columns are all zero.
Raw values are in the field's kernel form (`Field.kernel`): over Q an
integral coefficient is an int, in the compiled rules, the memos and the
divisibility systems, and a Scalar is made only for what is returned.
The rules are compiled from the sparse raw rows each structure caches,
and the induced action on the base algebra runs on them through
`finalg.combine_rows`, the one accumulation kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from itertools import combinations_with_replacement, count
from math import comb
from typing import NamedTuple

from .errors import (
    DegreeOverflowError,
    LrhInputError,
    RewriteBudgetError,
)
from .finalg import (AlgebraElement, combine_rows, dense_row, render_linear,
                     sparse_row, sparse_table)
from .lierinehart import LieRinehartData
from .reports import FAIL, PASS, VerdictReport
from .scalars import (LinearSystem, SolveOutcome, check_solve_size,
                      solve_linear)

R_KIND = "R"
L_KIND = "L"
# A stored basis costs about 70 bytes per letter: 1 M letters is ~70 MB.
MAX_BASIS_LETTERS = 1_000_000


class Letter(NamedTuple):
    kind: str
    index: int


def r_letter(index: int) -> Letter:
    return Letter(R_KIND, index)


def l_letter(index: int) -> Letter:
    return Letter(L_KIND, index)


def word_degree(word: tuple) -> int:
    """L-letter count; the filtration degree of a monomial word."""
    return sum(1 for x in word if x.kind == L_KIND)


class NCElement:
    """Linear combination of words; zero coefficients are never stored,
    and a coefficient over another field is refused."""

    __slots__ = ("field", "terms")

    def __init__(self, field, terms: dict):
        field.require(terms.values(), "coefficient")
        self.field = field
        self.terms = {w: c for w, c in terms.items() if c}

    @classmethod
    def zero(cls, field) -> "NCElement":
        return cls(field, {})

    @classmethod
    def unit(cls, field) -> "NCElement":
        return cls(field, {(): field.one})

    @classmethod
    def from_word(cls, field, word, coeff=None) -> "NCElement":
        return cls(field, {tuple(word): coeff if coeff is not None
                           else field.one})

    @property
    def degree(self) -> int:
        return max((word_degree(w) for w in self.terms), default=0)

    def _merge(self, other, sign):
        self.field.require((other,), "element")
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, self.field.zero) + sign * c
        return NCElement(self.field, terms)

    def __add__(self, other):
        return self._merge(other, self.field.one)

    def __sub__(self, other):
        return self._merge(other, -self.field.one)

    def __neg__(self):
        return NCElement(self.field,
                         {w: -c for w, c in self.terms.items()})

    def __rmul__(self, scalar):
        s = self.field.scalar(scalar)
        return NCElement(self.field,
                         {w: s * c for w, c in self.terms.items()})

    def concat(self, other) -> "NCElement":
        """Free (unnormalized) product: concatenate all word pairs."""
        fld = self.field
        fld.require((other,), "element")
        terms = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                terms[w] = terms.get(w, 0) + c1.value * c2.value
        return _from_raw(fld, ((w, fld.reduce(v)) for w, v in terms.items()))

    def __eq__(self, other):
        return isinstance(other, NCElement) and self.field == other.field \
            and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"NCElement({self.terms!r})"


def _from_raw(fld, terms) -> NCElement:
    """The element of (word, reduced raw value) pairs; zeros are dropped."""
    return NCElement(fld, {w: fld.wrap(c) for w, c in terms})


def _kernel_terms(elem: NCElement) -> list:
    """The (word, raw value) terms of an element, in kernel form."""
    kernel = elem.field.kernel
    return [(w, kernel(c.value)) for w, c in elem.terms.items()]


def _word(kind: str, k: int) -> tuple:
    """Single letter as a word; the unit R-letter is the empty word."""
    return () if kind == R_KIND and k == 0 else (Letter(kind, k),)


def _word_sort_key(word):
    return (word_degree(word), len(word),
            tuple((0 if x.kind == R_KIND else 1, x.index) for x in word))


@dataclass(frozen=True)
class RewriteSystem:
    """The four rule families, compiled once from `source` into `rules`:
    each reducible letter pair, the unit letter's included, maps to its
    right-hand side, a list of (word, raw value in kernel form) over
    distinct words, family by family and left letter outer.  `rho_table`
    stays a field so that tests can tamper with the anchor; a
    `dataclasses.replace` copy recompiles its rules, and acts on the base
    algebra, from the sparse rows of its own `rho_table` (`sparse_rho`).

    `normal_forms` memoises reduced words, one dict per engine ("collect"
    and "leftmost") from word to {normal word: raw value}, `expansions`
    holds collection's expansions of x.a^i (`_syllable`), and
    `basis_words` and `basis_index` hold the PBW basis that every
    truncated basis is a prefix of, with `basis_ends[d]` the number of
    its words of degree at most d.  They belong to this object alone: a
    `dataclasses.replace` copy starts empty, and the engines never share
    results, so comparing them stays a real cross-check."""

    field: object
    r_labels: tuple
    l_labels: tuple
    rho_table: tuple      # R2: rho_table[a][i] = coeffs of rho_a(e_i) in R
    source: LieRinehartData
    rules: dict = dc_field(default_factory=dict, init=False,
                           compare=False, repr=False)
    normal_forms: dict = dc_field(default_factory=dict, init=False,
                                  compare=False, repr=False)
    basis_words: list = dc_field(default_factory=list, init=False,
                                 compare=False, repr=False)
    basis_index: dict = dc_field(default_factory=dict, init=False,
                                 compare=False, repr=False)
    basis_ends: list = dc_field(default_factory=list, init=False,
                                compare=False, repr=False)
    expansions: dict = dc_field(default_factory=dict, init=False,
                                compare=False, repr=False)

    def __post_init__(self):
        rs = [r_letter(i) for i in range(self.r_dim)]
        ls = [l_letter(a) for a in range(self.l_dim)]
        for lefts, rights, table, kind, swaps in (
                (rs, rs, self.source.R.sparse_table, R_KIND, False),
                (ls, rs, self.sparse_rho, R_KIND, True),
                (rs, ls, self.source.action.sparse_tensor, L_KIND, False),
                (ls, ls, self.source.L.sparse_table, L_KIND, True)):
            for x in lefts:
                for y in rights:
                    if x.kind == y.kind == L_KIND and x.index <= y.index:
                        continue  # a nondecreasing L-pair is irreducible
                    rhs = [((y, x), 1)] if swaps else []
                    rhs += [(_word(kind, k), c) for k, c in
                            table[x.index][y.index].items()]
                    self.rules[x, y] = rhs

    @cached_property
    def sparse_rho(self) -> tuple:
        """rho_table as sparse raw rows, sparse_rho[a][i] = rho_a(e_i);
        made from this object's own rho_table, so a tampered copy reads
        its own anchor."""
        return sparse_table(self.rho_table)

    @property
    def r_dim(self) -> int:
        return len(self.r_labels)

    @property
    def l_dim(self) -> int:
        return len(self.l_labels)

    def grow_basis(self, size: int) -> list:
        """The basis words, extended by whole degrees to at least `size`.
        The next degree is read from `basis_ends`, so growing to degree D
        rescans no word and costs time linear in the words it adds."""
        words, ends = self.basis_words, self.basis_ends
        letters = [l_letter(a) for a in range(self.l_dim)]
        while len(words) < size:
            degree = len(ends)
            new = [tuple(map(letters.__getitem__, combo)) for combo in
                   combinations_with_replacement(range(self.l_dim), degree)]
            if degree == 0:
                new += [(r_letter(i),) for i in range(1, self.r_dim)]
            self.basis_index.update(zip(new, count(len(words))))
            words += new
            ends.append(len(words))
        return words

    def letter_text(self, letter: Letter) -> str:
        if letter.kind == R_KIND:
            return self.r_labels[letter.index]
        return self.l_labels[letter.index] + "̄"

    def render_word(self, word: tuple) -> str:
        if not word:
            return "1"
        return " ".join(self.letter_text(x) for x in word)

    def render_element(self, elem: NCElement) -> str:
        words = sorted(elem.terms, key=_word_sort_key)
        unit = words.index(()) if () in elem.terms else None
        return render_linear([elem.terms[w] for w in words],
                             [self.render_word(w) for w in words],
                             unit_index=unit)


def build_rewrite_system(data: LieRinehartData) -> RewriteSystem:
    """Instantiate the four rule families from the structure constants.
    Only validated data is accepted: the rules encode the axioms, and on
    invalid data the system they generate need not terminate on a basis."""
    if not data.validated:
        raise LrhInputError(
            "rewrite system requires validated data; run the axiom checks "
            "or use the character-module constructor")
    n = data.R.dim
    rho = tuple(
        tuple(tuple(d.matrix[k][j] for k in range(n)) for j in range(n))
        for d in data.anchor.derivations)
    return RewriteSystem(
        field=data.R.field,
        r_labels=data.R.labels,
        l_labels=data.L.labels,
        rho_table=rho,
        source=data)


def pair_rule(system: RewriteSystem, x: Letter, y: Letter):
    """RHS of the rule rewriting the two-letter word (x, y), as a list of
    (replacement word, raw value), or None when the pair is irreducible:
    one lookup in the compiled rules."""
    return system.rules.get((x, y))


def find_redex(word: tuple, system: RewriteSystem) -> int:
    """Position of the leftmost redex, or -1 when the word is irreducible."""
    for p in range(len(word) - 1):
        if pair_rule(system, word[p], word[p + 1]) is not None:
            return p
    return -1


def rewrite_once_at(word: tuple, pos: int, system: RewriteSystem) -> list:
    """The (word, raw value) terms, over distinct words, of one rewrite
    at `pos`."""
    rhs = pair_rule(system, word[pos], word[pos + 1])
    if rhs is None:
        raise LrhInputError("no rule applies at the requested position")
    prefix, suffix = word[:pos], word[pos + 2:]
    return [(prefix + body + suffix, c) for body, c in rhs]


def normal_form(elem: NCElement, system: RewriteSystem,
                strategy: str = "collect") -> NCElement:
    """Reduce every term to irreducible words.

    `collect`, the default, collects from the left.  A word x.rest whose
    first pair (x, rest[0]) holds an R-letter and is a rule becomes that
    rule's bodies followed by rest[1:].  Otherwise, and always when x and
    rest[0] are L-letters, x is folded onto each normal word v of
    NF(rest): x.v is normal unless (x, v[0]) is a rule.  An L-letter x
    moves past a leading power a^i of v in one step (`_fold`); any other
    rule's bodies go in front of v[1:].  `leftmost` rewrites one leftmost
    redex at a time: the independent path of the replays and the
    confluence check.

    Both strategies are steps of one loop (`_reduce`), and each memoises
    the normal forms of the words it reduces on the system in a memo of
    its own, as raw field values; a Scalar is made only for the returned
    element.  The loop runs over an explicit stack, so word length is not
    capped by recursion, and the step budget is one step per word per
    call.  No rule body is longer than the pair it replaces and every
    letter comes from the finite tables, so only finitely many words
    occur, and reduction fails to terminate only by cycling.  A successor
    that is still pending (an ancestor on the stack) or longer than its
    word therefore raises RewriteBudgetError, an internal error, at the
    first repeat."""
    fld = system.field
    fld.require((elem,), "element")
    if strategy not in _STEPS:
        raise LrhInputError(f"unknown reduction strategy {strategy!r}")
    memo = _reduce(elem.terms, system, strategy)
    total = _combine({}, _kernel_terms(elem), memo, fld.reduce)
    return _from_raw(fld, total.items())


def _combine(out: dict, terms, memo: dict, reduce) -> dict:
    """Add to `out`, which holds reduced nonzero values, the memoised
    normal form of each (word, raw coefficient) term times its
    coefficient; return the sum without zeros."""
    if not terms:
        return out
    for word, c in terms:
        for w, c2 in memo[word].items():
            out[w] = out.get(w, 0) + c * c2
    return {w: r for w, v in out.items() if (r := reduce(v))}


def _unreduced(system: RewriteSystem, word: tuple, terms,
               memo: dict, waiting) -> list:
    """The successor words of the (word, raw value) `terms` not reduced
    yet.  One that is in `waiting`, still waiting for its own successors,
    or longer than `word` breaks the step budget."""
    missing = [w for w, _ in terms if w not in memo]
    for w in missing:
        if w in waiting or len(w) > len(word):
            raise RewriteBudgetError(
                f"rewriting {system.render_word(word)} gave "
                f"{system.render_word(w)}, a "
                + ("longer word" if len(w) > len(word) else
                   "word still being reduced")
                + "; rewriting exceeded its step budget of one "
                "rewrite per word, so the rule tables cannot come "
                "from a terminating presentation")
    return missing


_SUFFIX = object()  # a step waiting for the normal form of its suffix


def _reduce(words, system: RewriteSystem, strategy: str) -> dict:
    """The memo of `strategy`, holding every word of `words`.  The
    strategy's step turns a word into its plan: the raw coefficients of
    the normal words it already knows and the (successor, raw
    coefficient) terms it needs.  The collection step may instead answer
    _SUFFIX: the word x.rest then waits for NF(rest), and x is folded onto
    it.  The stack holds (word, state) frames: a new word, a word waiting
    for its suffix, or a word with its plan, waiting for the normal forms
    of its successors.  A plan with no successors is stored as it stands,
    and a word whose plan is one successor with coefficient one shares
    that successor's memo entry; entries never change once stored."""
    memo = system.normal_forms.setdefault(strategy, {})
    step = _STEPS[strategy]
    reduce = system.field.reduce
    waiting = set()  # words with a plan whose successors are not reduced
    stack = [(word, None) for word in words]
    while stack:
        word, state = stack.pop()
        if state is None:
            if word in memo:
                continue
            plan = step(system, word, memo)
            if plan is _SUFFIX:  # the suffix is shorter: never waiting
                stack += ((word, _SUFFIX), (word[1:], None))
                continue
        elif state is _SUFFIX:
            plan = _fold(system, word[0], memo[word[1:]])
        else:
            waiting.discard(word)
            memo[word] = _planned(state, memo, reduce)
            continue
        if not plan[1]:
            memo[word] = plan[0]
            continue
        missing = _unreduced(system, word, plan[1], memo, waiting)
        if missing:
            waiting.add(word)
            stack.append((word, plan))
            stack += ((w, None) for w in missing)
        else:
            memo[word] = _planned(plan, memo, reduce)
    return memo


def _leftmost_step(system: RewriteSystem, word: tuple, memo: dict) -> tuple:
    """The plan of one rewrite at the leftmost redex; an irreducible word
    is its own normal form."""
    pos = find_redex(word, system)
    if pos < 0:
        return {word: 1}, ()
    return {}, rewrite_once_at(word, pos, system)


def _collect_step(system: RewriteSystem, word: tuple, memo: dict):
    """The plan of x.rest: the rule's bodies in front of rest[1:] when
    (x, rest[0]) holds an R-letter and is a rule, else x folded onto
    NF(rest), or _SUFFIX while NF(rest) is not in the memo."""
    if len(word) < 2:
        return {word: 1}, ()
    x, y = word[0], word[1]
    rhs = None if x.kind == y.kind == L_KIND else pair_rule(system, x, y)
    if rhs is not None:
        tail = word[2:]
        return {}, [(body + tail, c) for body, c in rhs]
    reduced = memo.get(word[1:])
    if reduced is None:
        return _SUFFIX
    return _fold(system, x, reduced)


_STEPS = {"collect": _collect_step, "leftmost": _leftmost_step}


def _planned(plan: tuple, memo: dict, reduce) -> dict:
    """The normal form a plan adds up to; one successor with coefficient
    one shares its memo entry."""
    normal, terms = plan
    if not normal and len(terms) == 1 and terms[0][1] == 1:
        return memo[terms[0][0]]
    return _combine(normal, terms, memo, reduce)


def _fold(system: RewriteSystem, x: Letter, reduced: dict) -> tuple:
    """The plan of x times the normal element `reduced` (raw values).

    x.v is normal unless (x, v[0]) is a rule.  When x and v[0] = a are
    L-letters and v = a^i.w starts with a syllable a^i, i >= 2, x moves
    past the whole syllable in one step:

      x.a^i = sum_{s=0..i} C(i, s) a^(i-s).D^s(x),  D(y) = [y, a],

    since right multiplication by a is left multiplication by a plus D,
    and the two commute.  A word a^(i-s).c.w is normal unless (a, c) or
    (c, w[0]) is a rule; otherwise it is a successor.  Any other v has
    the rule's bodies put in front of v[1:]."""
    normal, terms, syllables = {}, [], {}
    for v, d in reduced.items():
        rhs = pair_rule(system, x, v[0]) if v else None
        if rhs is None:
            normal[(x,) + v] = d
            continue
        a = v[0]
        if x.kind != L_KIND or a.kind != L_KIND or v[1:2] != (a,):
            tail = v[1:]
            terms += [(body + tail, d * c) for body, c in rhs]
            continue
        i = 2
        while i < len(v) and v[i] == a:
            i += 1
        expansion = system.expansions.get((x, a, i))
        if expansion is None:
            expansion = system.expansions[x, a, i] = \
                _syllable(system, x, a, i)
        w = v[i:]
        follows = w and w[0]
        for head, c, k, blocked in expansion:
            word = head + w
            if blocked or \
                    (follows and pair_rule(system, c, follows) is not None):
                terms.append((word, d * k))
            else:
                syllables[word] = syllables.get(word, 0) + d * k
    if syllables:
        reduce = system.field.reduce
        for word, c in syllables.items():  # such a word may also be x.v
            r = reduce(normal.get(word, 0) + c)
            if r:
                normal[word] = r
            else:
                normal.pop(word, None)
    return normal, terms


def _syllable(system: RewriteSystem, x: Letter, a: Letter, i: int) -> list:
    """x.a^i = sum_s C(i, s) a^(i-s).D^s(x) for D(y) = [y, a], as a list
    of (a^(i-s).c, c, raw value, whether (a, c) is a rule) over the
    L-letters c of each D^s(x), s = 0..i, up to the first D^s(x) that is
    zero."""
    reduce = system.field.reduce
    out, power = [], {x: 1}
    for s in range(i + 1):
        for c, f in power.items():
            k = reduce(comb(i, s) * f)
            if k:
                out.append(((a,) * (i - s) + (c,), c, k,
                            s < i and pair_rule(system, a, c) is not None))
        if s == i:
            break
        nxt = {}
        for c, f in power.items():
            for b, g in _bracket(system, c, a):
                nxt[b] = nxt.get(b, 0) + f * g
        power = {b: r for b, v in nxt.items() if (r := reduce(v))}
        if not power:
            break
    return out


def _bracket(system: RewriteSystem, c: Letter, a: Letter) -> list:
    """The (L-letter, raw value) terms of [c, a] for L-letters c and a.
    Every L-pair rule is compiled as the swap with coefficient one
    followed by single L-letters, so [c, a] is the rule at (c, a) past
    its swap, or the rule at (a, c) past its swap with the sign
    changed."""
    if c == a:
        return []
    rhs = pair_rule(system, c, a)
    if rhs is not None:
        return [(body[0], f) for body, f in rhs[1:]]
    return [(body[0], -f) for body, f in pair_rule(system, a, c)[1:]]


# ---------------------------------------------------------------------------
# truncated bases

@dataclass(frozen=True, eq=False)
class TruncatedEnvelope:
    """The words of L-degree <= `degree`, a prefix of the system's basis."""

    system: RewriteSystem
    degree: int

    @cached_property
    def dim(self) -> int:
        return self.system.r_dim - 1 + comb(self.system.l_dim + self.degree,
                                            self.degree)

    @cached_property
    def basis(self) -> tuple:
        return tuple(self.system.grow_basis(self.dim)[:self.dim])

    def position(self, word: tuple) -> int:
        """Index of a normal word in the basis; a word beyond the
        truncation raises DegreeOverflowError."""
        return self.locate()(word)

    def locate(self):
        """`position` for many words: the basis is grown once, and each
        word is then one lookup in the system's basis index."""
        dim, system = self.dim, self.system
        system.grow_basis(dim)
        index = system.basis_index

        def position(word):
            pos = index.get(word, dim)
            if pos >= dim:
                raise DegreeOverflowError(
                    f"term {system.render_word(word)} lies outside the "
                    f"degree-{self.degree} basis")
            return pos

        return position

    def coords(self, elem: NCElement) -> tuple:
        position = self.locate()
        out = [self.system.field.zero] * self.dim
        for w, c in elem.terms.items():
            out[position(w)] = c
        return tuple(out)

    def element(self, coords) -> NCElement:
        if len(coords) != self.dim:
            raise LrhInputError("coordinate vector has wrong length")
        return NCElement(self.system.field,
                         {w: self.system.field.scalar(c)
                          for w, c in zip(self.basis, coords)})

    def basis_labels(self) -> tuple:
        """`render_word` of each basis word.  Every prefix of a basis word
        is a basis word of one degree less, and comes before it, so a word
        of two or more letters is labelled by its prefix's label and its
        last letter; a shorter word is one join over the letter texts."""
        system = self.system
        text = {x: system.letter_text(x) for x in
                [r_letter(i) for i in range(system.r_dim)]
                + [l_letter(a) for a in range(system.l_dim)]}
        labels = {}
        for w in self.basis:
            labels[w] = labels[w[:-1]] + " " + text[w[-1]] if len(w) > 1 \
                else " ".join(map(text.__getitem__, w)) or "1"
        return tuple(labels.values())


def enumerate_basis(system: RewriteSystem, degree: int) -> TruncatedEnvelope:
    """All irreducible words of L-degree at most `degree`: the empty word,
    each non-unit R-letter, and every nondecreasing L-letter word, ordered
    by degree and then lexicographically, built when first read."""
    if degree < 0:
        raise LrhInputError("truncation degree must be nonnegative")
    # C(m+t-1, t) words of degree t hold m C(m+D, m+1) letters up to D
    m = system.l_dim
    letters = system.r_dim - 1 + m * comb(m + degree, m + 1)
    if letters > MAX_BASIS_LETTERS:
        raise LrhInputError(
            f"the degree-{degree} basis would hold {letters} letters, over "
            f"the limit of {MAX_BASIS_LETTERS} (MAX_BASIS_LETTERS)")
    return TruncatedEnvelope(system=system, degree=degree)


def multiply_truncated(a: NCElement, b: NCElement,
                       env: TruncatedEnvelope) -> NCElement:
    """Concatenate then normalize.  Refuses when the degrees could leave
    the truncation window; silent truncation would corrupt verdicts."""
    if a.degree + b.degree > env.degree:
        raise DegreeOverflowError(
            f"product degree {a.degree}+{b.degree} exceeds the truncation "
            f"bound {env.degree}")
    return normal_form(a.concat(b), env.system)


def check_local_confluence(env: TruncatedEnvelope) -> VerdictReport:
    """Reduce every overlap ambiguity both ways and compare normal forms.
    Every left-hand side has length 2, so the ambiguities are exactly the
    three-letter words xyz with (x, y) and (y, z) both pairs of the
    compiled rules, the unit letter left out; with termination, their
    joinability is confluence (Bergman's diamond lemma).  Every overlap
    is rewritten at both positions, all the reducts are normalised in one
    pass of leftmost rewriting, with its own memo, and the two sides are
    compared as raw values, so a report does not depend on what
    collection stored.  The witness is the first failing overlap in
    basis order.  The pass reduces every reduct, so a rule table that
    cycles raises RewriteBudgetError even when some overlap fails."""
    system = env.system
    name = "local-confluence"
    pairs = _relation_pairs(system)
    after = {}
    for x, y in pairs:
        after.setdefault(x, []).append(y)
    overlaps = [(x, y, z) for x, y in pairs for z in after.get(y, ())]
    reducts = [[rewrite_once_at(word, pos, system) for pos in (0, 1)]
               for word in overlaps]
    memo = _reduce([w for sides in reducts for terms in sides
                    for w, _ in terms], system, "leftmost")
    reduce = system.field.reduce
    failing = []
    for word, sides in zip(overlaps, reducts):
        left, right = (_combine({}, terms, memo, reduce) for terms in sides)
        if left != right:
            failing.append((_word_sort_key(word), word, left, right))
    if failing:
        _, word, left, right = min(failing)
        shown = [system.render_element(_from_raw(system.field, r.items()))
                 for r in (left, right)]
        return VerdictReport(name=name, verdict=FAIL, witnesses=[{
            "word": system.render_word(word), "positions": [0, 1],
            "reduct-at-0": shown[0], "reduct-at-1": shown[1]}])
    return VerdictReport(name=name, verdict=PASS, narrative=[
        f"{len(overlaps)} overlapping redex pairs examined, all joins agree"])


# ---------------------------------------------------------------------------
# the induced action on the base algebra

def left_action_on_R(v: NCElement, r: AlgebraElement,
                     env: TruncatedEnvelope) -> AlgebraElement:
    """Act on the base algebra: an R-letter multiplies, an L-letter applies
    its anchor derivation, letters applied right to left along each word."""
    alg = env.system.source.R
    if r.algebra != alg:
        raise LrhInputError("element does not live in the base algebra")
    alg.field.require((v,), "element")
    reduce = alg.field.reduce
    tables = {R_KIND: alg.sparse_table, L_KIND: env.system.sparse_rho}
    images = []
    for word in v.terms:
        acc = sparse_row(r.coeffs)
        for letter in reversed(word):
            # e_i.r and rho_a(r) are both r combined with a table row
            acc = combine_rows(reduce,
                               (acc, tables[letter.kind][letter.index]))
        images.append(acc)
    coeffs = sparse_row(tuple(v.terms.values()))
    return AlgebraElement(alg, dense_row(alg.field, combine_rows(
        reduce, (coeffs, images)), alg.dim))


def _relation_pairs(system: RewriteSystem) -> list:
    """The reducible pairs without the unit letter, in rule order."""
    return [pair for pair in system.rules if r_letter(0) not in pair]


_FAMILIES = {(R_KIND, R_KIND): "merge", (L_KIND, R_KIND): "straighten",
             (R_KIND, L_KIND): "absorb", (L_KIND, L_KIND): "bracket"}


def relation_elements(system: RewriteSystem) -> list:
    """The defining relations as (name, element) pairs: for each rule,
    LHS minus RHS.  Normalizing any of these must give zero, and each must
    act as zero on the base algebra."""
    fld = system.field
    labels = {R_KIND: system.r_labels, L_KIND: system.l_labels}
    return [(f"{_FAMILIES[x.kind, y.kind]}"
             f"[{labels[x.kind][x.index]},{labels[y.kind][y.index]}]",
             NCElement.from_word(fld, (x, y))
             - _from_raw(fld, system.rules[x, y]))
            for x, y in _relation_pairs(system)]


def relations_act_as_zero(system: RewriteSystem, act, name: str,
                          narrative: str) -> VerdictReport:
    """Well-definedness of an action on the base algebra: `act(relation,
    basis element)` must vanish for every defining relation and every
    basis element; the first nonzero image is the witness."""
    alg = system.source.R
    for rel_name, rel in relation_elements(system):
        for i in range(alg.dim):
            image = act(rel, alg.basis_element(i))
            if image:
                return VerdictReport(name=name, verdict=FAIL, witnesses=[{
                    "relation": rel_name, "argument": alg.labels[i],
                    "image": str(image)}])
    return VerdictReport(name=name, verdict=PASS, narrative=[narrative])


def certify_left_action(env: TruncatedEnvelope) -> VerdictReport:
    """The induced left action is well defined on the base algebra."""
    return relations_act_as_zero(
        env.system, lambda rel, r: left_action_on_R(rel, r, env),
        "left-action-well-defined",
        "every defining relation acts as zero on every base basis element")


# ---------------------------------------------------------------------------
# divisibility

def left_divide(g: NCElement, t: NCElement,
                env: TruncatedEnvelope) -> SolveOutcome:
    """Decide whether t = g.z has a solution z in the truncated basis.
    The products g.(basis word) are collected in one pass, into an
    internally extended envelope so nothing is cut off, and each one's
    terms, summed from the memo on raw values, enter the sparse system
    directly as the entries of its column; a column of one term is read
    from its word's memo entry in place.  The outcome carries a witness
    z or an exact infeasibility certificate.  A system over the solver's
    size limit is refused before any product is formed."""
    system = env.system
    fld = system.field
    g = normal_form(g, system)
    t = normal_form(t, system)
    extended = enumerate_basis(system, env.degree + g.degree)
    if t.degree > extended.degree:
        raise DegreeOverflowError(
            f"target degree {t.degree} exceeds the representable bound "
            f"{extended.degree}")
    check_solve_size(extended.dim, env.dim)
    columns = _columns(g, env.basis)
    memo = _reduce([w for terms in columns for w, _ in terms], system,
                   "collect")
    position = extended.locate()
    entries = [(position(w), col, fld.wrap(c))
               for col, terms in enumerate(columns)
               for w, c in _normal_column(terms, memo, fld.reduce).items()]
    problem = LinearSystem(rows=extended.dim, cols=env.dim,
                           entries=tuple(entries), rhs=extended.coords(t),
                           field=fld)
    return solve_linear(problem)


def _columns(g: NCElement, basis) -> list:
    """The free products of g with each basis word, as lists of (word,
    raw value) terms: each term's word extended by the basis word."""
    terms = _kernel_terms(g)
    return [[(w + word, c) for w, c in terms] for word in basis]


def _normal_column(terms: list, memo: dict, reduce) -> dict:
    """The normal form of a column's (word, raw value) terms, summed from
    the memo; a column of one term reads its word's entry in place."""
    if len(terms) != 1:
        return _combine({}, terms, memo, reduce)
    (word, c), = terms
    entry = memo[word]
    return entry if c == 1 else {w: reduce(c * v) for w, v in entry.items()}


def verify_divide_certificate(g: NCElement, t: NCElement,
                              env: TruncatedEnvelope,
                              certificate: tuple) -> bool:
    """Independent check that the functional kills every column g.w and
    does not kill the target.  The columns are built one degree at a
    time: every prefix of a basis word is a basis word, so for w = w'.l
    the column NF(g.w) is NF(NF(g.w').l), and the words of one degree
    are normalised in one pass of leftmost rewriting, never through the
    collection memo left_divide filled.  Each column meets the
    certificate in a dot product on raw values as it is made.  Like
    normalising each g.w from scratch, this relies on the confluence
    that makes NF well defined on U.  A degree whose columns are all
    zero ends the loop, since every later column is the normal form of
    one of them times more letters.  The target is normalised and
    checked last."""
    system = env.system
    fld = system.field
    g = normal_form(g, system, "leftmost")  # rows sized as in left_divide
    extended = enumerate_basis(system, env.degree + g.degree)
    if len(certificate) != extended.dim:
        return False
    fld.require((t,), "target")
    fld.require(certificate, "certificate")
    u = [fld.kernel(s.value) for s in certificate]
    position = extended.locate()
    reduce = fld.reduce

    def value(normal):
        return reduce(sum(u[position(w)] * c for w, c in normal.items()))

    basis = system.grow_basis(env.dim)
    # degree 0 extends the empty prefix, whose column is g: the empty word
    # by no letter, and each non-unit R-letter by itself
    columns, start = {(): dict(_kernel_terms(g))}, 0
    for degree in range(env.degree + 1):
        end = TruncatedEnvelope(system, degree).dim
        words = basis[start:end]
        products = [[(v + w[-1:], c) for v, c in
                     columns.get(w[:-1], {}).items()] for w in words]
        memo = _reduce([v for terms in products for v, _ in terms], system,
                       "leftmost")
        columns, start = {}, end
        for w, terms in zip(words, products):
            normal = _normal_column(terms, memo, reduce)
            if value(normal):
                return False
            if normal:
                columns[w] = normal
        if not columns:
            break
    target = _kernel_terms(t)
    memo = _reduce([w for w, _ in target], system, "leftmost")
    return bool(value(_normal_column(target, memo, reduce)))


def verify_divide_witness(g: NCElement, t: NCElement,
                          env: TruncatedEnvelope, witness: tuple) -> bool:
    """Independent check that g.z, normalised, equals t normalised, where
    z has the witness as its coordinates in the truncated basis; both are
    normalised by leftmost rewriting, as in verify_divide_certificate."""
    if len(witness) != env.dim:
        return False
    fld = env.system.field
    fld.require((t,), "target")
    fld.require(witness, "witness")
    z = NCElement(fld, dict(zip(env.basis, witness)))
    return normal_form(g.concat(z), env.system, "leftmost") == \
        normal_form(t, env.system, "leftmost")
