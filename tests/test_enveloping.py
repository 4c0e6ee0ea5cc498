"""Rewriting, truncated bases, confluence, the induced action, division."""

import dataclasses
import functools
import gc
import itertools
import json
import random
import signal
import time
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import (HealthCheck, assume, given, settings,
                        strategies as st)

from lrhopf import (
    Anchor,
    ConstructionRefusedError,
    Derivation,
    DegreeOverflowError,
    Field,
    FieldMismatchError,
    LrhInputError,
    NCElement,
    RewriteBudgetError,
    build_rewrite_system,
    certify_left_action,
    check_local_confluence,
    enumerate_basis,
    left_action_on_R,
    left_divide,
    l_letter,
    lie_algebra_from_brackets,
    make_character_module,
    make_monomial_quotient,
    multiply_truncated,
    normal_form,
    parse_problem_text,
    r_letter,
    relation_elements,
    solve_linear,
    theorem1_pipeline,
    validate_lie_rinehart,
    verify_divide_certificate,
    verify_divide_witness,
)
import lrhopf.enveloping as enveloping
from lrhopf.cli import main
from lrhopf.enveloping import (_word_sort_key, find_redex, pair_rule,
                               word_degree)

import oracles

MACRON = "̄"


def _rand_element(rng, system, max_terms=4, max_len=3):
    letters = [r_letter(i) for i in range(1, system.r_dim)]
    letters += [l_letter(a) for a in range(system.l_dim)]
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        word = tuple(rng.choice(letters)
                     for _ in range(rng.randint(0, max_len)))
        c = system.field.scalar(rng.randint(-3, 3))
        terms[word] = terms.get(word, system.field.zero) + c
    return NCElement(system.field, {w: c for w, c in terms.items() if c})


# ------------------------------------------------------------------ rules

def test_build_refuses_unvalidated(q):
    made = oracles.random_character_candidate(random.Random(3), q)
    assert made is not None
    data = oracles.candidate_data(*made)
    assert not data.validated
    with pytest.raises(LrhInputError):
        build_rewrite_system(data)


def test_rule_instantiation_obstructed(obstructed, q):
    system = obstructed[5]
    # a-bar x -> x a-bar + y  (the anchor sends x to y)
    rhs = pair_rule(system, l_letter(0), r_letter(1))
    assert rhs == [((r_letter(1), l_letter(0)), q.one.value),
                   ((r_letter(2),), q.one.value)]
    # x a-bar -> 0 because chi(x) = 0, an empty right-hand side
    assert pair_rule(system, r_letter(1), l_letter(0)) == []
    # x x -> 0 in the base algebra
    assert pair_rule(system, r_letter(1), r_letter(1)) == []
    # a nondecreasing L-pair is irreducible
    assert pair_rule(system, l_letter(0), l_letter(0)) is None


def test_rule_instantiation_euler(euler, q):
    system = euler[5]
    rhs = pair_rule(system, l_letter(0), r_letter(1))
    assert rhs == [((r_letter(1), l_letter(0)), q.one.value),
                   ((r_letter(1),), q.one.value)]


def test_find_redex_strategies(obstructed):
    system = obstructed[5]
    word = (r_letter(1), l_letter(0), r_letter(1))
    assert find_redex(word, system) == 0
    assert find_redex((l_letter(0), l_letter(0)), system) == -1


# ----------------------------------------------------------- normal forms

def test_normal_forms_frozen(obstructed, q):
    system = obstructed[5]
    nf = lambda *word: normal_form(NCElement.from_word(q, word), system)
    y_elem = NCElement.from_word(q, (r_letter(2),))
    assert nf(l_letter(0), r_letter(1)) == y_elem
    assert not nf(r_letter(2), l_letter(0))
    assert not nf(r_letter(1), l_letter(0))
    assert not nf(l_letter(0), r_letter(1), r_letter(1))
    # an irreducible word stays put
    tall = (l_letter(0),) * 5
    assert nf(*tall) == NCElement.from_word(q, tall)


def test_normal_form_reorders_abelian(classical, q):
    data = classical(("b1", "b2"), {})
    system = build_rewrite_system(data)
    swapped = NCElement.from_word(q, (l_letter(1), l_letter(0)))
    sorted_ = NCElement.from_word(q, (l_letter(0), l_letter(1)))
    assert normal_form(swapped, system) == sorted_


def test_normal_form_nonabelian_correction(classical, q):
    data = classical(("b1", "b2"), {(0, 1): (q.one, q.zero)})
    system = build_rewrite_system(data)
    swapped = NCElement.from_word(q, (l_letter(1), l_letter(0)))
    out = normal_form(swapped, system)
    assert system.render_element(out) == f"-b1{MACRON} + b1{MACRON} b2{MACRON}"


def test_normal_form_is_linear(obstructed):
    system = obstructed[5]
    rng = random.Random(9)
    for _ in range(40):
        a = _rand_element(rng, system)
        b = _rand_element(rng, system)
        assert normal_form(a + b, system) == \
            normal_form(a, system) + normal_form(b, system)


def test_strategies_agree_on_random_elements(obstructed):
    system = obstructed[5]
    rng = random.Random(7)
    for _ in range(200):
        elem = _rand_element(rng, system)
        left = normal_form(elem, system, "leftmost")
        right = oracles.rightmost_normal_form(elem, system)
        assert left == right


def test_filtration_respected(obstructed):
    """Rewriting never raises the L-degree of a product."""
    system = obstructed[5]
    rng = random.Random(13)
    for _ in range(60):
        a = _rand_element(rng, system)
        b = _rand_element(rng, system)
        out = normal_form(a.concat(b), system)
        if out:
            assert out.degree <= a.degree + b.degree


def test_long_abelian_word_needs_no_recursion(classical, q):
    """b^40 a^40 takes 1600 rewrites down a single chain; the engine runs
    on an explicit stack, so the word length is not capped by recursion."""
    system = build_rewrite_system(classical(("a", "b"), {}))
    word = (l_letter(1),) * 40 + (l_letter(0),) * 40
    expected = NCElement.from_word(q, (l_letter(0),) * 40
                                   + (l_letter(1),) * 40)
    elem = NCElement.from_word(q, word)
    assert normal_form(elem, system, "leftmost") == expected
    assert oracles.rightmost_normal_form(elem, system) == expected


def test_memo_belongs_to_its_system(classical, q):
    system = build_rewrite_system(classical(("b1", "b2"), {}))
    normal_form(NCElement.from_word(q, (l_letter(1), l_letter(0))), system)
    assert list(system.normal_forms) == ["collect"]
    assert system.normal_forms["collect"]
    enumerate_basis(system, 3).basis
    assert system.basis_words and system.basis_index
    tampered = dataclasses.replace(system)
    assert tampered.normal_forms == {}
    assert tampered.basis_words == [] and tampered.basis_index == {}
    probe = weakref.ref(system)
    del system, tampered
    gc.collect()
    assert probe() is None


def _cyclic_rule(system, x, y):
    """A broken rule family that swaps any two distinct letters back and
    forth, so rewriting never shrinks the word."""
    return [((y, x), system.field.one)] if x != y else None


def test_cyclic_rule_trips_the_step_budget(classical, q, monkeypatch,
                                           capsys):
    system = build_rewrite_system(classical(("b1", "b2"), {}))
    monkeypatch.setattr(enveloping, "pair_rule", _cyclic_rule)
    with pytest.raises(RewriteBudgetError):
        normal_form(NCElement.from_word(q, (l_letter(0), l_letter(1))),
                    system)
    assert main(["divide", "obstructed-example", "--left", "a",
                 "--target", "y", "--degree", "2"]) == 3
    err = capsys.readouterr().err
    assert "internal error" in err
    assert "step budget" in err


@pytest.mark.parametrize("strategy", ["leftmost"])
def test_cyclic_rule_on_a_long_word_stops_at_its_first_repeat(
        classical, q, monkeypatch, strategy):
    """A 20-letter word swapped back and forth comes back after two
    rewrites.  A 2 s alarm interrupts the loop if it does not stop, so a
    regression fails here instead of rewriting for hours."""
    system = build_rewrite_system(classical(("b1", "b2"), {}))
    calls = []

    def counted(system, x, y):
        calls.append((x, y))
        return _cyclic_rule(system, x, y)

    def interrupt(signum, frame):
        raise TimeoutError("rewriting did not stop at the repeat")

    monkeypatch.setattr(enveloping, "pair_rule", counted)
    word = (l_letter(0), l_letter(1)) * 10
    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        start = time.perf_counter()
        with pytest.raises(RewriteBudgetError, match="step budget"):
            normal_form(NCElement.from_word(q, word), system, strategy)
        elapsed = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert elapsed < 1.0
    assert len(calls) == 4  # a redex search and a rewrite, for two words


def test_lengthening_rule_trips_the_step_budget(classical, q, monkeypatch):
    """A rule body longer than the pair it replaces is refused at once,
    before the longer word is rewritten."""
    system = build_rewrite_system(classical(("b1", "b2"), {}))

    def lengthening(system, x, y):
        return [((y, x, x), system.field.one)] if x > y else None

    monkeypatch.setattr(enveloping, "pair_rule", lengthening)
    with pytest.raises(RewriteBudgetError, match="step budget"):
        normal_form(NCElement.from_word(q, (l_letter(1), l_letter(0))),
                    system, "leftmost")


def test_long_abelian_word_collects_without_recursion(classical, q):
    """Collection reduces b^40 a^40 on its explicit stack too."""
    system = build_rewrite_system(classical(("a", "b"), {}))
    word = (l_letter(1),) * 40 + (l_letter(0),) * 40
    assert normal_form(NCElement.from_word(q, word), system) == \
        NCElement.from_word(q, (l_letter(0),) * 40 + (l_letter(1),) * 40)


def test_cyclic_rule_stops_collection_at_its_first_repeat(classical, q,
                                                          monkeypatch):
    """Collection walks down the suffixes of (b1 b2)^10 without a rule
    lookup, then looks up b1 b2 and then b2 b1, whose reduct b1 b2 is
    still waiting: two rule lookups, then the step budget.  A 2 s alarm
    interrupts the loop if it does not stop."""
    system = build_rewrite_system(classical(("b1", "b2"), {}))
    calls = []

    def counted(system, x, y):
        calls.append((x, y))
        return _cyclic_rule(system, x, y)

    def interrupt(signum, frame):
        raise TimeoutError("collection did not stop at the repeat")

    monkeypatch.setattr(enveloping, "pair_rule", counted)
    word = (l_letter(0), l_letter(1)) * 10
    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        start = time.perf_counter()
        with pytest.raises(RewriteBudgetError, match="step budget"):
            normal_form(NCElement.from_word(q, word), system, "collect")
        elapsed = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert elapsed < 1.0
    assert len(calls) == 2


def test_lengthening_rule_stops_collection(classical, q, monkeypatch):
    system = build_rewrite_system(classical(("b1", "b2"), {}))

    def lengthening(system, x, y):
        return [((y, x, x), system.field.one)] if x > y else None

    monkeypatch.setattr(enveloping, "pair_rule", lengthening)
    with pytest.raises(RewriteBudgetError, match="longer word"):
        normal_form(NCElement.from_word(q, (l_letter(1), l_letter(0))),
                    system, "collect")


def test_unknown_strategy_is_refused(obstructed, q):
    with pytest.raises(LrhInputError, match="sideways"):
        normal_form(NCElement.from_word(q, (l_letter(0), r_letter(1))),
                    obstructed[5], "sideways")
    with pytest.raises(LrhInputError, match="rightmost"):
        normal_form(NCElement.from_word(q, (l_letter(0), r_letter(1))),
                    obstructed[5], "rightmost")


def test_collection_agrees_with_leftmost_on_short_words(obstructed, euler,
                                                        classical):
    """Every word of length at most 4 over every letter, the unit letter
    included, on both presets, U(sl2) over Q and U(gl2) over GF(7)."""
    gf7 = Field(7)
    systems = [obstructed[5], euler[5],
               build_rewrite_system(classical(
                   ("e", "f", "h"), {(0, 1): (0, 0, 1), (2, 0): (2, 0, 0),
                                     (2, 1): (0, -2, 0)})),
               build_rewrite_system(classical(
                   ("e", "f", "h", "z"),
                   {(0, 1): (0, 0, 1, 0), (2, 0): (2, 0, 0, 0),
                    (2, 1): (0, -2, 0, 0)}, gf7))]
    for system in systems:
        letters = [r_letter(i) for i in range(system.r_dim)]
        letters += [l_letter(a) for a in range(system.l_dim)]
        for word in (w for n in range(5)
                     for w in itertools.product(letters, repeat=n)):
            elem = NCElement.from_word(system.field, word)
            assert normal_form(elem, system) == \
                normal_form(elem, system, "leftmost"), word


def _with_unit_letters(rng, elem):
    """`elem` with the unit letter put into some of its words."""
    out = NCElement.zero(elem.field)
    for word, c in elem.terms.items():
        for _ in range(rng.randint(0, 2)):
            k = rng.randint(0, len(word))
            word = word[:k] + (r_letter(0),) + word[k:]
        out = out + NCElement.from_word(elem.field, word, c)
    return out


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((0, 2, 3, 7)), st.integers(0, 2 ** 32 - 1))
def test_collection_agrees_with_both_rewriting_orders(p, seed):
    """On random valid structures over Q, GF(2), GF(3) and GF(7) with a
    nonzero anchor, so with R-letters, collection reaches the normal forms
    of leftmost and of rightmost rewriting, on words of up to 6 letters
    with and without the unit letter."""
    rng, system = _random_valid_system(seed, Field(p))
    assume(any(c for row in system.rho_table for col in row for c in col))
    for _ in range(20):
        elem = oracles.random_nc_element(rng, system, max_len=6)
        for probe in (elem, _with_unit_letters(rng, elem)):
            collected = normal_form(probe, system)
            assert collected == normal_form(probe, system, "leftmost")
            assert collected == oracles.rightmost_normal_form(probe, system)


def _runs(rng, letters, runs):
    """A word of `runs` runs, each of 1 to 5 copies of one letter."""
    return tuple(x for _ in range(runs)
                 for x in (rng.choice(letters),) * rng.randint(1, 5))


# U(sl2) with h first: moving f past a power of e meets [f, e] = -h, and
# h comes before e, so D(h) = [h, e] is read from the rule at (e, h).
_SL2_HEF = (("h", "e", "f"),
            {(0, 1): (0, 2, 0), (0, 2): (0, 0, -2), (1, 2): (1, 0, 0)})


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from((0, 2, 3, 7)),
       st.sampled_from(("sl2", "sl2-hef", "gl2", "heis", "abelian",
                        "random")),
       st.integers(0, 2 ** 32 - 1))
def test_collection_agrees_on_words_with_powers(classical, p, lie, seed):
    """Words made of runs of equal letters, so that collection moves
    letters past whole powers, on U(sl2) in two letter orders, U(gl2),
    U(heis), an abelian L and random valid structures with R-letters,
    over Q, GF(2), GF(3) and GF(7): collection reaches the normal forms
    of leftmost and of rightmost rewriting, and its memo holds reduced
    nonzero values only."""
    fld = Field(p)
    rng = random.Random(seed)
    if lie == "random":
        data = oracles.random_valid_structure(rng, fld)
        assert all(r.ok for r in validate_lie_rinehart(data))
        data = dataclasses.replace(data, validated=True)
    elif lie == "abelian":
        data = classical(("a", "b", "c"), {}, fld)
    else:
        labels, brackets = _SL2_HEF if lie == "sl2-hef" else _DOMAINS[lie][:2]
        data = classical(labels, brackets, fld)
    system = build_rewrite_system(data)
    letters = [r_letter(i) for i in range(1, system.r_dim)]
    letters += [l_letter(a) for a in range(system.l_dim)]
    for _ in range(4):
        elem = NCElement.zero(fld)
        for _ in range(rng.randint(1, 3)):
            elem = elem + NCElement.from_word(
                fld, _runs(rng, letters, rng.randint(1, 3)),
                fld.scalar(rng.randint(-3, 3)))
        collected = normal_form(elem, system)
        assert collected == normal_form(elem, system, "leftmost")
        assert collected == oracles.rightmost_normal_form(elem, system)
    assert all(c and fld.reduce(c) == c
               for entry in system.normal_forms["collect"].values()
               for c in entry.values())


def _sl2_word(h, f, e):
    return (l_letter(2),) * h + (l_letter(1),) * f + (l_letter(0),) * e


@pytest.mark.parametrize("exponents", [(0, 10, 10), (6, 6, 6)],
                         ids=["f10e10", "h6f6e6"])
def test_sl2_powers_collect_to_the_rewriting_normal_forms(classical, q,
                                                          exponents):
    labels, brackets, _ = _DOMAINS["sl2"]
    system = build_rewrite_system(classical(labels, brackets))
    elem = NCElement.from_word(q, _sl2_word(*exponents))
    collected = normal_form(elem, system)
    assert collected == normal_form(elem, system, "leftmost")
    assert collected == oracles.rightmost_normal_form(elem, system)


def test_collection_moves_letters_past_whole_powers(classical, q):
    """b^40 a^40 in an abelian L and f^10 e^10 in U(sl2) leave few words
    in the collection memo: one swap at a time left 3240 and 1808."""
    labels, brackets, _ = _DOMAINS["sl2"]
    for system, word, bound in (
            (build_rewrite_system(classical(("a", "b"), {})),
             (l_letter(1),) * 40 + (l_letter(0),) * 40, 160),
            (build_rewrite_system(classical(labels, brackets)),
             _sl2_word(0, 10, 10), 600)):
        normal_form(NCElement.from_word(q, word), system)
        assert len(system.normal_forms["collect"]) <= bound


def test_relations_normalize_to_zero(obstructed):
    system = obstructed[5]
    rels = relation_elements(system)
    names = [name for name, _ in rels]
    assert len(rels) == 8
    assert names == ["merge[x,x]", "merge[x,y]", "merge[y,x]", "merge[y,y]",
                     "straighten[a,x]", "straighten[a,y]",
                     "absorb[x,a]", "absorb[y,a]"]
    for name, rel in rels:
        assert not normal_form(rel, system), name


def test_relations_vanish_nonabelian(classical, q):
    data = classical(("b1", "b2"), {(0, 1): (q.one, q.zero)})
    system = build_rewrite_system(data)
    rels = relation_elements(system)
    assert [name for name, _ in rels] == ["bracket[b2,b1]"]
    for name, rel in rels:
        assert not normal_form(rel, system), name


# -------------------------------------------------------- truncated bases

def test_basis_frozen_obstructed(obstructed):
    system = obstructed[5]
    env = enumerate_basis(system, 3)
    assert env.basis_labels() == (
        "1", "x", "y", f"a{MACRON}", f"a{MACRON} a{MACRON}",
        f"a{MACRON} a{MACRON} a{MACRON}")
    assert enumerate_basis(system, 0).dim == obstructed[0].dim


def test_basis_frozen_classical(classical, q):
    one_dim = build_rewrite_system(classical(("b1",), {}))
    assert enumerate_basis(one_dim, 4).dim == 5
    two_dim = build_rewrite_system(classical(("b1", "b2"), {}))
    env = enumerate_basis(two_dim, 2)
    assert env.basis_labels() == (
        "1", f"b1{MACRON}", f"b2{MACRON}", f"b1{MACRON} b1{MACRON}",
        f"b1{MACRON} b2{MACRON}", f"b2{MACRON} b2{MACRON}")


def test_basis_dims_match_counting_oracle(obstructed, classical):
    envs = []
    for degree in range(6):
        env = enumerate_basis(obstructed[5], degree)
        assert env.dim == oracles.pbw_dimension(3, 1, degree)
        envs.append(env)
    for l_dim, labels in ((1, ("b1",)), (2, ("b1", "b2")),
                          (3, ("b1", "b2", "b3"))):
        system = build_rewrite_system(classical(labels, {}))
        for degree in range(5):
            env = enumerate_basis(system, degree)
            assert env.dim == oracles.pbw_dimension(1, l_dim, degree)
            envs.append(env)
    for env in envs:
        assert len(env.basis) == env.dim
        for k, w in enumerate(env.basis):
            assert env.position(w) == k


def test_small_envelope_is_a_prefix_of_a_grown_basis(obstructed, q):
    """A degree-3 envelope reads the first words of a basis grown to
    degree 6, refuses a degree-4 word and keeps its own length."""
    system = obstructed[5]
    small = enumerate_basis(system, 3)
    big = enumerate_basis(system, 6)
    assert big.basis[:small.dim] == small.basis
    assert len(system.basis_words) == big.dim
    tall = (l_letter(0),) * 4
    assert big.position(tall) == small.dim
    with pytest.raises(DegreeOverflowError):
        small.position(tall)
    with pytest.raises(DegreeOverflowError):
        small.coords(NCElement.from_word(q, tall))
    assert len(small.coords(NCElement.from_word(q, (l_letter(0),) * 3))) \
        == small.dim


def test_each_basis_degree_is_built_once(obstructed, monkeypatch):
    """theorem1 reads its degree-8 basis three times (its envelope, the
    solve and the replay) and builds each degree once; an envelope that
    only multiplies builds none."""
    degrees = []

    def counting(pool, degree):
        degrees.append(degree)
        return real(pool, degree)

    real = enveloping.combinations_with_replacement
    monkeypatch.setattr(enveloping, "combinations_with_replacement",
                        counting)
    assert theorem1_pipeline(Field(0), 8).ok
    assert sorted(d for d in degrees if d) == list(range(1, 9))
    degrees.clear()
    system = build_rewrite_system(obstructed[4])
    env = enumerate_basis(system, 40)
    a = NCElement.from_word(Field(0), (l_letter(0),) * 20)
    assert multiply_truncated(a, a, env)
    assert degrees == [] and system.basis_words == []


def _with_r_letters(labels, fld):
    """A rewrite system with R-letters x and y (xy = x^2 = y^2 = 0), an
    abelian L on `labels`, the zero anchor and the natural character."""
    R = make_monomial_quotient(("x", "y"), ("x*y", "x^2", "y^2"), fld)
    L = lie_algebra_from_brackets(fld, labels, {})
    anchor = Anchor(tuple(Derivation.zero(R) for _ in labels))
    return build_rewrite_system(make_character_module(
        R, L, anchor, oracles.natural_character(R)))


@pytest.mark.parametrize("labels", (("b1",), ("b1", "b2"),
                                    ("b1", "b2", "b3")))
def test_basis_grown_in_steps_equals_one_growth(labels, q):
    """Growing the basis to degree 1, then 3, then 5 gives the same
    words, index and degree ends as growing it to degree 5 at once, with
    R-letters present and L of dimension 1 to 3."""
    stepped, direct = (_with_r_letters(labels, q) for _ in range(2))
    for degree in (1, 3, 5):
        enumerate_basis(stepped, degree).basis
    env = enumerate_basis(direct, 5)
    env.basis
    assert stepped.basis_words == direct.basis_words
    assert list(stepped.basis_index.items()) == \
        list(direct.basis_index.items())
    assert stepped.basis_ends == direct.basis_ends == [
        enumerate_basis(direct, d).dim for d in range(6)]
    assert len(direct.basis_words) == env.dim
    assert direct.basis_words[1:3] == [(r_letter(1),), (r_letter(2),)]


def test_basis_labels_match_the_reference(obstructed, q):
    """The labels built from each prefix's label equal render_word on
    every word (oracles.reference_basis_labels): at degree 47 on the
    obstructed example, and at degree 4 with R-letters and L of
    dimension 3."""
    env = enumerate_basis(obstructed[5], 47)
    labels = env.basis_labels()
    assert labels == oracles.reference_basis_labels(env)
    assert len(labels) == 50 and labels[-1] == " ".join([f"a{MACRON}"] * 47)
    env = enumerate_basis(_with_r_letters(("b1", "b2", "b3"), q), 4)
    assert env.basis_labels() == oracles.reference_basis_labels(env)
    assert env.basis_labels()[:5] == ("1", "x", "y", f"b1{MACRON}",
                                      f"b2{MACRON}")


def test_negative_degree_refused(obstructed):
    with pytest.raises(LrhInputError):
        enumerate_basis(obstructed[5], -1)


def test_basis_letter_limit_is_exact(obstructed, classical, monkeypatch):
    """The letter count taken before enumerating is the number of letters
    the basis stores, so the limit refuses exactly the bases above it."""
    systems = [obstructed[5]] + [build_rewrite_system(classical(labels, {}))
                                 for labels in (("b1",), ("b1", "b2"),
                                                ("b1", "b2", "b3"))]
    for system in systems:
        for degree in range(6):
            basis = enumerate_basis(system, degree).basis
            letters = sum(len(word) for word in basis)
            monkeypatch.setattr(enveloping, "MAX_BASIS_LETTERS", letters)
            assert enumerate_basis(system, degree).basis == basis
            monkeypatch.setattr(enveloping, "MAX_BASIS_LETTERS", letters - 1)
            with pytest.raises(LrhInputError, match="MAX_BASIS_LETTERS"):
                enumerate_basis(system, degree)
            monkeypatch.undo()


def test_coords_roundtrip_and_overflow(obstructed_env, q):
    env = obstructed_env
    elem = NCElement.from_word(q, (l_letter(0),)) \
        + 2 * NCElement.from_word(q, (r_letter(1),))
    coords = env.coords(elem)
    assert env.element(coords) == elem
    too_tall = NCElement.from_word(q, (l_letter(0),) * (env.degree + 1))
    with pytest.raises(DegreeOverflowError):
        env.coords(too_tall)


def test_element_refuses_coordinates_of_the_wrong_length(obstructed_env):
    env = obstructed_env
    coords = env.coords(NCElement.unit(env.system.field))
    assert env.element(coords) == NCElement.unit(env.system.field)
    for bad in (coords[:-1], coords + (env.system.field.one,), ()):
        with pytest.raises(LrhInputError, match="wrong length"):
            env.element(bad)


def test_multiply_truncated(obstructed_env, q):
    env = obstructed_env
    x = NCElement.from_word(q, (r_letter(1),))
    abar = NCElement.from_word(q, (l_letter(0),))
    unit = NCElement.unit(q)
    for n in (1, 2, 5):
        power = NCElement.from_word(q, (l_letter(0),) * n)
        assert not multiply_truncated(x, power, env)
    assert multiply_truncated(abar, abar, env) == \
        NCElement.from_word(q, (l_letter(0), l_letter(0)))
    assert multiply_truncated(unit, abar, env) == abar
    assert multiply_truncated(abar, unit, env) == abar
    five = NCElement.from_word(q, (l_letter(0),) * 5)
    four = NCElement.from_word(q, (l_letter(0),) * 4)
    with pytest.raises(DegreeOverflowError):
        multiply_truncated(five, multiply_truncated(five, four, env), env)


def test_truncated_product_associative(obstructed_env):
    env = obstructed_env
    system = env.system
    rng = random.Random(21)
    for _ in range(25):
        a = _rand_element(rng, system, max_terms=2, max_len=2)
        b = _rand_element(rng, system, max_terms=2, max_len=2)
        c = _rand_element(rng, system, max_terms=2, max_len=2)
        left = multiply_truncated(multiply_truncated(a, b, env), c, env)
        right = multiply_truncated(a, multiply_truncated(b, c, env), env)
        assert left == right


# -------------------------------------------------------------- confluence

def test_confluence_passes_for_valid_systems(obstructed, euler, classical, q):
    for system in (obstructed[5], euler[5],
                   build_rewrite_system(classical(("b1",), {})),
                   build_rewrite_system(classical(("b1", "b2"), {})),
                   build_rewrite_system(
                       classical(("b1", "b2"), {(0, 1): (q.one, q.zero)}))):
        report = check_local_confluence(enumerate_basis(system, 3))
        assert report.ok, report.witnesses


def test_confluence_detects_corrupted_rule(obstructed, q):
    """Replacing the anchor image of x by the unit (not a derivation)
    breaks joinability, first seen on the word x a-bar x."""
    system = obstructed[5]
    rho = list(map(list, system.rho_table))
    rho[0] = list(rho[0])
    rho[0][1] = (q.one, q.zero, q.zero)
    bad = dataclasses.replace(system,
                              rho_table=tuple(tuple(r) for r in rho))
    report = check_local_confluence(enumerate_basis(bad, 3))
    assert not report.ok
    w = report.witnesses[0]
    assert w["word"] == f"x a{MACRON} x"
    assert w["positions"] == [0, 1]
    assert w["reduct-at-0"] == "0"
    assert w["reduct-at-1"] == "x"


def _tampered_anchor(system, a, i, k, delta):
    """A copy whose anchor image rho_a(e_i) has coordinate k moved by
    delta."""
    rho = [[list(col) for col in row] for row in system.rho_table]
    rho[a][i][k] = rho[a][i][k] + delta
    return dataclasses.replace(system, rho_table=tuple(
        tuple(map(tuple, row)) for row in rho))


def _tampered_bracket(system, a, b, c, delta):
    """A copy whose compiled rule for the L-pair (a, b), a > b, has the
    coefficient of the L-letter c moved by the raw value delta."""
    copy = dataclasses.replace(system)
    key = (l_letter(a), l_letter(b))
    swap, *terms = copy.rules[key]
    terms = dict(terms)
    v = system.field.reduce(terms.get((l_letter(c),), 0) + delta)
    terms[(l_letter(c),)] = v
    copy.rules[key] = [swap] + [(w, x) for w, x in terms.items() if x]
    return copy


def _failing_overlaps(system):
    """The overlaps whose two reducts have different normal forms, found
    by rewriting the rightmost redex first (oracles)."""
    fld = system.field
    pairs = [pr for pr in system.rules if r_letter(0) not in pr]
    failing = []
    for x, y in pairs:
        for y2, z in pairs:
            if y2 != y:
                continue
            sides = ([(body + (z,), c) for body, c in system.rules[x, y]],
                     [((x,) + body, c) for body, c in system.rules[y, z]])
            left, right = (oracles.rightmost_normal_form(NCElement(fld, {
                w: fld.scalar(c) for w, c in terms}), system)
                for terms in sides)
            if left != right:
                failing.append((x, y, z))
    return failing


@pytest.mark.parametrize("p", (0, 2, 3))
def test_confluence_agrees_with_the_reference(p):
    """The one-pass check gives the report of the former check, which
    sorts every overlap and reduces each in its own pass
    (oracles.reference_check_local_confluence), on seeded valid
    structures over Q, GF(2) and GF(3) and on copies with a tampered
    anchor entry or bracket coefficient.  Each copy runs both checks on
    memos of its own.  The witness of a failing copy is the first
    failing overlap in basis order, as an independent count by
    rightmost rewriting finds it, and some copies have several failing
    overlaps."""
    fld = Field(p)
    rng = random.Random(f"confluence-reference/{p}")
    several = verdicts = 0
    for _ in range(15):
        data = oracles.random_valid_structure(rng, fld)
        system = build_rewrite_system(dataclasses.replace(data,
                                                          validated=True))
        makers = [functools.partial(dataclasses.replace, system)]
        delta = rng.randint(1, p - 1) if p else rng.choice((-1, 2))
        if system.r_dim > 1:
            makers.append(functools.partial(
                _tampered_anchor, system, rng.randrange(system.l_dim),
                rng.randrange(system.r_dim), rng.randrange(system.r_dim),
                fld.scalar(delta)))
        if system.l_dim > 1:
            a = rng.randrange(1, system.l_dim)
            makers.append(functools.partial(
                _tampered_bracket, system, a, rng.randrange(a),
                rng.randrange(system.l_dim), delta))
        for make in makers:
            report = check_local_confluence(enumerate_basis(make(), 3))
            assert report == oracles.reference_check_local_confluence(
                enumerate_basis(make(), 3))
            failing = _failing_overlaps(make())
            assert report.ok == (not failing)
            if failing:
                verdicts += 1
                several += len(failing) > 1
                first = min(failing, key=_word_sort_key)
                assert report.witnesses[0]["word"] == \
                    system.render_word(first)
    assert verdicts and several


def test_confluence_reports_the_first_of_several_failing_overlaps(
        obstructed, q):
    """With the anchor image of x set to the unit, several overlaps fail;
    the witness is the first in basis order, x a-bar x, as before."""
    bad = _tampered_anchor(obstructed[5], 0, 1, 0, q.one)
    bad = _tampered_anchor(bad, 0, 1, 2, -q.one)
    failing = _failing_overlaps(bad)
    assert len(failing) > 1
    assert (r_letter(1), l_letter(0), r_letter(1)) == \
        min(failing, key=_word_sort_key)
    report = check_local_confluence(enumerate_basis(bad, 3))
    assert report == oracles.reference_check_local_confluence(
        enumerate_basis(dataclasses.replace(bad), 3))
    assert report.witnesses[0]["word"] == f"x a{MACRON} x"


def _random_valid_system(seed, fld):
    """A rewrite system for a random structure that make_character_module
    accepts, drawn from the oracle generators."""
    rng = random.Random(seed)
    while True:
        try:
            data = make_character_module(
                *oracles.random_character_candidate(rng, fld))
        except ConstructionRefusedError:
            continue
        return rng, build_rewrite_system(data)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((0, 2, 3)), st.integers(0, 2 ** 32 - 1))
def test_random_valid_structures_are_confluent(p, seed):
    """On random valid structures over Q, GF(2) and GF(3): every overlap
    joins, the overlaps examined are exactly the triples an independent
    count finds, and both strategies reach the same normal forms."""
    rng, system = _random_valid_system(seed, Field(p))
    report = check_local_confluence(enumerate_basis(system, 3))
    assert report.ok, report.witnesses
    examined = oracles.overlap_count(system.r_dim, system.l_dim)
    assert report.narrative == [
        f"{examined} overlapping redex pairs examined, all joins agree"]
    for _ in range(20):
        elem = oracles.random_nc_element(rng, system)
        assert normal_form(elem, system, "leftmost") == \
            oracles.rightmost_normal_form(elem, system)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((0, 2, 3)), st.integers(0, 2 ** 32 - 1))
def test_compiled_rules_match_the_raw_tables(p, seed):
    """On random valid structures over Q, GF(2) and GF(3), the compiled
    rules equal a table spelled out from the raw structure constants,
    pair for pair and in order, unit letter included; a copy with a
    tampered anchor recompiles."""
    _, system = _random_valid_system(seed, Field(p))
    data = system.source
    anchors = [oracles.raw(d.matrix) for d in data.anchor.derivations]

    def agree(rules):
        expected = oracles.naive_rules(
            oracles.raw(data.R.mul_table), anchors,
            oracles.raw(data.action.tensor), oracles.raw(data.L.table), p)
        return list(rules.items()) == list(expected.items())

    assert agree(system.rules)
    for (x, y), rhs in system.rules.items():
        assert pair_rule(system, x, y) is rhs
    # rho_table[a][j] is column j of anchor a's matrix
    rho = [list(map(list, row)) for row in system.rho_table]
    rho[0][-1][0] = rho[0][-1][0] + 1
    tampered = dataclasses.replace(
        system, rho_table=tuple(tuple(map(tuple, row)) for row in rho))
    anchors[0][0][-1] += 1
    assert agree(tampered.rules)
    assert not agree(system.rules)


# ------------------------------------------------------------- left action

def test_left_action_frozen(obstructed, obstructed_env, q):
    R = obstructed[0]
    env = obstructed_env
    abar = NCElement.from_word(q, (l_letter(0),))
    x = R.basis_element(1)
    assert left_action_on_R(abar, x, env).coeffs == \
        R.basis_element(2).coeffs
    assert left_action_on_R(NCElement.unit(q), x, env).coeffs == x.coeffs


def test_left_action_refuses_a_foreign_field(obstructed, obstructed_env):
    x = obstructed[0].basis_element(1)
    with pytest.raises(FieldMismatchError):
        left_action_on_R(NCElement.unit(Field(7)), x, obstructed_env)


def test_elements_refuse_coefficients_over_another_field(q):
    """A GF(5) coefficient is refused where a Q element is made, zero or
    not, not read later as the rational of the same digits."""
    gf5 = Field(5)
    abar = (l_letter(0),)
    for coeff in (gf5.scalar(3), gf5.zero):
        with pytest.raises(FieldMismatchError, match="GF\\(5\\) used in Q"):
            NCElement(q, {abar: coeff})
        with pytest.raises(FieldMismatchError, match="GF\\(5\\) used in Q"):
            NCElement.from_word(q, abar, coeff)


def test_left_action_is_multiplicative(obstructed, obstructed_env):
    R = obstructed[0]
    env = obstructed_env
    system = env.system
    rng = random.Random(31)
    for _ in range(30):
        v = _rand_element(rng, system, max_terms=2, max_len=2)
        w = _rand_element(rng, system, max_terms=2, max_len=2)
        r = oracles.random_element(rng, R)
        direct = left_action_on_R(v.concat(w), r, env)
        nested = left_action_on_R(v, left_action_on_R(w, r, env), env)
        assert direct.coeffs == nested.coeffs


def test_left_action_factors_through_normal_form(obstructed, obstructed_env):
    R = obstructed[0]
    env = obstructed_env
    system = env.system
    rng = random.Random(32)
    for _ in range(30):
        v = _rand_element(rng, system)
        r = oracles.random_element(rng, R)
        reduced = normal_form(v, system)
        assert left_action_on_R(v, r, env).coeffs == \
            left_action_on_R(reduced, r, env).coeffs


def test_certify_left_action(obstructed_env):
    assert certify_left_action(obstructed_env).ok


def test_certify_rejects_corrupted_system(obstructed, q):
    system = obstructed[5]
    rho = list(map(list, system.rho_table))
    rho[0] = list(rho[0])
    rho[0][1] = (q.one, q.zero, q.zero)
    bad = dataclasses.replace(system,
                              rho_table=tuple(tuple(r) for r in rho))
    report = certify_left_action(enumerate_basis(bad, 3))
    assert not report.ok
    w = report.witnesses[0]
    assert w["relation"] == "straighten[a,x]"
    assert w["argument"] == "x"
    assert w["image"] == "-2*x"


# ---------------------------------------------------------------- division

def test_left_divide_by_unit(obstructed_env, q):
    env = obstructed_env
    target = NCElement.from_word(q, (r_letter(2),))
    out = left_divide(NCElement.unit(q), target, env)
    assert out.feasible
    assert env.element(out.witness) == target


def test_left_divide_witness_frozen(obstructed, q):
    system = obstructed[5]
    env = enumerate_basis(system, 2)
    abar = NCElement.from_word(q, (l_letter(0),))
    target = NCElement.from_word(q, (r_letter(2),))
    out = left_divide(abar, target, env)
    assert out.feasible
    assert system.render_element(env.element(out.witness)) == "x"
    assert out.nullity == 1
    # replay: the witness really does multiply out to the target
    product = normal_form(abar.concat(env.element(out.witness)), system)
    assert product == target


def test_left_divide_infeasible_with_replay(obstructed, q):
    """x never divides y at any truncation level: the image of
    multiplication by x is the line through x itself.  Each certificate
    is replayed against freshly computed products."""
    system = obstructed[5]
    x = NCElement.from_word(q, (r_letter(1),))
    y = NCElement.from_word(q, (r_letter(2),))
    for degree in range(1, 7):
        env = enumerate_basis(system, degree)
        out = left_divide(x, y, env)
        assert not out.feasible
        cert = out.certificate
        assert cert is not None
        extended = enumerate_basis(system, degree)  # deg(x) = 0
        assert len(cert) == extended.dim
        functional = lambda e: sum(
            (u * c for u, c in zip(cert, extended.coords(e))),
            q.zero)
        for word in env.basis:
            product = normal_form(
                x.concat(NCElement.from_word(q, word)), system)
            assert not functional(product)
        assert functional(y)


@pytest.mark.parametrize("p", [0, 7])
def test_left_divide_sl2_infeasible_with_replay(classical, p):
    """h is not a left multiple of e in U(sl2): U(g) is a domain and e, h
    both have degree 1, so z would be a scalar.  At degree 8 the system
    has 165 columns; its certificate is replayed against products
    normalised afresh, by the rightmost-first oracle in a new rewrite
    system."""
    fld = Field(p)
    data = classical(("e", "f", "h"),
                     {(0, 1): (0, 0, 1), (2, 0): (2, 0, 0),
                      (2, 1): (0, -2, 0)}, fld)
    e = NCElement.from_word(fld, (l_letter(0),))
    h = NCElement.from_word(fld, (l_letter(2),))
    env = enumerate_basis(build_rewrite_system(data), 8)
    assert env.dim == 165
    out = left_divide(e, h, env)
    assert not out.feasible
    cert = out.certificate

    fresh = build_rewrite_system(data)
    extended = enumerate_basis(fresh, 9)  # deg(e) = 1
    assert len(cert) == extended.dim
    functional = lambda elem: sum(
        (u * c for u, c in zip(cert, extended.coords(
            oracles.rightmost_normal_form(elem, fresh)))),
        fld.zero)
    for word in env.basis:
        assert not functional(e.concat(NCElement.from_word(fld, word)))
    assert functional(h)


def test_divide_replays_accept_a_divisor_that_is_not_normal(classical, q):
    """ef - fe normalises to h in U(sl2), one degree lower.  Both replays
    agree with left_divide, which solves with the normal form: the
    certificate has the rows of degree D + 1, not D + 2."""
    data = classical(("e", "f", "h"),
                     {(0, 1): (0, 0, 1), (2, 0): (2, 0, 0),
                      (2, 1): (0, -2, 0)})
    env = enumerate_basis(build_rewrite_system(data), 3)
    e, f, h = (NCElement.from_word(q, (l_letter(a),)) for a in range(3))
    g = e.concat(f) - f.concat(e)
    assert g.degree == 2
    refused = left_divide(g, e, env)
    assert not refused.feasible
    assert len(refused.certificate) == enumerate_basis(env.system, 4).dim
    assert verify_divide_certificate(g, e, env, refused.certificate)
    found = left_divide(g, 3 * h, env)
    assert found.feasible
    assert verify_divide_witness(g, 3 * h, env, found.witness)
    assert not verify_divide_witness(g, h, env, found.witness)
    assert not verify_divide_witness(g, 3 * h, env, found.witness[:-1])


def test_divide_replays_refuse_evidence_from_a_poisoned_collection(
        obstructed, q):
    """The replays rewrite leftmost and never read the collection memo:
    with one collected entry poisoned, left_divide gives false evidence
    and each replay refuses it."""
    system = obstructed[5]
    env = enumerate_basis(system, 2)
    abar, x, y = (NCElement.from_word(q, (letter,)) for letter in
                  (l_letter(0), r_letter(1), r_letter(2)))
    memo = system.normal_forms.setdefault("collect", {})
    memo[l_letter(0), r_letter(1)] = {}  # abar.x is y, not 0
    refused = left_divide(abar, y, env)
    assert not refused.feasible
    assert not verify_divide_certificate(abar, y, env, refused.certificate)
    memo[r_letter(1), l_letter(0)] = {(r_letter(2),): q.one.value}  # not 0
    found = left_divide(x, y, env)
    assert found.feasible
    assert not verify_divide_witness(x, y, env, found.witness)


class _Tripwire(dict):
    """A memo that fails whoever reads it."""

    def __contains__(self, key):
        raise AssertionError("the collection memo was read")

    get = __getitem__ = __contains__


def test_confluence_and_replays_never_read_the_collection_memo(obstructed,
                                                               q):
    system = obstructed[5]
    env = enumerate_basis(system, 3)
    abar, x, y = (NCElement.from_word(q, (letter,)) for letter in
                  (l_letter(0), r_letter(1), r_letter(2)))
    found = left_divide(abar, y, env)
    refused = left_divide(x, y, env)
    assert found.feasible and not refused.feasible
    system.normal_forms["collect"] = _Tripwire()
    assert check_local_confluence(env).ok
    assert verify_divide_witness(abar, y, env, found.witness)
    assert verify_divide_certificate(x, y, env, refused.certificate)


@pytest.mark.parametrize("case", ["sl2", "heis", "obstructed"])
def test_leftmost_memo_entries_never_change(classical, obstructed, q, case):
    """A word whose one-step reduct is a single word with coefficient one
    shares that word's leftmost memo entry: c.p -> p.c in U(heis) and
    abar.y -> y.abar in the obstructed example; U(sl2) has no such rule.
    Snapshot copies of the entries taken after a certificate replay still
    equal them after more normal forms by both strategies, a witness
    replay and a confluence check on the same system."""
    if case == "obstructed":
        system, degree = obstructed[5], 3
        g, t, z = (NCElement.from_word(q, (letter,)) for letter in
                   (r_letter(1), r_letter(2), l_letter(0)))
    else:
        labels, brackets, degree = _DOMAINS[case]
        system = build_rewrite_system(classical(labels, brackets))
        x0, x1, x2 = (NCElement.from_word(q, (l_letter(a),))
                      for a in range(3))
        g, t, z = x2 + 2 * x1, x0, x1
    env = enumerate_basis(system, degree)
    refused = left_divide(g, t, env)
    assert verify_divide_certificate(g, t, env, refused.certificate)
    memo = system.normal_forms["leftmost"]
    snapshot = {w: dict(entry) for w, entry in memo.items()}
    rng = random.Random(f"leftmost-memo/{case}")
    for strategy in ("leftmost", "collect", "leftmost"):
        for _ in range(10):
            normal_form(_rand_element(rng, system, max_len=4), system,
                        strategy)
    target = normal_form(g.concat(z), system)
    found = left_divide(g, target, env)
    assert verify_divide_witness(g, target, env, found.witness)
    assert check_local_confluence(env).ok
    assert len(memo) > len(snapshot)
    assert {w: memo[w] for w in snapshot} == snapshot
    shared = len({id(entry) for entry in memo.values()}) < len(memo)
    assert shared == (case != "sl2")


# Classical Lie algebras whose envelopes are domains, with the truncation
# degree of the corpus below (rows x columns at most 56 x 35).
_DOMAINS = {
    "sl2": (("e", "f", "h"),
            {(0, 1): (0, 0, 1), (2, 0): (2, 0, 0), (2, 1): (0, -2, 0)}, 3),
    "heis": (("p", "q", "c"), {(0, 1): (0, 0, 1)}, 3),
    "gl2": (("e", "f", "h", "t"),
            {(0, 1): (0, 0, 1, 0), (2, 0): (2, 0, 0, 0),
             (2, 1): (0, -2, 0, 0)}, 2),
}


@pytest.mark.parametrize("p", [0, 7])
@pytest.mark.parametrize("lie", sorted(_DOMAINS))
def test_multi_term_divisors_match_the_dense_reference(classical, monkeypatch,
                                                       lie, p):
    """Divisors with two and three generator terms.  In a domain, a target
    of degree at most 1 other than a multiple of g is no left multiple of
    g, and g.z0 is one: both verdicts occur.  Each outcome equals the
    former dense elimination on the very system left_divide solved, and
    each witness and certificate passes its replay."""
    fld = Field(p)
    labels, brackets, degree = _DOMAINS[lie]
    system = build_rewrite_system(classical(labels, brackets, fld))
    env = enumerate_basis(system, degree)
    gens = [NCElement.from_word(fld, (l_letter(a),))
            for a in range(len(labels))]
    solved = []

    def capture(linear_system):
        solved.append(linear_system)
        return solve_linear(linear_system)

    monkeypatch.setattr(enveloping, "solve_linear", capture)
    rng = random.Random(f"{lie}/{p}")
    coeffs = (-2, -1, 1, 2) + ((Fraction(1, 2), Fraction(-2, 3)) if p == 0
                               else (5,))
    verdicts = []
    for terms in (2, 2, 3, 3):
        g = NCElement.zero(fld)
        for a in rng.sample(range(len(labels)), terms):
            g = g + fld.scalar(rng.choice(coeffs)) * gens[a]
        z0 = fld.scalar(rng.choice(coeffs)) * rng.choice(gens) \
            + NCElement.from_word(fld, (), fld.scalar(rng.choice(coeffs)))
        targets = (normal_form(g.concat(z0), system), rng.choice(gens),
                   NCElement.unit(fld))
        for t in targets:
            outcome = left_divide(g, t, env)
            assert outcome == oracles.dense_solve(solved[-1])
            verdicts.append(outcome.verdict)
            if outcome.feasible:
                assert verify_divide_witness(g, t, env, outcome.witness)
            else:
                assert verify_divide_certificate(g, t, env,
                                                 outcome.certificate)
    assert verdicts.count("feasible") == 4
    assert verdicts.count("infeasible") == 8


@pytest.mark.parametrize("p", [0, 7])
def test_one_term_divisors_scale_their_memo_entries(classical, p):
    """A divisor c.x of one term reads the memo entry of each column's
    word in place, times c.  In U(sl2), for c = 1 and two other values,
    the witness of e.z0 over c.e is the witness over e divided by c, both
    replays accept the evidence, and h over c.e is refused."""
    fld = Field(p)
    labels, brackets, degree = _DOMAINS["sl2"]
    system = build_rewrite_system(classical(labels, brackets, fld))
    env = enumerate_basis(system, degree)
    e, f, h = (NCElement.from_word(fld, (l_letter(a),)) for a in range(3))
    z0 = f.concat(h) + 3 * e
    t = normal_form(e.concat(z0), system)
    plain = left_divide(e, t, env)
    assert plain.feasible
    for c in (fld.one, fld.scalar(-2), fld.parse("2/3") if p == 0
              else fld.scalar(5)):
        g = c * e
        found = left_divide(g, t, env)
        assert found.witness == tuple(w / c for w in plain.witness)
        assert verify_divide_witness(g, t, env, found.witness)
        refused = left_divide(g, h, env)
        assert not refused.feasible
        assert verify_divide_certificate(g, h, env, refused.certificate)


def test_scalars_over_q_from_the_kernel_hold_fractions(classical, q):
    """Inside the kernel an integral rational is an int; every Scalar that
    normal_form, left_divide and solve_linear hand back holds a Fraction."""
    labels, brackets, degree = _DOMAINS["sl2"]
    system = build_rewrite_system(classical(labels, brackets))
    env = enumerate_basis(system, degree)
    e, f, h = (NCElement.from_word(q, (l_letter(a),)) for a in range(3))
    g = h + 2 * f
    values = []
    for strategy in ("collect", "leftmost"):
        product = g.concat(e).concat(f) + q.scalar(Fraction(1, 2)) * e
        values += normal_form(product, system, strategy).terms.values()
    for t in (e, 3 * g, normal_form(g.concat(f + h), system)):
        outcome = left_divide(g, t, env)
        values += outcome.certificate or ()
        values += outcome.witness or ()
        for vector in outcome.nullspace or ():
            values += vector
    assert values
    assert all(type(s.value) is Fraction for s in values)


def test_certificate_replay_refuses_foreign_fields_and_tall_targets(
        obstructed, q):
    """The one-pass replay keeps the refusals of the term-by-term one: a
    certificate or target over another field, and a target with a term
    beyond the extended window."""
    system = obstructed[5]
    env = enumerate_basis(system, 3)
    x, y = (NCElement.from_word(q, (r_letter(k),)) for k in (1, 2))
    cert = left_divide(x, y, env).certificate
    assert verify_divide_certificate(x, y, env, cert)
    gf7 = Field(7)
    with pytest.raises(FieldMismatchError):
        verify_divide_certificate(x, y, env, tuple(
            gf7.scalar(int(c.value)) for c in cert))
    with pytest.raises(FieldMismatchError):
        verify_divide_certificate(x, NCElement.from_word(gf7, (r_letter(2),)),
                                  env, cert)
    with pytest.raises(DegreeOverflowError):
        verify_divide_certificate(x, NCElement.from_word(
            q, (l_letter(0),) * (env.degree + 1)), env, cert)


@pytest.mark.parametrize("p", (0, 2, 3))
def test_certificate_replay_agrees_with_the_reference(p):
    """The degree-by-degree replay accepts or refuses exactly as the
    former replay, which normalises every column from scratch
    (oracles.reference_verify_divide_certificate): on the certificates
    left_divide gives for divisors of one to three terms on seeded valid
    structures over Q, GF(2) and GF(3), and on copies of each with one
    entry perturbed.  Both verdicts occur."""
    fld = Field(p)
    rng = random.Random(f"replay-reference/{p}")
    verdicts = []
    for _ in range(25):
        data = oracles.random_valid_structure(rng, fld)
        system = build_rewrite_system(dataclasses.replace(data,
                                                          validated=True))
        env = enumerate_basis(system, 3)
        for _ in range(3):
            g = oracles.random_nc_element(rng, system, max_terms=3)
            t = oracles.random_nc_element(rng, system)
            out = left_divide(g, t, env)
            if out.feasible:
                continue
            copies = [out.certificate]
            for _ in range(3):
                k = rng.randrange(len(out.certificate))
                delta = fld.scalar(rng.randint(1, p - 1) if p else
                                   rng.choice((-1, 1, Fraction(1, 2))))
                copies.append(out.certificate[:k]
                              + (out.certificate[k] + delta,)
                              + out.certificate[k + 1:])
            for u in copies:
                verdict = verify_divide_certificate(g, t, env, u)
                assert verdict == oracles.reference_verify_divide_certificate(
                    g, t, env, u)
                verdicts.append(verdict)
            assert verdicts[-len(copies)]
    assert set(verdicts) == {True, False}


def test_certificate_replay_reaches_the_top_degree(classical):
    """In U(sl2), with g = h + 2f and D = 3, a certificate perturbed only
    at a word that first appears in a column g.w of degree 3 is refused:
    the replay builds every degree up to D while columns are nonzero."""
    labels, brackets, degree = _DOMAINS["sl2"]
    system = build_rewrite_system(classical(labels, brackets))
    env = enumerate_basis(system, degree)
    q = system.field
    e, f, h = (NCElement.from_word(q, (l_letter(a),)) for a in range(3))
    g = h + 2 * f
    refused = left_divide(g, e, env)
    assert verify_divide_certificate(g, e, env, refused.certificate)
    first = {}
    for w in env.basis:
        column = normal_form(g.concat(NCElement.from_word(q, w)), system)
        for v in column.terms:
            first.setdefault(v, word_degree(w))
    top = [v for v, d in first.items() if d == degree]
    assert top
    position = enumerate_basis(system, degree + 1).position
    for v in top:
        k = position(v)
        cert = refused.certificate
        cert = cert[:k] + (cert[k] + q.one,) + cert[k + 1:]
        assert not verify_divide_certificate(g, e, env, cert)
        assert not oracles.reference_verify_divide_certificate(g, e, env,
                                                               cert)


def test_certificate_replay_stops_at_the_first_zero_degree(obstructed, q,
                                                          monkeypatch):
    """In the obstructed example x.abar = 0, so every column of degree 1
    and up is zero and the replay stops there: at D = 8 and D = 64 it
    makes the same reduction passes and its leftmost memo holds the same
    words.  The target is checked after the stop: with its y-entry
    zeroed, the certificate still kills every column but is refused at
    D = 64."""
    x, y = (NCElement.from_word(q, (r_letter(k),)) for k in (1, 2))
    passes = []

    def counted(words, system, strategy):
        passes.append(strategy)
        return reduce(words, system, strategy)

    reduce = enveloping._reduce
    memo_words, replay_passes = {}, {}
    for degree in (8, 64):
        system = build_rewrite_system(obstructed[4])
        env = enumerate_basis(system, degree)
        cert = left_divide(x, y, env).certificate
        passes.clear()
        with monkeypatch.context() as patch:
            patch.setattr(enveloping, "_reduce", counted)
            assert verify_divide_certificate(x, y, env, cert)
        replay_passes[degree] = list(passes)
        memo_words[degree] = set(system.normal_forms["leftmost"])
    assert replay_passes[8] == replay_passes[64] == ["leftmost"] * 4
    assert memo_words[8] == memo_words[64]
    k = env.position((r_letter(2),))
    zeroed = cert[:k] + (q.zero,) + cert[k + 1:]
    assert not any(zeroed)
    assert not verify_divide_certificate(x, y, env, zeroed)
    assert not oracles.reference_verify_divide_certificate(x, y, env, zeroed)


def test_certificate_replay_of_a_zero_divisor_reads_the_target(obstructed,
                                                               q):
    """For g = 0 every column is zero, so the replay accepts a functional
    u exactly when u(t) is nonzero, t normalised.  Here u is the
    coefficient of y, and t runs over random elements of degree at most
    the truncation."""
    system = obstructed[5]
    env = enumerate_basis(system, 3)
    k = env.position((r_letter(2),))
    u = tuple(q.one if j == k else q.zero for j in range(env.dim))
    zero = NCElement.zero(q)
    rng = random.Random("zero-divisor")
    seen = set()
    for _ in range(40):
        t = _rand_element(rng, system)
        if not t or t.degree > env.degree:
            continue
        expected = (r_letter(2),) in normal_form(t, system).terms
        assert verify_divide_certificate(zero, t, env, u) == expected
        seen.add(expected)
    assert seen == {True, False}


def test_witness_replay_refuses_a_foreign_field(q):
    """A witness over Q replayed on a GF(5) copy of tests/data/sl2.lrh is
    refused, as the certificate replay refuses a certificate over another
    field: 1/2 solves 2e.z = e over Q, but is no GF(5) value."""
    doc = json.loads((Path(__file__).parent / "data" / "sl2.lrh").read_text())
    doc["field"] = {"kind": "prime-field", "p": 5}
    data = parse_problem_text(json.dumps(doc)).to_data()
    assert all(r.ok for r in validate_lie_rinehart(data))
    system = build_rewrite_system(dataclasses.replace(data, validated=True))
    env = enumerate_basis(system, 2)
    gf5 = system.field
    e = NCElement.from_word(gf5, (l_letter(0),))
    g = 2 * e
    found = left_divide(g, e, env)
    assert found.feasible and verify_divide_witness(g, e, env, found.witness)
    foreign = (q.scalar(Fraction(1, 2)),) + (q.zero,) * (env.dim - 1)
    with pytest.raises(FieldMismatchError):
        verify_divide_witness(g, e, env, foreign)
    with pytest.raises(FieldMismatchError):
        verify_divide_witness(g, NCElement.from_word(q, (l_letter(0),)),
                              env, found.witness)
