"""The library refuses parts that make no one structure, as the CLI does.

Every exported function that takes structure parts -- elements,
derivations, characters, actions, anchors, Lie vectors, enveloping
elements, evidence -- is called with parts drawn from two random valid
structures (`oracles.random_valid_structure`), over one field or over
two.  Whether the parts fit is decided here, from their algebras,
fields, lengths and letters; each helper below yields (fits, label,
call) for the calls it makes.  A call on parts that fit must answer; a
call on parts that do not must raise an LrhInputError subclass, never
another exception and never a silent answer.  The targeted tests after
it pin each door the generative test found open."""

import dataclasses
import random
import re
from fractions import Fraction

import pytest

from lrhopf import (
    AlgebraMismatchError,
    Anchor,
    Character,
    ConstructionRefusedError,
    Derivation,
    Field,
    FieldMismatchError,
    LieRinehartData,
    LinearSystem,
    LrhInputError,
    NCElement,
    PartialMap,
    SolveOutcome,
    build_and_verify_right_action,
    build_rewrite_system,
    character_criterion,
    check_anchor_lie_hom,
    check_anchor_r_linear,
    check_character,
    check_derivation,
    check_leibniz,
    check_module_action,
    derivation_commutator,
    enumerate_basis,
    l_letter,
    left_action_on_R,
    left_divide,
    lie_algebra_from_brackets,
    make_base_field_algebra,
    make_character_module,
    make_monomial_quotient,
    multiply_truncated,
    normal_form,
    obstructed_example,
    partial_map_from_witness,
    partial_map_system,
    r_letter,
    solve_linear,
    solve_partial,
    tensor_action,
    validate_lie_rinehart,
    verify_certificate,
    verify_divide_certificate,
    verify_divide_witness,
    verify_partial,
    verify_witness,
)

import oracles

FIELDS = [Field(0), Field(3), Field(5)]
DEGREE = 3  # above the degree of oracles.random_nc_element's words


def _check(fits, label, call):
    """Call, and check that it answers exactly when the parts fit."""
    try:
        call()
    except LrhInputError as exc:
        assert not fits, f"{label}: parts that fit were refused: {exc}"
    else:
        assert fits, f"{label}: parts that do not fit got an answer"


def _built_or_refused(R, L, anchor, chi):
    """make_character_module, where a refusal that carries a failed
    verdict is an answer too."""
    try:
        make_character_module(R, L, anchor, chi)
    except ConstructionRefusedError:
        pass


def _vector(rng, fld, size):
    return tuple(fld.scalar(rng.randint(-2, 2)) for _ in range(size))


def _shapes_fit(R, L, anchor):
    return L.field == R.field and len(anchor.derivations) == L.dim \
        and all(d.algebra == R for d in anchor.derivations)


def _letters_fit(elem, system):
    sizes = {"R": system.r_dim, "L": system.l_dim}
    return elem.field == system.field and all(
        0 <= x.index < sizes[x.kind] for w in elem.terms for x in w)


def _pick(rng, a, b):
    return a if rng.random() < 0.5 else b


def _structure(rng, fld):
    data = oracles.random_valid_structure(rng, fld)
    system = build_rewrite_system(dataclasses.replace(data, validated=True))
    chi = data.action.character or oracles.natural_character(data.R)
    return data, system, chi


def _element_calls(rng, A, B):
    """Products, derivations, characters, brackets and actions."""
    (a, _, chi_a), (b, _, chi_b) = A, B
    ra, rb = oracles.random_element(rng, a.R), oracles.random_element(rng, b.R)
    same = a.R == b.R
    da, db = a.anchor.rho(0), b.anchor.rho(0)
    yield (same, "element sum", lambda: ra + rb)
    yield (same, "element difference", lambda: ra - rb)
    yield (same, "element product", lambda: ra * rb)
    yield (same, "Derivation.apply", lambda: da.apply(rb))
    yield (same, "Character.apply", lambda: chi_a.apply(rb))
    yield (same, "derivation_commutator",
           lambda: derivation_commutator(da, db))
    yield (same, "check_derivation", lambda: check_derivation(a.R, db))
    yield (same or (a.R.dim == b.R.dim and a.R.field == b.R.field),
           "check_derivation of a matrix",
           lambda: check_derivation(a.R, db.matrix))
    yield (len(chi_b.values) == a.R.dim and a.R.field == b.R.field,
           "check_character", lambda: check_character(a.R, chi_b.values))
    same_field = a.R.field == b.R.field
    if a.R.variables:
        yield (same, "Derivation.from_variable_images",
               lambda: Derivation.from_variable_images(
                   a.R, {v: rb for v in a.R.variables}))
        yield (same_field, "Character.from_variable_values",
               lambda: Character.from_variable_values(
                   a.R, {v: b.R.field.one for v in a.R.variables}))
    yield (same_field, "tensor_action",
           lambda: tensor_action(a.R, a.L.dim, {(0, 0, 0): b.R.field.one}))
    u, v = _vector(rng, a.R.field, a.L.dim), _vector(rng, b.R.field, b.L.dim)
    vector_fits = a.L.dim == b.L.dim and a.R.field == b.R.field
    yield (vector_fits, "LieAlgebra.bracket", lambda: a.L.bracket(u, v))
    yield (vector_fits, "LieAlgebra.bracket, swapped",
           lambda: a.L.bracket(v, u))
    yield (vector_fits, "ModuleAction.act, vector",
           lambda: a.action.act(ra, v))
    yield (same, "ModuleAction.act, element", lambda: a.action.act(rb, u))


def _structure_calls(rng, A, B):
    """The criterion, the constructor and the axiom checks, each part
    taken from either structure."""
    (a, _, chi_a), (b, _, chi_b) = A, B
    R, L = _pick(rng, a.R, b.R), _pick(rng, a.L, b.L)
    anchor, chi = _pick(rng, a.anchor, b.anchor), _pick(rng, chi_a, chi_b)
    action = _pick(rng, a.action, b.action)
    shapes = _shapes_fit(R, L, anchor)
    yield (shapes and chi.algebra == R, "character_criterion",
           lambda: character_criterion(R, L, anchor, chi))
    yield (shapes and chi.algebra == R, "make_character_module",
           lambda: _built_or_refused(R, L, anchor, chi))
    yield (action.algebra == R, "check_module_action",
           lambda: check_module_action(R, action))
    data = LieRinehartData(R=R, L=L, action=action, anchor=anchor)
    fits = shapes and action.algebra == R and action.lie_dim == L.dim
    for check in (validate_lie_rinehart, check_anchor_lie_hom,
                  check_anchor_r_linear, check_leibniz):
        yield (fits, check.__name__, lambda: check(data))
    yield (fits and action.kind == "character", "partial_map_system",
           lambda: partial_map_system(data))
    yield (fits, "build_rewrite_system", lambda: build_rewrite_system(
        dataclasses.replace(data, validated=True)))


def _envelope_calls(rng, A, B):
    """Normal forms, divisibility and its replays, the action on R."""
    (a, sa, _), (b, sb, _) = A, B
    env = enumerate_basis(sa, DEGREE)
    g, t = (oracles.random_nc_element(rng, _pick(rng, sa, sb))
            for _ in range(2))
    g_fits, t_fits = _letters_fit(g, sa), _letters_fit(t, sa)
    yield (g_fits, "normal_form", lambda: normal_form(g, sa))
    yield (g_fits, "normal_form, leftmost",
           lambda: normal_form(g, sa, "leftmost"))
    yield (g_fits and t_fits and g.degree + t.degree <= DEGREE,
           "multiply_truncated", lambda: multiply_truncated(g, t, env))
    yield (g_fits and t_fits, "left_divide", lambda: left_divide(g, t, env))
    r = oracles.random_element(rng, _pick(rng, a.R, b.R))
    yield (g_fits and r.algebra == a.R, "left_action_on_R",
           lambda: left_action_on_R(g, r, env))
    zeros = (sa.field.zero,) * env.dim
    yield (g_fits and t_fits, "verify_divide_witness",
           lambda: verify_divide_witness(g, t, env, zeros))
    yield (g_fits and t_fits, "verify_divide_certificate",
           lambda: verify_divide_certificate(g, t, env, zeros))
    # coordinates of a normal form from either system: they fit when every
    # word is a basis word of env
    source = _pick(rng, sa, sb)
    h = normal_form(oracles.random_nc_element(rng, source), source)
    basis = set(env.basis)
    yield (h.field == sa.field and basis.issuperset(h.terms),
           "TruncatedEnvelope.coords", lambda: env.coords(h))
    coords = _vector(rng, source.field, enumerate_basis(source, DEGREE).dim)
    yield (source.field == sa.field and len(coords) == env.dim,
           "TruncatedEnvelope.element", lambda: env.element(coords))


def _partial_calls(rng, A, B):
    """Right-extension evidence from either structure."""
    (a, sa, _), (b, _, _) = A, B
    data = sa.source
    character = a.action.kind == "character"
    for source in (a, b):
        if source.action.kind != "character":
            continue
        outcome = solve_partial(source)
        if outcome.feasible:
            yield (character and source.R.field == a.R.field
                   and len(outcome.witness) == a.R.dim * a.L.dim,
                   "partial_map_from_witness",
                   lambda: partial_map_from_witness(data, outcome))
    R = _pick(rng, a.R, b.R)
    values = tuple(oracles.random_element(rng, R)
                   for _ in range(_pick(rng, a.L, b.L).dim))
    fits = character and R == a.R and len(values) == a.L.dim
    yield (fits, "verify_partial",
           lambda: verify_partial(PartialMap(data=data, values=values)))
    yield (fits, "build_and_verify_right_action",
           lambda: build_and_verify_right_action(
               PartialMap(data=data, values=values),
               enumerate_basis(sa, 1)))


@pytest.mark.parametrize("fld", FIELDS, ids=str)
def test_parts_of_two_structures_answer_or_are_refused(fld):
    """Two draws in three are over the same field.  Every call is made
    both on parts that fit and on parts that do not."""
    rng = random.Random(f"api-parts/{fld}")
    seen = set()
    for _ in range(60):
        other = fld if rng.random() < 2 / 3 else rng.choice(
            [f for f in FIELDS if f != fld])
        A, B = _structure(rng, fld), _structure(rng, other)
        for calls in (_element_calls, _structure_calls, _envelope_calls,
                      _partial_calls):
            for fits, label, call in calls(rng, A, B):
                _check(fits, label, call)
                seen.add((label, bool(fits)))
    labels = {label for label, _ in seen}
    assert seen == {(label, fits) for label in labels
                    for fits in (True, False)}


# ------------------------------------------------------- the doors, one by one

@pytest.fixture
def parts(q):
    """The obstructed example over Q, and K[x]/(x^3) with x -> x."""
    R, L, anchor, chi = obstructed_example(q)
    cubic = make_monomial_quotient(("x",), ("x^3",), q)
    euler = Derivation.from_variable_images(
        cubic, {"x": cubic.basis_element(1)})
    return R, L, anchor, chi, cubic, euler


def test_criterion_refuses_an_anchor_over_another_algebra(parts, q):
    """An anchor over K[x]/(x^2) ended in IndexError; one over
    K[x]/(x^3), of the same dimension, got an answer."""
    R, L, _, chi, cubic, euler = parts
    square = make_monomial_quotient(("x",), ("x^2",), q)
    small = Derivation.from_variable_images(
        square, {"x": square.basis_element(1)})
    for d in (small, euler):
        with pytest.raises(AlgebraMismatchError,
                           match="anchor lands in a different algebra"):
            character_criterion(R, L, Anchor((d,)), chi)


def test_criterion_refuses_more_anchor_derivations_than_L_has(parts):
    """Two derivations for a one-dimensional L gave a silent PASS."""
    R, L, anchor, chi, _, _ = parts
    with pytest.raises(LrhInputError, match="dimension does not match L"):
        character_criterion(R, L, Anchor(anchor.derivations * 2), chi)


def test_character_refuses_an_element_of_another_algebra(parts):
    """chi(x) for the x of K[x]/(x^3) answered 0."""
    _, _, _, chi, cubic, _ = parts
    with pytest.raises(AlgebraMismatchError,
                       match="character applied across algebras"):
        chi.apply(cubic.basis_element(1))


def test_brackets_and_actions_refuse_vectors_over_another_field(parts, q):
    """GF(5) entries were read as rationals: act gave (Scalar(Q, 3),)."""
    R, L, anchor, chi, _, _ = parts
    data = make_character_module(R, L, anchor, chi)
    gf5 = Field(5)
    vec = (gf5.scalar(3),)
    with pytest.raises(FieldMismatchError, match="Lie vector entry"):
        L.bracket(vec, (q.one,))
    with pytest.raises(FieldMismatchError, match="Lie vector entry"):
        data.action.act(R.unit, vec)
    assert data.action.act(R.unit, (q.scalar(3),)) == (q.scalar(3),)


def test_brackets_and_actions_refuse_vectors_of_another_length(parts, q):
    """A vector longer than dim L ended in IndexError; a shorter one was
    read as if padded with zeros."""
    R, L, anchor, chi, _, _ = parts
    data = make_character_module(R, L, anchor, chi)
    for vec in ((q.one, q.one), ()):
        with pytest.raises(LrhInputError, match="Lie vector has wrong length"):
            L.bracket(vec, (q.one,))
        with pytest.raises(LrhInputError, match="Lie vector has wrong length"):
            data.action.act(R.unit, vec)


def test_partial_map_refuses_another_systems_witness(parts, q):
    """A witness of two unknowns became images of length 2 in an algebra
    of dimension 3."""
    R, L, anchor, chi, _, _ = parts
    data = make_character_module(R, L, anchor, chi)
    other = solve_linear(LinearSystem(rows=1, cols=2,
                                      entries=((0, 0, q.one),),
                                      rhs=(q.one,), field=q))
    assert other.feasible
    with pytest.raises(LrhInputError, match="witness has wrong length"):
        partial_map_from_witness(data, other)
    gf5 = Field(5)
    foreign = solve_linear(LinearSystem(rows=1, cols=3,
                                        entries=((0, 0, gf5.one),),
                                        rhs=(gf5.one,), field=gf5))
    with pytest.raises(FieldMismatchError, match="witness"):
        partial_map_from_witness(data, foreign)


def test_envelope_refuses_a_letter_outside_the_structure(obstructed_env, q):
    """l_letter(3) when dim L = 1, and r_letter(7) when dim R = 3, ended
    in IndexError from render_word while the DegreeOverflowError message
    was being built, or were returned unreduced by normal_form."""
    env = obstructed_env
    a = NCElement.from_word(q, (l_letter(0),))
    for letter, text in ((l_letter(3), "L-letter 3"),
                         (r_letter(7), "R-letter 7")):
        bad = NCElement.from_word(q, (letter, l_letter(0)))
        for call in (lambda: env.coords(bad),
                     lambda: left_divide(a, bad, env),
                     lambda: left_divide(bad, a, env),
                     lambda: normal_form(bad, env.system),
                     lambda: verify_divide_witness(
                         bad, a, env, (q.zero,) * env.dim)):
            with pytest.raises(LrhInputError, match=text):
                call()


def test_partial_maps_refuse_images_that_do_not_fit(obstructed, q):
    """No image for the one generator ended build_and_verify_right_action
    in IndexError, and two images got an answer.  Both are refused when
    the PartialMap is made, as verify_partial refused them, and so is an
    image in another algebra: over R = K with one generator, no relation
    multiplies it, and build_and_verify_right_action answered PASS."""
    R, data, system = obstructed[0], obstructed[4], obstructed[5]
    for values in ((), (R.unit, R.unit)):
        with pytest.raises(LrhInputError,
                           match="wrong number of generator images"):
            PartialMap(data=data, values=values)
    K = make_base_field_algebra(q)
    with pytest.raises(AlgebraMismatchError,
                       match="generator image in another algebra"):
        PartialMap(data=data, values=(K.unit,))
    classical = make_character_module(
        K, lie_algebra_from_brackets(q, ("a",), {}),
        Anchor((Derivation.zero(K),)), Character(K, (q.one,)))
    env = enumerate_basis(build_rewrite_system(classical), 2)
    with pytest.raises(AlgebraMismatchError,
                       match="generator image in another algebra"):
        build_and_verify_right_action(
            PartialMap(data=classical, values=(R.unit,)), env)
    rep = build_and_verify_right_action(
        PartialMap(data=data, values=(R.unit,)), enumerate_basis(system, 2))
    assert not rep.ok


@pytest.mark.parametrize("raw", [1, Fraction(1, 2), None],
                         ids=["int", "Fraction", "None"])
def test_raw_numbers_are_refused_as_not_field_values(obstructed_env,
                                                     obstructed, q, raw):
    """A raw number where a Scalar belongs ended in AttributeError, read
    from its missing .field, at each of these ten entry points."""
    R, L, _, _, data, _ = obstructed
    env = obstructed_env
    a = NCElement.from_word(q, (l_letter(0),))
    system = LinearSystem(rows=1, cols=1, entries=((0, 0, q.one),),
                          rhs=(q.one,), field=q)
    zero_matrix = [[q.zero] * R.dim for _ in range(R.dim)]
    zero_matrix[0][0] = raw
    witness = (raw,) + (q.zero,) * (R.dim * L.dim - 1)
    calls = [
        lambda: L.bracket((raw,), (q.one,)),
        lambda: data.action.act(R.unit, (raw,)),
        lambda: check_character(R, (raw,) + (q.zero,) * (R.dim - 1)),
        lambda: check_derivation(R, zero_matrix),
        lambda: LinearSystem(rows=1, cols=1, entries=((0, 0, raw),),
                             rhs=(q.one,), field=q),
        lambda: NCElement(q, {(): raw}),
        lambda: verify_witness(system, (raw,)),
        lambda: verify_certificate(system, (raw,)),
        lambda: verify_divide_witness(a, a, env,
                                      (raw,) + (q.zero,) * (env.dim - 1)),
        lambda: partial_map_from_witness(
            data, SolveOutcome("feasible", witness=witness, nullity=0)),
    ]
    for call in calls:
        with pytest.raises(FieldMismatchError,
                           match=re.escape(f"{raw!r} is not a value over Q")):
            call()
