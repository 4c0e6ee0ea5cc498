"""Property tests: mutated problem files either parse, and then round-trip
through render_problem, or are refused as input errors, promptly."""

import copy
import json
import random
import signal
import time
from importlib import resources

from hypothesis import given, settings, strategies as st
import pytest

from lrhopf import (
    Anchor,
    Derivation,
    Field,
    LieRinehartData,
    LrhInputError,
    algebra_from_constants,
    character_action,
    lie_algebra_from_brackets,
    tensor_action,
)
from lrhopf.problemfile import (
    PRESETS,
    parse_problem_text,
    render_problem,
)

import oracles

BIG = "@big-number@"  # stands for a JSON number int() cannot read


def _oracle_texts():
    """The presets, and rendered oracle structures over Q, GF(2) and GF(3):
    monomial quotients with character actions, and a structure-constants
    algebra with a tensor action."""
    texts = [resources.files("lrhopf").joinpath("data", name).read_text()
             for name in sorted(PRESETS.values())]
    for p in (0, 2, 3):
        fld = Field(p)
        rng = random.Random(p)
        for _ in range(3):
            R, L, anchor, chi = oracles.random_character_candidate(rng, fld)
            texts.append(render_problem(LieRinehartData(
                R=R, L=L, anchor=anchor,
                action=character_action(chi, L.dim))))
        R = algebra_from_constants(fld, ("1", "e"), {(1, 1, 1): fld.one})
        L = lie_algebra_from_brackets(fld, ("b",), {})
        texts.append(render_problem(LieRinehartData(
            R=R, L=L, anchor=Anchor((Derivation.zero(R),)),
            action=tensor_action(R, 1, {(0, 0, 0): fld.one,
                                        (1, 0, 0): fld.one}))))
    return texts


TEXTS = _oracle_texts()
OTHER_TYPES = (5, -1, 0, 2 ** 40, 1.5, "x", "", True, None, [], [1], ["x"],
               {}, {"x": 1}, BIG)
BAD_LITERALS = ("1/0", "3/00", "--1", "2*", "*x", "x^", "x^0", "x^-2",
                "x^²", "½", "٣", "1e5", "0x10", "3/-4", " ",
                "+", "x*x*x", "1.5", "9" * 5000, "1/" + "7" * 5000,
                "x^" + "9" * 5000)
LARGE_EXPONENTS = (317, 10 ** 5, 99999999, 10 ** 30)
CHARACTERISTICS = (0, 1, -7, 4294967291, 2 ** 32 + 15, 2 ** 61 - 1,
                   10 ** 30 + 57, 10 ** 4000)


def _interrupt(signum, frame):
    raise TimeoutError("parsing did not stop")


def _paths(tree, prefix=()):
    """Every key and list position below the root, parents first."""
    items = tree.items() if isinstance(tree, dict) else enumerate(tree)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _parent(tree, path):
    for key in path[:-1]:
        tree = tree[key]
    return tree


def _mutate(data, tree):
    kind = data.draw(st.sampled_from(
        ("drop", "retype", "literal", "exponent", "characteristic")))
    if kind == "exponent":
        algebra = tree.get("algebra")
        variables = algebra.get("variables") \
            if isinstance(algebra, dict) else None
        if isinstance(variables, list):
            power = data.draw(st.sampled_from(LARGE_EXPONENTS))
            algebra["relations"] = [f"{v}^{power}" for v in variables]
        return
    if kind == "characteristic":
        tree["field"] = {"kind": "prime-field",
                         "p": data.draw(st.sampled_from(CHARACTERISTICS))}
        return
    paths = list(_paths(tree))
    if kind == "literal":
        paths = [p for p in paths
                 if isinstance(_parent(tree, p)[p[-1]], str)]
    if not paths:
        return
    path = data.draw(st.sampled_from(paths))
    parent = _parent(tree, path)
    if kind == "drop":
        del parent[path[-1]]
    elif kind == "retype":
        # a copy: later mutations must not reach the shared samples
        parent[path[-1]] = copy.deepcopy(
            data.draw(st.sampled_from(OTHER_TYPES)))
    else:
        parent[path[-1]] = data.draw(st.sampled_from(BAD_LITERALS))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_problem_files_parse_and_round_trip_or_are_refused(data):
    tree = json.loads(data.draw(st.sampled_from(TEXTS)))
    for _ in range(data.draw(st.integers(0, 3))):
        _mutate(data, tree)
    text = json.dumps(tree).replace(json.dumps(BIG), "7" * 5000)
    if data.draw(st.booleans()) and data.draw(st.booleans()):
        text = text[:data.draw(st.integers(0, len(text)))]
    # the alarm turns a parse that does not stop into a failure
    previous = signal.signal(signal.SIGALRM, _interrupt)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        start = time.perf_counter()
        try:
            pf = parse_problem_text(text)
        except LrhInputError:
            pass
        else:
            assert parse_problem_text(render_problem(pf)) == pf
        assert time.perf_counter() - start < 2.0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_a_variable_in_the_ideal_renders_as_zero():
    """With the relation "x", the variable x is zero in R and no basis
    element, so its anchor image and character value are zero too:
    rendering writes "0" for them, and the rendered file parses back to
    equal components.  render_problem used to look x up as a basis label
    and raise LrhInputError.  A nonzero value for x is refused."""
    doc = {"field": {"kind": "prime-field", "p": 2},
           "algebra": {"kind": "monomial-quotient", "variables": ["x", "y"],
                       "relations": ["x", "y^2"]},
           "lie": {"dim": 1, "labels": ["a"], "brackets": []},
           "anchor": {"a": {"x": "0", "y": "y"}},
           "action": {"kind": "character", "values": {"x": "0", "y": "0"}}}
    pf = parse_problem_text(json.dumps(doc))
    rendered = json.loads(render_problem(pf))
    assert rendered["anchor"] == {"a": {"x": "0", "y": "y"}}
    assert rendered["action"]["values"] == {"x": "0", "y": "0"}
    assert parse_problem_text(json.dumps(rendered)) == pf


def _expression(coeffs, labels):
    """The linear expression sum_i coeffs[i] * labels[i], or "0"."""
    text = "+".join(f"{c}*{lab}" for c, lab in zip(coeffs, labels) if c)
    return text.replace("+-", "-") or "0"


def _random_constants_problem(rng, p):
    """(document, anchor matrices): a structure-constants algebra of
    dimension 2-4 with a few random constants, one or two abelian Lie
    generators with random anchor columns, some keys left out, and a
    character or a tensor action.  matrices[a][i][j] is the coefficient
    of e_i in the image of e_j that the document gives xi_a."""
    n = rng.randint(2, 4)
    labels = ["1"] + [f"e{k}" for k in range(1, n)]
    lie = [f"a{k}" for k in range(rng.randint(1, 2))]
    constants = [[rng.randrange(n), rng.randrange(n), rng.randrange(n),
                  str(rng.randint(-2, 2))] for _ in range(rng.randint(0, 4))]
    anchor, matrices = {}, []
    for label in lie:
        matrix = [[0] * n for _ in range(n)]
        anchor[label] = {}
        for j in range(1, n):
            if rng.random() < 0.3:
                continue  # left out: the image of e_j is 0
            column = [rng.randint(-2, 2) for _ in range(n)]
            anchor[label][labels[j]] = _expression(column, labels)
            for i, c in enumerate(column):
                matrix[i][j] = c
        matrices.append(matrix)
    if rng.random() < 0.5:
        action = {"kind": "character", "values": {
            lab: str(rng.randint(-2, 2)) for lab in labels
            if rng.random() < 0.7}}
    else:
        action = {"kind": "tensor", "values": [
            [rng.choice(labels), rng.choice(lie), rng.choice(lie),
             str(rng.randint(-2, 2))] for _ in range(rng.randint(0, 3))]}
    field = {"kind": "prime-field", "p": p} if p else {"kind": "rationals"}
    doc = {"field": field,
           "algebra": {"kind": "structure-constants", "dim": n,
                       "labels": labels, "constants": constants},
           "lie": {"dim": len(lie), "labels": lie, "brackets": []},
           "anchor": anchor, "action": action}
    return doc, matrices


@pytest.mark.parametrize("p", [0, 2, 3])
def test_structure_constant_anchors_parse_as_their_matrices(p):
    """Seeded structure-constants files with random anchor columns: each
    parsed derivation equals Derivation(R, matrix) built from the numbers
    the file was written from, and the file round-trips through
    render_problem."""
    fld = Field(p)
    rng = random.Random(f"constant-anchors/{p}")
    for _ in range(40):
        doc, matrices = _random_constants_problem(rng, fld.characteristic)
        pf = parse_problem_text(json.dumps(doc))
        for a, matrix in enumerate(matrices):
            assert pf.anchor.rho(a) == Derivation(pf.R, tuple(
                tuple(fld.scalar(c) for c in row) for row in matrix))
        assert parse_problem_text(render_problem(pf)) == pf
