"""Refusals that no other test reaches: each case calls one public entry
point on input it must refuse, and expects exactly the error it raises
-- an LrhInputError subclass naming the fault, or TypeError for an
operand of no exact numeric type -- never an answer.  The case that
negates an enveloping element must agree with multiplying it by -1."""

from fractions import Fraction

import pytest

from lrhopf import (
    Anchor,
    Character,
    Derivation,
    LrhInputError,
    NCElement,
    ProblemFileError,
    SolveOutcome,
    UnsupportedInputError,
    algebra_from_constants,
    l_letter,
    lie_algebra_from_brackets,
    make_base_field_algebra,
    make_monomial_quotient,
    parse_generator_expression,
    partial_map_from_witness,
    r_letter,
    tensor_action,
)
from lrhopf.enveloping import rewrite_once_at


def _negation_is_scaling_by_minus_one(q, obstructed):
    e = NCElement.from_word(q, (l_letter(0),)) \
        - 3 * NCElement.from_word(q, (r_letter(1), l_letter(0)))
    return -e == (-1) * e and -e != e


# label: (expected error, or None for a call that must return True,
#         text the error must contain, call on (q, obstructed))
CASES = {
    "element-of-wrong-length": (
        LrhInputError, "coefficient vector has wrong length",
        lambda q, ob: ob[0].element((q.one,))),
    "duplicate-algebra-labels": (
        LrhInputError, "duplicate algebra labels",
        lambda q, ob: algebra_from_constants(q, ("1", "x", "x"), {})),
    "bad-variable-name": (
        LrhInputError, "bad variable name",
        lambda q, ob: make_monomial_quotient(("1x",), ("1x^2",), q)),
    "variable-name-ending-in-a-newline": (
        LrhInputError, "bad variable name",
        lambda q, ob: make_monomial_quotient(("x\n",), ("x\n^2",), q)),
    "variable-images-without-monomials": (
        UnsupportedInputError, "needs a monomial-quotient algebra",
        lambda q, ob: Derivation.from_variable_images(
            make_base_field_algebra(q), {})),
    "variable-values-without-monomials": (
        UnsupportedInputError, "need a monomial-quotient algebra",
        lambda q, ob: Character.from_variable_values(
            make_base_field_algebra(q), {})),
    "bracket-index-out-of-range": (
        LrhInputError, r"bracket index pair \(0,1\) out of range",
        lambda q, ob: lie_algebra_from_brackets(
            q, ("a",), {(0, 1): (q.one,)})),
    "bracket-vector-of-wrong-length": (
        LrhInputError, "bracket vector has wrong length",
        lambda q, ob: lie_algebra_from_brackets(
            q, ("a", "b"), {(0, 1): (q.one,)})),
    "action-index-out-of-range": (
        LrhInputError, r"action index \(0,0,1\) out of range",
        lambda q, ob: tensor_action(ob[0], 1, {(0, 0, 1): q.one})),
    "partial-map-from-an-infeasible-outcome": (
        LrhInputError, "outcome carries no witness",
        lambda q, ob: partial_map_from_witness(
            ob[4], SolveOutcome("infeasible", certificate=(q.one,)))),
    "rewrite-where-no-rule-applies": (
        LrhInputError, "no rule applies at the requested position",
        lambda q, ob: rewrite_once_at((l_letter(0), l_letter(0)), 0,
                                      ob[5])),
    "generator-expression-of-a-sign-alone": (
        ProblemFileError, "cannot parse expression '\\+'",
        lambda q, ob: parse_generator_expression("+", ob[5])),
    "scalar-plus-str": (TypeError, None, lambda q, ob: q.one + "1"),
    "scalar-minus-str": (TypeError, None, lambda q, ob: q.one - "1"),
    "str-minus-scalar": (TypeError, None, lambda q, ob: "1" - q.one),
    "scalar-times-fraction": (
        TypeError, None, lambda q, ob: q.one * Fraction(1, 2)),
    "scalar-over-fraction": (
        TypeError, None, lambda q, ob: q.one / Fraction(1, 2)),
    "fraction-minus-scalar": (
        TypeError, None, lambda q, ob: Fraction(1, 2) - q.one),
    "element-times-str": (TypeError, None, lambda q, ob: ob[0].unit * "x"),
    "element-times-fraction": (
        TypeError, None, lambda q, ob: ob[0].unit * Fraction(1, 2)),
    "columns-of-an-empty-anchor": (
        LrhInputError, "an empty anchor has no algebra",
        lambda q, ob: Anchor(()).columns_of({})),
    "negated-enveloping-element": (
        None, None, _negation_is_scaling_by_minus_one),
}


@pytest.mark.parametrize("label", list(CASES))
def test_refusal_raises_its_own_error(label, q, obstructed):
    expected, text, call = CASES[label]
    if expected is None:
        assert call(q, obstructed) is True
        return
    with pytest.raises(expected, match=text) as caught:
        call(q, obstructed)
    assert caught.type is expected
