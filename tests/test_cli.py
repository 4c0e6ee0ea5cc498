"""Problem files and the command-line surface."""

import ast
import json
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

import lrhopf
from lrhopf import (
    Field,
    LrhInputError,
    ProblemFileError,
    SolveOutcome,
    build_rewrite_system,
    enumerate_basis,
    validate_lie_rinehart,
)
import lrhopf.cli as cli
from lrhopf.cli import main, parse_field_flag
import oracles
from lrhopf.problemfile import (
    PRESETS,
    parse_generator_expression,
    parse_problem,
    parse_problem_text,
    render_problem,
)


# -------------------------------------------------------------- field flag

def test_parse_field_flag():
    assert parse_field_flag("Q").characteristic == 0
    assert parse_field_flag("GF2").characteristic == 2
    assert parse_field_flag("GF(5)").characteristic == 5
    assert parse_field_flag(" GF7 ").characteristic == 7
    for bad in ("R7", "GF", "Z/5", "gfx", "GF0", "GF(0)", "GF00", "GF(5",
                "GF5)"):
        with pytest.raises(LrhInputError):
            parse_field_flag(bad)


# ------------------------------------------------------------ problem files

def test_presets_parse_and_validate():
    for name in PRESETS:
        data = parse_problem(name)
        assert all(r.ok for r in validate_lie_rinehart(data))
        assert data.action.kind == "character"


def test_preset_roundtrip_is_exact():
    for name in PRESETS:
        pf = parse_problem(name)
        again = parse_problem_text(render_problem(pf))
        assert again == pf
        # and rendering is idempotent
        assert render_problem(again) == render_problem(pf)


def test_structure_constants_and_tensor_roundtrip(tmp_path):
    doc = {
        "field": {"kind": "prime-field", "p": 3},
        "algebra": {"kind": "structure-constants", "dim": 2,
                    "labels": ["1", "e"],
                    "constants": [[1, 1, 1, "1"]]},
        "lie": {"dim": 1, "labels": ["b"], "brackets": []},
        "anchor": {"b": {"e": "0"}},
        "action": {"kind": "tensor", "values": [["1", "b", "b", "1"]]},
    }
    path = tmp_path / "idempotent.lrh"
    path.write_text(json.dumps(doc))
    pf = parse_problem(str(path))
    assert pf.R.field == Field(3)
    assert pf.R.labels == ("1", "e")
    assert pf.action.kind == "tensor"
    again = parse_problem_text(render_problem(pf))
    assert again == pf


ZERO_OVERRIDE_DOC = {
    "field": {"kind": "rationals"},
    "algebra": {"kind": "structure-constants", "dim": 2,
                "labels": ["1", "e"], "constants": [[1, 1, 1, "1"]]},
    "lie": {"dim": 2, "labels": ["a", "b"], "brackets": []},
    "anchor": {},
    "action": {"kind": "tensor", "values": [["1", "a", "a", "1"],
                                            ["1", "b", "b", "1"]]},
}


@pytest.mark.parametrize("path, value, parsed", [
    (("algebra", "constants"), [[0, 0, 0, "0"], [1, 1, 1, "1"]],
     lambda pf: pf.R.mul_table[0][0]),
    (("action", "values"), [["1", "a", "a", "0"]],
     lambda pf: pf.action.tensor[0][0] + pf.action.tensor[0][1]),
    (("lie", "brackets"), [["a", "b", "a", "1"], ["b", "a", "a", "0"]],
     lambda pf: pf.L.table[1][0]),
], ids=["unit-row", "unit-slice", "bracket-mirror"])
def test_explicit_zero_overrides_round_trip(path, value, parsed):
    """A zero given where the parser would otherwise fill in a default
    (the identity, or the negated mirror bracket) survives rendering."""
    pf = parse_problem_text(json.dumps(_with(ZERO_OVERRIDE_DOC, path,
                                             value)))
    assert not any(parsed(pf))
    again = parse_problem_text(render_problem(pf))
    assert again == pf
    assert render_problem(again) == render_problem(pf)


def test_expression_grammar(obstructed, q):
    system = obstructed[5]
    elem = parse_generator_expression("2*x - a + 1", system)
    words = {system.render_word(w): c for w, c in elem.terms.items()}
    assert words == {"x": q.scalar(2), "ā": -q.one, "1": q.one}
    with pytest.raises(ProblemFileError):
        parse_generator_expression("2*z", system)
    with pytest.raises(ProblemFileError):
        parse_generator_expression("", system)


def test_semantic_errors_name_the_label(tmp_path):
    base = {
        "field": {"kind": "rationals"},
        "algebra": {"kind": "monomial-quotient", "variables": ["x"],
                    "relations": ["x^2"]},
        "lie": {"dim": 1, "labels": ["a"], "brackets": []},
        "anchor": {"a": {"x": "0"}},
        "action": {"kind": "character", "values": {"x": "0"}},
    }
    bad_anchor = dict(base, anchor={"a": {"z": "x"}})
    with pytest.raises(ProblemFileError, match="'z'"):
        parse_problem_text(json.dumps(bad_anchor))
    bad_lie = dict(base, lie={"dim": 1, "labels": ["a"],
                              "brackets": [["a", "c", "a", "1"]]})
    with pytest.raises(ProblemFileError, match="'c'"):
        parse_problem_text(json.dumps(bad_lie))
    clash = dict(base, lie={"dim": 1, "labels": ["x"], "brackets": []})
    with pytest.raises(ProblemFileError, match="x"):
        parse_problem_text(json.dumps(clash))


def test_scalar_literals_respect_the_field():
    doc = {
        "field": {"kind": "prime-field", "p": 2},
        "algebra": {"kind": "monomial-quotient", "variables": ["x"],
                    "relations": ["x^2"]},
        "lie": {"dim": 1, "labels": ["a"], "brackets": []},
        "anchor": {"a": {"x": "0"}},
        "action": {"kind": "character", "values": {"x": "1/2"}},
    }
    with pytest.raises(LrhInputError):
        parse_problem_text(json.dumps(doc))


def test_prime_field_of_characteristic_zero_is_refused(tmp_path, capsys):
    doc = {
        "field": {"kind": "prime-field", "p": 0},
        "algebra": {"kind": "monomial-quotient", "variables": ["x"],
                    "relations": ["x^2"]},
        "lie": {"dim": 1, "labels": ["a"], "brackets": []},
        "anchor": {"a": {"x": "x"}},
        "action": {"kind": "character", "values": {"x": "0"}},
    }
    with pytest.raises(ProblemFileError, match="GF\\(0\\)"):
        parse_problem_text(json.dumps(doc))
    path = tmp_path / "gf0.lrh"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 2
    assert "GF(0)" in capsys.readouterr().err


def test_zero_denominators_are_input_errors(tmp_path, capsys):
    """A Q literal with a zero denominator names the literal and exits 2,
    from the command line and from a problem file."""
    assert main(["divide", "obstructed-example", "--left", "1/0*x",
                 "--target", "y"]) == 2
    assert "'1/0'" in capsys.readouterr().err
    doc = {
        "field": {"kind": "rationals"},
        "algebra": {"kind": "structure-constants", "dim": 2,
                    "labels": ["1", "e"], "constants": [[1, 1, 1, "3/00"]]},
        "lie": {"dim": 1, "labels": ["b"], "brackets": []},
        "anchor": {"b": {"e": "0"}},
        "action": {"kind": "character", "values": {"1": "1", "e": "0"}},
    }
    path = tmp_path / "zero-denominator.lrh"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 2
    assert "'3/00'" in capsys.readouterr().err


def test_malformed_json_reports_position():
    with pytest.raises(ProblemFileError, match="line 2"):
        parse_problem_text("{\n  broken\n}")


def test_missing_section_reported():
    with pytest.raises(ProblemFileError, match="'anchor'"):
        parse_problem_text(json.dumps({
            "field": {"kind": "rationals"},
            "algebra": {"kind": "monomial-quotient", "variables": [],
                        "relations": []},
            "lie": {"dim": 0, "labels": [], "brackets": []},
            "action": {"kind": "character", "values": {}},
        }))


MONOMIAL_DOC = {
    "field": {"kind": "rationals"},
    "algebra": {"kind": "monomial-quotient", "variables": ["x", "y"],
                "relations": ["x*y", "x^2", "y^2"]},
    "lie": {"dim": 1, "labels": ["a"], "brackets": [["a", "a", "a", "0"]]},
    "anchor": {"a": {"x": "y"}},
    "action": {"kind": "character", "values": {"x": "0"}},
}
CONSTANTS_DOC = dict(
    MONOMIAL_DOC,
    algebra={"kind": "structure-constants", "dim": 2, "labels": ["1", "x"],
             "constants": [[1, 1, 0, "0"]]},
    anchor={"a": {"x": "x"}},
    action={"kind": "tensor", "values": [["x", "a", "a", "0"]]})

SL2_DOC = {
    "field": {"kind": "rationals"},
    "algebra": {"kind": "structure-constants", "dim": 1, "labels": ["1"],
                "constants": [[0, 0, 0, "1"]]},
    "lie": {"dim": 3, "labels": ["e", "f", "h"],
            "brackets": [["e", "f", "h", "1"], ["h", "e", "e", "2"],
                         ["h", "f", "f", "-2"]]},
    "anchor": {"e": {}, "f": {}, "h": {}},
    "action": {"kind": "character", "values": {"1": "1"}},
}


def test_committed_sl2_file_is_the_sl2_document():
    """The CI workflow divides in tests/data/sl2.lrh under python -O."""
    path = Path(__file__).parent / "data" / "sl2.lrh"
    assert json.loads(path.read_text()) == SL2_DOC


def test_committed_sl2_gf7_file_is_sl2_over_gf7(capsys):
    """The CI workflow runs a feasible and an infeasible multi-term divide
    in tests/data/sl2-gf7.lrh under python -O, so that GF(p) elimination
    is run from the command line on more than a trivial system."""
    path = Path(__file__).parent / "data" / "sl2-gf7.lrh"
    assert json.loads(path.read_text()) == \
        dict(SL2_DOC, field={"kind": "prime-field", "p": 7})
    for left, target, verdict in (("e+2*f-h", "3*e+6*f-3*h", "feasible"),
                                  ("e+f", "h", "infeasible")):
        assert main(["divide", str(path), f"--left={left}",
                     f"--target={target}", "--degree", "4",
                     "--format", "structured"]) == 0
        report, = json.loads(capsys.readouterr().out)["reports"]
        assert report["verdict"] == verdict


def test_committed_criterion_fails_file_renders_failing_witnesses(capsys):
    """The CI workflow checks tests/data/criterion-fails.lrh under
    python -O, so that failing witnesses are rendered there: over GF(2),
    the anchor x |-> 1 of K[x]/(x^2) is a derivation, but it is not
    R-linear under the character x |-> 0, nor does it land in ker chi."""
    path = Path(__file__).parent / "data" / "criterion-fails.lrh"
    assert main(["check", str(path), "--format", "structured"]) == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    failed = {r["name"]: r for r in reports if r["verdict"] == "fail"}
    assert list(failed) == ["anchor-r-linearity", "leibniz-compatibility",
                            "character-criterion"]
    assert [w["condition"] for w in
            failed["character-criterion"]["witnesses"]] == \
        ["r-linearity", "anchor-into-kernel"]


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("run", [
    ["check"],
    ["envelope", "--degree", "4", "--basis"],
    ["partial"],
    ["divide", "--left=2*a+x", "--target=1", "--degree", "6"],
    ["divide", "--left=a+2*x", "--target=x", "--degree", "6"],
], ids=["check", "envelope", "partial", "divide-unit", "divide-x"])
def test_euler_constants_file_answers_as_the_euler_preset(run, fmt, capsys):
    """tests/data/euler-constants.lrh writes the Euler example with
    structure constants: labels 1, x with x^2 = 0 left out, the anchor
    x |-> x and the character on both labels.  Each command prints what
    it prints for the euler-example preset, byte for byte; the CI
    workflow runs check, envelope and partial on the file under
    python -O."""
    path = Path(__file__).parent / "data" / "euler-constants.lrh"
    results = []
    for problem in ("euler-example", str(path)):
        code = main([run[0], problem, *run[1:], "--format", fmt])
        results.append((code,) + tuple(capsys.readouterr()))
    assert results[0][0] == 0
    assert results[1] == results[0]


def _with(doc, path, value):
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def _key_paths(doc, prefix=()):
    for key, value in (doc.items() if isinstance(doc, dict)
                       else enumerate(doc)):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _key_paths(value, prefix + (key,))


@pytest.mark.parametrize("path, value, named", [
    (("algebra", "relations"), 5, "algebra.relations"),
    (("algebra", "variables"), [1], "algebra.variables"),
    (("algebra", "variables"), "xy", "algebra.variables"),
    (("lie", "labels"), "a", "lie.labels"),
    (("anchor",), [], "anchor"),
    (("anchor", "a"), "x", "anchor.a"),
    (("action", "values"), "x", "action.values"),
], ids=["relations-5", "variables-[1]", "variables-xy", "labels-a",
        "anchor-[]", "anchor.a-x", "values-x"])
def test_wrong_json_types_are_input_errors(path, value, named, tmp_path,
                                           capsys):
    bad = tmp_path / "bad.lrh"
    bad.write_text(json.dumps(_with(MONOMIAL_DOC, path, value)))
    assert main(["check", str(bad)]) == 2
    assert f"error: {named} must be a JSON" in capsys.readouterr().err


CHARACTER_CONSTANTS_DOC = dict(
    CONSTANTS_DOC, action={"kind": "character", "values": {"x": "0"}})


@pytest.mark.parametrize("value", [[1], {"x": 1}, True, None, 1.5],
                         ids=["array", "object", "boolean", "null", "float"])
@pytest.mark.parametrize("doc, path, named", [
    (MONOMIAL_DOC, ("anchor", "a", "x"), "anchor.a.x"),
    (MONOMIAL_DOC, ("action", "values", "x"), "action.values.x"),
    (CONSTANTS_DOC, ("anchor", "a", "x"), "anchor.a.x"),
    (CONSTANTS_DOC, ("action", "values", 0, 3), "action.values[0][3]"),
    (CHARACTER_CONSTANTS_DOC, ("action", "values", "x"), "action.values.x"),
    (MONOMIAL_DOC, ("lie", "brackets", 0, 3), "lie.brackets[0][3]"),
    (CONSTANTS_DOC, ("algebra", "constants", 0, 3),
     "algebra.constants[0][3]"),
], ids=["monomial-anchor", "monomial-character", "constants-anchor",
        "constants-tensor", "constants-character", "bracket",
        "structure-constant"])
def test_values_must_be_json_strings_or_integers(doc, path, named, value,
                                                 tmp_path, capsys):
    """An anchor image, action value, bracket or structure constant of
    another JSON type is refused by its key path, not read as the text of
    that value."""
    bad = tmp_path / "bad.lrh"
    bad.write_text(json.dumps(_with(doc, path, value)))
    assert main(["check", str(bad)]) == 2
    assert f"error: {named} must be a JSON string or integer" \
        in capsys.readouterr().err


@pytest.mark.parametrize("doc, path", [
    (MONOMIAL_DOC, ("anchor", "a", "x")),
    (MONOMIAL_DOC, ("action", "values", "x")),
    (CONSTANTS_DOC, ("anchor", "a", "x")),
    (CONSTANTS_DOC, ("action", "values", 0, 3)),
    (CHARACTER_CONSTANTS_DOC, ("action", "values", "x")),
    (MONOMIAL_DOC, ("lie", "brackets", 0, 3)),
    (CONSTANTS_DOC, ("algebra", "constants", 0, 3)),
], ids=["monomial-anchor", "monomial-character", "constants-anchor",
        "constants-tensor", "constants-character", "bracket",
        "structure-constant"])
def test_integer_values_read_as_their_digits(doc, path, tmp_path, capsys):
    as_text, as_integer = tmp_path / "text.lrh", tmp_path / "integer.lrh"
    as_text.write_text(json.dumps(_with(doc, path, "0")))
    as_integer.write_text(json.dumps(_with(doc, path, 0)))
    assert main(["check", str(as_text)]) == 0
    expected = capsys.readouterr().out
    assert main(["check", str(as_integer)]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("algebra, named", [
    ({"kind": "structure-constants", "dim": 2, "labels": ["1", "x"],
      "constants": [["1", 1, 0, "0"]]}, "algebra constant"),
    ({"kind": "structure-constants", "dim": 0, "labels": [],
      "constants": []}, "algebra.dim must be at least 1"),
], ids=["string-index", "zero-dimensional"])
def test_bad_structure_constants_are_input_errors(algebra, named, tmp_path,
                                                  capsys):
    bad = tmp_path / "bad.lrh"
    bad.write_text(json.dumps(dict(CONSTANTS_DOC, algebra=algebra)))
    assert main(["check", str(bad)]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("doc", [MONOMIAL_DOC, CONSTANTS_DOC],
                         ids=["monomial", "constants"])
def test_any_value_of_the_wrong_type_exits_cleanly(doc, tmp_path, capsys):
    """Every key and list item of a valid file, replaced by values of other
    JSON types: the check either runs or exits 2, never a traceback."""
    bad = tmp_path / "bad.lrh"
    bad.write_text(json.dumps(doc))
    assert main(["check", str(bad)]) == 0
    for path in _key_paths(doc):
        for value in (5, "x", True, None, [], [1], {}, {"x": 1}):
            bad.write_text(json.dumps(_with(doc, path, value)))
            assert main(["check", str(bad)]) in (0, 2), (path, value)
    capsys.readouterr()


IDEAL_VARIABLE_DOC = json.loads(
    (Path(__file__).parent / "data" / "ideal-variable.lrh").read_text())
BAD_LABEL_DOC = json.loads(
    (Path(__file__).parent / "data" / "bad-label.lrh").read_text())
NEWLINE_LABEL_DOC = json.loads(
    (Path(__file__).parent / "data" / "newline-label.lrh").read_text())


@pytest.mark.parametrize("doc, message", [
    (dict(MONOMIAL_DOC, lie={"dim": 2, "labels": ["a", "a"], "brackets": []}),
     "duplicate Lie labels"),
    ([MONOMIAL_DOC], "problem document must be a JSON object"),
    (IDEAL_VARIABLE_DOC, "anchor.a.x must be 0: the variable x lies in the "
     "ideal"),
    (dict(IDEAL_VARIABLE_DOC, anchor={"a": {"y": "y"}},
          action={"kind": "character", "values": {"x": "1"}}),
     "action.values.x must be 0: the variable x lies in the ideal"),
    (json.loads((Path(__file__).parent / "data"
                 / "duplicate-label.lrh").read_text()),
     "duplicate algebra labels"),
    (BAD_LABEL_DOC, "algebra label 'u-v' is not a name"),
    (dict(CONSTANTS_DOC, algebra=dict(CONSTANTS_DOC["algebra"],
                                      labels=["1", "2x"]),
          anchor={"a": {"2x": "0"}}),
     "algebra label '2x' is not a name"),
    (dict(CONSTANTS_DOC, algebra=dict(CONSTANTS_DOC["algebra"],
                                      labels=["e", "1"]),
          anchor={"a": {"1": "0"}}),
     "algebra label '1' is not a name"),
    (dict(MONOMIAL_DOC, lie={"dim": 1, "labels": ["2a"], "brackets": []},
          anchor={"2a": {"x": "y"}}),
     "Lie label '2a' is not a name"),
    (dict(MONOMIAL_DOC, lie={"dim": 2, "labels": ["a", "u-v"],
                             "brackets": []}),
     "Lie label 'u-v' is not a name"),
    (NEWLINE_LABEL_DOC, "Lie label 'a\\n' is not a name"),
], ids=["duplicate-lie-labels", "json-array", "ideal-variable-anchor",
        "ideal-variable-character", "duplicate-algebra-labels",
        "bad-algebra-label", "algebra-label-of-a-digit",
        "non-unit-label-one", "lie-label-of-a-digit", "bad-lie-label",
        "newline-lie-label"])
def test_malformed_documents_are_input_errors(doc, message, tmp_path,
                                              capsys):
    """The ideal-variable, duplicate-label, bad-label and newline-label
    inputs are the files that the CI workflow refuses under python -O,
    or that file with the fault moved from the anchor to the character.
    Only the unit of a structure-constants algebra may be labelled 1,
    and a name followed by a newline is no name."""
    bad = tmp_path / "bad.lrh"
    bad.write_text(json.dumps(doc))
    assert main(["check", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"error: {message}" in err


REPEATED_KEY_TEXT = (Path(__file__).parent / "data"
                     / "repeated-key.lrh").read_text()


@pytest.mark.parametrize("text, key", [
    (REPEATED_KEY_TEXT, "a"),
    (REPEATED_KEY_TEXT.replace('{"a": {"x": "1"}, ', "{"), "x"),
], ids=["anchor", "character"])
def test_repeated_keys_are_input_errors(text, key, tmp_path, capsys):
    """JSON objects that give a key twice are refused, naming the key.
    json.loads alone would keep the last value, and the committed
    repeated-key.lrh would then pass every check, though x -> 1 is no
    derivation and chi(x) = 1 no character of K[x]/(x^2)."""
    bad = tmp_path / "bad.lrh"
    bad.write_text(text)
    assert main(["check", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and \
        f"error: key {key!r} is given twice in one JSON object" in err


def test_repeated_entries_add_up():
    """A structure constant, bracket or tensor entry given twice reads as
    one entry holding the sum of both coefficients."""
    def doc(constants, brackets, values):
        return json.dumps({
            "field": {"kind": "rationals"},
            "algebra": {"kind": "structure-constants", "dim": 2,
                        "labels": ["1", "x"], "constants": constants},
            "lie": {"dim": 2, "labels": ["a", "b"], "brackets": brackets},
            "anchor": {},
            "action": {"kind": "tensor", "values": values}})

    twice = parse_problem_text(doc(
        [[1, 1, 0, "1"], [1, 1, 0, "2/3"]],
        [["a", "b", "b", "1"], ["a", "b", "b", "-3"]],
        [["x", "a", "b", "2"], ["x", "a", "b", "5"]]))
    summed = parse_problem_text(doc(
        [[1, 1, 0, "5/3"]], [["a", "b", "b", "-2"]],
        [["x", "a", "b", "7"]]))
    assert twice == summed
    assert twice.R.mul_table[1][1][0].value == Fraction(5, 3)


# ------------------------------------------------------------ command: main

def test_check_command_exit_zero(capsys):
    assert main(["check", "obstructed-example"]) == 0
    out = capsys.readouterr().out
    assert "character-criterion" in out
    assert "pass" in out


def test_check_reports_failures_but_exits_zero(tmp_path, capsys):
    doc = {
        "field": {"kind": "rationals"},
        "algebra": {"kind": "monomial-quotient", "variables": ["x"],
                    "relations": ["x^2"]},
        "lie": {"dim": 1, "labels": ["a"],
                "brackets": [["a", "a", "a", "1"]]},
        "anchor": {"a": {"x": "0"}},
        "action": {"kind": "character", "values": {"x": "0"}},
    }
    path = tmp_path / "diag.lrh"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "fail" in out
    assert "antisymmetry" in out


def test_envelope_command_basis_listing(capsys):
    assert main(["envelope", "obstructed-example", "--degree", "3",
                 "--basis"]) == 0
    out = capsys.readouterr().out
    assert "degree 3: dimension 6" in out
    assert "ā ā ā" in out
    assert "local-confluence" in out


@pytest.mark.parametrize("problem", sorted(PRESETS) + ["sl2"])
def test_envelope_dimensions_match_enumeration(problem, classical, tmp_path,
                                               capsys):
    """The per-degree dimensions, counted from the one degree-6 basis,
    are those of the truncated basis at each degree."""
    if problem == "sl2":
        data = classical(("e", "f", "h"),
                         {(0, 1): (0, 0, 1), (2, 0): (2, 0, 0),
                          (2, 1): (0, -2, 0)})
        path = tmp_path / "sl2.lrh"
        path.write_text(render_problem(data))
        problem = str(path)
    assert main(["envelope", problem, "--degree", "6"]) == 0
    found = re.findall(r"degree (\d+): dimension (\d+)",
                       capsys.readouterr().out)
    system = build_rewrite_system(
        replace(parse_problem(problem), validated=True))
    assert [(int(d), int(n)) for d, n in found] == [
        (d, enumerate_basis(system, d).dim) for d in range(7)]


def test_envelope_refuses_axiom_failures(tmp_path, capsys):
    doc = {
        "field": {"kind": "rationals"},
        "algebra": {"kind": "monomial-quotient", "variables": ["x"],
                    "relations": ["x^2"]},
        "lie": {"dim": 1, "labels": ["a"],
                "brackets": [["a", "a", "a", "1"]]},
        "anchor": {"a": {"x": "0"}},
        "action": {"kind": "character", "values": {"x": "0"}},
    }
    path = tmp_path / "diag.lrh"
    path.write_text(json.dumps(doc))
    assert main(["envelope", str(path)]) == 2
    err = capsys.readouterr().err
    assert "axiom check" in err


def test_partial_structured_matches_text(capsys):
    assert main(["partial", "obstructed-example",
                 "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "partial"
    report = doc["reports"][0]
    assert report["name"] == "right-extension-system"
    assert report["verdict"] == "infeasible"
    assert report["certificates"][0]["replay"] == "pass"
    assert report["certificates"][0]["combination"] == [
        "0", "0", "0", "0", "0", "1", "0", "0", "0"]

    assert main(["partial", "obstructed-example"]) == 0
    text = capsys.readouterr().out
    assert "infeasible" in text


def test_partial_feasible_output(capsys):
    assert main(["partial", "euler-example",
                 "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    report = doc["reports"][0]
    assert report["verdict"] == "feasible"
    assert report["witnesses"] == [{"a": "1"}]
    assert any("1 free parameter" in line for line in report["narrative"])
    assert any("replay: pass" in line for line in report["narrative"])


def test_divide_command_both_verdicts(capsys):
    assert main(["divide", "obstructed-example", "--left", "a",
                 "--target", "y", "--degree", "2",
                 "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    report = doc["reports"][0]
    assert report["verdict"] == "feasible"
    assert report["witnesses"] == [{"z": "x"}]

    assert main(["divide", "obstructed-example", "--left", "x",
                 "--target", "y", "--degree", "4"]) == 0
    out = capsys.readouterr().out
    assert "infeasible" in out
    assert "not a left multiple" in out


def test_divide_renders_its_witness_from_its_support(monkeypatch, capsys):
    """A feasible divide prints z built from the witness's support, so the
    84 coordinates of the degree-6 basis of U(sl2) are not coerced one by
    one through Field.scalar: the whole run, parsing included, makes
    fewer calls than that."""
    calls = []
    original = Field.scalar

    def counting(self, value):
        calls.append(value)
        return original(self, value)

    path = str(Path(__file__).parent / "data" / "sl2.lrh")
    dim = enumerate_basis(build_rewrite_system(
        replace(parse_problem(path), validated=True)), 6).dim
    monkeypatch.setattr(Field, "scalar", counting)
    assert main(["divide", path, "--left=h+2*f", "--target=3*h+6*f",
                 "--degree", "6"]) == 0
    assert "witness: z=3" in capsys.readouterr().out
    assert dim == 84 and len(calls) < dim


def test_divide_refuses_a_target_beyond_the_representable_degree(capsys):
    """g = x has degree 0, so at degree 0 no product x.z reaches the
    degree-1 target a."""
    assert main(["divide", "obstructed-example", "--left", "x",
                 "--target", "a", "--degree", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "target degree 1 exceeds the representable bound 0" in err


def test_theorem1_command(capsys):
    assert main(["theorem1", "--degree", "4"]) == 0
    out = capsys.readouterr().out
    assert "no-right-extension" in out
    assert main(["theorem1", "--degree", "4", "--field", "GF2",
                 "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "theorem1"
    assert doc["verdict"] == "pass"
    assert len(doc["steps"]) == 5


def test_oversized_bases_are_refused_up_front(tmp_path, capsys):
    """Both requests used to run until the memory ran out; the second is
    over U(L) for an abelian L of dimension 2."""
    path = tmp_path / "abelian2.lrh"
    path.write_text(json.dumps({
        "field": {"kind": "rationals"},
        "algebra": {"kind": "structure-constants", "dim": 1,
                    "labels": ["1"], "constants": [[0, 0, 0, "1"]]},
        "lie": {"dim": 2, "labels": ["a", "b"], "brackets": []},
        "anchor": {"a": {}, "b": {}},
        "action": {"kind": "character", "values": {"1": "1"}},
    }))
    for argv in (["envelope", "obstructed-example", "--degree",
                  str(10 ** 20)],
                 ["divide", str(path), "--left", "a", "--target", "b",
                  "--degree", "1100"]):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "MAX_BASIS_LETTERS" in err and "1000000" in err


def test_oversized_solves_are_refused_up_front(tmp_path, capsys):
    """A two-term divisor in U(sl2) at degree 17 asks for a system of 1330
    rows and 1140 columns, over MAX_SOLVE_CELLS: refused before any
    product is formed.  Over Q at degree 16 it takes about 34 s."""
    path = tmp_path / "sl2.lrh"
    path.write_text(json.dumps(SL2_DOC))
    start = time.perf_counter()
    assert main(["divide", str(path), "--left", "h + 2*f", "--target", "e",
                 "--degree", "17"]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "MAX_SOLVE_CELLS" in err and "1516200 cells" in err


def _sized(doc, **sections):
    return dict(doc, **{name: dict(doc[name], **changes)
                        for name, changes in sections.items()})


@pytest.mark.parametrize("doc, limit", [
    (_sized(MONOMIAL_DOC, field={"kind": "prime-field",
                                 "p": 10 ** 30 + 57}),
     "MAX_CHARACTERISTIC"),
    (_sized(MONOMIAL_DOC, algebra={"relations": ["x^99999999", "y^2"]}),
     "MAX_MONOMIALS"),
    (_sized(CONSTANTS_DOC, algebra={
        "dim": 115, "labels": ["1", "x"] + [f"e{k}" for k in range(2, 115)]}),
     "MAX_CHECK_WORK"),
    (_sized(MONOMIAL_DOC, lie={"dim": 115, "brackets": [],
                               "labels": [f"b{a}" for a in range(115)]}),
     "MAX_CHECK_WORK"),
    (_sized(CONSTANTS_DOC, algebra={
        "dim": 20, "labels": ["1", "x"] + [f"e{k}" for k in range(2, 20)],
        "constants": [[i, j, k, "1"] for i in range(20) for j in range(20)
                      for k in range(20)]}),
     "MAX_CHECK_WORK"),
], ids=["characteristic", "monomials", "algebra-dim", "lie-dim",
        "dense-constants"])
def test_oversized_structures_are_refused_up_front(doc, limit, tmp_path,
                                                   capsys):
    """The first two were still running after 20 s.  The two of dimension
    115 have more basis triples than MAX_CHECK_WORK, and the dense table
    of dimension 20 multiplies out too many entries: all are refused
    before any check runs."""
    path = tmp_path / "oversized.lrh"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["check", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    assert limit in capsys.readouterr().err


def test_check_of_a_large_quotient_finishes(tmp_path, capsys):
    """K[x]/(x^100) is within MAX_CHECK_WORK; its check ran for more
    than 100 s on dense Scalar tables and takes about 4 s on sparse rows."""
    doc = _sized(MONOMIAL_DOC, algebra={"variables": ["x"],
                                        "relations": ["x^100"]},
                 anchor={"a": {"x": "x"}})
    path = tmp_path / "large.lrh"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["check", str(path)]) == 0
    assert time.perf_counter() - start < 10.0
    assert "FAIL" not in capsys.readouterr().out


def test_oversized_anchors_are_refused_up_front(tmp_path, capsys):
    """Four equal anchors on K[x]/(x^60), each sending x to x + x^2 + ...
    + x^59, take their derivation and homomorphism checks 1,606,000
    steps, over MAX_CHECK_WORK, though the algebra's table is within it:
    refused while parsing.  Their check took about 8 s."""
    image = " + ".join(["x"] + [f"x^{k}" for k in range(2, 60)])
    doc = _sized(MONOMIAL_DOC, algebra={"variables": ["x"],
                                        "relations": ["x^60"]},
                 lie={"dim": 4, "labels": ["a", "b", "c", "d"],
                      "brackets": []},
                 anchor={label: {"x": image} for label in "abcd"})
    path = tmp_path / "anchors.lrh"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["check", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "MAX_CHECK_WORK" in err and "1606000 steps" in err


@pytest.mark.parametrize("flag", ["GF1000000000000000000000000000057",
                                  "GF" + "7" * 5000],
                         ids=["31-digit-prime", "5000-digits"])
def test_oversized_field_flag_is_refused_up_front(flag, capsys):
    """The first was still running after 5 s; the second has more digits
    than int() reads and raised ValueError."""
    start = time.perf_counter()
    assert main(["theorem1", "--field", flag]) == 2
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and "MAX_CHARACTERISTIC" in err


@pytest.mark.parametrize("argv, message", [
    (["theorem1", "--degree", "0"],
     "pipeline needs truncation degree at least 1"),
    (["divide", "euler-example", "--left=-", "--target=x"],
     "dangling sign in expression"),
    (["divide", "euler-example", "--left=2*", "--target=x"],
     "missing label after '*' in '2*'"),
], ids=["theorem1-degree-0", "dangling-sign", "missing-label"])
def test_bad_arguments_are_input_errors(argv, message, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"error: {message}" in err


def test_missing_file_is_input_error(capsys):
    assert main(["check", "/nonexistent/path.lrh"]) == 2
    err = capsys.readouterr().err
    assert "cannot read problem file" in err
    assert "obstructed-example" in err  # presets are suggested


def test_bad_field_flag_is_input_error(capsys):
    assert main(["theorem1", "--field", "R7"]) == 2
    assert "unknown field" in capsys.readouterr().err


# R = K[x]/(x^2), abelian L = {a, b}, anchor a: x -> 1 (not a derivation,
# since D(x^2) = 2x) and b: x -> x.  The anchor commutator of two
# non-derivations need not be a derivation; the checks must report that,
# not trip over it.
BROKEN_ANCHOR = {
    "field": {"kind": "rationals"},
    "algebra": {"kind": "monomial-quotient", "variables": ["x"],
                "relations": ["x^2"]},
    "lie": {"dim": 2, "labels": ["a", "b"], "brackets": []},
    "anchor": {"a": {"x": "1"}, "b": {"x": "x"}},
    "action": {"kind": "character", "values": {"x": "0"}},
}


@pytest.fixture
def broken_anchor(tmp_path):
    path = tmp_path / "broken-anchor.lrh"
    path.write_text(json.dumps(BROKEN_ANCHOR))
    return str(path)


def test_broken_anchor_check_reports_failure(broken_anchor, capsys):
    assert main(["check", broken_anchor, "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    verdicts = {r["name"]: r["verdict"] for r in doc["reports"]}
    assert verdicts["derivation[a]"] == "fail"
    assert verdicts["derivation[b]"] == "pass"
    assert verdicts["anchor-lie-homomorphism"] == "fail"


def test_broken_anchor_refused_by_solvers(broken_anchor, capsys):
    for argv in (["partial", broken_anchor],
                 ["divide", broken_anchor, "--left", "a", "--target", "b",
                  "--degree", "2"]):
        assert main(argv) == 2
        assert "derivation[a]" in capsys.readouterr().err


def test_internal_errors_exit_three(monkeypatch, capsys):
    from lrhopf.errors import PipelineError
    import lrhopf.cli as cli_mod

    def boom(fld, degree):
        raise PipelineError("truncated-basis", "dimension drifted")

    monkeypatch.setattr(cli_mod, "theorem1_pipeline", boom)
    assert main(["theorem1"]) == 3
    err = capsys.readouterr().err
    assert "internal error" in err
    assert "truncated-basis" in err


# ------------------------------------------------------ interpreter flags

def _cli_env():
    src = str(Path(lrhopf.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _run_cli(args, *flags):
    done = subprocess.run([sys.executable, *flags, "-m", "lrhopf.cli", *args],
                          capture_output=True, text=True, env=_cli_env(),
                          timeout=120)
    return done.returncode, done.stdout


def test_closed_stdout_ends_quietly():
    """The reader of stdout has gone before the report is written, as
    with `| head -1`: exit 1 and nothing on stderr, not a traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "lrhopf.cli", "divide", "euler-example",
             "--left=a+2*x", "--target=x", "--degree", "6"],
            stdout=write_end, stderr=subprocess.PIPE, env=_cli_env(),
            timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == b""


def test_optimize_flag_changes_nothing(broken_anchor):
    """No invariant lives in an assert, so -O gives the same runs."""
    for args in (["theorem1", "--degree", "8", "--format", "structured"],
                 ["check", broken_anchor],
                 ["divide", "euler-example", "--left", "x", "--target", "x",
                  "--degree", "3"]):
        plain = _run_cli(args)
        assert plain[0] == 0
        assert plain[1]
        assert _run_cli(args, "-O") == plain


def test_package_has_no_assert_statements():
    package = Path(lrhopf.__file__).resolve().parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}"
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert offenders == []


def _zeroed_certificate(real, g, t, env):
    out = real(g, t, env)
    return replace(out, certificate=(env.system.field.zero,)
                   * len(out.certificate))


def _false_witness(real, g, t, env):
    out = real(g, t, env)
    fld = env.system.field
    return SolveOutcome(verdict="feasible", witness=(fld.one,) * env.dim,
                        nullity=0, nullspace=())


@pytest.mark.parametrize("fake", [_zeroed_certificate, _false_witness])
def test_divide_replays_its_evidence(fake, monkeypatch, capsys):
    """divide replays the certificate or witness it prints: evidence that
    fails its replay is an internal error, exit 3, with nothing printed."""
    monkeypatch.setattr(cli, "left_divide", partial(fake, cli.left_divide))
    assert main(["divide", "obstructed-example", "--left", "x",
                 "--target", "y", "--degree", "3"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "left-divisibility" in err and "degree 3" in err


def _zeroed_partial_certificate(real, system):
    out = real(system)
    return replace(out, certificate=(system.field.zero,)
                   * len(out.certificate))


def _false_partial_witness(real, system):
    """The unique solution with its first entry moved by one."""
    out = real(system)
    return replace(out, witness=(out.witness[0] + system.field.one,)
                   + out.witness[1:])


@pytest.mark.parametrize("fake, problem", [
    (_zeroed_partial_certificate, "obstructed-example"),
    (_false_partial_witness, "euler-example"),
], ids=["zeroed-certificate", "false-witness"])
@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_partial_replays_its_evidence(fake, problem, fmt, monkeypatch,
                                      capsys):
    """partial printed "replay": "fail" or "witness replay: fail" and
    exited 0; evidence that fails its replay is now an internal error,
    exit 3, with nothing printed, as for divide."""
    assert main(["partial", problem, "--format", fmt]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "solve_linear",
                        partial(fake, cli.solve_linear))
    assert main(["partial", problem, "--format", fmt]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "right-extension-system" in err and "replay failed" in err


def _random_expression(rng, labels):
    """A signed sum of one to three generator terms, some scaled."""
    text = ""
    for _ in range(rng.randint(1, 3)):
        c = rng.randint(1, 3)
        term = rng.choice(labels) if c == 1 else f"{c}*{rng.choice(labels)}"
        text += rng.choice("+-") + term
    return text.lstrip("+")


@pytest.mark.parametrize("p", [0, 3])
def test_random_problem_files_run_cleanly(p, tmp_path, capsys):
    """Seeded valid structures, rendered to problem files, run through
    partial (character actions only) and divide with random generator
    expressions, in both formats: 30 structures, and more until both
    commands have given both verdicts.  Both commands replay their evidence before they print, so
    every run exiting 0 also checks the replays end to end."""
    fld = Field(p)
    rng = random.Random(f"random-problem-files/{p}")
    path = tmp_path / "random.lrh"
    verdicts, drawn = set(), 0
    while drawn < 30 or len(verdicts) < 4 and drawn < 100:
        drawn += 1
        data = oracles.random_valid_structure(rng, fld)
        path.write_text(render_problem(data))
        labels = data.R.labels + data.L.labels
        runs = [["divide", str(path),
                 f"--left={_random_expression(rng, labels)}",
                 f"--target={_random_expression(rng, labels)}",
                 f"--degree={rng.randint(1, 3)}"]]
        if data.action.kind == "character":
            runs.append(["partial", str(path)])
        for argv in runs:
            for fmt in ("text", "structured"):
                assert main(argv + ["--format", fmt]) == 0, argv
                out = capsys.readouterr().out
                if fmt == "structured":
                    doc = json.loads(out)
                    assert doc["command"] == argv[0]
                    verdicts.add((argv[0], doc["reports"][0]["verdict"]))
                else:
                    assert "verdict=" in out
    assert verdicts == {(command, verdict) for command in ("divide", "partial")
                        for verdict in ("feasible", "infeasible")}
