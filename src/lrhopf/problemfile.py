"""Problem files: parsing, validation, and canonical rendering.

A problem is a single JSON document with five sections:

  field    {"kind": "rationals"} or {"kind": "prime-field", "p": 5}
  algebra  {"kind": "monomial-quotient", "variables": [...],
            "relations": [...]}
           or {"kind": "structure-constants", "dim": n, "labels": [...],
               "constants": [[i, j, k, "coeff"], ...]}
  lie      {"dim": m, "labels": [...],
            "brackets": [[label_a, label_b, label_c, "coeff"], ...]}
  anchor   {lie_label: {generator: "linear expression"}}
  action   {"kind": "character", "values": {generator: "scalar"}}
           or {"kind": "tensor",
               "values": [[r_label, lie_a, lie_b, "coeff"], ...]}

Scalars are written as literals ("3", "-1/2"); anchor values and other
element positions use a linear-expression grammar: terms of the shape
`label`, `scalar`, or `scalar*label`, joined by + and -.  Every label a
file defines is a name (a letter or _, then letters, digits and _,
matched against the whole label, so a name followed by a newline is
none), and only the unit of a structure-constants algebra may instead
be labelled "1", so the two token kinds cannot collide.  A JSON object
that gives a key twice is refused, naming the key.  A structure
constant, bracket or tensor entry given more than once adds up.

A bracket pair whose mirror is absent is completed antisymmetrically;
files that spell out both orientations are taken verbatim, which lets
deliberately broken tables reach the checkers intact.
"""

from __future__ import annotations

import json
from importlib import resources

from .errors import LrhInputError, ProblemFileError
from .finalg import (
    _NAME_RE,
    Character,
    CommAlgebra,
    Derivation,
    algebra_from_constants,
    leibniz_columns,
    make_monomial_quotient,
)
from .lierinehart import (
    Anchor,
    LieAlgebra,
    LieRinehartData,
    ModuleAction,
    character_action,
    check_anchor_size,
    lie_algebra_from_brackets,
    tensor_action,
)
from .enveloping import NCElement, RewriteSystem, l_letter, r_letter
from .scalars import Field

PRESETS = {
    "obstructed-example": "obstructed_example.lrh",
    "euler-example": "euler_example.lrh",
}


# ---------------------------------------------------------------------------
# the linear-expression grammar

def _split_terms(text: str) -> list:
    text = text.strip()
    if not text:
        raise ProblemFileError("empty expression")
    parts = []
    for chunk in text.replace("-", "+-").split("+"):
        chunk = chunk.strip()
        if chunk:
            parts.append(chunk)
    if not parts:
        raise ProblemFileError(f"cannot parse expression {text!r}")
    return parts


def _term_pieces(term: str, fld: Field):
    """(raw value in kernel form, label-or-None) for one signed term."""
    negative = term.startswith("-")
    if negative:
        term = term[1:].strip()
    if not term:
        raise ProblemFileError("dangling sign in expression")
    if term[0].isdigit():
        head, star, tail = term.partition("*")
        coeff = fld.kernel(fld.parse(head).value)
        label = tail.strip() if star else None
        if star and not label:
            raise ProblemFileError(f"missing label after '*' in {term!r}")
    else:
        coeff, label = 1, term
    if negative:
        coeff = fld.reduce(-coeff)
    return coeff, label


def _expression_row(text: str, algebra: CommAlgebra) -> dict:
    """The sparse raw row of a linear expression over the algebra's basis
    labels, keys ascending; a bare scalar means that multiple of the
    unit."""
    fld, row = algebra.field, {}
    for term in _split_terms(str(text)):
        coeff, label = _term_pieces(term, fld)
        k = algebra.unit_index if label is None else algebra.index_of(label)
        row[k] = fld.kernel(fld.reduce(row.get(k, 0) + coeff))
    return {k: v for k, v in sorted(row.items()) if v}


def parse_generator_expression(text: str, system: RewriteSystem) -> NCElement:
    """Linear expression over both letter alphabets, for divisibility
    queries: R-labels become R-letters, Lie labels become L-letters."""
    fld = system.field
    out = NCElement.zero(fld)
    for term in _split_terms(str(text)):
        coeff, label = _term_pieces(term, fld)
        if label is None or label == system.r_labels[0]:
            word = ()
        elif label in system.r_labels:
            word = (r_letter(system.r_labels.index(label)),)
        elif label in system.l_labels:
            word = (l_letter(system.l_labels.index(label)),)
        else:
            raise ProblemFileError(
                f"unknown generator label {label!r} (know "
                f"{', '.join(system.r_labels + system.l_labels)})")
        out = out + NCElement.from_word(fld, word, fld.wrap(coeff))
    return out


# ---------------------------------------------------------------------------
# section parsers

_JSON_NAMES = {dict: "object", list: "array", str: "string", int: "integer"}
_MISSING = object()


def _require(section: dict, key: str, where: str, kind, default=_MISSING):
    """section[key], of JSON type `kind` (dict, list, str or int), or an
    array of that type for kind = [type]; `default` stands in for a
    missing key.  `where` is the enclosing section, "" at the top."""
    value = section.get(key, default)
    if value is _MISSING:
        raise ProblemFileError(f"missing key {key!r} in section {where!r}"
                               if where else f"missing section {key!r}")
    item = kind[0] if isinstance(kind, list) else None
    # type(), not isinstance(): JSON true and false are no integers
    if type(value) is not (list if item else kind) or (
            item and any(type(x) is not item for x in value)):
        wanted = f"array of {_JSON_NAMES[item]}s" if item \
            else _JSON_NAMES[kind]
        raise ProblemFileError(
            f"{where}.{key}".lstrip(".") + f" must be a JSON {wanted}")
    return value


def _require_names(labels, where: str) -> None:
    """Refuse a label of `labels` that is no name (a letter or _, then
    letters, digits and _), so that no label reads as a scalar or an
    expression."""
    for label in labels:
        if not _NAME_RE.fullmatch(label):
            raise ProblemFileError(f"{where} label {label!r} is not a name")


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict, refusing a key given twice, which
    json.loads would otherwise read as its last value: the first key
    seen again is named."""
    out = dict(pairs)
    if len(out) != len(pairs):
        seen = set()  # seen.add gives None: next stops at the first repeat
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ProblemFileError(f"key {key!r} is given twice in one JSON "
                               f"object")
    return out


def _literal(value, path: str) -> str:
    """The text of a scalar or expression value, which must be a JSON
    string or integer; `path` names its key."""
    # type(), not isinstance(): JSON true and false are no integers
    if type(value) not in (str, int):
        raise ProblemFileError(f"{path} must be a JSON string or integer")
    return str(value)


def _parse_field(section) -> Field:
    kind = _require(section, "kind", "field", str)
    if kind == "rationals":
        return Field(0)
    if kind == "prime-field":
        p = _require(section, "p", "field", int)
        try:
            return Field.prime(p)
        except LrhInputError as exc:
            raise ProblemFileError(str(exc)) from None
    raise ProblemFileError(f"unknown field.kind {kind!r}")


def _parse_algebra(section, fld: Field) -> CommAlgebra:
    kind = _require(section, "kind", "algebra", str)
    if kind == "monomial-quotient":
        variables = _require(section, "variables", "algebra", [str])
        relations = _require(section, "relations", "algebra", [str])
        return make_monomial_quotient(tuple(variables), tuple(relations),
                                      fld)
    if kind == "structure-constants":
        dim = _require(section, "dim", "algebra", int)
        labels = tuple(_require(section, "labels", "algebra", [str]))
        if len(labels) != dim:
            raise ProblemFileError("algebra.dim does not match its labels")
        if dim < 1:
            raise ProblemFileError(
                "algebra.dim must be at least 1: basis element 0 is the unit")
        # the unit alone may be labelled 1, which reads as the unit
        _require_names(labels[1:] if labels[0] == "1" else labels, "algebra")
        constants = {}
        for n, entry in enumerate(_require(section, "constants", "algebra",
                                           [list], [])):
            if len(entry) != 4 or any(type(x) is not int
                                      for x in entry[:3]):
                raise ProblemFileError(
                    f"algebra constant {entry!r} is not [i, j, k, coeff]")
            key, coeff = tuple(entry[:3]), fld.parse(
                _literal(entry[3], f"algebra.constants[{n}][3]")).value
            constants[key] = constants.get(key, 0) + coeff
        return algebra_from_constants(fld, labels, constants)
    raise ProblemFileError(f"unknown algebra.kind {kind!r}")


def _parse_lie(section, fld: Field, r_labels) -> LieAlgebra:
    dim = _require(section, "dim", "lie", int)
    labels = tuple(_require(section, "labels", "lie", [str]))
    if len(labels) != dim:
        raise ProblemFileError("lie.dim does not match its labels")
    if len(set(labels)) != dim:
        raise ProblemFileError("duplicate Lie labels")
    _require_names(labels, "Lie")
    clash = set(labels) & set(r_labels)
    if clash:
        raise ProblemFileError(
            f"labels used by both sections: {', '.join(sorted(clash))}")

    def lindex(label):
        if label not in labels:
            raise ProblemFileError(f"unknown Lie label {label!r}")
        return labels.index(label)

    brackets = {}
    for n, entry in enumerate(_require(section, "brackets", "lie", [list],
                                       [])):
        if len(entry) != 4:
            raise ProblemFileError(
                f"bracket entry {entry!r} is not [a, b, c, coeff]")
        la, lb, lc, coeff = entry
        a, b, c = lindex(la), lindex(lb), lindex(lc)
        vec = brackets.setdefault((a, b), [0] * dim)
        vec[c] += fld.parse(_literal(coeff, f"lie.brackets[{n}][3]")).value
    return lie_algebra_from_brackets(fld, labels, brackets)


def _generator_keys(R: CommAlgebra, unit: bool) -> dict:
    """{key: basis index} for the keys of a file's anchor images
    (unit=False) and character values (unit=True), in file order: a
    monomial quotient's variables, otherwise the basis labels, the unit's
    label only for character values.  A variable in the ideal (relation
    "x") is no basis element but zero in R, and its index is None."""
    basis = {lab: k for k, lab in enumerate(R.labels) if unit or k}
    if R.variables is not None:
        return {var: basis.get(var) for var in R.variables}
    return basis


def _parse_keyed(values: dict, keys: dict, where: str, unknown: str,
                 parse) -> dict:
    """{key: parse(text)} for each of `keys`, in order, read from the
    JSON object `values` at `where`; a missing key reads "1" for the
    unit's label and "0" otherwise.  A key of `values` outside `keys` is
    refused as `unknown`, and a nonzero value for a variable in the ideal
    by its path."""
    for key in values:
        if key not in keys:
            raise ProblemFileError(f"{unknown} {key!r}")
    out = {}
    for key, k in keys.items():
        path = f"{where}.{key}"
        out[key] = parse(_literal(values.get(key, "1" if k == 0 else "0"),
                                  path))
        if k is None and out[key]:
            raise ProblemFileError(
                f"{path} must be 0: the variable {key} lies in the ideal")
    return out


def _parse_anchor(section, R: CommAlgebra, L: LieAlgebra) -> Anchor:
    derivations = []
    known = set(L.labels)
    for key in section:
        if key not in known:
            raise ProblemFileError(f"anchor names unknown Lie label {key!r}")
    keys = _generator_keys(R, unit=False)
    for label in L.labels:
        images = _parse_keyed(
            _require(section, label, "anchor", dict, {}), keys,
            f"anchor.{label}", f"anchor.{label} names unknown generator",
            lambda text: _expression_row(text, R))
        derivations.append(Derivation.from_columns(R, leibniz_columns(
            R, images) if R.monomials is not None else [
                images.get(lab, {}) for lab in R.labels]))
    anchor = Anchor(tuple(derivations))
    check_anchor_size(R, L, anchor)
    return anchor


def _parse_action(section, R: CommAlgebra, L: LieAlgebra) -> ModuleAction:
    kind = _require(section, "kind", "action", str)
    if kind == "character":
        values = _require(section, "values", "action", dict)
        keys = _generator_keys(R, unit=True)
        if not values.keys() <= keys.keys():
            # a monomial quotient's character may be given on its basis
            keys = {lab: k for k, lab in enumerate(R.labels)}
        parsed = _parse_keyed(values, keys, "action.values",
                              "action.values names unknown label",
                              R.field.parse)
        chi = Character(R, tuple(parsed.values())) \
            if tuple(parsed) == R.labels \
            else Character.from_variable_values(R, parsed)
        return character_action(chi, L.dim)
    if kind == "tensor":
        entries = {}
        for n, entry in enumerate(_require(section, "values", "action",
                                           [list])):
            if len(entry) != 4:
                raise ProblemFileError(
                    f"action entry {entry!r} is not [r, a, b, coeff]")
            rl, la, lb, coeff = entry
            if rl not in R.labels:
                raise ProblemFileError(f"unknown base label {rl!r}")
            if la not in L.labels or lb not in L.labels:
                raise ProblemFileError(f"unknown Lie label in {entry!r}")
            key = (R.labels.index(rl), L.labels.index(la),
                   L.labels.index(lb))
            entries[key] = entries.get(key, 0) + R.field.parse(
                _literal(coeff, f"action.values[{n}][3]")).value
        return tensor_action(R, L.dim, entries)
    raise ProblemFileError(f"unknown action.kind {kind!r}")


def parse_problem_text(text: str) -> LieRinehartData:
    """The structure a problem document describes, unvalidated: run the
    axiom checks to promote it."""
    try:
        tree = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ProblemFileError(
            f"not well-formed JSON: {exc.msg} at line {exc.lineno}, "
            f"column {exc.colno}") from None
    except ValueError:  # more digits than int() converts from text
        raise ProblemFileError(
            "a JSON number has more digits than can be read") from None
    if not isinstance(tree, dict):
        raise ProblemFileError("problem document must be a JSON object")
    field, algebra, lie, anchor, action = (
        _require(tree, key, "", dict)
        for key in ("field", "algebra", "lie", "anchor", "action"))
    fld = _parse_field(field)
    R = _parse_algebra(algebra, fld)
    L = _parse_lie(lie, fld, R.labels)
    anchor = _parse_anchor(anchor, R, L)
    action = _parse_action(action, R, L)
    return LieRinehartData(R=R, L=L, action=action, anchor=anchor)


def parse_problem(source: str) -> LieRinehartData:
    """`source` is a path or the name of a bundled preset."""
    if source in PRESETS:
        text = resources.files("lrhopf").joinpath(
            "data", PRESETS[source]).read_text()
        return parse_problem_text(text)
    try:
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ProblemFileError(
            f"cannot read problem file {source!r}: {exc.strerror}; "
            f"bundled presets: {', '.join(sorted(PRESETS))}") from None
    return parse_problem_text(text)


# ---------------------------------------------------------------------------
# canonical rendering

def _entries(table, labels, filled_in) -> list:
    """[i, j, k, coeff] for each nonzero table[i][j][k], in index order,
    each index written through its `labels`.  A zero vector table[i][j]
    that the parser would fill in if it were left out (a unit row or
    slice, or a bracket whose mirror is given), as `filled_in(i, j)` says,
    is written as the one zero entry [i, j, 0, "0"]."""
    return [[labels[0][i], labels[1][j], labels[2][k], str(c)]
            for i, row in enumerate(table) for j, vec in enumerate(row)
            for k, c in enumerate(vec)
            if c or (k == 0 and not any(vec) and filled_in(i, j))]


def render_problem(data: LieRinehartData) -> str:
    """Canonical JSON for a structure, over its base algebra's field.
    Parsing the output gives back equal in-memory components, which is
    tested, not assumed."""
    R, L = data.R, data.L
    fld = R.field
    doc = {}
    doc["field"] = {"kind": fld.kind}
    if fld.characteristic:
        doc["field"]["p"] = fld.characteristic

    if R.variables is not None:
        doc["algebra"] = {"kind": "monomial-quotient",
                          "variables": list(R.variables),
                          "relations": list(R.relations)}
    else:
        doc["algebra"] = {"kind": "structure-constants", "dim": R.dim,
                          "labels": list(R.labels),
                          "constants": _entries(
                              R.mul_table, (range(R.dim),) * 3,
                              lambda i, j: 0 in (i, j))}

    doc["lie"] = {"dim": L.dim, "labels": list(L.labels),
                  "brackets": _entries(L.table, (L.labels,) * 3,
                                       lambda a, b: any(L.table[b][a]))}

    # a variable in the ideal has no basis index: it is zero in R
    keys = _generator_keys(R, unit=False)
    doc["anchor"] = {label: {
        key: "0" if k is None else str(data.anchor.rho(a).column(k))
        for key, k in keys.items()} for a, label in enumerate(L.labels)}

    if data.action.kind == "character":
        chi = data.action.character
        values = {key: "0" if k is None else str(chi.values[k])
                  for key, k in _generator_keys(R, unit=True).items()}
        doc["action"] = {"kind": "character", "values": values}
    else:
        tensor = data.action.tensor
        values = _entries(tensor, (R.labels, L.labels, L.labels),
                          lambda i, a: i == a == 0
                          and not any(map(any, tensor[0])))
        doc["action"] = {"kind": "tensor", "values": values}

    return json.dumps(doc, indent=2) + "\n"
