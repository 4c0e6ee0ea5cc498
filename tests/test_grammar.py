"""Every Python file the CI matrix runs -- the modules of the package,
the tests and the benchmark -- is valid Python 3.10, the oldest version
that pyproject.toml and the CI matrix name, whichever interpreter runs
the tests.  `ast.parse` with a feature version is best-effort, so the
tree is also searched for the later constructs a newer parser takes:
`except*` (3.11), a starred subscript `a[*b]` (3.11, PEP 646) and type
parameters (3.12)."""

import ast
import io
import tokenize
from pathlib import Path

import pytest

OLDEST = (3, 10)
ROOT = Path(__file__).parent.parent
MODULES = sorted((ROOT / "src" / "lrhopf").glob("*.py"))
SCRIPTS = sorted([*(ROOT / "tests").glob("*.py"),
                  *(ROOT / "lrhbench").glob("*.py")])


_LAYOUT = (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT,
           tokenize.ENDMARKER)


def _parenthesised(segment: str) -> bool:
    """Whether the source `segment` is one parenthesised expression: its
    first token is "(" and the ")" matching it is its last token.  It is
    tokenized inside brackets, so that a line break in it ends nothing."""
    readline = io.StringIO(f"[{segment}]").readline
    kinds = [t.exact_type for t in tokenize.generate_tokens(readline)
             if t.type not in _LAYOUT][1:-1]
    if kinds[0] != tokenize.LPAR:
        return False
    depth = 0
    for k, kind in enumerate(kinds):
        depth += (kind == tokenize.LPAR) - (kind == tokenize.RPAR)
        if depth == 0:
            return k == len(kinds) - 1
    return False


def _starred_subscript(node, text: str) -> bool:
    """a[*b] parses to the same tree as the 3.10-legal a[(*b,)]; only the
    source of the slice tells them apart: the legal one is enclosed by
    one pair of parentheses.  A slice such as `(x), *b` starts with a
    parenthesis that does not enclose it, and is refused."""
    return isinstance(node, ast.Subscript) \
        and isinstance(node.slice, ast.Tuple) \
        and any(isinstance(elt, ast.Starred) for elt in node.slice.elts) \
        and not _parenthesised(ast.get_source_segment(text, node.slice))


def _refuse_newer_syntax(text: str, name: str) -> None:
    """Raise SyntaxError unless `text` parses as Python 3.10 with no
    `except*`, no starred subscript and no type parameters."""
    tree = ast.parse(text, name, feature_version=OLDEST)
    for node in ast.walk(tree):
        if type(node).__name__ in ("TryStar", "TypeAlias") \
                or getattr(node, "type_params", None) \
                or _starred_subscript(node, text):
            raise SyntaxError(
                f"{type(node).__name__} at {name}:{node.lineno} needs "
                f"Python newer than {OLDEST[0]}.{OLDEST[1]}")


def test_the_package_has_modules():
    assert any(path.name == "__init__.py" for path in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_is_python_3_10(path):
    _refuse_newer_syntax(path.read_text(encoding="utf-8"), path.name)


def test_the_tests_and_the_benchmark_are_found():
    assert {path.parent.name for path in SCRIPTS} == {"tests", "lrhbench"}
    assert Path(__file__) in SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS,
                         ids=lambda path: path.relative_to(ROOT).as_posix())
def test_script_is_python_3_10(path):
    _refuse_newer_syntax(path.read_text(encoding="utf-8"),
                         path.relative_to(ROOT).as_posix())


@pytest.mark.parametrize("text", [
    "try:\n    pass\nexcept* ValueError:\n    pass\n",
    "def f[T](x: T) -> T:\n    return x\n",
    "class Box[T]:\n    pass\n",
    "type Pair = tuple\n",
    "a[*b]\n",
    "a[(x), *b]\n",
], ids=["except-star", "generic-function", "generic-class", "type-alias",
        "starred-subscript", "starred-subscript-after-a-parenthesis"])
def test_newer_syntax_is_refused(text):
    with pytest.raises(SyntaxError):
        _refuse_newer_syntax(text, "sample.py")


def test_3_10_syntax_is_taken():
    _refuse_newer_syntax("match x:\n    case [a, *rest]:\n        pass\n"
                         "with (open(a) as f, open(b) as g):\n    pass\n"
                         "a[(*b,)]\n"
                         "a[(x, *b)]\n",
                         "sample.py")
