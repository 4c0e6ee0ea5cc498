"""Every Python file the CI matrix runs -- the modules of the package,
the tests and the benchmark -- is valid Python 3.10, the oldest version
that pyproject.toml and the CI matrix name, whichever interpreter runs
the tests.  `ast.parse` with a feature version is best-effort, so the
tree is also searched for the later constructs a newer parser takes:
`except*` (3.11), a starred subscript `a[*b]` (3.11, PEP 646) and type
parameters (3.12)."""

import ast
from pathlib import Path

import pytest

OLDEST = (3, 10)
ROOT = Path(__file__).parent.parent
MODULES = sorted((ROOT / "src" / "lrhopf").glob("*.py"))
SCRIPTS = sorted([*(ROOT / "tests").glob("*.py"),
                  *(ROOT / "lrhbench").glob("*.py")])


def _starred_subscript(node, text: str) -> bool:
    """a[*b] parses to the same tree as the 3.10-legal a[(*b,)]; only the
    source of the slice, which has no parenthesis, tells them apart.  A
    slice such as `(x), *b`, which starts with a parenthesis that does not
    enclose it, is taken here; a 3.10 interpreter refuses it."""
    return isinstance(node, ast.Subscript) \
        and isinstance(node.slice, ast.Tuple) \
        and any(isinstance(elt, ast.Starred) for elt in node.slice.elts) \
        and not ast.get_source_segment(text, node.slice).startswith("(")


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
], ids=["except-star", "generic-function", "generic-class", "type-alias",
        "starred-subscript"])
def test_newer_syntax_is_refused(text):
    with pytest.raises(SyntaxError):
        _refuse_newer_syntax(text, "sample.py")


def test_3_10_syntax_is_taken():
    _refuse_newer_syntax("match x:\n    case [a, *rest]:\n        pass\n"
                         "with (open(a) as f, open(b) as g):\n    pass\n"
                         "a[(*b,)]\n",
                         "sample.py")
