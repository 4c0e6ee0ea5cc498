"""Every module of the package is valid Python 3.10, the oldest version
that pyproject.toml and the CI matrix name, whichever interpreter runs
the tests.  `ast.parse` with a feature version is best-effort, so the
tree is also searched for the two later constructs a newer parser
takes: `except*` (3.11) and type parameters (3.12)."""

import ast
from pathlib import Path

import pytest

OLDEST = (3, 10)
MODULES = sorted((Path(__file__).parent.parent / "src" / "lrhopf")
                 .glob("*.py"))


def _refuse_newer_syntax(text: str, name: str) -> None:
    """Raise SyntaxError unless `text` parses as Python 3.10 with no
    `except*` and no type parameters."""
    tree = ast.parse(text, name, feature_version=OLDEST)
    for node in ast.walk(tree):
        if type(node).__name__ in ("TryStar", "TypeAlias") \
                or getattr(node, "type_params", None):
            raise SyntaxError(
                f"{type(node).__name__} at {name}:{node.lineno} needs "
                f"Python newer than {OLDEST[0]}.{OLDEST[1]}")


def test_the_package_has_modules():
    assert any(path.name == "__init__.py" for path in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_is_python_3_10(path):
    _refuse_newer_syntax(path.read_text(encoding="utf-8"), path.name)


@pytest.mark.parametrize("text", [
    "try:\n    pass\nexcept* ValueError:\n    pass\n",
    "def f[T](x: T) -> T:\n    return x\n",
    "class Box[T]:\n    pass\n",
    "type Pair = tuple\n",
], ids=["except-star", "generic-function", "generic-class", "type-alias"])
def test_newer_syntax_is_refused(text):
    with pytest.raises(SyntaxError):
        _refuse_newer_syntax(text, "sample.py")


def test_3_10_syntax_is_taken():
    _refuse_newer_syntax("match x:\n    case [a, *rest]:\n        pass\n"
                         "with (open(a) as f, open(b) as g):\n    pass\n",
                         "sample.py")
