"""The benchmark's trace hooks name functions that still exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "lrhbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("lrhbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    """A rename of a traced function fails here, not silently in a
    `--trace 1` benchmark run."""
    tracer = _load_tracer()
    hooks = [(module, attr) for _, module, attr in tracer.SPANS
             + tracer.COUNTS]
    assert hooks
    for module, attr in hooks:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
            if owner is None:
                pytest.fail(f"{module}.{attr} no longer exists")
        assert callable(owner), f"{module}.{attr}"
