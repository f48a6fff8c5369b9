"""The benchmark tracer wraps porodrift names by string; each must still exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines tables only; nothing is wrapped
    return module


TRACED = _tracing()


@pytest.mark.parametrize("module,name", [(m, a) for m, a, *_ in TRACED.FUNCTIONS])
def test_traced_function_exists(module, name):
    assert hasattr(importlib.import_module(f"porodrift.{module}"), name)


@pytest.mark.parametrize("module,cls,method", [(m, c, f) for m, c, f, *_ in TRACED.METHODS])
def test_traced_method_exists(module, cls, method):
    owner = getattr(importlib.import_module(f"porodrift.{module}"), cls)
    assert hasattr(owner, method)
