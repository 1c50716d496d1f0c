"""The benchmark's tracer wraps mgnet entry points by name; each must resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "mgbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("mgbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("module,attr", spans.FUNCTIONS,
                         ids=[f"{m}.{a}" for m, a in spans.FUNCTIONS])
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"mgnet.{module}"), attr))


@pytest.mark.parametrize("module,cls,method", spans.METHODS,
                         ids=[f"{m}.{c}.{f}" for m, c, f in spans.METHODS])
def test_traced_method_resolves(module, cls, method):
    owner = getattr(importlib.import_module(f"mgnet.{module}"), cls)
    assert callable(owner.__dict__[method])
