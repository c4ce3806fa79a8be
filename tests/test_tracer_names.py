"""The benchmark tracer wraps qsep callables by name: every name it lists must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("_benchmark_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.LAYERS


LAYERS = _layers()


@pytest.mark.parametrize("span, module, attr", LAYERS, ids=[span for span, _, _ in LAYERS])
def test_layer_resolves(span, module, attr):
    owner = importlib.import_module(module)
    if "." in attr:
        # method entries are patched on the class itself, as the tracer does
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, attr))
