"""Every layer entry point the benchmark's tracer wraps must exist, so that
a rename fails here and not when the benchmark runs.  perfbench/tracing.py
is only read; no wrapper is installed."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, *_ in _layers()])
def test_traced_layer_resolves(module_name, attr):
    owner = importlib.import_module(f"endotransfer.{module_name}")
    for part in attr.split("."):
        assert hasattr(owner, part), f"endotransfer.{module_name} has no {attr}"
        owner = getattr(owner, part)
    assert callable(owner)
