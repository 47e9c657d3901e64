"""The benchmark's tracer patches each of its targets by name, so each must
exist: a refactor that drops one breaks ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module,attr,name,kind", _targets())
def test_every_traced_target_resolves(module, attr, name, kind):
    assert callable(getattr(importlib.import_module(module), attr)), name
    assert kind in ("span", "count")
