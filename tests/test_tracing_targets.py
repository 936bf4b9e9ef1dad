"""The benchmark's span recorder wraps tomoseg functions by name; each name must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, path) for mod, path, *_ in module.TARGETS]


@pytest.mark.parametrize("mod,path", _targets())
def test_trace_target_resolves(mod, path):
    owner = importlib.import_module(mod)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
