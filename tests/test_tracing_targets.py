"""The benchmark's span recorder wraps tomoseg functions by name; each name must exist."""

import importlib
import importlib.util
import os
import subprocess
import sys
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


# What a traced benchmark run does first: the tracer imports tomoseg.cli and
# wraps each target in the modules that import loaded, nothing more.
INSTALL = """
import sys
from tracing import TARGETS, Tracer
tracer = Tracer(1.0)
tracer.install()
wrapped = {attr for _, attr, _ in tracer._restore}
tracer.uninstall()
missing = [path for _, path, *_ in TARGETS if path.split(".")[-1] not in wrapped]
print(len(missing), missing)
"""


def test_tracer_installs_from_the_cli_imports():
    root = TRACING.parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run([sys.executable, "-c", INSTALL], cwd=root / "perfbench", env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split()[0] == "0", out.stdout
