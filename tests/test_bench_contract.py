"""The benchmark's tracer (bench/tracer.py) wraps program functions by name
after importing nanoembed.cli; every name it lists must resolve, and every
module it names must already be loaded by that import, or traced benchmark
commands fail or go unmeasured."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_tracer_target_resolves():
    missing = []
    for _, module_name, attribute, _ in tracer_targets():
        owner = importlib.import_module(module_name)
        for part in attribute.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attribute}")
    assert missing == []


def test_cli_import_loads_every_traced_module():
    modules = sorted({module_name for _, module_name, _, _ in tracer_targets()})
    script = "import sys, nanoembed.cli; print(' '.join(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    loaded = set(done.stdout.split())
    assert [m for m in modules if m not in loaded] == []
