"""Stage-2 steps take no page faults once the CLI keeps freed arrays in
glibc's heap.

At the benchmark's fine-tuning shape (24 groups x 16 items with a quarter
of the queries given a planted near-duplicate: 384 queries x 480
candidates) every step allocates and frees several 1.5 MB arrays. With
glibc's default thresholds each free returns its block to the kernel and
the next step faults it in again: through the library, 106-109 minor
faults per naive hard step and 1 046-1 054 per cached easy one (40 steps
after 3 warm-up steps, 3 runs each). The naive count moves between builds
that allocate the same arrays (from under 20 to about 365 so far), as
blocks land in different places; the cached count stays near 1 000.
The guard runs the real CLI at two step counts and charges the difference
in minor faults to the extra steps. A child's fixed cost varies by about
400 faults from run to run whatever its step count, so the runs are 100
steps apart: that noise then stays under 4 a step.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from nanoembed import cli

SRC = Path(__file__).resolve().parents[1] / "src"
SHORT_STEPS, LONG_STEPS = 5, 105
FAULTS_PER_STEP_BUDGET = 10

CONFIG = {
    "corpus": {
        "seed": 5,
        "n_groups": 24,
        "items_per_group": 16,
        "input_dim": 16,
        "noise_scale": 0.15,
        "centroid_scale": 1.2,
        "pair_scale": 0.5,
        "view_mix": 0.0,
        "false_negative_rate": 0.25,
    },
    "encoder": {"hidden_dim": 48, "embed_dim": 16},
    "miner": {"beta": 0.02, "k": 8, "tau": 1.0},
    "optimizer": {"kind": "adam", "learning_rate": 3e-4},
    "seed": 5,
}
PATHS = {
    "naive_hard": ("hard", {}),
    "cached_easy": ("easy", {"gradcache": {"enabled": True, "sub_batch": 64}}),
}


def child_minor_faults(tmp_path: Path, name: str, mode: str, extra: dict, steps: int) -> int:
    """Minor page faults of one `stage2` CLI child process."""
    config = tmp_path / f"{name}-{steps}.json"
    config.write_text(json.dumps({**CONFIG, **extra, "optimizer": {**CONFIG["optimizer"], "steps": steps}}))
    # The program's own malloc setting is under test, not one from the environment.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = str(SRC)
    args = [sys.executable, "-m", "nanoembed.cli", "stage2", "--config", str(config),
            "--mode", mode, "--out", str(tmp_path / f"{name}-{steps}")]
    child = subprocess.Popen(args, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    stderr = child.stderr.read()
    child.stderr.close()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    assert child.returncode == 0, stderr.decode()
    return usage.ru_minflt


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the malloc thresholds are glibc's")
@pytest.mark.parametrize("name", sorted(PATHS))
def test_steady_state_stage2_steps_take_no_page_faults(tmp_path, name):
    mode, extra = PATHS[name]
    short = child_minor_faults(tmp_path, name, mode, extra, SHORT_STEPS)
    long = child_minor_faults(tmp_path, name, mode, extra, LONG_STEPS)
    per_step = (long - short) / (LONG_STEPS - SHORT_STEPS)
    assert per_step < FAULTS_PER_STEP_BUDGET, f"{per_step:.1f} minor faults per step ({short} -> {long})"


def test_keep_heap_is_quiet_without_a_c_library(monkeypatch):
    def no_library(name):
        raise OSError("no C library")

    monkeypatch.setattr(cli.ctypes, "CDLL", no_library)
    assert cli._keep_heap() is None


def test_keep_heap_is_quiet_without_mallopt(monkeypatch):
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
    assert cli._keep_heap() is None
