"""The CLI runs OpenBLAS on one thread; library callers keep their count.

cli.main sets numpy's bundled scipy-openblas to one thread before a command
runs. The artifacts keep their bytes at any thread count, so a command
writes the same files whatever OPENBLAS_NUM_THREADS its environment holds,
and where the library or its setter is missing the command runs as before.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nanoembed import cli
from nanoembed import corpus as cp
from nanoembed import encoder as enc
from nanoembed import infonce as nce
from nanoembed import negatives as ng
from nanoembed import optim

SRC = Path(__file__).resolve().parents[1] / "src"
# tests/test_heap.py's 384 x 480 stage-2 shape, large enough that OpenBLAS splits a matmul over threads.
CONFIG = {
    "corpus": {"seed": 5, "n_groups": 24, "items_per_group": 16, "input_dim": 16, "noise_scale": 0.15,
               "centroid_scale": 1.2, "pair_scale": 0.5, "view_mix": 0.0, "false_negative_rate": 0.25},
    "encoder": {"hidden_dim": 48, "embed_dim": 16},
    "miner": {"beta": 0.02, "k": 8, "tau": 1.0},
    "optimizer": {"kind": "adam", "learning_rate": 3e-4, "steps": 3},
    "seed": 5,
}
GET_THREADS = "scipy_openblas_get_num_threads64_"
SET_THREADS = "scipy_openblas_set_num_threads64_"


def artifacts(out: Path) -> dict[str, bytes]:
    """Every file a command wrote, but the wall-clock run_info.json."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "run_info.json"}


def run_child(tmp_path: Path, name: str, threads: str | None) -> dict[str, dict[str, bytes]]:
    """`stage2 --mode hard`, then `eval` of its checkpoint, in child processes."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    env["PYTHONPATH"] = str(SRC)
    stage2, evaluated = tmp_path / f"{name}-stage2", tmp_path / f"{name}-eval"
    commands = [
        ["stage2", "--mode", "hard", "--out", stage2],
        ["eval", "--checkpoint", stage2 / "checkpoint.bin", "--out", evaluated],
    ]
    for command in commands:
        args = [sys.executable, "-m", "nanoembed.cli", *map(str, command), "--config", str(config)]
        done = subprocess.run(args, env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
    return {"stage2": artifacts(stage2), "eval": artifacts(evaluated)}


@pytest.fixture
def openblas():
    """numpy's scipy-openblas with both thread functions, restored to its count afterwards."""
    library = cli._numpy_openblas()
    if not (hasattr(library, GET_THREADS) and hasattr(library, SET_THREADS)):
        pytest.skip("numpy does not bundle scipy-openblas")
    threads = getattr(library, GET_THREADS)()
    yield library
    getattr(library, SET_THREADS)(threads)


def test_artifacts_keep_their_bytes_at_any_thread_setting(tmp_path):
    unset = run_child(tmp_path, "unset", None)
    assert sorted(unset["stage2"]) == ["checkpoint.bin", "trace.jsonl"]
    assert sorted(unset["eval"]) == ["report.json"]
    assert run_child(tmp_path, "two", "2") == unset


def test_main_leaves_one_thread(tmp_path, openblas):
    getattr(openblas, SET_THREADS)(2)
    assert getattr(openblas, GET_THREADS)() == 2
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**CONFIG, "optimizer": {**CONFIG["optimizer"], "steps": 1}}))
    assert cli.main(["stage2", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert getattr(openblas, GET_THREADS)() == 1


def test_library_callers_keep_their_thread_count(openblas):
    getattr(openblas, SET_THREADS)(2)
    spec = cp.CorpusSpec(seed=3, n_groups=4, items_per_group=4, input_dim=8)
    encoder = enc.Encoder(enc.EncoderConfig(input_dim=8, hidden_dim=16, embed_dim=8, seed=3))
    nce.stage2_train(encoder, cp.generate(spec), ng.MinerConfig(beta=2.0, k=4), optim.OptimizerSettings(), 2)
    assert getattr(openblas, GET_THREADS)() == 2


def test_command_runs_unchanged_without_the_library(tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    outputs = {}
    for name in ("found", "missing"):
        if name == "missing":
            monkeypatch.setattr(cli, "_numpy_openblas", lambda: None)
        assert cli.main(["stage2", "--config", str(config), "--out", str(tmp_path / name)]) == 0
        outputs[name] = artifacts(tmp_path / name)
    assert outputs["missing"] == outputs["found"]


def test_one_blas_thread_is_quiet_without_the_setter(monkeypatch):
    monkeypatch.setattr(cli, "_numpy_openblas", lambda: object())
    assert cli._one_blas_thread() is None


@pytest.mark.parametrize("library", [None, b"not a shared library"], ids=["no_directory", "unloadable"])
def test_lookup_finds_nothing_where_numpy_bundles_no_openblas(tmp_path, monkeypatch, library):
    package = tmp_path / "site-packages" / "numpy"
    package.mkdir(parents=True)
    if library is not None:
        (tmp_path / "site-packages" / "numpy.libs").mkdir()
        (tmp_path / "site-packages" / "numpy.libs" / "libscipy_openblas64_-0.so").write_bytes(library)
    monkeypatch.setattr(cli.np, "__file__", str(package / "__init__.py"))
    assert cli._numpy_openblas() is None
