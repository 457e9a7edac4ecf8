"""Tests of the benchmark itself: tracer coverage, output checks, failure exit.

    python3 -m pytest -q bench/test_bench.py

The coverage tests run each workload for two training steps, once plain
and once traced, through the same code path as a benchmark run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

STEPS = 2

TEACHER = (
    "encoder.teacher_s",
    "encoder.teacher_rows",
    "encoder.group_direction_calls",
    "encoder.group_direction_s",
    "distill.loss_s",
    "distill.train_s",
    "autodiff.softmax_rows.calls",
    "autodiff.softmax_rows.s",
    "autodiff.log_softmax_rows.calls",
    "autodiff.log_softmax_rows.s",
)
MINING = (
    "infonce.select_calls",
    "infonce.select_s",
    "infonce.loss_s",
    "infonce.select_calls_per_query_step",
    "gradcache.encode_rows_per_batch_row",
    "autodiff.gather_columns.calls",
    "autodiff.gather_columns.s",
    "autodiff.row_log_sum_exp.calls",
    "autodiff.row_log_sum_exp.s",
)
HARD_NAIVE = (
    "negatives.filter_calls",
    "negatives.filter_s",
    "negatives.sample_calls",
    "negatives.sample_s",
    "infonce.train_s",
)
CACHED = (
    "gradcache.cached_step_s",
    "gradcache.mine_s",
    "cli.mining_stats_s",
    "cli.stage2_cached_s",
    "autodiff.gather_rows.calls",
    "autodiff.gather_rows.s",
)
# Layers each workload bypasses; every other layer metric must be non-zero.
BYPASSED = {
    "distill_eval": set(MINING + HARD_NAIVE + CACHED),
    "finetune_hard": set(TEACHER + CACHED),
    "finetune_cached": set(TEACHER + HARD_NAIVE),
}
# Miner-health ratios depend on the data; the overhead may come out either way.
MAY_BE_ZERO = {"negatives.filtered_query_frac", "negatives.dup_query_frac", "trace.overhead_s"}


@pytest.fixture(scope="module", params=run.WORKLOADS)
def traced_run(request, tmp_path_factory):
    out = tmp_path_factory.mktemp(request.param)
    metrics, details = run.measure(request.param, seed=3, seconds=0, trace=True, steps=STEPS, out=out)
    return request.param, {name: value for name, (value, _) in metrics.items()}, details


def test_traced_and_plain_runs_write_identical_artifacts(traced_run):
    _, _, details = traced_run
    assert details["failures"] == []
    assert details["failed"] == 0
    assert len(details["repetitions"]) == len(details["traced_repetitions"]) == 1


def test_every_layer_metric_is_reported(traced_run):
    _, values, _ = traced_run
    assert list(values) == list(run.LAYER_METRICS)


def test_spans_fire_where_expected_and_stay_zero_where_bypassed(traced_run):
    workload, values, _ = traced_run
    silent = {name for name, value in values.items() if not value} - MAY_BE_ZERO
    assert silent - BYPASSED[workload] == set(), "layers that should have fired"
    assert BYPASSED[workload] - silent == set(), "layers that should have been bypassed"


def test_counts_match_the_workload_shape(traced_run):
    workload, values, _ = traced_run
    wl = run.make_workload(workload, 3, STEPS)
    assert values["retrieval.rank_calls"] == wl.eval_queries
    if workload == "distill_eval":
        assert values["encoder.teacher_rows"] == STEPS * 64
        assert values["encoder.group_direction_calls"] == STEPS * 64
        return
    per_query_step = {"finetune_hard": 1.0, "finetune_cached": 2.0}[workload]
    rows_per_batch_row = {"finetune_hard": 1.0, "finetune_cached": 3.0}[workload]
    assert values["infonce.select_calls_per_query_step"] == per_query_step
    assert values["gradcache.encode_rows_per_batch_row"] == rows_per_batch_row
    if workload == "finetune_hard":
        assert values["negatives.filter_calls"] == values["negatives.sample_calls"] == STEPS * wl.eval_queries


def test_by_name_imports_are_wrapped():
    """Copies bound with ``from .x import name`` get the wrapper too, including
    gradcache's kl_distillation_loss, which no CLI command reaches."""
    script = """
import numpy as np
import tracer
t = tracer.Tracer()
t.install()
import importlib
from nanoembed import autodiff as ad, encoder as enc, gradcache
modules = [importlib.import_module(m) for m in __import__("sys").modules if m.startswith("nanoembed.")]
for name, module, attribute, _ in tracer.TARGETS:
    if "." in attribute:
        continue
    original = getattr(importlib.import_module(module), attribute).__wrapped__
    stale = [m.__name__ for m in modules if original in vars(m).values()]
    assert not stale, (attribute, stale)
rows = np.eye(3, 4)
teacher = enc.EmbeddingBatch(["a", "b", "c"], ad.constant(rows))
student = enc.EmbeddingBatch(["a", "b", "c"], ad.Tensor(rows, requires_grad=True))
gradcache.DistillObjective(teacher).loss_on(student)
print(sorted({t.names[span[0]] for span in t.spans}))
"""
    done = subprocess.run([sys.executable, "-c", script], cwd=BENCH, env=run.child_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "distill.loss" in done.stdout


def test_check_rejects_bad_artifacts(tmp_path):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"precision_at": {"1": 1.5}, "recall_at": {}, "ranked": {"q": ["c"]}}))
    checkpoint = tmp_path / "checkpoint.bin"
    checkpoint.write_bytes(b"NEC")
    trace = tmp_path / "trace.jsonl"
    trace.write_text('{"step": 0}\n')
    for path in (report, checkpoint, trace):
        assert "error" in check.summarize(path), path.name


def test_same_seed_same_inputs_and_shared_finetune_inputs():
    assert run.make_workload("distill_eval", 5) == run.make_workload("distill_eval", 5)
    assert run.make_workload("distill_eval", 5).config != run.make_workload("distill_eval", 6).config
    hard, cached = run.make_workload("finetune_hard", 5), run.make_workload("finetune_cached", 5)
    assert hard.base_config == cached.base_config
    assert hard.config["corpus"] == cached.config["corpus"]


def test_fails_without_program_sources(tmp_path):
    """Given only BENCHMARK.json and the benchmark, a run exits non-zero
    without printing a result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "finetune_hard", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
