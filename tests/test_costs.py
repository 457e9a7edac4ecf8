"""Per-step costs of the training loops and of one eval, held to a ledger.

Timing on a shared 2-vCPU host needs paired runs and still misses 10-15%
moves; these costs are counted instead. For each loop, at the benchmark
workloads' shapes (2 048 items for stage 1 and eval, 384 queries x 480
candidates for stage 2), ``cost_ledger.json`` records:

- Tensors built per step (``autodiff.Tensor`` constructions between two
  steps' ends);
- the peak of ``autodiff.live_elements`` over the call, above its start,
  kept across the resets ``cached_step`` makes;
- the tracemalloc peak over the call, above its start, in MB;
- rows encoded per step by ``TeacherEncoder.encode`` and by
  ``Encoder._embed``;
- for eval, ``rank_candidates`` calls and the tracemalloc peak of one
  ``evaluate_checkpoint`` plus ``write_json``.

Counts must match the ledger exactly. A tracemalloc peak, which also
counts Python objects, must stay within TRACEMALLOC_SLACK of its entry.
A change that moves a figure regenerates the ledger with
``python tests/test_costs.py --write`` and states the old and new values.
"""

from __future__ import annotations

import json
import os
import sys
import tracemalloc
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LEDGER = Path(__file__).with_name("cost_ledger.json")
TRACEMALLOC_SLACK = 0.05

sys.path.insert(0, str(ROOT / "src"))
from nanoembed import autodiff as ad  # noqa: E402
from nanoembed import corpus as cp  # noqa: E402
from nanoembed import distill, optim, retrieval  # noqa: E402
from nanoembed import encoder as enc  # noqa: E402
from nanoembed import infonce as nce  # noqa: E402
from nanoembed import negatives as ng  # noqa: E402

SHAPE = {"input_dim": 16, "noise_scale": 0.15, "centroid_scale": 1.2, "pair_scale": 0.5, "view_mix": 0.0}
MODEL = {"input_dim": 16, "hidden_dim": 48, "embed_dim": 16}
DISTILL_SPEC = cp.CorpusSpec(seed=53, n_groups=32, items_per_group=64,
                             modality_mix={"text": 0.7, "image": 0.15, "fused": 0.15}, **SHAPE)
FINETUNE_SPEC = cp.CorpusSpec(seed=53, n_groups=24, items_per_group=16, false_negative_rate=0.25, **SHAPE)
STEPS = {"stage1": 5, "naive_hard": 3, "cached_easy": 3}


class Counters:
    """Counts Tensor constructions, encoded rows and ranking calls, and keeps
    the live-element peak across the resets the program makes."""

    def __init__(self, monkeypatch):
        self.tensors = 0
        self.teacher_rows = 0
        self.embed_rows = 0
        self.rank_calls = 0
        self.step_tensors: list[int] = []
        self.peak_before_reset = 0
        init, teacher, embed = ad.Tensor.__init__, enc.TeacherEncoder.encode, enc.Encoder._embed
        rank, reset, check_finite = retrieval.rank_candidates, ad.reset_peak_live_elements, optim.check_finite

        def counting_init(tensor, *args, **kwargs):
            self.tensors += 1
            init(tensor, *args, **kwargs)

        def counting_teacher(teacher_self, items):
            self.teacher_rows += len(items)
            return teacher(teacher_self, items)

        def counting_embed(encoder_self, values, record):
            self.embed_rows += len(values)
            return embed(encoder_self, values, record)

        def counting_rank(queries, candidates):
            self.rank_calls += 1
            return rank(queries, candidates)

        def tracked_reset():
            self.peak_before_reset = max(self.peak_before_reset, ad.peak_live_elements())
            reset()

        def step_end(params):  # each loop checks its weights once, at the end of every step
            self.step_tensors.append(self.tensors)
            check_finite(params)

        monkeypatch.setattr(ad.Tensor, "__init__", counting_init)
        monkeypatch.setattr(enc.TeacherEncoder, "encode", counting_teacher)
        monkeypatch.setattr(enc.Encoder, "_embed", counting_embed)
        monkeypatch.setattr(retrieval, "rank_candidates", counting_rank)
        monkeypatch.setattr(ad, "reset_peak_live_elements", tracked_reset)
        monkeypatch.setattr(optim, "check_finite", step_end)


def measure(counters: Counters, call) -> dict:
    """Run call under the counters and tracemalloc; its figures as a dict."""
    ad.reset_peak_live_elements()
    live = ad.live_elements()
    counters.peak_before_reset = 0
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        traced_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return {
        "peak_live_elements": max(counters.peak_before_reset, ad.peak_live_elements()) - live,
        "tracemalloc_peak_mb": round(traced_peak / 1e6, 3),
    }


def loop_figures(counters: Counters, name: str, call) -> dict:
    steps = STEPS[name]
    figures = measure(counters, call)
    built = [b - a for a, b in zip(counters.step_tensors, counters.step_tensors[1:])]
    # Every step after the first builds the same Tensors; the first also builds the loop's own.
    assert len(set(built)) == 1 and len(built) == steps - 1, built
    return {
        "steps": steps,
        "tensors_per_step": built[0],
        **figures,
        "teacher_rows_per_step": counters.teacher_rows // steps,
        "embed_rows_per_step": counters.embed_rows // steps,
    }


def measure_all(monkeypatch) -> dict:
    distill_corpus, finetune_corpus = cp.generate(DISTILL_SPEC), cp.generate(FINETUNE_SPEC)
    miner = ng.MinerConfig(beta=0.02, k=8, tau=1.0)
    settings = optim.OptimizerSettings(kind="adam", learning_rate=3e-4)
    ledger = {}

    counters = Counters(monkeypatch)
    teacher = enc.TeacherEncoder(enc.EncoderConfig(**MODEL, seed=54))
    student = enc.Encoder(enc.EncoderConfig(**MODEL, seed=53))
    ledger["stage1"] = loop_figures(counters, "stage1", lambda: distill.stage1_train(
        student, distill_corpus, teacher, distill.DistillConfig(tau=0.2), settings, STEPS["stage1"], seed=53))

    for name, mode, sub_batch in (("naive_hard", "hard", None), ("cached_easy", "easy", 64)):
        counters = Counters(monkeypatch)
        encoder = enc.Encoder(enc.EncoderConfig(**MODEL, seed=53))
        ledger[name] = loop_figures(counters, name, lambda: nce.stage2_train(
            encoder, finetune_corpus, miner, settings, STEPS[name], negative_mode=mode, seed=53,
            sub_batch=sub_batch))

    counters = Counters(monkeypatch)

    def evaluate():
        with open(os.devnull, "wb") as sink:
            retrieval.evaluate_checkpoint(student, distill_corpus).write_json(sink)

    ledger["eval"] = {**measure(counters, evaluate), "rank_calls": counters.rank_calls,
                      "embed_rows": counters.embed_rows}
    return ledger


@pytest.fixture(scope="module")
def measured():
    with pytest.MonkeyPatch.context() as monkeypatch:
        return measure_all(monkeypatch)


@pytest.mark.parametrize("loop", ["stage1", "naive_hard", "cached_easy", "eval"])
def test_counts_match_the_ledger_and_peaks_stay_under_its_ceiling(measured, loop):
    expected = json.loads(LEDGER.read_text())["loops"][loop]
    got = measured[loop]
    assert sorted(got) == sorted(expected)
    counts = {name: value for name, value in expected.items() if name != "tracemalloc_peak_mb"}
    assert {name: got[name] for name in counts} == counts
    ceiling = expected["tracemalloc_peak_mb"] * (1 + TRACEMALLOC_SLACK)
    assert got["tracemalloc_peak_mb"] <= ceiling, f"{got['tracemalloc_peak_mb']} MB over the {ceiling:.3f} MB ceiling"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_costs.py --write")
    with pytest.MonkeyPatch.context() as patch:
        loops = measure_all(patch)
    LEDGER.write_text(json.dumps({"tracemalloc_slack": TRACEMALLOC_SLACK, "loops": loops}, indent=2) + "\n")
    print(f"wrote {LEDGER}")
    print(json.dumps(loops, indent=2))
