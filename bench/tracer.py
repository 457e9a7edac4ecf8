"""Outside-in span tracer for the nanoembed CLI.

Run as a script it stands in for ``python3 -m nanoembed.cli``:

    PYTHONPATH=src python3 bench/tracer.py SPANS.json TRACE_ID stage1 --config run.json --out out

It wraps the public and cross-module functions of every layer, runs the
command through ``nanoembed.cli.main``, and writes every span it saw to
SPANS.json when the command returns.  Nothing in ``src/`` is edited: the
wrappers replace module and class attributes at start-up, including the
copies that other modules bound with ``from .x import name``.

A span is (name, start, end, parent, amount).  ``parent`` is the index of
the enclosing span, or -1 for the root; ``amount`` is a per-call figure
taken from the call's result (rows encoded, report bytes, miner outcome)
or None.  All spans of one command share the trace id given on the
command line.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Any, Callable

AUTODIFF_OPS = (
    "add",
    "sub",
    "mul",
    "scale",
    "matmul",
    "transpose",
    "exp",
    "log",
    "tanh",
    "row_sum",
    "total_sum",
    "row_l2_normalize",
    "softmax_rows",
    "log_softmax_rows",
    "row_log_sum_exp",
    "gather_columns",
    "gather_rows",
    "concat_rows",
)

# Outcome bits of one infonce._select_negatives call.
SELECT_FILTERED = 1
SELECT_DUPLICATED = 2


def _rows(result) -> int:
    return len(result)


def _select_outcome(result) -> int:
    _, filtered, dup = result
    return (SELECT_FILTERED if filtered else 0) | (SELECT_DUPLICATED if dup > 0 else 0)


def _utf8_bytes(result) -> int:
    return len(result.encode("utf-8"))


# (span name, defining module, attribute, amount taken from the result).
# "Class.method" patches the method on the class.
TARGETS: tuple[tuple[str, str, str, Callable[[Any], int] | None], ...] = (
    ("cli.main", "nanoembed.cli", "main", None),
    ("cli.stage2_cached", "nanoembed.cli", "_stage2_cached", None),
    ("cli.mining_stats", "nanoembed.cli", "_mining_stats", None),
    ("corpus.generate", "nanoembed.corpus", "generate", None),
    ("encoder.encode", "nanoembed.encoder", "Encoder.encode", _rows),
    ("encoder.teacher", "nanoembed.encoder", "TeacherEncoder.encode", _rows),
    ("encoder.group_direction", "nanoembed.encoder", "TeacherEncoder.group_direction", None),
    ("encoder.embed_items", "nanoembed.encoder", "embed_items", _rows),
    ("encoder.checkpoint_save", "nanoembed.encoder", "save_checkpoint", None),
    ("encoder.checkpoint_load", "nanoembed.encoder", "load_checkpoint", None),
    ("distill.train", "nanoembed.distill", "stage1_train", None),
    ("distill.loss", "nanoembed.distill", "kl_distillation_loss", None),
    ("negatives.filter", "nanoembed.negatives", "filter_false_negatives", None),
    ("negatives.sample", "nanoembed.negatives", "sample_hard_negatives", None),
    ("infonce.train", "nanoembed.infonce", "stage2_train", None),
    ("infonce.select", "nanoembed.infonce", "_select_negatives", _select_outcome),
    ("infonce.loss", "nanoembed.infonce", "infonce_batch_loss", None),
    ("gradcache.cached_step", "nanoembed.gradcache", "cached_step", None),
    ("gradcache.mine", "nanoembed.gradcache", "ContrastiveObjective.mine", None),
    ("autodiff.backward", "nanoembed.autodiff", "backward", None),
    ("optim.clip", "nanoembed.optim", "clip_global_norm", None),
    ("optim.step", "nanoembed.optim", "Adam.step", None),
    ("optim.step", "nanoembed.optim", "Sgd.step", None),
    ("retrieval.evaluate", "nanoembed.retrieval", "evaluate_checkpoint", None),
    ("retrieval.rank", "nanoembed.retrieval", "rank_candidates", None),
    ("retrieval.metric", "nanoembed.retrieval", "precision_at_k", None),
    ("retrieval.metric", "nanoembed.retrieval", "recall_at_k", None),
    ("retrieval.report_json", "nanoembed.retrieval", "RetrievalReport.to_json", _utf8_bytes),
    ("metrics.write_trace", "nanoembed.metrics", "write_trace", None),
) + tuple((f"autodiff.op.{op}", "nanoembed.autodiff", op, None) for op in AUTODIFF_OPS)


class Tracer:
    """Spans kept in memory, one list per span, parents by index."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self._peak_before_reset = 0
        self._autodiff = None
        self._name_ids: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, amount: Callable[[Any], int] | None) -> Callable:
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if amount is not None:
                span[4] = amount(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded nanoembed module that binds it."""
        importlib.import_module("nanoembed.cli")  # imports every layer
        modules = [module for name, module in sys.modules.items() if name.startswith("nanoembed.")]
        for name, module_name, attribute, amount in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self.wrap(name, getattr(cls, method), amount))
                continue
            original = getattr(owner, attribute)
            wrapper = self.wrap(name, original, amount)
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, bound, wrapper)
        self._track_peak_live_elements(importlib.import_module("nanoembed.autodiff"))

    def _track_peak_live_elements(self, autodiff) -> None:
        """Start a fresh high-water mark and keep it across resets made
        inside the program (gradcache resets it before pass 2)."""
        self._autodiff = autodiff
        reset = autodiff.reset_peak_live_elements
        reset()

        def tracked_reset():
            self._peak_before_reset = max(self._peak_before_reset, autodiff.peak_live_elements())
            reset()

        autodiff.reset_peak_live_elements = tracked_reset

    def peak_live_elements(self) -> int:
        return max(self._peak_before_reset, self._autodiff.peak_live_elements())

    def dump(self, path: str, trace_id: str) -> None:
        payload = {
            "trace_id": trace_id,
            "names": self.names,
            "spans": self.spans,
            "peak_live_elements": self.peak_live_elements(),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def main(argv: list[str]) -> int:
    spans_path, trace_id, *cli_args = argv
    tracer = Tracer()
    tracer.install()
    from nanoembed import cli

    code = cli.main(cli_args)
    tracer.dump(spans_path, trace_id)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
