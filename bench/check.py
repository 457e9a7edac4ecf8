"""Reads what a benchmarked command left behind, in a process of its own.

    PYTHONPATH=src python3 bench/check.py FILE...

Prints one JSON object mapping each FILE to its summary.  Artifacts are
parsed with the program's own readers and range-checked; a span file
written by ``bench/tracer.py`` is reduced to a per-name table.  A file
that fails its check maps to ``{"error": "..."}``.

The benchmark runs this in a child process so that the parsed data (a
report at 2048 x 2048 holds four million ids) never inflates the
benchmark process, whose resident set each new child would inherit in
its max-RSS figure.
"""

from __future__ import annotations

import json
import struct
import sys
from pathlib import Path

import tracer


def validate(path: Path):
    """Parse one artifact and check its ranges.

    Returns the trace's losses, the checkpoint's parameter count, or the
    report's precision_at map with its query and candidate counts.
    """
    import numpy as np
    from nanoembed import encoder, metrics

    if path.name == "trace.jsonl":
        return {"losses": [record.loss for record in metrics.read_trace(path)]}
    if path.name == "checkpoint.bin":
        arrays = encoder.load_checkpoint(path).weight_arrays()
        if not all(np.isfinite(values).all() for _, values in arrays):
            raise ValueError("non-finite weight")
        return {"parameters": sum(values.size for _, values in arrays)}
    if path.name == "report.json":
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
        for section in ("precision_at", "recall_at"):
            for k, value in report[section].items():
                if not 0.0 <= value <= 1.0:
                    raise ValueError(f"{section}[{k}] = {value} outside [0, 1]")
        ranked = report["ranked"].values()
        pool = {len(ids) for ids in ranked}
        if len(pool) != 1 or any(len(set(ids)) != len(ids) for ids in ranked):
            raise ValueError("ranked lists are not permutations of one candidate pool")
        return {"precision_at": report["precision_at"], "queries": len(ranked), "candidates": pool.pop()}
    raise ValueError(f"unknown artifact {path.name}")


def summarize_spans(path: Path) -> dict:
    """Calls, inclusive and self seconds and summed amounts per span name.

    Self time is a span's duration minus the durations of its direct
    children, which never overlap: the program is single-threaded.
    """
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    names, spans = data["names"], data["spans"]
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    table: dict[str, dict] = {}
    for (name_id, start, end, _, amount), child in zip(spans, covered):
        row = table.setdefault(names[name_id], dict.fromkeys(("calls", "total_s", "self_s", "amount"), 0))
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child
        if names[name_id] == "infonce.select":
            row["filtered"] = row.get("filtered", 0) + bool(amount & tracer.SELECT_FILTERED)
            row["duplicated"] = row.get("duplicated", 0) + bool(amount & tracer.SELECT_DUPLICATED)
        elif amount is not None:
            row["amount"] += amount
    return {"trace_id": data["trace_id"], "table": table, "peak_live_elements": data["peak_live_elements"]}


def summarize(path: Path) -> dict:
    try:
        if path.name.endswith(".spans.json"):
            return summarize_spans(path)
        return validate(path)
    except (ValueError, KeyError, TypeError, OSError, struct.error) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


if __name__ == "__main__":
    print(json.dumps({name: summarize(Path(name)) for name in sys.argv[1:]}))
