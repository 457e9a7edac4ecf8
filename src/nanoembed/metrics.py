"""Per-step training metrics and their line-delimited JSON stream.

Every training command emits the same record schema so downstream
summarizers never branch on which stage produced a trace.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable

from .atomic import atomic_open

FIELD_ORDER = ("step", "loss", "grad_norm", "false_neg_pct", "duplication_rate")


class MalformedMetricsError(ValueError):
    """A metrics line is not valid JSON or violates the schema."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class StepMetrics:
    """One training step: loss plus negative-mining diagnostics.

    Stages without mining report 0.0 for the mining fields; the schema
    stays fixed across commands.
    """

    step: int
    loss: float
    grad_norm: float
    false_neg_pct: float = 0.0
    duplication_rate: float = 0.0

    def __post_init__(self):
        if self.step < 0:
            raise ValueError(f"step must be nonnegative, got {self.step}")
        for name in ("loss", "grad_norm", "false_neg_pct", "duplication_rate"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"step {self.step}: {name} must be finite, got {value}")

    def to_json(self) -> str:
        record = asdict(self)
        return json.dumps({name: record[name] for name in FIELD_ORDER})


def write_trace(path: str | Path, trace: Iterable[StepMetrics]) -> None:
    with atomic_open(path) as handle:
        for record in trace:
            handle.write(record.to_json() + "\n")


def read_trace(path: str | Path) -> list[StepMetrics]:
    """Parse a trace file, rejecting records that break the schema."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedMetricsError(line_number, f"invalid JSON: {exc.msg}") from exc
            if not isinstance(raw, dict):
                raise MalformedMetricsError(line_number, "record is not an object")
            if set(raw) != set(FIELD_ORDER):
                raise MalformedMetricsError(line_number, f"fields {sorted(raw)} != {sorted(FIELD_ORDER)}")
            if not isinstance(raw["step"], int) or isinstance(raw["step"], bool):
                raise MalformedMetricsError(line_number, f"step must be an integer, got {raw['step']!r}")
            values = {}
            for name in FIELD_ORDER[1:]:
                if isinstance(raw[name], bool) or not isinstance(raw[name], (int, float)):
                    raise MalformedMetricsError(line_number, f"{name} must be a number, got {raw[name]!r}")
                values[name] = float(raw[name])
            try:
                records.append(StepMetrics(step=raw["step"], **values))
            except ValueError as exc:
                raise MalformedMetricsError(line_number, str(exc)) from exc
    return records


def moving_average(values: list[float], window: int) -> list[float]:
    """Trailing mean over up to `window` latest values at each position."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    out = []
    running = 0.0
    for i, v in enumerate(values):
        running += v
        if i >= window:
            running -= values[i - window]
        out.append(running / min(i + 1, window))
    return out
