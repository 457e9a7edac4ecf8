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
                raise ValueError(f"line {line_number}: invalid JSON: {exc.msg}") from exc
            if not isinstance(raw, dict):
                raise ValueError(f"line {line_number}: record is not an object")
            if set(raw) != set(FIELD_ORDER):
                raise ValueError(f"line {line_number}: fields {sorted(raw)} != {sorted(FIELD_ORDER)}")
            if not isinstance(raw["step"], int) or isinstance(raw["step"], bool):
                raise ValueError(f"line {line_number}: step must be an integer, got {raw['step']!r}")
            values = {}
            for name in FIELD_ORDER[1:]:
                if isinstance(raw[name], bool) or not isinstance(raw[name], (int, float)):
                    raise ValueError(f"line {line_number}: {name} must be a number, got {raw[name]!r}")
                values[name] = float(raw[name])
            try:
                records.append(StepMetrics(step=raw["step"], **values))
            except ValueError as exc:
                raise ValueError(f"line {line_number}: {exc}") from exc
    return records
