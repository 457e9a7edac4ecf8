"""Per-step training metrics and their line-delimited JSON stream.

Every training command emits the same record schema so downstream
summarizers never branch on which stage produced a trace.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterable

from .atomic import atomic_open
from .fields import check_types, json_lines


@dataclass(frozen=True)
class StepMetrics:
    """One training step: loss plus negative-mining diagnostics.

    Stages without mining report 0.0 for the mining fields; the schema
    stays fixed across commands.  The step is a nonnegative int and every
    other field a finite number, stored as a float.
    """

    step: int
    loss: float
    grad_norm: float
    false_neg_pct: float = 0.0
    duplication_rate: float = 0.0

    def __post_init__(self):
        check_types(self)
        if self.step < 0:
            raise ValueError(f"step must be nonnegative, got {self.step}")
        for f in fields(self)[1:]:
            object.__setattr__(self, f.name, float(getattr(self, f.name)))

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def write_trace(path: str | Path, trace: Iterable[StepMetrics]) -> None:
    with atomic_open(path) as handle:
        for record in trace:
            handle.write(record.to_json() + "\n")


def read_trace(path: str | Path) -> list[StepMetrics]:
    """Parse a trace file, rejecting records that break the schema."""
    names = [f.name for f in fields(StepMetrics)]
    records = []
    for where, raw in json_lines(path):
        try:
            if not isinstance(raw, dict):
                raise ValueError("record is not an object")
            if set(raw) != set(names):
                raise ValueError(f"fields {sorted(raw)} != {sorted(names)}")
            records.append(StepMetrics(**raw))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return records
