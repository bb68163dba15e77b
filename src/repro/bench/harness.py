"""Timing harness shared by the experiment runners."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import AnalysisError
from repro.util.tables import render_table

__all__ = ["time_call", "ExperimentReport"]


def time_call(fn: Callable[[], object], repeats: int = 3,
              warmup: int = 1) -> tuple[float, object]:
    """Best-of-``repeats`` wall time of ``fn`` (returns last result)."""
    if repeats < 1:
        raise AnalysisError("repeats must be at least 1")
    result = None
    for _ in range(warmup):
        result = fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


@dataclass
class ExperimentReport:
    """A rendered experiment: id, claim, table, and conclusions."""

    exp_id: str
    claim: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values) -> None:
        self.rows.append(list(values))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def render(self) -> str:
        table = render_table(self.headers, self.rows,
                             title=f"[{self.exp_id}] {self.claim}")
        if self.notes:
            notes = "\n".join(f"  - {n}" for n in self.notes)
            return f"{table}\n{notes}"
        return table
