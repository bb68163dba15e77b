"""What the paper-experiment definitions share: report, timer, format.

Each claim E1-E12 is defined once, as ``run_eNN`` in its own
``bench_eNN_*.py`` beside this module.  A definition runs the experiment
at the scale its arguments give, asserts what must hold at any scale
(answers agree, a layout fits, an analytic law), and returns an
:class:`ExperimentReport`: the table, the notes, and the measured
``figures`` its claim is checked against.  The one pytest-benchmark
wrapper in each file runs the definition at bench scale, checks the
claim off those figures (wall-clock ratios are checked there and
nowhere else) and prints the table::

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_e*.py

``test_experiments_smoke.py`` calls every definition at tiny scale.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import AnalysisError
from repro.session import RiskSession
from repro.util.tables import render_table

__all__ = ["ExperimentReport", "WEEK_SECONDS", "bound_analysis",
           "format_seconds", "time_call"]

WEEK_SECONDS = 7 * 24 * 3600.0


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


def format_seconds(seconds: float) -> str:
    """Render a duration human-readably (``"1.23 ms"``, ``"2.5 s"``...)."""
    if seconds < 0:
        raise AnalysisError(f"negative duration: {seconds}")
    if seconds < 1e-6:
        return f"{seconds * 1e9:.1f} ns"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f} ms"
    if seconds < 120.0:
        return f"{seconds:.2f} s"
    if seconds < 7200.0:
        return f"{seconds / 60.0:.1f} min"
    return f"{seconds / 3600.0:.2f} h"


@contextmanager
def bound_analysis(wl):
    """One :class:`RiskSession` over the workload's YET and portfolio
    for all of its timed runs (``session.aggregate(engine=...)``), so a
    timing holds the run and not a session per call (the ``warmup=1``
    run absorbs the engine the session then keeps)."""
    with RiskSession(wl.yet, wl.portfolio) as session:
        yield session


@dataclass
class ExperimentReport:
    """A rendered experiment: id, claim, table, and conclusions.

    ``figures`` holds the measured numbers the claim is checked against
    (a speedup, a processor count), unformatted.
    """

    exp_id: str
    claim: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    figures: dict[str, float] = field(default_factory=dict)

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
