"""Analytic cost model for the pipeline's processor-burst analysis (E9).

The paper's closing observation (§II): *"While in the first stage less
than ten processors may be sufficient to handle the data, in the second
and third stages thousands or even tens of thousands of processors need
to be put together"* — and this elasticity is why cloud provisioning is
attractive.  The model here makes that argument quantitative: each stage
is described by its work volume (rows that must be streamed) and a
measured single-processor throughput; the model answers "how many
processors meet a given deadline", including a simple communication
overhead term so the answer is not naively linear.

Throughputs are *measured* by the E8/E9 experiment definitions
(``benchmarks/bench_e08_*.py``, ``bench_e09_*.py``) on the host that runs
them (not assumed), so the burst profile is calibrated to real code.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

from repro.errors import AnalysisError, ConfigurationError

__all__ = ["StageSpec", "StageRequirement", "PipelineCostModel",
           "ThroughputEstimate"]

#: Weight of the newest run in a :class:`ThroughputEstimate`'s EWMA.
EWMA_WEIGHT = 0.3


class ThroughputEstimate:
    """Measured per-processor throughput of one substrate (work units /
    second), EWMA-calibrated.

    Each :class:`~repro.serve.dispatch.Dispatcher` owns the one estimate
    of its substrate and folds every run into it; the session planner
    and the serve admission controller read it.  It holds no seed:
    :attr:`rate` is ``None`` until the substrate has run, the first
    observation sets it, and later ones fold in at :data:`EWMA_WEIGHT`
    so the estimate tracks the machine without thrashing on one noisy
    run.  Observations are normalised to per-processor before storing —
    the cost model multiplies parallelism back in when it prices a
    stage, and double-counting it would make pooled-path estimates
    ``n_procs`` times too optimistic.  An update holds a lock: a quote
    batch and an aggregate can share a dispatcher.
    """

    __slots__ = ("rate", "_lock")

    def __init__(self) -> None:
        self.rate: float | None = None
        self._lock = threading.Lock()

    def observe(self, work_items: float, seconds: float,
                n_procs: int = 1) -> float | None:
        """Fold one measured run in; returns the updated rate.

        Degenerate observations (no work, no elapsed time) are ignored
        rather than allowed to poison the estimate.
        """
        if work_items <= 0 or seconds <= 0 or n_procs <= 0:
            return self.rate
        observed = work_items / seconds / n_procs
        with self._lock:
            if self.rate is not None:
                observed = ((1 - EWMA_WEIGHT) * self.rate
                            + EWMA_WEIGHT * observed)
            self.rate = observed
        return observed


@dataclass(frozen=True)
class StageSpec:
    """One pipeline stage in the cost model.

    Attributes
    ----------
    name:
        Stage name (``"risk modelling"``...).
    work_items:
        Total work units that must be processed (e.g. event-exposure pairs,
        trial-event lookups, YLT combination rows).
    throughput_per_proc:
        Measured single-processor throughput in work units/second.
    parallel_fraction:
        Amdahl fraction of the stage that parallelises (1.0 = perfectly).
    comm_overhead_per_proc_s:
        Fixed per-processor coordination cost added to the runtime
        (models collective rounds growing with P).
    """

    name: str
    work_items: float
    throughput_per_proc: float
    parallel_fraction: float = 1.0
    comm_overhead_per_proc_s: float = 0.0

    def __post_init__(self):
        if self.work_items < 0:
            raise ConfigurationError("work_items must be non-negative")
        if self.throughput_per_proc <= 0:
            raise ConfigurationError("throughput_per_proc must be positive")
        if not (0.0 < self.parallel_fraction <= 1.0):
            raise ConfigurationError("parallel_fraction must lie in (0, 1]")
        if self.comm_overhead_per_proc_s < 0:
            raise ConfigurationError("comm_overhead_per_proc_s must be non-negative")

    def runtime_seconds(self, n_procs: int) -> float:
        """Modelled stage runtime on ``n_procs`` processors (Amdahl + comm)."""
        if n_procs <= 0:
            raise ConfigurationError(f"n_procs must be positive, got {n_procs}")
        serial_time = self.work_items / self.throughput_per_proc
        amdahl = serial_time * (
            (1.0 - self.parallel_fraction) + self.parallel_fraction / n_procs
        )
        comm = self.comm_overhead_per_proc_s * math.log2(n_procs + 1)
        return amdahl + comm


@dataclass(frozen=True)
class StageRequirement:
    """Processors needed by one stage to meet a deadline."""

    stage: str
    deadline_seconds: float
    n_procs: int
    runtime_seconds: float
    feasible: bool


class PipelineCostModel:
    """Answers processor-provisioning questions over a set of stages."""

    def __init__(self, stages: list[StageSpec], max_procs: int = 1 << 20) -> None:
        if not stages:
            raise ConfigurationError("cost model needs at least one stage")
        names = [s.name for s in stages]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate stage names: {names}")
        self.stages = {s.name: s for s in stages}
        self.max_procs = max_procs

    def stage(self, name: str) -> StageSpec:
        try:
            return self.stages[name]
        except KeyError:
            raise AnalysisError(
                f"unknown stage {name!r}; have {sorted(self.stages)}"
            ) from None

    def procs_for_deadline(self, name: str, deadline_seconds: float) -> StageRequirement:
        """Smallest processor count meeting the deadline (binary search).

        Runtime is monotone decreasing in P until communication overhead
        dominates; we search the monotone region and verify, reporting
        infeasibility when even the best P misses the deadline.
        """
        if deadline_seconds <= 0:
            raise AnalysisError("deadline must be positive")
        spec = self.stage(name)
        if spec.runtime_seconds(1) <= deadline_seconds:
            return StageRequirement(name, deadline_seconds, 1,
                                    spec.runtime_seconds(1), True)
        lo, hi = 1, 2
        while hi < self.max_procs and spec.runtime_seconds(hi) > deadline_seconds:
            # Stop doubling once more processors stop helping.
            if spec.runtime_seconds(hi) >= spec.runtime_seconds(hi // 2):
                best_p, best_t = self._best_point(spec)
                return StageRequirement(name, deadline_seconds, best_p, best_t,
                                        best_t <= deadline_seconds)
            lo, hi = hi, hi * 2
        if hi >= self.max_procs:
            best_p, best_t = self._best_point(spec)
            return StageRequirement(name, deadline_seconds, best_p, best_t,
                                    best_t <= deadline_seconds)
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if spec.runtime_seconds(mid) > deadline_seconds:
                lo = mid
            else:
                hi = mid
        return StageRequirement(name, deadline_seconds, hi,
                                spec.runtime_seconds(hi), True)

    def _best_point(self, spec: StageSpec) -> tuple[int, float]:
        """Processor count minimising modelled runtime (doubling scan)."""
        best_p, best_t = 1, spec.runtime_seconds(1)
        p = 2
        while p <= self.max_procs:
            t = spec.runtime_seconds(p)
            if t < best_t:
                best_p, best_t = p, t
            elif t > best_t * 1.5:
                break
            p *= 2
        return best_p, best_t

    def burst_profile(self, deadlines: dict[str, float]) -> list[StageRequirement]:
        """Processor requirement per stage for the given deadlines.

        The ratio ``max/min`` of the returned processor counts is the
        burst factor the paper's elasticity argument rests on.
        """
        missing = set(deadlines) - set(self.stages)
        if missing:
            raise AnalysisError(f"deadlines given for unknown stages: {sorted(missing)}")
        return [
            self.procs_for_deadline(name, deadline)
            for name, deadline in deadlines.items()
        ]
