"""Admission control and backpressure for the pricing service.

A shared pricing service is only "real-time" while its queue is short:
once requests arrive faster than sweeps retire them, every quote's
latency grows without bound.  Classical serving practice — and the
elasticity analysis of E9 — says the honest response is to *shed* (or
delay) load the moment the backlog provably cannot meet the latency SLO,
rather than time out everyone equally.

The controller reuses :class:`~repro.hpc.cost_model.StageSpec` as its
estimator: the pending batch is a "stage" whose work volume is the
queued layer-sweep lanes (requests × YET occurrences) and whose measured
throughput is continuously re-calibrated from observed batch runtimes
(exponentially-weighted, seeded by the first real batch).  The same
model that sizes processor bursts at paper scale therefore decides, per
request, whether this machine can still answer in time.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hpc.cost_model import StageSpec, ThroughputEstimate

__all__ = ["AdmissionDecision", "AdmissionController"]


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check.

    Attributes
    ----------
    accepted:
        Whether the request may join the queue.
    estimated_seconds:
        Modelled time to clear the queue including this request (sweep
        time at the dispatcher's parallelism, plus any fixed wait the
        caller declared).
    reason:
        Human-readable grounds for the decision.
    retry_after_seconds:
        For rejected requests, a backoff hint: the modelled time for the
        current backlog to clear.  Zero for accepted requests.
    """

    accepted: bool
    estimated_seconds: float
    reason: str
    retry_after_seconds: float = 0.0


class AdmissionController:
    """SLO-driven accept/shed decisions over the serve queue.

    Parameters
    ----------
    slo_seconds:
        Target end-to-end latency for a quote.  ``None`` disables
        cost-based shedding (only the hard queue cap applies).
    max_pending:
        Hard cap on queued requests regardless of the model — the last
        line of defence when calibration is wrong.
    lanes_per_second:
        Initial throughput estimate (layer-occurrence lanes per second
        per processor) used before the first batch is observed.  The
        default is deliberately conservative; one observed batch
        replaces it.
    smoothing:
        EWMA weight of the newest observation in ``(0, 1]``.
    """

    def __init__(self, slo_seconds: float | None = None,
                 max_pending: int = 10_000,
                 lanes_per_second: float = 1e7,
                 smoothing: float = 0.3) -> None:
        if slo_seconds is not None and slo_seconds <= 0:
            raise ConfigurationError("slo_seconds must be positive (or None)")
        if max_pending <= 0:
            raise ConfigurationError("max_pending must be positive")
        if lanes_per_second <= 0:
            raise ConfigurationError("lanes_per_second must be positive")
        if not (0.0 < smoothing <= 1.0):
            raise ConfigurationError("smoothing must lie in (0, 1]")
        self.slo_seconds = slo_seconds
        self.max_pending = max_pending
        self.smoothing = smoothing
        #: The shared EWMA calibrator (the session planner uses the same
        #: class per engine); the first real batch replaces the seed.
        self._estimate = ThroughputEstimate(float(lanes_per_second), smoothing)
        #: The cost-model stage the estimates run through; ``work_items``
        #: is per-decision, throughput is the calibrated rate.
        self._spec = StageSpec(
            "serve backlog", work_items=1.0,
            throughput_per_proc=float(lanes_per_second),
        )
        #: Guards the EWMA read-modify-write in :meth:`observe`;
        #: :meth:`decide` only reads the (atomically swapped, frozen)
        #: spec, and shed/accept accounting lives on the service's
        #: stats surface — one counter, one owner.
        self._lock = threading.Lock()

    # -- calibration -------------------------------------------------------

    @property
    def lanes_per_second(self) -> float:
        """Current throughput estimate (lanes/s/processor)."""
        return self._spec.throughput_per_proc

    def observe(self, lanes: float, seconds: float,
                n_procs: int = 1) -> None:
        """Fold one measured batch (lanes swept, wall seconds, processors
        it ran on) into the throughput estimate.  The wall rate is
        normalised to *per-processor* before storing — the cost model
        multiplies parallelism back in at :meth:`decide` time, and
        double-counting it would make pooled-path estimates ``n_procs``
        times too optimistic.  The first observation replaces the seed.
        """
        if lanes <= 0 or seconds <= 0 or n_procs <= 0:
            return
        with self._lock:
            rate = self._estimate.observe(lanes, seconds, n_procs)
            self._spec = self._spec.with_throughput(rate)

    # -- decisions ---------------------------------------------------------

    def _queue_seconds(self, n_requests: int, lanes_per_request: float,
                       n_procs: int) -> float:
        """Modelled sweep time for ``n_requests`` queued requests."""
        if n_requests <= 0:
            return 0.0
        spec = StageSpec(self._spec.name, n_requests * lanes_per_request,
                         self.lanes_per_second)
        return spec.runtime_seconds(n_procs)

    def decide(self, n_pending: int, lanes_per_request: float,
               n_procs: int = 1,
               window_seconds: float = 0.0) -> AdmissionDecision:
        """Admission check for one new request.

        ``n_pending`` is the queue depth before this request,
        ``lanes_per_request`` the sweep lanes one request adds (the
        YET's occurrence count), ``n_procs`` the dispatcher's
        parallelism, and ``window_seconds`` a fixed wait the caller
        knows the request will sit out before any sweep starts, added to
        the modelled latency as is.  The pricing service passes none:
        its batcher takes what is queued the moment it is free, so an
        idle service waits out no window.
        """
        backlog_seconds = self._queue_seconds(
            n_pending, lanes_per_request, n_procs
        )
        if n_pending >= self.max_pending:
            return AdmissionDecision(
                accepted=False,
                estimated_seconds=math.inf,
                reason=f"queue full ({n_pending} >= max_pending "
                       f"{self.max_pending})",
                retry_after_seconds=backlog_seconds,
            )
        estimated = window_seconds + self._queue_seconds(
            n_pending + 1, lanes_per_request, n_procs
        )
        if self.slo_seconds is not None and estimated > self.slo_seconds:
            return AdmissionDecision(
                accepted=False,
                estimated_seconds=estimated,
                reason=f"estimated latency {estimated:.3g}s exceeds SLO "
                       f"{self.slo_seconds:.3g}s at queue depth {n_pending}",
                retry_after_seconds=backlog_seconds,
            )
        return AdmissionDecision(
            accepted=True,
            estimated_seconds=estimated,
            reason="within SLO" if self.slo_seconds is not None
                   else "no SLO configured",
        )
