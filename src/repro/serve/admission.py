"""Admission control and backpressure for the pricing service.

A shared pricing service is only "real-time" while its queue is short:
once requests arrive faster than sweeps retire them, every quote's
latency grows without bound.  Classical serving practice — and the
elasticity analysis of E9 — says the honest response is to *shed* (or
delay) load the moment the backlog provably cannot meet the latency SLO,
rather than time out everyone equally.

The controller prices the queue with
:class:`~repro.hpc.cost_model.StageSpec`: the pending batch is a
"stage" whose work volume is the queued layer-sweep lanes (requests ×
YET occurrences) and whose throughput is the measured rate of the
dispatcher the requests will run on
(:attr:`Dispatcher.throughput <repro.serve.dispatch.Dispatcher.throughput>`,
fed by every aggregate and quote batch that dispatcher runs — the rate
the session planner prices the substrate at).  The same model that
sizes processor bursts at paper scale therefore decides, per request,
whether this machine can still answer in time.  There is no seed: until
the substrate has run once, only the queue cap sheds.
"""

from __future__ import annotations

import math
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
    throughput:
        The measured rate (lanes/s per processor) of the substrate the
        requests run on — a dispatcher's
        :attr:`~repro.serve.dispatch.Dispatcher.throughput`, read at
        each decision.  ``None``, or an estimate whose substrate has not
        run yet, models the queue as free: only ``max_pending`` sheds.
        The service counts what it sheds (``serve.shed``) on its
        telemetry plane.
    """

    def __init__(self, slo_seconds: float | None = None,
                 max_pending: int = 10_000,
                 throughput: ThroughputEstimate | None = None) -> None:
        if slo_seconds is not None and slo_seconds <= 0:
            raise ConfigurationError("slo_seconds must be positive (or None)")
        if max_pending <= 0:
            raise ConfigurationError("max_pending must be positive")
        self.slo_seconds = slo_seconds
        self.max_pending = max_pending
        self.throughput = throughput

    def _queue_seconds(self, n_requests: int, lanes_per_request: float,
                       n_procs: int) -> float:
        """Modelled sweep time for ``n_requests`` queued requests."""
        rate = self.throughput.rate if self.throughput is not None else None
        if n_requests <= 0 or rate is None:
            return 0.0
        return StageSpec("serve backlog", n_requests * lanes_per_request,
                         rate).runtime_seconds(n_procs)

    def decide(self, n_pending: int, lanes_per_request: float,
               n_procs: int = 1,
               window_seconds: float = 0.0,
               n_requests: int = 1) -> AdmissionDecision:
        """Admission check for ``n_requests`` new requests, taken or shed
        together.

        ``n_pending`` is the queue depth before them,
        ``lanes_per_request`` the sweep lanes one request adds (the
        YET's occurrence count), ``n_procs`` the dispatcher's
        parallelism, and ``window_seconds`` a fixed wait the caller
        knows the requests will sit out before any sweep starts, added
        to the modelled latency as is.  The pricing service passes no
        window (its batcher takes what is queued the moment it is free,
        so an idle service waits out none) and one decision per call:
        a ``quote_many`` of N candidates that miss the cache is priced
        as N requests, and the last of them must clear the SLO and fit
        under ``max_pending``, or none is queued.
        """
        backlog_seconds = self._queue_seconds(
            n_pending, lanes_per_request, n_procs
        )
        if n_pending + n_requests > self.max_pending:
            return AdmissionDecision(
                accepted=False,
                estimated_seconds=math.inf,
                reason=f"queue full ({n_pending} pending + {n_requests} "
                       f"> max_pending {self.max_pending})",
                retry_after_seconds=backlog_seconds,
            )
        estimated = window_seconds + self._queue_seconds(
            n_pending + n_requests, lanes_per_request, n_procs
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
