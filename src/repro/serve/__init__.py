"""The serving layer: batched pricing as a many-user service.

The paper's headline workflow is interactive: once a million-trial
aggregate simulation runs in seconds (§II's "25 seconds ... real-time
pricing"), layer pricing stops being an overnight batch and becomes a
*service* — many underwriters, many candidate structures, one shared,
pre-simulated YET.  The MapReduce companion study (Yao, Varghese &
Rau-Chaplin, 2013) makes the same point from the throughput side: the
binding metric is requests per second against a fixed trial set.

This package turns concurrent requests into few fused sweeps:

===========  ============================================================
module       responsibility
===========  ============================================================
batcher      request broker + micro-batcher: take what is queued the
             moment the broker is free (the sweep in flight is the
             window) and coalesce it into one stacked-kernel sweep
cache        content-addressed results keyed by (YET fingerprint, layer
             digest, metric), LRU-evicted
admission    SLO-aware accept/shed decisions driven by the HPC cost
             model at the dispatcher's measured rate
dispatch     batch execution substrates: inline vectorized sweep or
             trial-block decomposition over a worker pool fed by the
             zero-copy shared-memory data plane (in process, counted,
             where the host has none); each measures its own throughput
             on every run
service      the :class:`PricingService` facade over a session —
             submit/quote/ep_curve; its counts live on the telemetry
             plane
===========  ============================================================

Quickstart::

    import repro

    wl = repro.bench.companion_study_workload(n_trials=10_000)
    with repro.RiskSession(wl.yet) as session:
        svc = session.pricing_service()
        quotes = svc.quote_many(list(wl.portfolio))   # one fused sweep
        m = svc.telemetry.snapshot()["metrics"]
        print(m["serve.batched_requests"] / m["serve.batches"])
"""

from repro.serve.admission import AdmissionController, AdmissionDecision
from repro.serve.batcher import BatchPolicy, MicroBatcher, Ticket
from repro.serve.cache import CachePolicy, ResultCache, layer_digest
from repro.serve.dispatch import (
    Dispatcher,
    InlineDispatcher,
    PooledDispatcher,
)
from repro.serve.service import PricingService

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "BatchPolicy",
    "MicroBatcher",
    "Ticket",
    "CachePolicy",
    "ResultCache",
    "layer_digest",
    "Dispatcher",
    "InlineDispatcher",
    "PooledDispatcher",
    "PricingService",
]
