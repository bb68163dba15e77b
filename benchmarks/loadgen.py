"""Open-loop load generation for the serving layer.

Closed-loop drivers (submit, wait, submit again) measure a system that
is never stressed: the client slows down exactly when the server does,
so queues never build and admission control never fires.  An *open-loop*
generator fixes the arrival schedule up front — request ``i`` is due at
``start + i / rate`` whether or not request ``i-1`` has finished — which
is how coordinated omission is avoided and how the saturation knee
becomes visible (offered rate keeps climbing, served rate flattens,
latency and shed rate take off).

The generator is run-table driven: a :class:`RunSpec` names a workload
mix, an offered arrival rate, and a dispatch engine; :func:`run_open_loop`
builds a **fresh** :class:`~repro.serve.PricingService` for the run (so
cumulative telemetry counters equal per-run numbers), paces submissions
against the wall clock, and reads every reported metric from the
service's public telemetry plane — ``svc.telemetry.snapshot()`` — never
from private fields.

Workload mixes
--------------
``quotes``
    Every request is a distinct candidate layer (an underwriter what-if
    burst); the result cache never hits.
``hot``
    Requests cycle over a small hot set of layers, the repeated-lookup
    regime where the content-addressed cache carries most of the load.
``mixed``
    Alternating ``quote`` and ``ep_curve`` metrics over a medium pool —
    distinct (layer, metric) result keys with partial reuse.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.bench.workloads import build_layer_workload
from repro.core.layer import Layer
from repro.core.terms import LayerTerms
from repro.errors import AdmissionError
from repro.obs import parse_prometheus_text
from repro.serve import BatchPolicy, CachePolicy, PricingService

MIXES = ("quotes", "hot", "mixed")

#: How many distinct layers the ``hot`` mix cycles over.
HOT_SET_SIZE = 8

#: Pool size for ``mixed`` (each layer appears with both metrics).
MIXED_POOL_SIZE = 32


@dataclass(frozen=True)
class RunSpec:
    """One row of the run table: a named (mix × rate × engine) cell."""

    name: str
    mix: str = "quotes"
    rate: float = 50.0            #: offered arrival rate, requests/second
    engine: str = "inline"        #: dispatcher name for the service
    duration_seconds: float = 2.0
    seed: int = 7

    def __post_init__(self):
        if self.mix not in MIXES:
            raise ValueError(f"unknown mix {self.mix!r}; expected {MIXES}")
        if self.rate <= 0 or self.duration_seconds <= 0:
            raise ValueError("rate and duration_seconds must be positive")

    @property
    def n_requests(self) -> int:
        return max(1, int(round(self.rate * self.duration_seconds)))


def build_layers(n_layers: int, seed: int = 7, **shape):
    """``n_layers`` distinct candidate layers over one shared book + YET.

    Returns ``(yet, layers)``; lookups are warmed so runs measure
    pricing, not the one-off ELT merge.
    """
    wl = build_layer_workload(seed=seed, **shape)
    base = wl.portfolio.layers[0]
    mean_loss = 5e5
    layers = []
    for i in range(n_layers):
        terms = LayerTerms(
            occ_retention=(1.0 + 0.5 * (i % 16)) * mean_loss,
            occ_limit=(30.0 + i) * mean_loss,
            agg_retention=8.0 * mean_loss,
            agg_limit=2500.0 * mean_loss,
            participation=0.5 + 0.4 * ((i % 8) / 7.0),
        )
        layers.append(Layer(1000 + i, base.elts, terms))
    for layer in layers:
        layer.lookup()
    return wl.yet, layers


def build_request_pool(mix: str, layers: list[Layer]) -> list[tuple[Layer, str]]:
    """The (layer, metric) cycle a run draws its arrivals from."""
    if mix == "quotes":
        # Callers pair this mix with cache_entries=0: the pool is finite,
        # so only a disabled cache keeps "every request sweeps" true once
        # arrivals outnumber distinct layers.
        return [(layer, "quote") for layer in layers]
    if mix == "hot":
        return [(layer, "quote") for layer in layers[:HOT_SET_SIZE]]
    if mix == "mixed":
        pool = []
        for layer in layers[:MIXED_POOL_SIZE]:
            pool.append((layer, "quote"))
            pool.append((layer, "ep_curve"))
        return pool
    raise ValueError(f"unknown mix {mix!r}")


def verify_prometheus_round_trip(telemetry) -> None:
    """Assert the exposition text parses back to the exact sample dict."""
    parsed = parse_prometheus_text(telemetry.to_prometheus_text())
    samples = telemetry.samples()
    if parsed != samples:
        missing = set(samples) ^ set(parsed)
        raise AssertionError(
            f"prometheus text did not round-trip; key diff: {sorted(missing)}"
        )


def run_open_loop(
    spec: RunSpec,
    yet,
    layers: list[Layer],
    *,
    slo_seconds: float | None = None,
    max_batch: int = 64,
    window_seconds: float = 0.01,
    cache_entries: int = 4096,
) -> dict:
    """Drive one run-table cell; returns a JSON-able row.

    Every reported service-side number is read from the public telemetry
    plane (``svc.telemetry.snapshot()``); the generator itself only
    contributes the wall-clock frame (offered schedule, elapsed time).
    """
    pool = build_request_pool(spec.mix, layers)
    n_requests = spec.n_requests
    svc = PricingService(
        yet,
        engine=spec.engine,
        batch=BatchPolicy(max_batch=max_batch,
                          window_seconds=window_seconds,
                          auto_flush=True),
        cache=CachePolicy(max_entries=cache_entries),
        slo_seconds=slo_seconds,
    )
    with svc:
        # Warm the path outside the measured window: the first real
        # sweep pays the one-off costs and measures the dispatcher's
        # rate, which SLO admission then sheds by from the first
        # scheduled arrival.  The baseline snapshot keeps the warmup
        # out of the reported counters — deltas of two public
        # snapshots, no private state.
        svc.quote(pool[0][0])
        base = svc.telemetry.snapshot()["metrics"]
        tickets = []
        start = time.perf_counter()
        for i in range(n_requests):
            # Open loop: arrival i is due at start + i/rate.  When the
            # schedule has slipped (now past due) submit immediately —
            # never let a slow server pace the client.
            due = start + i / spec.rate
            now = time.perf_counter()
            if due > now:
                time.sleep(due - now)
            layer, metric = pool[i % len(pool)]
            try:
                tickets.append(svc.submit(layer, metric))
            except AdmissionError:
                pass        # counted by the service as serve.shed
        submit_elapsed = time.perf_counter() - start
        svc.drain()
        for ticket in tickets:
            ticket.result()
        elapsed = time.perf_counter() - start
        verify_prometheus_round_trip(svc.telemetry)
        snap = svc.telemetry.snapshot()

    m = snap["metrics"]

    def delta(name: str) -> float:
        return m.get(name, 0) - base.get(name, 0)

    offered = int(delta("serve.requests"))
    shed = int(delta("serve.shed"))
    served = offered - shed
    return {
        "name": spec.name,
        "mix": spec.mix,
        "engine": spec.engine,
        "offered_rate": spec.rate,
        "achieved_offer_rate": offered / submit_elapsed if submit_elapsed else 0.0,
        "duration_seconds": spec.duration_seconds,
        "elapsed_seconds": elapsed,
        "offered": offered,
        "served": served,
        "shed": shed,
        "shed_rate": shed / offered if offered else 0.0,
        "served_rate": served / elapsed if elapsed else 0.0,
        "p50_ms": m.get("serve.request.seconds.p50", 0.0) * 1e3,
        "p95_ms": m.get("serve.request.seconds.p95", 0.0) * 1e3,
        "p99_ms": m.get("serve.request.seconds.p99", 0.0) * 1e3,
        "latency_count": int(delta("serve.request.seconds.count")),
        "queue_depth_max": m.get("serve.queue.depth.max", 0.0),
        "cache_hits": int(delta("serve.cache.hits")),
        "batches": int(delta("serve.batches")),
        "largest_batch": m.get("serve.largest_batch.max", 0.0),
    }


def calibrate_capacity(
    yet,
    layers: list[Layer],
    *,
    burst: int = 64,
    repeats: int = 2,
    max_batch: int = 64,
) -> float:
    """Closed-loop burst capacity in requests/second (no admission).

    A fresh service per repeat (fresh cache — every request sweeps).
    The *worst* repeat is reported: a closed-loop burst of full batches
    already overestimates what an open loop's window-sized batches can
    sustain, so the conservative repeat keeps sub-knee offered rates
    genuinely below the knee.
    """
    rates = []
    for _ in range(repeats):
        svc = PricingService(
            yet,
            batch=BatchPolicy(max_batch=max_batch, auto_flush=False),
            cache=CachePolicy(max_entries=0),
            slo_seconds=None,
        )
        with svc:
            t0 = time.perf_counter()
            tickets = [svc.submit(layers[i % len(layers)], "quote")
                       for i in range(burst)]
            svc.drain()
            for ticket in tickets:
                ticket.result()
            elapsed = time.perf_counter() - t0
            served = svc.telemetry.snapshot()["metrics"].get("serve.requests", 0)
        if elapsed > 0:
            rates.append(served / elapsed)
    return min(rates) if rates else 0.0
