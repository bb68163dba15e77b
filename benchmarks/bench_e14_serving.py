"""E14 — the serving layer: micro-batched pricing vs one sweep per request.

The pre-serve reality of concurrent pricing was one full YET pass per
quote: each request built its own single-layer portfolio and ran an
engine over the whole trial set.  The serving layer coalesces every
request in flight into one stacked
:class:`~repro.core.kernels.PortfolioKernel` sweep, so N concurrent
requests cost ~one YET pass plus N cheap kernel rows.

This bench drives both paths over the same burst of ad-hoc candidate
layers (structure variations on a shared contract book) and reports
request throughput and per-quote latency percentiles.  The acceptance
bar: **≥ 3x request throughput at 32 concurrent requests**.  Results are
written to ``BENCH_e14.json`` (see ``run_tier2.py``) so the serving
trajectory is tracked PR over PR alongside the kernel trajectory (E13).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.bench.workloads import build_layer_workload
from repro.core.engines import VectorizedEngine
from repro.core.layer import Layer
from repro.core.portfolio import Portfolio
from repro.core.terms import LayerTerms
from repro.dfa.quote import premium_components
from repro.serve import BatchPolicy, CachePolicy, PricingService

REQUEST_COUNTS = (1, 8, 32, 64)

#: Workload shape: one shared contract book, a YET long enough that the
#: sweep dominates each quote (the serving regime the paper motivates).
DEFAULT_SHAPE = dict(
    n_trials=2_000,
    mean_events_per_trial=250.0,
    n_elts=2,
    elt_rows=2_000,
    catalog_events=20_000,
    seed=7,
)

VOL_LOADING = 0.25
TAIL_LOADING = 0.02


def build_burst(n_requests: int, **shape):
    """A burst of ad-hoc candidate layers over one shared book + YET.

    Underwriters sweep attachment points and shares: each request is a
    distinct ``Layer`` (distinct terms), the realistic "what-if" burst.
    Lookups are warmed up front so both paths measure pricing, not the
    one-off ELT merge.
    """
    shape = {**DEFAULT_SHAPE, **shape}
    wl = build_layer_workload(**shape)
    base = wl.portfolio.layers[0]
    mean_loss = 5e5
    layers = []
    for i in range(n_requests):
        terms = LayerTerms(
            occ_retention=(1.0 + 0.5 * (i % 16)) * mean_loss,
            occ_limit=(30.0 + i) * mean_loss,
            agg_retention=8.0 * mean_loss,
            agg_limit=2500.0 * mean_loss,
            participation=0.5 + 0.4 * ((i % 8) / 7.0 if n_requests > 1 else 1.0),
        )
        layers.append(Layer(1000 + i, base.elts, terms))
    for layer in layers:
        layer.lookup()
    return wl.yet, layers


def _premium_from_ylt(ylt, occ_limit) -> float:
    return premium_components(ylt, occ_limit, VOL_LOADING, TAIL_LOADING)[3]


def run_baseline(yet, layers):
    """One engine run per request (the pre-serve path); returns
    (total_seconds, per-request latencies, premiums)."""
    engine = VectorizedEngine()
    latencies, premiums = [], []
    t_start = time.perf_counter()
    for layer in layers:
        t0 = time.perf_counter()
        result = engine.run(Portfolio([layer]), yet)
        ylt = result.ylt_by_layer[layer.layer_id]
        premium = _premium_from_ylt(ylt, layer.terms.occ_limit)
        latencies.append(time.perf_counter() - t0)
        premiums.append(premium)
    return time.perf_counter() - t_start, latencies, premiums


def run_batched(yet, layers):
    """All requests through one PricingService micro-batch; returns
    (total_seconds, per-request latencies, premiums, sweeps)."""
    with PricingService(
        yet,
        volatility_loading=VOL_LOADING,
        tail_loading=TAIL_LOADING,
        batch=BatchPolicy(max_batch=max(len(layers), 1)),
        cache=CachePolicy(0),   # measure sweeps, not cache hits
    ) as svc:
        t_start = time.perf_counter()
        tickets = [svc.submit(layer) for layer in layers]
        svc.drain()
        quotes = [t.result() for t in tickets]
        total = time.perf_counter() - t_start
        # Sweep count off the public telemetry plane: one fused YET
        # pass per batch.
        sweeps = int(svc.telemetry.snapshot()["metrics"]["serve.batches"])
        return (total, [q.latency_seconds for q in quotes],
                [q.premium for q in quotes], sweeps)


def _pctl(latencies, p):
    return float(np.percentile(np.asarray(latencies), p))


def measure(request_counts=REQUEST_COUNTS, repeats: int = 3, **shape) -> dict:
    """Run both paths across burst sizes; returns the JSON-able record."""
    rows = []
    for n_requests in request_counts:
        yet, layers = build_burst(n_requests, **shape)

        # Parity before timing: a wrong fast path is not a fast path.
        _, _, base_premiums = run_baseline(yet, layers)
        _, _, batch_premiums, _ = run_batched(yet, layers)
        np.testing.assert_allclose(batch_premiums, base_premiums,
                                   rtol=1e-9, atol=1e-6)

        best_base, best_batch = np.inf, np.inf
        base_lat, batch_lat, sweeps = [], [], 0
        for _ in range(repeats):
            total, lats, _ = run_baseline(yet, layers)
            if total < best_base:
                best_base, base_lat = total, lats
            total, lats, _, n_sweeps = run_batched(yet, layers)
            if total < best_batch:
                best_batch, batch_lat, sweeps = total, lats, n_sweeps
        rows.append({
            "n_requests": n_requests,
            "n_occurrences": yet.n_occurrences,
            "baseline_seconds": best_base,
            "batched_seconds": best_batch,
            "baseline_rps": n_requests / best_base,
            "batched_rps": n_requests / best_batch,
            "throughput_gain": best_base / best_batch,
            "baseline_p50_ms": _pctl(base_lat, 50) * 1e3,
            "baseline_p95_ms": _pctl(base_lat, 95) * 1e3,
            "batched_p50_ms": _pctl(batch_lat, 50) * 1e3,
            "batched_p95_ms": _pctl(batch_lat, 95) * 1e3,
            "sweeps": sweeps,
        })
    return {"experiment": "e14_serving", "shape": {**DEFAULT_SHAPE, **shape},
            "repeats": repeats, "rows": rows}


def write_json(record: dict, path: str | Path | None = None) -> Path:
    """Write the bench record next to the repo root (the trajectory file)."""
    if path is None:
        path = Path(__file__).resolve().parent.parent / "BENCH_e14.json"
    path = Path(path)
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return path


# -- pytest entry points ----------------------------------------------------

@pytest.fixture(scope="module")
def record():
    return measure()


def test_batched_parity_with_direct_pricing():
    """Batched premiums equal one-run-per-request premiums exactly-ish."""
    yet, layers = build_burst(8, n_trials=300, mean_events_per_trial=50.0)
    _, _, base = run_baseline(yet, layers)
    _, _, batched, sweeps = run_batched(yet, layers)
    assert sweeps == 1
    np.testing.assert_allclose(batched, base, rtol=1e-9, atol=1e-6)


def test_throughput_gain_at_32_requests(record):
    """The acceptance bar: ≥ 3x request throughput at 32 concurrent."""
    row = next(r for r in record["rows"] if r["n_requests"] == 32)
    assert row["throughput_gain"] >= 3.0, (
        f"micro-batching gained only {row['throughput_gain']:.2f}x over "
        "one-sweep-per-request at 32 concurrent (bar is 3x)"
    )


def test_report(record):
    """Emit the table and the JSON trajectory file."""
    write_json(record)
    print()
    print(f"{'reqs':>5} {'baseline':>11} {'batched':>11} {'gain':>7} "
          f"{'base p95':>10} {'batch p95':>10} {'sweeps':>7}")
    for r in record["rows"]:
        print(f"{r['n_requests']:>5} {r['baseline_seconds']*1e3:>9.1f}ms "
              f"{r['batched_seconds']*1e3:>9.1f}ms "
              f"{r['throughput_gain']:>6.2f}x "
              f"{r['baseline_p95_ms']:>8.1f}ms {r['batched_p95_ms']:>8.1f}ms "
              f"{r['sweeps']:>7}")
