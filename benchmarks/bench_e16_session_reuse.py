"""E16 — staged session reuse vs per-call entry-point construction.

The session layer's claim is the paper's thesis applied to the API: the
YET is simulated once, so a *mixed* workload — an aggregate run, a burst
of ad-hoc quotes, an EP curve — should pay binding, worker spawn, and
payload staging **once**, not once per entry point.  This experiment
measures exactly that delta on the pooled substrate:

- **per-call baseline**: each operation constructs its own entry point
  the way pre-session code did — a fresh
  :class:`~repro.core.simulation.AggregateAnalysis` run on the multicore
  engine, one fresh pooled session and its
  :class:`~repro.serve.service.PricingService` per quote, one more for
  the EP curve.  Every call re-pays pool spawn and
  YET shipment and tears everything down again.
- **staged session**: ONE :class:`~repro.session.RiskSession` runs the
  identical operations over its shared dispatcher; after the first
  iteration the pool is warm and ``payload_ships`` stays at 1.

Written to ``BENCH_e16.json`` via ``run_tier2.py [--only e16]``.  The
acceptance bar: **≥ 2x speedup at the medium shape**, and the session
path ships the YET payload at most once.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

from repro.bench.workloads import build_portfolio_workload
from repro.core.engines import MulticoreEngine
from repro.core.layer import Layer
from repro.core.simulation import AggregateAnalysis
from repro.serve.cache import CachePolicy
from repro.session import RiskSession

N_WORKERS = 2

#: Quotes per mixed-workload iteration (the acceptance criterion's "≥8").
N_QUOTES = 8

#: Mixed-workload shapes.  The *medium* shape carries the acceptance bar
#: and is run identically in both tiers so the trajectory is comparable.
SHAPES = {
    "small": dict(n_layers=2, n_trials=400, mean_events_per_trial=60.0,
                  elts_per_layer=1, elt_rows=800, catalog_events=20_000),
    "medium": dict(n_layers=4, n_trials=1_000, mean_events_per_trial=120.0,
                   elts_per_layer=1, elt_rows=1_500, catalog_events=60_000),
    "large": dict(n_layers=8, n_trials=2_000, mean_events_per_trial=200.0,
                  elts_per_layer=1, elt_rows=2_000, catalog_events=120_000),
}


def _candidates(portfolio, n_quotes: int) -> list[Layer]:
    """Quote candidates: the book's first layer at rising attachments."""
    base = portfolio.layers[0]
    out = []
    for i in range(n_quotes):
        terms = dataclasses.replace(
            base.terms, occ_retention=base.terms.occ_retention * (1.0 + 0.15 * i)
        )
        out.append(Layer(10_000 + i, base.elts, terms, weights=base.weights))
    return out


def _run_per_call(portfolio, yet, candidates) -> None:
    """One mixed iteration, each operation through a fresh entry point.

    This is the pre-session idiom verbatim: every call builds its own
    pooled substrate (fresh worker pool, fresh YET shipment) and tears
    it down again before the next call.
    """
    with MulticoreEngine(n_workers=N_WORKERS) as engine:
        AggregateAnalysis(portfolio, yet).run(engine)
    for layer in candidates:
        with RiskSession(yet, n_workers=N_WORKERS) as session:
            session.pricing_service(engine="pooled",
                                    cache=CachePolicy(0)).quote(layer)
    with RiskSession(yet, n_workers=N_WORKERS) as session:
        session.pricing_service(engine="pooled",
                                cache=CachePolicy(0)).ep_curve(candidates[0])


def _run_session(session: RiskSession, svc, candidates) -> None:
    """One mixed iteration over the staged session."""
    session.aggregate(engine="multicore")
    for layer in candidates:
        svc.quote(layer)
    svc.ep_curve(candidates[0])


def measure_row(size: str, shape: dict, repeats: int = 3,
                n_quotes: int = N_QUOTES) -> dict:
    """Best-of-``repeats`` mixed-workload wall time, both ways.

    Best-of is deliberate for both sides: the baseline re-pays its
    staging inside *every* iteration (that is what per-call construction
    means), while the session's first iteration warms the pool and later
    ones show the staged steady state.
    """
    wl = build_portfolio_workload(seed=16, **shape)
    candidates = _candidates(wl.portfolio, n_quotes)

    baseline_best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _run_per_call(wl.portfolio, wl.yet, candidates)
        baseline_best = min(baseline_best, time.perf_counter() - t0)

    session_best = float("inf")
    with RiskSession(wl.yet, wl.portfolio, n_workers=N_WORKERS) as session:
        svc = session.pricing_service(engine="pooled", cache=CachePolicy(0))
        for _ in range(repeats):
            t0 = time.perf_counter()
            _run_session(session, svc, candidates)
            session_best = min(session_best, time.perf_counter() - t0)
        payload_ships = session.payload_ships

    return {
        "size": size,
        "n_layers": shape["n_layers"],
        "n_trials": shape["n_trials"],
        "n_occurrences": wl.yet.n_occurrences,
        "n_quotes": n_quotes,
        "baseline_seconds": baseline_best,
        "session_seconds": session_best,
        "speedup": baseline_best / session_best if session_best > 0 else 0.0,
        "session_payload_ships": payload_ships,
        "baseline_constructions": 2 + n_quotes,
    }


def measure(sizes=("small", "medium"), repeats: int = 3,
            n_quotes: int = N_QUOTES) -> dict:
    rows = [measure_row(size, SHAPES[size], repeats=repeats,
                        n_quotes=n_quotes)
            for size in sizes]
    return {
        "experiment": "e16_session_reuse",
        "n_workers": N_WORKERS,
        "repeats": repeats,
        "rows": rows,
    }


def write_json(record: dict, path: Path | None = None) -> Path:
    if path is None:
        path = Path(__file__).resolve().parent.parent / "BENCH_e16.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


if __name__ == "__main__":
    record = measure()
    out = write_json(record)
    print(f"wrote {out}")
    for r in record["rows"]:
        print(f"{r['size']:>7}: per-call {r['baseline_seconds']:.2f}s, "
              f"session {r['session_seconds']:.2f}s "
              f"({r['speedup']:.2f}x), ships {r['session_payload_ships']}")
