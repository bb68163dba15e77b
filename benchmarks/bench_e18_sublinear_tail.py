"""E18 — sublinear tail pricing + stacked device placement.

Two raw-speed claims from the PR-6 kernel round are tracked here:

1. **Sublinear tail groups.**  A batch of L tail-attaching layers over
   one shared book — the exact shape ``quote_many`` produces — prices
   off the book's profile (per trial, its sorted positive losses and
   their running sum: two searches per row and trial) instead of one
   gather over the stream per row.  The bench sweeps L and times the
   same kernel with ``sublinear=True`` vs ``sublinear=False`` through
   the raw-array ``run``, which holds no YET and so pays one profile
   *build* per call on the group side — the worst case; a served batch
   reuses the profile its ``YetTable`` keeps.  The acceptance bar is
   **≥ 2x at L=64**, and lanes/s should *grow* with L on the group path
   (sublinearity) where the lane path stays flat.  Parity is asserted
   before anything is timed (documented tolerance: atol 1e-6 absolute,
   the library-wide kernel bar).

2. **Stacked device placement.**  The rebuilt
   :class:`~repro.core.engines.DeviceEngine` ships ONE trimmed
   ``dense_stack`` upload per resident batch (row offsets resolved
   in-kernel) and one stacked YET upload per chunk — versus one lookup
   upload *per layer* under the old first-come placement.  The bench
   records the uploads-per-sweep table across L.

Results are written to ``BENCH_e18.json`` (see ``run_tier2.py``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.bench.workloads import build_layer_workload
from repro.core.engines import DeviceEngine
from repro.core.kernels import PortfolioKernel
from repro.core.layer import Layer
from repro.core.portfolio import Portfolio
from repro.core.terms import LayerTerms

LANE_COUNTS = (8, 16, 32, 64, 128)
DEVICE_LANE_COUNTS = (8, 64)

#: Documented sublinear-vs-lane tolerance: the group path resolves each
#: row from its trial's running sums of sorted losses, so it differs
#: from the lane path by accumulation order only — measured ~2e-8 abs /
#: 7e-12 rel at the default shape, against the library-wide kernel bar.
PARITY_ATOL = 1e-6
PARITY_RTOL = 1e-9

#: One shared contract book, a YET long enough that the sweep dominates
#: (the serving regime).  Same family of shapes as E14.
DEFAULT_SHAPE = dict(
    n_trials=2_000,
    mean_events_per_trial=250.0,
    n_elts=2,
    elt_rows=2_000,
    catalog_events=20_000,
    seed=11,
)


def build_tail_stack(n_layers: int, **shape):
    """L tail-attaching layers over ONE shared book, plus the YET.

    Underwriters sweeping attachment points: every layer prices the same
    merged lookup under different ``clip(g, lo, hi)`` windows, so the
    stacked kernel dedups them to one stored table and the whole stack
    forms one tail group.
    """
    shape = {**DEFAULT_SHAPE, **shape}
    wl = build_layer_workload(**shape)
    base = wl.portfolio.layers[0]
    mean_loss = 5e5
    layers = [
        Layer(1000 + i, base.elts, LayerTerms(
            occ_retention=(1.0 + 0.25 * (i % 32)) * mean_loss,
            occ_limit=(20.0 + i) * mean_loss,
        ))
        for i in range(n_layers)
    ]
    for layer in layers:
        layer.lookup()
    return wl.yet, layers


def _time_sweep(kernel, yet, sublinear: bool, repeats: int) -> float:
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel.run(yet.trials, yet.event_ids, yet.n_trials,
                   sublinear=sublinear)
        best = min(best, time.perf_counter() - t0)
    return best


def measure_kernel(lane_counts=LANE_COUNTS, repeats: int = 3,
                   **shape) -> list[dict]:
    """Sublinear-vs-lane timing rows across stack sizes."""
    rows = []
    for n_layers in lane_counts:
        yet, layers = build_tail_stack(n_layers, **shape)
        kernel = PortfolioKernel.from_layers(layers)

        # Parity before timing: a wrong fast path is not a fast path.
        ref = kernel.run(yet.trials, yet.event_ids, yet.n_trials,
                         sublinear=False)
        sub = kernel.run(yet.trials, yet.event_ids, yet.n_trials)
        np.testing.assert_allclose(sub, ref, rtol=PARITY_RTOL,
                                   atol=PARITY_ATOL)
        max_abs_err = float(np.max(np.abs(sub - ref))) if ref.size else 0.0

        lane_s = _time_sweep(kernel, yet, False, repeats)
        group_s = _time_sweep(kernel, yet, True, repeats)
        lanes = n_layers * yet.n_occurrences
        rows.append({
            "n_layers": n_layers,
            "n_occurrences": yet.n_occurrences,
            "tail_group_rows": kernel.tail_group_rows,
            "lane_seconds": lane_s,
            "group_seconds": group_s,
            "speedup": lane_s / group_s,
            "lane_lanes_per_s": lanes / lane_s,
            "group_lanes_per_s": lanes / group_s,
            "max_abs_err": max_abs_err,
        })
    return rows


def measure_device(lane_counts=DEVICE_LANE_COUNTS, **shape) -> list[dict]:
    """Uploads-per-sweep table for the stacked device path.

    ``use_constant=False`` forces the merged lookup onto the global
    stack so the dense-stack upload count is observable; the dedup means
    one store regardless of L, and the stacked engine ships it once per
    batch where per-layer placement would ship L buffers.
    """
    rows = []
    for n_layers in lane_counts:
        yet, layers = build_tail_stack(n_layers, **shape)
        res = DeviceEngine(use_constant=False).run(Portfolio(layers), yet)
        d = res.details
        rows.append({
            "n_layers": n_layers,
            "n_batches": d["n_batches"],
            "stack_uploads": d["stack_uploads"],
            "stack_uploads_per_batch": d["stack_uploads"] / d["n_batches"],
            "per_layer_uploads_would_be": n_layers,
            "yet_uploads": d["yet_uploads"],
            "n_chunks_total": d["n_chunks_total"],
            "launches": d["launches"],
            "h2d_bytes": d["h2d_bytes"],
        })
    return rows


def measure(lane_counts=LANE_COUNTS, device_lane_counts=DEVICE_LANE_COUNTS,
            repeats: int = 3, **shape) -> dict:
    """Run both sections; returns the JSON-able record."""
    return {
        "experiment": "e18_sublinear_tail",
        "shape": {**DEFAULT_SHAPE, **shape},
        "repeats": repeats,
        "parity_atol": PARITY_ATOL,
        "rows": measure_kernel(lane_counts, repeats, **shape),
        "device_rows": measure_device(device_lane_counts, **shape),
    }


def write_json(record: dict, path: str | Path | None = None) -> Path:
    """Write the bench record next to the repo root (the trajectory file)."""
    if path is None:
        path = Path(__file__).resolve().parent.parent / "BENCH_e18.json"
    path = Path(path)
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return path


# -- pytest entry points ----------------------------------------------------

@pytest.fixture(scope="module")
def record():
    return measure()


def test_group_path_parity_within_documented_tolerance(record):
    for r in record["rows"]:
        assert r["max_abs_err"] <= PARITY_ATOL


def test_speedup_at_64_lanes(record):
    """The acceptance bar: ≥ 2x vs the lane path at L=64."""
    row = next(r for r in record["rows"] if r["n_layers"] == 64)
    assert row["speedup"] >= 2.0, (
        f"sublinear path gained only {row['speedup']:.2f}x over the lane "
        "path at L=64 (bar is 2x)"
    )


def test_one_stacked_upload_per_device_batch(record):
    for r in record["device_rows"]:
        assert r["stack_uploads"] == r["n_batches"]
        assert r["yet_uploads"] == r["n_chunks_total"]


def test_report(record):
    """Emit the tables and the JSON trajectory file."""
    write_json(record)
    print()
    print(f"{'L':>4} {'lane':>11} {'group':>11} {'speedup':>8} "
          f"{'group Ml/s':>11} {'max err':>9}")
    for r in record["rows"]:
        print(f"{r['n_layers']:>4} {r['lane_seconds']*1e3:>9.1f}ms "
              f"{r['group_seconds']*1e3:>9.1f}ms {r['speedup']:>7.2f}x "
              f"{r['group_lanes_per_s']/1e6:>10.1f} "
              f"{r['max_abs_err']:>9.1e}")
    print()
    print(f"{'L':>4} {'batches':>8} {'stack ups':>10} {'vs per-layer':>13} "
          f"{'yet ups':>8}")
    for r in record["device_rows"]:
        print(f"{r['n_layers']:>4} {r['n_batches']:>8} "
              f"{r['stack_uploads']:>10} "
              f"{r['per_layer_uploads_would_be']:>13} {r['yet_uploads']:>8}")
