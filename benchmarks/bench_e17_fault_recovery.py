"""E17 — fault recovery latency and degraded-mode throughput.

The robustness layer's claim has two measurable halves:

- **recovery latency** — a worker killed mid-batch costs one supervised
  recovery cycle (executor respawn + handle re-ship + re-execution of
  the lost trial blocks), not the batch.  The experiment times one
  pooled batch fault-free, then the same batch with a deterministic
  ``kill`` injected (:mod:`repro.hpc.faults`), and reports the delta —
  with the recovered matrix asserted **bit-identical** to the fault-free
  one, because recovery that changes answers is not recovery.
- **degraded throughput** — after the pool gives up
  (:attr:`~repro.hpc.pool.PoolHealth.degraded`), batches run serial on
  the calling thread through the *same* trial-block decomposition.  The
  experiment measures the surviving throughput so the slowdown of
  limping along is a number, not a hope — and asserts degraded answers
  are bit-identical too.

Each faulted run embeds its :meth:`~repro.hpc.faults.FaultPlan.report`
and the pool's :meth:`~repro.hpc.pool.PoolHealth.snapshot`, so the JSON
record shows exactly which injections fired and what supervision did
about them.  Written to ``BENCH_e17.json`` via
``run_tier2.py [--only e17]``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.bench.workloads import build_portfolio_workload
from repro.hpc import faults
from repro.hpc.faults import FaultPlan
from repro.serve.dispatch import PooledDispatcher

N_WORKERS = 2

#: Batch shapes.  The *medium* shape carries the acceptance assertions
#: and runs identically in both tiers so the trajectory is comparable.
SHAPES = {
    "small": dict(n_layers=4, n_trials=600, mean_events_per_trial=80.0,
                  elts_per_layer=1, elt_rows=800, catalog_events=20_000),
    "medium": dict(n_layers=8, n_trials=1_500, mean_events_per_trial=150.0,
                   elts_per_layer=1, elt_rows=1_500, catalog_events=60_000),
    "large": dict(n_layers=16, n_trials=3_000, mean_events_per_trial=250.0,
                  elts_per_layer=1, elt_rows=2_000, catalog_events=120_000),
}


def _timed(dispatcher, kernel, yet):
    t0 = time.perf_counter()
    out = dispatcher.run(kernel, yet)
    return time.perf_counter() - t0, out


def measure_row(size: str, shape: dict, repeats: int = 3) -> dict:
    wl = build_portfolio_workload(seed=17, **shape)
    kernel = wl.portfolio.kernel()

    # -- fault-free pooled baseline (warm pool, best-of) -------------------
    clean_best = float("inf")
    with PooledDispatcher(n_workers=N_WORKERS) as d:
        d.warmup(wl.yet)
        for _ in range(repeats):
            seconds, ref = _timed(d, kernel, wl.yet)
            clean_best = min(clean_best, seconds)

    # -- one injected worker kill per run (fresh pool: the fault plan
    #    keys off the pool's task ordinal, so a fresh pool makes the
    #    injection point deterministic across repeats) --------------------
    faulted_best = float("inf")
    fault_reports = []
    health_after_fault = None
    faulted_identical = True
    for _ in range(repeats):
        with PooledDispatcher(n_workers=N_WORKERS) as d:
            d.warmup(wl.yet)
            with faults.inject(FaultPlan.kill_task(0, seed=17)) as plan:
                seconds, recovered = _timed(d, kernel, wl.yet)
            faulted_best = min(faulted_best, seconds)
            faulted_identical &= bool(np.array_equal(ref, recovered))
            fault_reports.append(plan.report())
            health_after_fault = d.health.snapshot()

    # -- degraded-mode throughput (serial fallback on the caller) ---------
    degraded_best = float("inf")
    with PooledDispatcher(n_workers=N_WORKERS) as d:
        d.pool.health.degraded = True
        for _ in range(repeats):
            seconds, inline = _timed(d, kernel, wl.yet)
            degraded_best = min(degraded_best, seconds)
        degraded_identical = bool(np.array_equal(ref, inline))
        degraded_calls = d.health.snapshot()["pool.degraded_calls"]

    return {
        "size": size,
        "n_layers": shape["n_layers"],
        "n_trials": shape["n_trials"],
        "n_occurrences": wl.yet.n_occurrences,
        "clean_seconds": clean_best,
        "faulted_seconds": faulted_best,
        "recovery_overhead_seconds": faulted_best - clean_best,
        "degraded_seconds": degraded_best,
        "degraded_slowdown": (degraded_best / clean_best
                              if clean_best > 0 else 0.0),
        "degraded_batches_per_second": (1.0 / degraded_best
                                        if degraded_best > 0 else 0.0),
        "degraded_calls": degraded_calls,
        "bit_identical_after_recovery": faulted_identical,
        "bit_identical_degraded": degraded_identical,
        "worker_deaths": health_after_fault["pool.worker_deaths"],
        "retries": health_after_fault["pool.retries"],
        "executor_cycles": health_after_fault["pool.executor_cycles"],
        "fault_reports": fault_reports,
        "health_after_fault": health_after_fault,
    }


def measure(sizes=("small", "medium"), repeats: int = 3) -> dict:
    rows = [measure_row(size, SHAPES[size], repeats=repeats)
            for size in sizes]
    return {
        "experiment": "e17_fault_recovery",
        "n_workers": N_WORKERS,
        "repeats": repeats,
        "rows": rows,
    }


def write_json(record: dict, path: Path | None = None) -> Path:
    if path is None:
        path = Path(__file__).resolve().parent.parent / "BENCH_e17.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


if __name__ == "__main__":
    record = measure()
    out = write_json(record)
    print(f"wrote {out}")
    for r in record["rows"]:
        print(f"{r['size']:>7}: clean {r['clean_seconds']*1e3:.1f}ms, "
              f"faulted {r['faulted_seconds']*1e3:.1f}ms "
              f"(+{r['recovery_overhead_seconds']*1e3:.1f}ms), "
              f"degraded {r['degraded_seconds']*1e3:.1f}ms "
              f"({r['degraded_slowdown']:.2f}x), "
              f"identical={r['bit_identical_after_recovery']}")
