"""Reading result files: ``run.py --compare A B`` and ``--baseline DIR``.

``--compare``: is set B of runs the same as set A?

A and B are result files (``result*.json`` as ``run.py`` writes them) or
directories holding several.  For every workload × end-to-end metric the
sets' medians are compared under the metric's bound from
``BENCHMARK.json``:

- ``same`` / ``worse`` / ``better`` — B's median is within the bound of
  A's, or outside it in the bad or good direction;
- ``unresolved`` — the spread between a set's own runs (distance between
  its quartiles over its median) is wider than the bound: the sets
  cannot tell noise from change.  Never read this as "same".  The one
  exception: every run of B reads better than every run of A.

The widest reference-loop spread of any run is printed per workload.  It
does not gate the verdict — every timing is paired with readings taken
within milliseconds of it, so a wandering host is what the design
absorbs — but it explains a set whose own runs disagree.

``--baseline DIR`` re-records ``baseline.json`` from the runs under DIR:
per workload and phase the reference loops' nominal readings (medians
of the raw readings) and the share of the phase that follows the compute
loop, then every run's metrics at that reference, and per workload ×
metric the median, quartiles and spread over runs.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import numpy as np


def load_set(path: Path) -> list[dict]:
    files = sorted(path.rglob("result*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"no result*.json under {path}")
    return [json.loads(f.read_text(encoding="utf-8")) for f in files]


def values_of(runs: list[dict], workload: str, metric: str) -> list[float]:
    return [run["workloads"][workload]["metrics"][metric]
            for run in runs if workload in run["workloads"]]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0     # sign * value: lower wins
    qa, qb = quartiles(a), quartiles(b)
    if max(spread(a), spread(b)) > bound:
        if max(sign * v for v in b) < min(sign * v for v in a):
            return "better"
        return "unresolved"
    worse_by = sign * (qb[1] - qa[1]) / qa[1]
    if worse_by > bound:
        return "worse"
    return "better" if worse_by < -bound else "same"


def compare(spec: dict, path_a: Path, path_b: Path) -> int:
    """Print the verdict table; exit code 1 if anything got worse."""
    set_a, set_b = load_set(path_a), load_set(path_b)
    print(f"A: {len(set_a)} run(s) from {path_a}; "
          f"B: {len(set_b)} run(s) from {path_b}")
    print(f"{'workload/metric':44s} {'verdict':10s} "
          f"{'A q1 / median / q3':>34s} {'B q1 / median / q3':>34s}")
    any_worse = False
    for workload in (w["name"] for w in spec["workloads"]):
        ref_spreads = [run["workloads"][workload]["ref_spread"]
                       for run in (*set_a, *set_b)
                       if workload in run["workloads"]]
        if ref_spreads:
            print(f"{workload}: widest reference-loop spread within a run "
                  f"{max(ref_spreads):.3f}")
        for metric in spec["end_to_end"]:
            a = values_of(set_a, workload, metric["name"])
            b = values_of(set_b, workload, metric["name"])
            if not a or not b:
                continue
            result = verdict(a, b, metric["better"], metric["bound"])
            any_worse |= result == "worse"

            def fmt(values):
                return " / ".join(f"{q:10.4f}" for q in quartiles(values))

            print(f"{workload + '/' + metric['name']:44s} {result:10s} "
                  f"{fmt(a):>34s} {fmt(b):>34s}")
    return 1 if any_worse else 0


def block_medians(rows: list[tuple], size: int) -> list[tuple]:
    """Column medians of consecutive blocks of ``size`` rows."""
    return [tuple(statistics.median(column) for column in zip(*block))
            for block in (rows[i:i + size]
                          for i in range(0, len(rows) - size + 1, size))]


def fit_phase(points: list[tuple], previous: dict) -> dict:
    """The reference of one phase from ``(compute_ms, memory_ms,
    timing)`` points: the loops' nominal readings (medians) and the
    share of the timing that follows the compute loop — least squares of
    ``timing = a * compute + b * memory`` over readings relative to
    nominal, ``share = a / (a + b)``.  The share is kept as it was when
    the two loops never parted by a twentieth: then nothing tells them
    apart."""
    compute, memory, timing = (np.asarray(c, dtype=float)
                               for c in zip(*points))
    nominal = {"compute_ms": float(np.median(compute)),
               "memory_ms": float(np.median(memory))}
    rel = np.column_stack([compute / nominal["compute_ms"],
                           memory / nominal["memory_ms"]])
    if np.ptp(rel[:, 0] - rel[:, 1]) < 0.05:
        return {**nominal, "compute_share": previous["compute_share"]}
    a, b = np.maximum(np.linalg.lstsq(rel, timing, rcond=None)[0], 0.0)
    return {**nominal, "compute_share": float(a / (a + b))}


def record_baseline(spec: dict, runs_dir: Path, out: Path, rescale) -> int:
    """Write ``baseline.json`` from the result (and trace) files under
    ``runs_dir``.  ``rescale`` is ``run.rescale``."""
    runs = load_set(runs_dir)
    previous = json.loads(out.read_text(encoding="utf-8"))["reference"]
    # The probes' reference: the loops as the traced runs under DIR read
    # them (kept as it was when there are none), shares fixed at a half.
    traces = [json.loads(f.read_text(encoding="utf-8"))["per_layer"]
              for f in sorted(runs_dir.rglob("trace-*.json"))]
    reference = {"probes": {
        "compute_ms": statistics.median(
            t["host.ref1_compute_ms"] for t in traces),
        "memory_ms": statistics.median(t["host.ref1_ms"] for t in traces),
        "compute_share": 0.5,
    } if traces else previous["probes"]}
    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        per_run = [run["workloads"][workload]["rounds"]
                   for run in runs if workload in run["workloads"]]
        if not per_run:
            continue
        rounds = [r for records in per_run for r in records]
        # Points to fit: medians of 4 consecutive set-up cycles and of 20
        # consecutive requests (less their timer part), with the medians
        # of the readings beside them.
        points = {"setup": [], "segment": []}
        for r in rounds:
            points["setup"] += block_medians(
                [(c, m, s * 1e3) for (c, m), s
                 in zip(r["setup_ref_ms"], r["setup_cycles_s"])], 4)
            points["segment"] += block_medians(
                [(c, m, t - r["timer_ms"]) for (c, m), t
                 in zip(r["local_ref_ms"], r["latencies_ms"])], 20)
        reference[workload] = {
            phase: fit_phase(points[phase], previous[workload][phase])
            for phase in points}
        values = [[rescale(r, reference) for r in records]
                  for records in per_run]
        metrics = {}
        for metric in (m["name"] for m in spec["end_to_end"]):
            over_runs = [statistics.median(v[metric] for v in run)
                         for run in values]
            q1, q2, q3 = quartiles(over_runs)
            metrics[metric] = {"median": q2, "q1": q1, "q3": q3,
                               "spread": spread(over_runs)}
        workloads[workload] = {
            "runs": len(per_run),
            "seeds": sorted({r["seed"] for r in rounds}),
            "rounds_per_run": len(per_run[0]),
            "failed": sum(r["failed"] for r in rounds),
            "all_checks_and_proofs_pass": all(
                all({**r["checks"], **r["proofs"]}.values()) for r in rounds),
            "metrics": metrics,
        }
    out.write_text(json.dumps({
        "claim": None,
        "host": runs[0]["host"],
        "segment_s": runs[0]["segment_s"],
        "setup_cycles": runs[0]["setup_cycles"],
        "reference": reference,
        "workloads": workloads,
    }, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out} from {len(runs)} run(s)")
    return 0
