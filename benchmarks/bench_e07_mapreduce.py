"""E7 — aggregate analysis over large distributed file space (MapReduce).

Paper claim (§II): the second viable strategy is "accumulation of large
distributed file space ... relying on MapReduce or Hadoop style
computations".  ``run_e07_mapreduce`` runs the full job (whole-trial DFS
splits → one fused sweep per map task → shuffle → identity reduce),
checks that every layer equals the vectorized engine's, and reports the
simulated worker-count scaling (LPT makespan over the measured task
times).
"""

import numpy as np

from repro.bench.workloads import companion_study_workload
from repro.core.engines import MapReduceEngine
from repro.session import RiskSession
from repro.util.tables import format_bytes

from experiment import ExperimentReport, format_seconds


def run_e07_mapreduce(n_trials: int = 20_000, n_splits: int = 16,
                      workers=(1, 2, 4, 8, 16)) -> ExperimentReport:
    """E7: aggregate analysis as one MapReduce job over whole-trial
    splits; simulated worker scaling from its measured per-task times
    (LPT makespan): the makespan shrinks as workers are added, and 4
    workers at least halve the 1-worker time."""
    report = ExperimentReport(
        "E7",
        "MapReduce/Hadoop-style computation over large distributed file "
        "space is the second viable strategy",
        ["workers", "makespan (model)", "speedup", "efficiency"],
    )
    wl = companion_study_workload(n_trials=n_trials)
    engine = MapReduceEngine(n_splits=n_splits, n_reducers=8)
    with RiskSession(wl.yet, wl.portfolio) as session:
        res = session.aggregate(engine=engine)
        # Verify against the vectorized engine, layer by layer.
        ref = session.aggregate(engine="vectorized")
    assert all(np.array_equal(res.ylt_by_layer[lid].losses, ylt.losses)
               for lid, ylt in ref.ylt_by_layer.items()), \
        "MapReduce output mismatch"

    job = engine.last_job
    base = job.makespan(1)
    spans = [job.makespan(w) for w in workers]
    assert spans == sorted(spans, reverse=True), "makespan must shrink with workers"
    if 4 in workers:
        assert base / job.makespan(4) > 2.0, "4 workers must halve 1-worker time"
    for w, mk in zip(workers, spans):
        speedup = base / mk
        report.add_row(w, format_seconds(mk), f"{speedup:.2f}x",
                       f"{speedup / w:.2f}")
    report.figures["speedup_at_max_workers"] = base / spans[-1]
    c = job.counters
    report.add_note(
        f"one job for the whole portfolio: {n_splits} map tasks over "
        f"{c['map_input_records']:,} YET records, {engine.n_reducers} identity "
        f"reducers over {c['reduce_input_groups']:,} trial blocks; shuffle "
        f"~{format_bytes(c['shuffle_bytes'])}"
    )
    report.add_note("output verified equal to the vectorized engine")
    return report


def test_e07_mapreduce(benchmark):
    report = benchmark.pedantic(run_e07_mapreduce, rounds=1, iterations=1)
    print(report.render())
    assert report.figures["speedup_at_max_workers"] > 2.0
