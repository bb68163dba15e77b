"""E11 — scaling ablations (the companion study's evaluation shapes).

[7] reports runtime scaling with events per trial and ELTs per layer.
``run_e11_ablations`` regenerates both series; the growth with
events/trial (the occurrence-stream length) is the shape that matters,
and the merged-lookup design makes ELT count nearly free.
"""

from repro.bench.workloads import build_layer_workload

from experiment import (ExperimentReport, bound_analysis, format_seconds,
                        time_call)


def run_e11_ablations(n_trials: int = 10_000) -> ExperimentReport:
    """E11: runtime is linear in events/trial and in ELTs/layer (the
    scaling shapes of the companion study's evaluation)."""
    report = ExperimentReport(
        "E11",
        "runtime scales linearly in events/trial and ELTs/layer",
        ["sweep", "value", "wall time", "time per 1k trials"],
    )
    times, by_event = {}, {}
    for epk in (250, 500, 1000, 2000):
        wl = build_layer_workload(
            n_trials=n_trials, mean_events_per_trial=float(epk),
            n_elts=4, elt_rows=8_000, catalog_events=50_000, seed=31,
        )
        with bound_analysis(wl) as session:
            t, _ = time_call(lambda: session.aggregate(engine="vectorized"), repeats=2, warmup=1)
        times["events", epk] = t
        report.add_row("events/trial", epk, format_seconds(t),
                       format_seconds(t / (n_trials / 1000)))
    for n_elts in (1, 4, 8, 16):
        wl = build_layer_workload(
            n_trials=n_trials, mean_events_per_trial=1000.0,
            n_elts=n_elts, elt_rows=8_000, catalog_events=50_000, seed=31,
        )
        with bound_analysis(wl) as session:
            t, res = time_call(lambda: session.aggregate(engine="vectorized"), repeats=2, warmup=1)
        times["elts", n_elts] = t
        by_event[n_elts] = res.details["routed"]["kernel.lane_rows.by_event"] > 0
        report.add_row("ELTs/layer", n_elts, format_seconds(t),
                       format_seconds(t / (n_trials / 1000)))
    report.figures.update(
        events_2000_over_250=times["events", 2000] / times["events", 250],
        elts_16_over_8=times["elts", 16] / times["elts", 8],
    )
    report.add_note(
        "per-layer cost is dominated by the occurrence stream length "
        "(events/trial); the merged-lookup design makes ELT count nearly "
        "free after the merge (8 -> 16 ELTs), matching [7]'s observation "
        "that the ELT pass is memory-bound"
    )
    report.add_note(
        "the layer reads only its covered events' occurrences through the "
        f"event index at {[n for n, e in by_event.items() if e]} ELTs and "
        f"streams every occurrence at {[n for n, e in by_event.items() if not e]}"
        " — the coverage step the ELT sweep shows"
    )
    return report


def test_e11_ablations(benchmark):
    report = benchmark.pedantic(run_e11_ablations, rounds=1, iterations=1)
    print(report.render())
    # 8x the occurrences costs well over twice the time; twice the ELTs
    # over the same stream costs less than twice the time.
    assert report.figures["events_2000_over_250"] > 2.0
    assert report.figures["elts_16_over_8"] < 2.0
