"""E10 — DFA risk integration, PML/TVaR, and warehouse pre-computation.

Paper claims (§II): the DFA stage combines catastrophe YLTs with the six
named non-cat risks; PML and TVaR are the derived metrics; and because
the data must be scanned, "pre-computation techniques such as in
parallel data warehousing can be applied".  ``run_e10_dfa_metrics``
reports the metrics under four dependence models and the warehouse
slice query against its recomputation.
"""

import numpy as np
import pytest

from repro.bench.workloads import (
    companion_study_workload,
    dfa_workload,
    warehouse_fact_table,
)
from repro.data.warehouse import LossCube
from repro.dfa import RiskMetrics, combine_ylts
from repro.dfa.correlation import GaussianCopula
from repro.session import RiskSession
from repro.util.rng import RngHierarchy
from repro.util.tables import format_bytes

from experiment import ExperimentReport, format_seconds, time_call


def run_e10_dfa_metrics(n_trials: int = 50_000) -> ExperimentReport:
    """E10: integrate the cat YLT with the six §II risk sources, derive
    PML/TVaR, and show warehouse pre-aggregation beating recomputation."""
    report = ExperimentReport(
        "E10",
        "DFA combines YLTs of many risks; PML and TVaR are derived; "
        "pre-computation (parallel warehousing) applies",
        ["quantity", "trial_aligned", "independent", "copula(0.3)", "comonotonic"],
    )
    rng = RngHierarchy(29)
    wl = companion_study_workload(n_trials=n_trials)
    with RiskSession(wl.yet, wl.portfolio) as session:
        cat = session.aggregate(engine="vectorized").portfolio_ylt
    sources = dfa_workload(cat)
    ylts = [cat] + [s.ylt for s in sources]
    k = len(ylts)

    combos = {
        "trial_aligned": combine_ylts(ylts, "trial_aligned"),
        "independent": combine_ylts(ylts, "independent", rng=rng.generator("ind")),
        "copula(0.3)": combine_ylts(
            ylts, "copula",
            correlation=GaussianCopula.uniform(k, 0.3).correlation,
            rng=rng.generator("cop"),
        ),
        "comonotonic": combine_ylts(ylts, "comonotonic"),
    }
    metrics = {name: RiskMetrics.from_ylt(y) for name, y in combos.items()}
    for m in metrics.values():
        m.check_coherence()

    def row(label, getter):
        report.add_row(label, *(f"{getter(metrics[n]):,.0f}" for n in
                                ("trial_aligned", "independent", "copula(0.3)",
                                 "comonotonic")))

    row("mean annual loss", lambda m: m.mean)
    row("PML 100y", lambda m: m.pml[100.0])
    row("PML 250y", lambda m: m.pml[250.0])
    row("VaR 99%", lambda m: m.var[0.99])
    row("TVaR 99%", lambda m: m.tvar[0.99])

    tv = {n: metrics[n].tvar[0.99] for n in metrics}
    assert tv["comonotonic"] >= tv["independent"] - 1e-6, \
        "comonotonic tail must dominate independent"
    assert tv["comonotonic"] >= tv["copula(0.3)"] >= tv["independent"] * 0.99, \
        "TVaR99 must order comonotonic >= copula(0.3) >= independent"
    report.add_note(
        "dependence ordering holds: comonotonic >= copula(0.3) >= independent "
        "at TVaR99 (up to MC noise)"
    )

    # Warehouse pre-aggregation vs recompute (scan of the fact table).
    facts = warehouse_fact_table(n_trials=10_000, rows_per_trial=20)
    t_build, cube = time_call(
        lambda: LossCube(facts, dims=("lob", "region", "peril"), n_trials=10_000),
        repeats=1, warmup=0,
    )
    t_query, pml = time_call(lambda: cube.pml(250.0, {"lob": 1}), repeats=3)

    def recompute():
        mask = facts["lob"] == 1
        losses = np.zeros(10_000)
        np.add.at(losses, facts["trial"][mask], facts["loss"][mask])
        return float(np.quantile(losses, 1 - 1 / 250.0))

    t_scan, expect = time_call(recompute, repeats=3)
    assert pml == pytest.approx(expect, rel=1e-12), "cube must match recompute"
    report.figures["cube_query_speedup"] = t_scan / t_query
    report.add_note(
        f"warehouse: cube build {format_seconds(t_build)} ({cube.n_cells} cells, "
        f"{format_bytes(cube.nbytes)}); slice PML query {format_seconds(t_query)} "
        f"vs {format_seconds(t_scan)} recompute — {t_scan / t_query:.1f}x"
    )
    return report


def test_e10_dfa_metrics(benchmark):
    report = benchmark.pedantic(run_e10_dfa_metrics,
                                kwargs=dict(n_trials=20_000),
                                rounds=1, iterations=1)
    print(report.render())
    assert report.figures["cube_query_speedup"] > 1.0
