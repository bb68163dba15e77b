"""E8 — stage-1 (risk modelling) throughput.

Paper claim (§II): "in the first stage less than ten processors may be
sufficient to handle the data".  ``run_e08_stage1_pipeline`` measures the
streamed event×exposure pipeline and derives, from the measured rate,
the processors paper scale needs on a weekly deadline (the last row of
the report it returns; it comes out at 1).
"""

from repro.catmod import (
    CatModPipeline,
    assign_contracts,
    generate_catalog,
    generate_exposure,
    standard_perils,
)
from repro.catmod.geography import Region
from repro.hpc.cost_model import PipelineCostModel, StageSpec
from repro.util.rng import RngHierarchy

from experiment import WEEK_SECONDS, ExperimentReport, format_seconds


def run_e08_stage1_pipeline(n_events: int = 1_000, n_sites: int = 5_000,
                            n_contracts: int = 20) -> ExperimentReport:
    """E8: risk-modelling throughput and the processors needed at paper
    scale (the '<10 processors' stage)."""
    report = ExperimentReport(
        "E8",
        "stage 1 streams event-exposure pairs; fewer than ten processors suffice",
        ["quantity", "value"],
    )
    rng = RngHierarchy(19)
    region = Region(25.0, 33.0, -98.0, -80.0)
    perils = standard_perils()
    catalog = generate_catalog(perils, region, n_events, rng.generator("catalog"))
    exposure = generate_exposure(region, n_sites, rng.generator("exposure"))
    contracts = assign_contracts(exposure, n_contracts, rng.generator("contracts"))
    pipeline = CatModPipeline(perils)
    elts, stats = pipeline.run(catalog, exposure, contracts)
    assert len(elts) == n_contracts
    assert stats.event_site_pairs == n_events * n_sites

    report.add_row("events processed", f"{stats.n_events:,}")
    report.add_row("exposure sites", f"{stats.n_sites:,}")
    report.add_row("event-site pairs", f"{stats.event_site_pairs:,}")
    report.add_row("wall time", format_seconds(stats.seconds))
    report.add_row("throughput", f"{stats.pairs_per_second:,.0f} pairs/s")
    report.add_row("ELTs produced", f"{len(elts)} (non-empty: "
                   f"{sum(1 for e in elts if e.mean_losses.sum() > 0)})")

    # Processors needed at paper scale (100k events x 1M sites, weekly).
    paper_pairs = 100_000 * 1_000_000
    model = PipelineCostModel([
        StageSpec("risk modelling", work_items=paper_pairs,
                  throughput_per_proc=stats.pairs_per_second),
    ])
    req = model.procs_for_deadline("risk modelling", WEEK_SECONDS)
    report.add_row("procs for paper scale, weekly deadline", str(req.n_procs))
    report.figures["paper_scale_procs"] = req.n_procs
    report.add_note(
        f"{req.n_procs} processor(s) needed vs paper's 'less than ten "
        "processors may be sufficient'"
    )
    assert req.feasible and req.n_procs < 10, "stage 1 should need <10 processors"
    return report


def test_e08_stage1_pipeline(benchmark):
    report = benchmark.pedantic(run_e08_stage1_pipeline, rounds=1, iterations=1)
    print(report.render())
    assert report.figures["paper_scale_procs"] < 10
