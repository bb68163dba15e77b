"""E9 — the processor-burst profile across pipeline stages.

Paper claim (§II): "While in the first stage less than ten processors
may be sufficient to handle the data, in the second and third stages
thousands or even tens of thousands of processors need to be put
together" — the elastic demand that makes cloud provisioning attractive.
``run_e09_burst_elasticity`` calibrates a cost model from single-core
rates measured on this machine and reports the processors each stage
needs at paper scale, the burst factor, and the fixed-vs-elastic
node-hours.
"""

from repro.bench.workloads import companion_study_workload
from repro.catmod import (
    CatModPipeline,
    assign_contracts,
    generate_catalog,
    generate_exposure,
    standard_perils,
)
from repro.catmod.geography import Region
from repro.core import YltTable
from repro.dfa import combine_ylts
from repro.hpc.cost_model import PipelineCostModel, StageSpec
from repro.hpc.elasticity import DemandPhase, compare_provisioning
from repro.util.rng import RngHierarchy
from repro.util.tables import format_count

from experiment import (WEEK_SECONDS, ExperimentReport, bound_analysis,
                        format_seconds, time_call)


def run_e09_burst_elasticity(measure_trials: int = 20_000) -> ExperimentReport:
    """E9: processors per stage at paper scale — the burst profile that
    motivates elastic (cloud) provisioning."""
    report = ExperimentReport(
        "E9",
        "stage 1 needs <10 processors; stages 2-3 need thousands to tens "
        "of thousands — the burst that makes elasticity attractive",
        ["stage", "work items", "deadline", "processors needed", "runtime @P"],
    )
    rng = RngHierarchy(23)

    # Measured single-core throughputs.
    region = Region(25.0, 33.0, -98.0, -80.0)
    perils = standard_perils()
    catalog = generate_catalog(perils, region, 400, rng.generator("catalog"))
    exposure = generate_exposure(region, 2_000, rng.generator("exposure"))
    contracts = assign_contracts(exposure, 8, rng.generator("contracts"))
    _, s1_stats = CatModPipeline(perils).run(catalog, exposure, contracts)
    s1_rate = s1_stats.pairs_per_second

    wl = companion_study_workload(n_trials=measure_trials)
    with bound_analysis(wl) as session:
        t_vec, _ = time_call(lambda: session.aggregate(engine="vectorized"), repeats=2, warmup=1)
    s2_rate = wl.yet.n_occurrences / t_vec  # occurrence-lookups/s/proc

    # A 2012-era production core runs scalar code: measure the sequential
    # engine's per-core rate on a smaller slice of the same workload.
    wl_seq = companion_study_workload(n_trials=max(200, measure_trials // 50))
    with bound_analysis(wl_seq) as session:
        t_seq, _ = time_call(lambda: session.aggregate(engine="sequential"),
                             repeats=1, warmup=0)
    s2_rate_scalar = wl_seq.yet.n_occurrences / t_seq

    ylts = [YltTable(rng.generator(f"y{i}").lognormal(13, 1, measure_trials))
            for i in range(8)]
    t_comb, _ = time_call(lambda: combine_ylts(ylts, "comonotonic"), repeats=2)
    s3_rate = (len(ylts) * measure_trials) / t_comb  # rows/s/proc

    # Paper-scale work volumes.
    s1_work = 100_000 * 1_000_000               # events x locations/sites
    s2_work = 50_000 * 1_000.0 * 10_000         # trials x ev/trial x contracts
    s3_work = 50_000 * 10_000.0 * 20            # trials x YLTs x rework factor

    model = PipelineCostModel([
        StageSpec("1: risk modelling", s1_work, s1_rate,
                  comm_overhead_per_proc_s=1.0),
        StageSpec("2: portfolio risk (vector core)", s2_work, s2_rate,
                  comm_overhead_per_proc_s=0.05),
        StageSpec("2: portfolio risk (scalar core)", s2_work, s2_rate_scalar,
                  comm_overhead_per_proc_s=0.001),
        StageSpec("3: DFA (real-time)", s3_work, s3_rate,
                  comm_overhead_per_proc_s=0.05),
    ])
    deadlines = {
        "1: risk modelling": WEEK_SECONDS,
        "2: portfolio risk (vector core)": 60.0,
        "2: portfolio risk (scalar core)": 60.0,
        "3: DFA (real-time)": 60.0,
    }
    reqs = model.burst_profile(deadlines)
    for req in reqs:
        spec = model.stage(req.stage)
        report.add_row(
            req.stage, format_count(spec.work_items),
            format_seconds(req.deadline_seconds),
            f"{req.n_procs:,}" + ("" if req.feasible else " (infeasible)"),
            format_seconds(req.runtime_seconds),
        )
    counts = [r.n_procs for r in reqs]
    report.add_note(
        f"burst factor (max/min processors) = {max(counts) / min(counts):,.0f}x "
        "— the elastic demand profile of §II"
    )

    # Translate the burst into the §II cloud-economics argument.
    scalar_req = next(r for r in reqs if "scalar" in r.stage)
    s1_req = next(r for r in reqs if "risk modelling" in r.stage)
    report.figures.update(stage1_procs=s1_req.n_procs,
                          stage2_scalar_procs=scalar_req.n_procs,
                          burst_factor=max(counts) / min(counts))
    week = [
        DemandPhase("stage1", s1_req.n_procs, s1_req.runtime_seconds / 3600.0),
        DemandPhase("stage2", scalar_req.n_procs, 1.0),
        DemandPhase("stage3", reqs[-1].n_procs, 0.5),
        DemandPhase("idle", 0, max(0.0, 168.0 - s1_req.runtime_seconds / 3600.0 - 1.5)),
    ]
    plans = compare_provisioning(week)
    report.add_note(
        f"provisioning a week at peak ({plans['fixed'].node_hours:,.0f} "
        f"node-hours, {plans['fixed'].utilisation:.1%} utilised) vs elastic "
        f"({plans['elastic'].node_hours:,.0f} node-hours, "
        f"{plans['elastic'].utilisation:.1%} utilised): "
        f"{plans['fixed'].node_hours / plans['elastic'].node_hours:,.0f}x — "
        "why §II calls cloud computing attractive"
    )
    report.add_note(
        f"measured single-proc rates: stage1 {s1_rate:,.0f} pairs/s, "
        f"stage2 {s2_rate:,.0f} (vector) / {s2_rate_scalar:,.0f} (scalar) "
        f"lookups/s, stage3 {s3_rate:,.0f} rows/s"
    )
    report.add_note(
        "with 2012-era scalar cores the stage-2 real-time requirement is in "
        "the thousands-to-tens-of-thousands of processors — §II's burst"
    )
    return report


def test_e09_burst_elasticity(benchmark):
    report = benchmark.pedantic(run_e09_burst_elasticity, rounds=1, iterations=1)
    print(report.render())
    assert report.figures["stage1_procs"] < 10
    assert report.figures["stage2_scalar_procs"] >= 1_000
    assert report.figures["burst_factor"] >= 1_000
