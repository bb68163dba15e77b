"""E1/E2 — table size laws and the YELT materialisation cost.

Paper claims (§II): the YELLT at 10⁴ contracts × 10⁵ events × 10³
locations × 5×10⁴ trials has (over) 5×10¹⁶ entries; the YELT is ~1000×
smaller than the YELLT and ~1000× larger than the YLT.  The analytic law
is asserted, and a materialised run measures the YELT/YLT ratio; the
numbers are the table of the report ``run_e01_table_sizes`` returns.
"""

import pytest

from repro.bench.workloads import companion_study_workload
from repro.core import YelltModel
from repro.session import RiskSession
from repro.util.tables import format_bytes, format_count

from experiment import ExperimentReport


def run_e01_table_sizes(n_trials: int = 2_000) -> ExperimentReport:
    """E1/E2: YELLT > 5e16 entries at paper scale; YELT/YELLT and YLT/YELT
    ratios of ~1000x, checked analytically and on a materialised run."""
    report = ExperimentReport(
        "E1/E2",
        "YELLT has >5e16 entries at paper scale; YELT ~1000x smaller than "
        "YELLT and ~1000x bigger than YLT",
        ["table", "accounting", "entries", "bytes @8B", "ratio to next"],
    )
    model = YelltModel.paper_scale()
    yellt = model.yellt_entries()
    yelt = model.yelt_entries()
    ylt = model.ylt_entries()
    report.add_row("YELLT", "paper cross-product", format_count(yellt),
                   format_bytes(model.bytes_at(yellt)), f"{yellt / yelt:.0f}x YELT")
    report.add_row("YELT", "paper cross-product", format_count(yelt),
                   format_bytes(model.bytes_at(yelt)), f"{yelt / ylt:.0f}x YLT")
    report.add_row("YLT", "paper cross-product", format_count(ylt),
                   format_bytes(model.bytes_at(ylt)), "-")
    # The paper says "over 5x10^16"; its own parameters give exactly 5e16.
    assert yellt >= 5e16, "paper-scale YELLT must reach 5e16 entries"
    report.figures["yellt_entries"] = yellt
    ratios = model.ratios()
    assert ratios["yellt_over_yelt"] == pytest.approx(1000.0)
    assert ratios["yelt_over_ylt"] == pytest.approx(1000.0)

    # Materialised check at bench scale: the YELT/YLT ratio equals the
    # realised mean events per trial.
    wl = companion_study_workload(n_trials=n_trials)
    with RiskSession(wl.yet, wl.portfolio) as session:
        res = session.aggregate(engine="vectorized", emit_yelt=True)
    yelt_rows = res.yelt_rows()
    ylt_rows = res.portfolio_ylt.n_trials
    # Coverage of the catalogue by the layer's ELTs trims ~7% off the
    # 1000 events/trial.
    assert 700 <= yelt_rows / ylt_rows <= 1100
    report.figures["yelt_over_ylt"] = yelt_rows / ylt_rows
    report.add_row("YELT (materialised)", f"{n_trials} trials run",
                   format_count(yelt_rows), format_bytes(yelt_rows * 24),
                   f"{yelt_rows / ylt_rows:.0f}x YLT")
    report.add_row("YLT (materialised)", f"{n_trials} trials run",
                   format_count(ylt_rows), format_bytes(ylt_rows * 16), "-")
    report.add_note(
        f"materialised YELT/YLT ratio = {yelt_rows / ylt_rows:.0f} "
        f"(driven by ~{wl.yet.mean_events_per_trial():.0f} events/trial; "
        "paper quotes 'generally 1000 times')"
    )
    report.add_note(
        "YELLT at paper scale is "
        f"{format_bytes(model.bytes_at(yellt))} — §II's point that existing "
        "tools cannot analyse at YELLT level"
    )
    return report


def test_e01_table_sizes(benchmark):
    report = benchmark.pedantic(run_e01_table_sizes, rounds=1, iterations=1)
    print(report.render())
    assert report.figures["yellt_entries"] >= 5e16
    assert 700 <= report.figures["yelt_over_ylt"] <= 1100
