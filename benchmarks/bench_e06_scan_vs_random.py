"""E6 — scan-oriented access vs traditional random access.

Paper claim (§II): "Traditional database management techniques do not
fit the requirements of this stage as data needs to be scanned over
rather than randomly access data."  ``run_e06_scan_vs_random`` runs the
same YET-to-ELT join as (a) key-at-a-time probes of a B+-tree row store
and (b) a vectorised gather over the columnar lookup; its report shows
the gap.
"""

import numpy as np

from repro.core.lookup import LossLookup
from repro.core.tables import EltTable
from repro.data.rdbms import RowStore
from repro.util.rng import RngHierarchy

from experiment import ExperimentReport, format_seconds, time_call


def run_e06_scan_vs_random(n_occurrences: int = 200_000,
                           elt_rows: int = 20_000) -> ExperimentReport:
    """E6: the same join executed as an indexed random-access plan (row
    store + B+-tree) and as a columnar scan/gather plan."""
    report = ExperimentReport(
        "E6",
        "data must be scanned over, not randomly accessed: columnar scan "
        "vs B+-tree row store on the YET-to-ELT join",
        ["plan", "wall time", "logical I/O", "throughput (occ/s)"],
    )
    rng = RngHierarchy(17)
    elt = EltTable.from_arrays(
        np.arange(elt_rows, dtype=np.int64),
        rng.generator("losses").lognormal(12.0, 1.2, elt_rows),
    )
    # Random event stream hitting the ELT (the YET's event column).
    occurrences = rng.generator("occ").integers(0, elt_rows, size=n_occurrences)

    # Plan A: traditional row store, key-at-a-time.
    store = RowStore(elt.table.schema, key="event_id", page_rows=128)
    store.bulk_load(elt.table)
    store.stats.reset()

    def plan_a():
        return float(store.get_many(occurrences, "mean_loss").sum())

    t_a, total_a = time_call(plan_a, repeats=1, warmup=0)
    io_a = f"{store.stats.page_reads:,} page reads + {store.index_node_visits:,} index nodes"

    # Plan B: columnar scan -> vectorised gather.
    lookup = LossLookup.from_elt(elt)

    def plan_b():
        return float(lookup(occurrences).sum())

    t_b, total_b = time_call(plan_b, repeats=3, warmup=1)
    assert abs(total_a - total_b) <= 1e-12 * abs(total_a), \
        "plans must agree on the answer"

    report.add_row("B+-tree random access", format_seconds(t_a), io_a,
                   f"{n_occurrences / t_a:,.0f}")
    report.add_row("columnar scan + gather", format_seconds(t_b),
                   f"{elt_rows:,} rows streamed once",
                   f"{n_occurrences / t_b:,.0f}")
    report.figures["scan_speedup"] = t_a / t_b
    report.add_note(f"scan plan is {t_a / t_b:,.0f}x faster at {n_occurrences:,} occurrences")
    return report


def test_e06_scan_vs_random(benchmark):
    report = benchmark.pedantic(run_e06_scan_vs_random, rounds=1, iterations=1)
    print(report.render())
    assert report.figures["scan_speedup"] > 1.0
