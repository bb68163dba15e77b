"""E5 — chunking and memory-placement ablation on the simulated device.

Paper claim (§II): "The management of large data in memory employs the
notion of chunking, which is utilising shared and constant memory as
much as possible."  ``run_e05_chunking`` runs two placement variants
(lookup in global or constant memory) and a chunk-size sweep.  What it
shows is the plan: the chunk rows the planner picks, where the lookup
lands and the host-to-device traffic, all arithmetic over the kernel's
metadata and the YET's trial offsets.  Constant/shared placement is a
capacity-feasibility property (the second note of the report it
returns), and the chunk size moves no host wall time: the host sweeps
the YET once whatever the plan, so the time column is one sweep at
every size (the first note gives its spread).  Every variant prices
through the one block task, so every YLT is checked equal, not close.
"""

import numpy as np

from repro.bench.workloads import build_layer_workload
from repro.core.engines import DeviceEngine
from repro.hpc.device import DeviceProperties
from repro.util.tables import format_bytes

from experiment import (ExperimentReport, bound_analysis, format_seconds,
                        time_call)


def run_e05_chunking(n_trials: int = 20_000,
                     chunk_sizes=(50_000, 200_000, 1_000_000, None)) -> ExperimentReport:
    """E5: shared/constant-memory chunking on the simulated device.

    Workload uses a catalogue small enough that the dense lookup fits the
    64 KiB constant space, so both placement variants are reachable: the
    6k-event dense lookup (48 KB) lands in constant memory exactly when
    the variant may use it, and every variant gives the same answer.
    Every plan's shared-memory tile is one 8 B accumulator per row of a
    48 KiB block.
    """
    report = ExperimentReport(
        "E5",
        "chunking into shared+constant memory is the key GPU optimisation",
        ["variant", "chunk rows", "lookup placement", "wall time", "h2d traffic"],
    )
    wl = build_layer_workload(
        n_trials=n_trials, mean_events_per_trial=1000.0, n_elts=4,
        elt_rows=2_000, catalog_events=6_000, seed=13,
    )

    # Memory-placement ablation at a fixed, realistic chunk size.
    variants = [
        ("naive (global)", False),
        ("constant", True),
    ]
    max_tile = DeviceProperties().shared_mem_per_block_bytes // 8
    sweep_times = []
    with bound_analysis(wl) as session:
        reference = session.aggregate(engine="vectorized").portfolio_ylt.losses

        def measured(engine, label):
            t, res = time_call(lambda: session.aggregate(engine=engine), repeats=2,
                               warmup=1)
            layer = res.details["layers"][0]
            assert np.array_equal(res.portfolio_ylt.losses, reference), label
            assert layer["rows_per_block"] <= max_tile, label
            return t, res, layer

        for label, use_constant in variants:
            t, res, layer = measured(
                DeviceEngine(max_rows_per_chunk=200_000,
                             use_constant=use_constant), label)
            in_constant = layer["lookup_in_constant"]
            assert in_constant == use_constant, label
            report.add_row(label, layer["rows_per_chunk"],
                           "constant" if in_constant else "global",
                           format_seconds(t),
                           format_bytes(res.details["h2d_bytes"]))

        # Chunk-size sweep, including the planner's unconstrained (single
        # resident chunk) plan.
        for rows in chunk_sizes:
            label = "chunk sweep" if rows is not None else "chunk sweep (planner max)"
            t, res, layer = measured(DeviceEngine(max_rows_per_chunk=rows),
                                     label)
            sweep_times.append(t)
            report.add_row(label, layer["rows_per_chunk"], "constant",
                           format_seconds(t),
                           format_bytes(res.details["h2d_bytes"]))
    report.add_note(
        f"chunk size: the chunk rows and transfers are the device plan's; "
        f"the host sweeps the YET once at every size, so each chunk-sweep "
        f"time ({format_seconds(min(sweep_times))} to "
        f"{format_seconds(max(sweep_times))}) is one whole-YET "
        "sweep, and the device's locality win does not show here"
    )
    report.add_note(
        "constant/shared placement is a *capacity feasibility* property on "
        "the simulated device (both spaces are host RAM): the planner "
        "proves the layout fits 64 KiB constant + 48 KiB shared per block, "
        "while its wall-time benefit is hardware-specific (the [7] study "
        "measured it on a real Fermi GPU)"
    )
    return report


def test_e05_chunking(benchmark):
    report = benchmark.pedantic(run_e05_chunking, rounds=1, iterations=1)
    print(report.render())
    placement = {row[0]: row[2] for row in report.rows}
    assert placement["constant"] == "constant"
    assert placement["naive (global)"] == "global"
