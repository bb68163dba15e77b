"""E12 (extensions) — ablations of the reproduction's optional machinery.

Not claims from the paper text, but the design choices around them,
measured: sampled-mode vs expected-mode analysis cost, the reinstatement
pass, out-of-core streaming vs in-memory, and compressed vs raw chunk
storage for the YET — the rows of the report ``run_e12_extensions``
returns.
"""

import tempfile

import numpy as np

from repro.bench.workloads import companion_study_workload
from repro.core import StoredYet, sampled_aggregate_analysis
from repro.core.engines import VectorizedEngine
from repro.core.reinstatements import apply_reinstatement_limit
from repro.data.compression import pack_table_compressed, unpack_table_compressed
from repro.data.serialization import pack_table
from repro.data.store import ChunkStore
from repro.util.rng import RngHierarchy
from repro.util.tables import format_bytes

from experiment import (ExperimentReport, bound_analysis, format_seconds,
                        time_call)


def run_e12_extensions(n_trials: int = 20_000, rows_per_chunk: int = 500_000,
                       pack_rows: int = 2_000_000) -> ExperimentReport:
    """E12: what sampled mode, reinstatements, out-of-core streaming and
    chunk compression cost on the companion-study layer.  The stored
    YET must give the in-memory answer exactly, and the trial-sorted YET
    must compress by more than 1.5x."""
    report = ExperimentReport(
        "E12",
        "extensions: sampled mode, reinstatements, out-of-core streaming "
        "and chunk compression, against the in-memory expected-mode run",
        ["extension", "variant", "wall time", "size"],
    )
    wl = companion_study_workload(n_trials=n_trials)
    occurrences = f"{wl.yet.n_occurrences:,} occurrences"
    with bound_analysis(wl) as session:
        t_exp, res = time_call(lambda: session.aggregate(engine="vectorized", emit_yelt=True),
                               repeats=2, warmup=1)
    report.add_row("analysis mode", "expected (in memory)",
                   format_seconds(t_exp), occurrences)

    # Sampled mode costs one extra RNG draw per occurrence.
    gen = RngHierarchy(55).generator("sampling")
    t_samp, ylts = time_call(
        lambda: sampled_aggregate_analysis(wl.portfolio, wl.yet, gen),
        repeats=2, warmup=0,
    )
    assert next(iter(ylts.values())).n_trials == n_trials
    report.add_row("analysis mode", "sampled", format_seconds(t_samp), occurrences)
    report.figures["sampled_over_expected"] = t_samp / t_exp

    layer = wl.portfolio.layers[0]
    yelt = res.yelt_by_layer[layer.layer_id]
    t_reinst, limited = time_call(
        lambda: apply_reinstatement_limit(yelt, layer.terms.occ_limit, 2))
    assert limited.n_rows == yelt.n_rows
    report.add_row("reinstatements", "2, on one layer's YELT",
                   format_seconds(t_reinst), f"{yelt.n_rows:,} YELT rows")

    with tempfile.TemporaryDirectory() as tmp:
        store = ChunkStore(tmp)
        stored = StoredYet.write(store, "yet", wl.yet, rows_per_chunk)
        t_ooc, ooc = time_call(
            lambda: VectorizedEngine().run(wl.portfolio, stored),
            repeats=2, warmup=0)
        chunks = stored.cache_levels()["yet.store.chunks_read"]
        stored_bytes = (store.stored_bytes("yet")
                        + store.stored_bytes("yet.trial_offsets"))
    np.testing.assert_array_equal(ooc.portfolio_ylt.losses,
                                  res.portfolio_ylt.losses)
    per_occurrence = stored_bytes / wl.yet.n_occurrences
    report.figures["stored_bytes_per_occurrence"] = per_occurrence
    report.add_row("YET source", "out-of-core stream", format_seconds(t_ooc),
                   f"{chunks} whole-trial chunks of <= {rows_per_chunk:,} "
                   f"rows, {per_occurrence:.2f} B per occurrence")

    chunk = wl.yet.table.slice(0, pack_rows)
    t_raw, raw = time_call(lambda: pack_table(chunk))
    t_packed, packed = time_call(lambda: pack_table_compressed(chunk))
    assert unpack_table_compressed(packed).n_rows == chunk.n_rows
    ratio = chunk.nbytes / len(packed)
    assert ratio > 1.5, "the trial-sorted YET must compress meaningfully"
    report.add_row("YET chunk", "packed raw", format_seconds(t_raw),
                   format_bytes(len(raw)))
    report.add_row("YET chunk", "packed compressed", format_seconds(t_packed),
                   format_bytes(len(packed)))
    report.add_note(
        f"sampled mode costs {t_samp / t_exp:.1f}x expected mode; the "
        "stored YET streams to the in-memory answer exactly"
    )
    report.add_note(
        f"compressed chunk is {ratio:.1f}x smaller than the raw columns "
        f"({chunk.n_rows:,} rows) — §III's 'large but not enormous' memory"
    )
    return report


def test_e12_extensions(benchmark):
    report = benchmark.pedantic(run_e12_extensions, rounds=1, iterations=1)
    print(report.render())
    assert report.figures["sampled_over_expected"] > 1.0
