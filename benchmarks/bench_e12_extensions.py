"""E12 (extensions) — ablations of the paper's optional machinery.

Not claims from the paper text, but the design choices DESIGN.md calls
out, measured: sampled-mode vs expected-mode analysis cost, the
reinstatement pass, out-of-core streaming vs in-memory, and compressed
vs raw chunk storage for the YET.
"""

import numpy as np
import pytest

from repro.core import (OutOfCoreEngine, StoredYet,
                        sampled_aggregate_analysis)
from repro.core.reinstatements import apply_reinstatement_limit
from repro.core.simulation import AggregateAnalysis
from repro.data.compression import (
    compression_ratio,
    pack_table_compressed,
    unpack_table_compressed,
)
from repro.data.serialization import pack_table
from repro.data.store import ChunkStore
from repro.util.rng import RngHierarchy


@pytest.fixture(scope="module")
def analysis(study_20k):
    return AggregateAnalysis(study_20k.portfolio, study_20k.yet)


def test_expected_mode(benchmark, analysis):
    res = benchmark(lambda: analysis.run("vectorized"))
    assert res.portfolio_ylt.n_trials == 20_000


def test_sampled_mode(benchmark, study_20k):
    """Sampled-mode costs one extra RNG pass per occurrence."""
    rng = RngHierarchy(55)
    gen = rng.generator("sampling")
    ylts = benchmark(
        lambda: sampled_aggregate_analysis(study_20k.portfolio,
                                           study_20k.yet, gen)
    )
    assert next(iter(ylts.values())).n_trials == 20_000


def test_reinstatement_pass(benchmark, study_20k):
    res = AggregateAnalysis(study_20k.portfolio, study_20k.yet).run(
        "vectorized", emit_yelt=True
    )
    layer = study_20k.portfolio.layers[0]
    yelt = res.yelt_by_layer[layer.layer_id]
    limited = benchmark(
        lambda: apply_reinstatement_limit(yelt, layer.terms.occ_limit, 2)
    )
    assert limited.n_rows == yelt.n_rows


def test_out_of_core_stream(benchmark, study_20k, tmp_path_factory):
    store = ChunkStore(tmp_path_factory.mktemp("ooc"))
    store.write_table("yet", study_20k.yet.table, rows_per_chunk=500_000)
    stored = StoredYet(store, "yet", study_20k.yet.n_trials)
    with OutOfCoreEngine() as engine:
        res = benchmark.pedantic(
            lambda: engine.run(study_20k.portfolio, stored),
            rounds=2, iterations=1,
        )
    ref = AggregateAnalysis(study_20k.portfolio, study_20k.yet).run("vectorized")
    np.testing.assert_array_equal(res.portfolio_ylt.losses,
                                  ref.portfolio_ylt.losses)


def test_yet_pack_raw(benchmark, study_20k):
    payload = benchmark(lambda: pack_table(study_20k.yet.table.slice(0, 2_000_000)))
    assert len(payload) > 0


def test_yet_pack_compressed(benchmark, study_20k):
    chunk = study_20k.yet.table.slice(0, 2_000_000)
    payload = benchmark(lambda: pack_table_compressed(chunk))
    assert unpack_table_compressed(payload).n_rows == chunk.n_rows


def test_yet_compression_ratio(study_20k):
    """The sorted YET must compress meaningfully (the §III 'large but
    not enormous' memory argument)."""
    chunk = study_20k.yet.table.slice(0, 500_000)
    assert compression_ratio(chunk) > 1.5
