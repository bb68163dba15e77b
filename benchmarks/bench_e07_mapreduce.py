"""E7 — aggregate analysis over large distributed file space (MapReduce).

Paper claim (§II): the second viable strategy is "accumulation of large
distributed file space ... relying on MapReduce or Hadoop style
computations".  The benchmark runs the full job (whole-trial DFS splits →
one fused sweep per map task → shuffle → identity reduce) and checks that
every layer equals the vectorized engine's; the simulated
worker-count scaling (LPT makespan over measured task times) is recorded
in EXPERIMENTS.md.
"""

import numpy as np
import pytest

from repro.core.engines import MapReduceEngine, VectorizedEngine
from repro.core.simulation import AggregateAnalysis
from repro.data.dfs import SimDfs


@pytest.fixture(scope="module")
def analysis(study_20k):
    return AggregateAnalysis(study_20k.portfolio, study_20k.yet)


def test_mapreduce_full_job(benchmark, study_20k):
    engine = MapReduceEngine(n_splits=16, n_reducers=8)
    analysis = AggregateAnalysis(study_20k.portfolio, study_20k.yet)
    res = benchmark.pedantic(lambda: analysis.run(engine), rounds=2,
                             iterations=1)
    assert res.portfolio_ylt.n_trials == 20_000


def test_vectorized_reference(benchmark, analysis):
    """The in-memory path, for the cost-of-generality comparison."""
    res = benchmark(lambda: analysis.run("vectorized"))
    assert res.portfolio_ylt.n_trials == 20_000


def test_mapreduce_output_equivalent(study_20k):
    analysis = AggregateAnalysis(study_20k.portfolio, study_20k.yet)
    mr = analysis.run(MapReduceEngine(n_splits=16))
    ref = analysis.run("vectorized")
    for lid, ylt in ref.ylt_by_layer.items():
        np.testing.assert_array_equal(mr.ylt_by_layer[lid].losses, ylt.losses)


def test_worker_scaling_monotone(study_20k):
    """Simulated makespan must shrink monotonically with workers."""
    engine = MapReduceEngine(n_splits=16, n_reducers=8)
    AggregateAnalysis(study_20k.portfolio, study_20k.yet).run(engine)
    job = engine.last_job
    spans = [job.makespan(w) for w in (1, 2, 4, 8, 16)]
    assert spans == sorted(spans, reverse=True)
    assert spans[0] / spans[2] > 2.0  # 4 workers at least halve 1-worker time


def test_dfs_block_write_throughput(benchmark, study_20k):
    """Writing the YET into the DFS (block-aligned packed batches)."""
    counter = [0]

    def write_once():
        dfs = SimDfs(n_datanodes=8)
        counter[0] += 1
        dfs.write_table(f"yet{counter[0]}", study_20k.yet.table,
                        rows_per_block=2_000_000)
        return dfs

    dfs = benchmark.pedantic(write_once, rounds=2, iterations=1)
    assert dfs.total_stored_bytes() > 0
