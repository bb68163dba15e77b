"""Tests for the MapReduce engine over the simulated DFS."""

import numpy as np
import pytest

from repro.data.columnar import ColumnTable
from repro.data.dfs import SimDfs
from repro.data.mapreduce import JobResult, MapReduceJob, MapReduceRuntime, lpt_makespan
from repro.data.schema import Schema
from repro.errors import MapReduceError

S = Schema([("k", np.int64), ("v", np.float64)])


def wordcount_style_setup(n=100, rows_per_block=13, n_keys=7):
    dfs = SimDfs(n_datanodes=4)
    rng = np.random.default_rng(5)
    table = ColumnTable.from_arrays(
        S, k=rng.integers(0, n_keys, n), v=np.ones(n)
    )
    dfs.write_table("in", table, rows_per_block=rows_per_block)
    return dfs, table


def count_mapper(split_index, block):
    for k in block["k"].tolist():
        yield int(k), 1.0


def sum_reducer(key, values):
    yield key, float(sum(values))


class TestJobSpec:
    def test_bad_reducer_count_rejected(self):
        with pytest.raises(MapReduceError):
            MapReduceJob(mapper=count_mapper, reducer=sum_reducer, n_reducers=0)


class TestExecution:
    def test_counts_correct(self):
        dfs, table = wordcount_style_setup()
        job = MapReduceJob(mapper=count_mapper, reducer=sum_reducer, n_reducers=3)
        result = MapReduceRuntime(dfs).run(job, "in")
        got = dict(result.pairs)
        expect = {int(k): float(c) for k, c in
                  zip(*np.unique(table["k"], return_counts=True))}
        assert got == expect

    def test_output_independent_of_reducer_count(self):
        dfs, _ = wordcount_style_setup()
        results = []
        for n_reducers in (1, 2, 5):
            job = MapReduceJob(mapper=count_mapper, reducer=sum_reducer,
                               n_reducers=n_reducers)
            results.append(sorted(MapReduceRuntime(dfs).run(job, "in").pairs))
        assert results[0] == results[1] == results[2]

    def test_output_independent_of_block_size(self):
        outs = []
        for rows_per_block in (5, 17, 100):
            dfs, _ = wordcount_style_setup(rows_per_block=rows_per_block)
            job = MapReduceJob(mapper=count_mapper, reducer=sum_reducer)
            outs.append(sorted(MapReduceRuntime(dfs).run(job, "in").pairs))
        assert outs[0] == outs[1] == outs[2]

    def test_combiner_reduces_shuffle(self):
        dfs, _ = wordcount_style_setup(n=500, rows_per_block=50)
        base = MapReduceJob(mapper=count_mapper, reducer=sum_reducer)
        combined = MapReduceJob(mapper=count_mapper, reducer=sum_reducer,
                                combiner=sum_reducer)
        r_base = MapReduceRuntime(dfs).run(base, "in")
        r_comb = MapReduceRuntime(dfs).run(combined, "in")
        assert sorted(r_base.pairs) == sorted(r_comb.pairs)
        assert r_comb.counters["shuffle_bytes"] < r_base.counters["shuffle_bytes"]

    def test_counters(self):
        dfs, table = wordcount_style_setup(n=64, rows_per_block=16)
        job = MapReduceJob(mapper=count_mapper, reducer=sum_reducer)
        r = MapReduceRuntime(dfs).run(job, "in")
        assert r.counters["map_input_records"] == 64
        assert r.counters["map_output_records"] == 64
        assert r.counters["reduce_input_groups"] == len(set(table["k"].tolist()))
        assert len(r.map_task_seconds) == 4  # 64/16 blocks

    def test_bad_partitioner_detected(self):
        dfs, _ = wordcount_style_setup()
        job = MapReduceJob(mapper=count_mapper, reducer=sum_reducer,
                           n_reducers=2, partitioner=lambda k, n: 99)
        with pytest.raises(MapReduceError):
            MapReduceRuntime(dfs).run(job, "in")

    def test_output_written_to_dfs(self):
        dfs, table = wordcount_style_setup()
        job = MapReduceJob(mapper=count_mapper, reducer=sum_reducer)
        MapReduceRuntime(dfs).run(job, "in", output_path="out")
        out = dfs.read_table("out")
        got = dict(zip(out["key"].tolist(), out["value"].tolist()))
        expect = {int(k): float(c) for k, c in
                  zip(*np.unique(table["k"], return_counts=True))}
        assert got == expect

    def test_as_dict_duplicate_keys_rejected(self):
        r = JobResult(pairs=[(1, 2.0), (1, 3.0)])
        with pytest.raises(MapReduceError):
            r.as_dict()


class TestMakespan:
    def test_single_worker_is_sum(self):
        assert lpt_makespan([3.0, 1.0, 2.0], 1) == pytest.approx(6.0)

    def test_many_workers_is_max(self):
        assert lpt_makespan([3.0, 1.0, 2.0], 10) == pytest.approx(3.0)

    def test_makespan_lower_bounds(self):
        tasks = [5.0, 4.0, 3.0, 2.0]
        for w in (1, 2, 3):
            assert lpt_makespan(tasks, w) >= max(tasks)
            assert lpt_makespan(tasks, w) >= sum(tasks) / w

    def test_monotone_in_workers(self):
        tasks = [5.0, 4.0, 3.0, 2.0, 1.0, 1.0]
        spans = [lpt_makespan(tasks, w) for w in (1, 2, 3, 6)]
        assert spans == sorted(spans, reverse=True)

    def test_zero_workers_rejected(self):
        with pytest.raises(MapReduceError):
            lpt_makespan([1.0], 0)

    def test_empty_tasks(self):
        assert lpt_makespan([], 4) == 0.0

    def test_job_makespan_is_map_plus_reduce(self):
        r = JobResult(pairs=[], map_task_seconds=[2.0, 2.0],
                      reduce_task_seconds=[1.0])
        assert r.makespan(2) == pytest.approx(2.0 + 1.0)
