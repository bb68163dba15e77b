"""Aggregate analysis as a MapReduce job over the simulated DFS.

The paper's second strategy: "relying on MapReduce or Hadoop style
computations on the cloud" over "large distributed file space" (§II).
The YET is written to the DFS as block-aligned record batches; each block
becomes a map task that applies lookup + occurrence terms and emits
per-trial partial sums; a combiner collapses map-local partials; reducers
(partitioned by trial) sum and apply aggregate terms.  Output is the
same YLT every other engine produces — the job's task timings also feed
E7's simulated worker-count scaling.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.engines.base import Engine, EngineResult
from repro.core.portfolio import Portfolio
from repro.core.tables import YetTable, YltTable
from repro.data.dfs import SimDfs
from repro.data.mapreduce import JobResult, MapReduceJob, MapReduceRuntime
from repro.errors import EngineError

__all__ = ["MapReduceEngine"]


class MapReduceEngine(Engine):
    """Hadoop-style aggregate analysis on :class:`SimDfs`."""

    name = "mapreduce"

    def __init__(self, dfs: SimDfs | None = None, n_splits: int = 8,
                 n_reducers: int = 4) -> None:
        if n_splits <= 0:
            raise EngineError(f"n_splits must be positive, got {n_splits}")
        self.dfs = dfs or SimDfs(n_datanodes=max(4, n_splits // 2))
        self.n_splits = n_splits
        self.n_reducers = n_reducers
        #: Per-layer job results from the most recent run (for E7 scaling).
        self.last_jobs: dict[int, JobResult] = {}

    def run(self, portfolio: Portfolio, yet: YetTable, *,
            emit_yelt: bool = False) -> EngineResult:
        self._validate(portfolio, yet)
        if emit_yelt:
            raise EngineError(
                "mapreduce engine does not emit YELTs; use the vectorized "
                "engine for event-granularity output"
            )
        t0 = time.perf_counter()

        input_path = f"yet-{id(yet)}-{yet.n_trials}"
        if not self.dfs.exists(input_path):
            rows_per_block = max(1, -(-yet.n_occurrences // self.n_splits))
            self.dfs.write_table(input_path, yet.table, rows_per_block)

        n_trials = yet.n_trials
        runtime = MapReduceRuntime(self.dfs)
        ylt_by_layer: dict[int, YltTable] = {}
        self.last_jobs = {}

        for layer in portfolio:
            lookup = layer.lookup()
            terms = layer.terms

            def mapper(split_index, block, _lookup=lookup, _terms=terms):
                retained = _terms.apply_occurrence(_lookup(block["event_id"]))
                trials = block["trial"]
                uniq = np.unique(trials)
                partial = np.bincount(
                    trials - trials.min() if trials.size else trials,
                    weights=retained,
                    minlength=(int(trials.max() - trials.min()) + 1) if trials.size else 0,
                )
                base = int(trials.min()) if trials.size else 0
                for t in uniq:
                    yield int(t), float(partial[int(t) - base])

            def combiner(key, values):
                yield key, float(sum(values))

            def reducer(key, values, _terms=terms):
                annual = float(sum(values))
                yield key, _terms.aggregate_scalar(annual)

            job = MapReduceJob(
                mapper=mapper,
                reducer=reducer,
                combiner=combiner,
                n_reducers=self.n_reducers,
            )
            result = runtime.run(job, input_path)
            self.last_jobs[layer.layer_id] = result

            losses = np.zeros(n_trials, dtype=np.float64)
            for trial, loss in result.pairs:
                losses[int(trial)] = loss
            ylt_by_layer[layer.layer_id] = YltTable(losses)

        portfolio_ylt = YltTable.sum(list(ylt_by_layer.values()))
        counters = {
            lid: dict(job.counters) for lid, job in self.last_jobs.items()
        }
        return EngineResult(
            engine=self.name,
            ylt_by_layer=ylt_by_layer,
            portfolio_ylt=portfolio_ylt,
            seconds=time.perf_counter() - t0,
            details={"n_splits": self.n_splits, "counters": counters},
        )
