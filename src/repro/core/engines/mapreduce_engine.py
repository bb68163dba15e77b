"""Aggregate analysis as a MapReduce job over the simulated DFS.

The paper's second strategy: "relying on MapReduce or Hadoop style
computations on the cloud" over "large distributed file space" (§II).
As in the MapReduce sibling study (*High Performance Risk Aggregation …
the Hadoop MapReduce Way*), splits are trial-aligned: the YET is written
to the DFS once per content fingerprint and split count, one block per
whole-trial split (:func:`~repro.core.tables.trial_spans`, the pooled
dispatcher's rule).  A run is one job for the whole portfolio.  A map
task is the dispatchers' one block task, one fused sweep of its split
(``dispatcher.run(kernel, split)``), emitting ``(t0, (L, t1 - t0))``.
The reducer is the identity, and the engine concatenates the blocks by
trial.  A split's span routes by the longest trial of the YET it was
cut from, which the engine holds, so every split count answers
``np.array_equal`` to ``vectorized``.  The engine keeps the splits of
the last DFS path it read, so a repeat job over one YET builds no split
index or profile again.  The job's task timings feed E7's
simulated worker-count scaling.
"""

from __future__ import annotations

import numpy as np

from repro.core.engines.host import HostEngine
from repro.core.kernels import PortfolioKernel
from repro.core.tables import YetTable, trial_spans
from repro.data.dfs import SimDfs
from repro.data.mapreduce import JobResult, MapReduceJob, MapReduceRuntime
from repro.errors import EngineError

__all__ = ["MapReduceEngine"]


def _identity(key, values):
    for value in values:
        yield key, value


class MapReduceEngine(HostEngine):
    """Hadoop-style aggregate analysis on :class:`SimDfs`: one job per
    run, each map task one sweep of a whole-trial split on the engine's
    inline dispatcher."""

    name = "mapreduce"

    def __init__(self, dfs: SimDfs | None = None, n_splits: int = 8,
                 n_reducers: int = 4) -> None:
        super().__init__()
        if n_splits <= 0:
            raise EngineError(f"n_splits must be positive, got {n_splits}")
        self.dfs = dfs or SimDfs(n_datanodes=max(4, n_splits // 2))
        self.n_splits = n_splits
        self.n_reducers = n_reducers
        #: The most recent run's job (task times for E7's scaling).
        self.last_job: JobResult | None = None
        #: ``(path, {split index: YetTable})``: the splits of the last
        #: DFS path a job read, kept with what their sweeps derive.
        self._splits: tuple[str, dict] = ("", {})

    def _execute(self, kernel: PortfolioKernel,
                 yet: YetTable) -> tuple[np.ndarray, dict]:
        spans = trial_spans(yet.n_trials, self.n_splits)
        # Keyed on content: an object id may be reused by a new YET.
        path = f"yet-{yet.fingerprint()}-{len(spans)}"
        if not self.dfs.exists(path):
            self.dfs.write_blocks(
                path, [yet.slice_trials(t0, t1).table for t0, t1 in spans])
        if self._splits[0] != path:
            self._splits = (path, {})
        splits = self._splits[1]
        dispatcher = self.dispatcher
        longest = yet.trial_block().max_count

        def mapper(split_index, block):
            # A split is kept across runs of its path, so its span's
            # event index and book profiles are built once, not per run.
            t0, t1 = spans[split_index]
            split = splits.get(split_index)
            if split is None:
                split = splits[split_index] = YetTable(block, t1 - t0)
                split.trial_block().max_count = longest
            yield t0, dispatcher.run(kernel, split)

        job = MapReduceJob(mapper=mapper, reducer=_identity,
                           n_reducers=self.n_reducers)
        self.last_job = MapReduceRuntime(self.dfs).run(job, path)
        blocks = sorted(self.last_job.pairs, key=lambda pair: pair[0])
        return np.concatenate([block for _, block in blocks], axis=1), {
            "n_splits": len(spans),
            "counters": dict(self.last_job.counters),
        }
