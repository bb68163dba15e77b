"""A MapReduce engine over the simulated DFS.

Implements the full Hadoop-style execution model the paper points to for
"ad hoc development and investigations" on "large distributed file space"
(§II): block-aligned input splits, map tasks, optional combiners, a
hash/range-partitioned shuffle with sorted, grouped reduce input, and
counters.  Execution is single-process; per-task wall times are recorded
so the harness can compute the makespan a ``w``-worker cluster would
achieve under LPT (longest-processing-time-first) scheduling — this is
how experiment E7's worker-count sweep is produced on one core.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.data.columnar import ColumnTable
from repro.data.dfs import SimDfs
from repro.data.partition import hash_partition
from repro.data.serialization import unpack_table
from repro.errors import MapReduceError

__all__ = ["MapReduceJob", "JobResult", "MapReduceRuntime", "lpt_makespan"]

#: A mapper takes (split_index, block table) and yields (key, value) pairs.
Mapper = Callable[[int, ColumnTable], Iterable[tuple[object, object]]]
#: A reducer takes (key, list of values) and yields (key, value) pairs.
Reducer = Callable[[object, list], Iterable[tuple[object, object]]]
#: A combiner has the reducer signature and runs on map-local output.
Combiner = Reducer


@dataclass(frozen=True)
class MapReduceJob:
    """Specification of one job.

    Attributes
    ----------
    mapper, reducer:
        User functions (see module type aliases).
    combiner:
        Optional map-side pre-aggregation; must be algebraically compatible
        with the reducer (same contract as Hadoop combiners).
    n_reducers:
        Number of reduce partitions.
    partitioner:
        ``(key, n_buckets) -> bucket``; defaults to stable hashing.
    """

    mapper: Mapper
    reducer: Reducer
    combiner: Combiner | None = None
    n_reducers: int = 4
    partitioner: Callable[[object, int], int] = hash_partition

    def __post_init__(self):
        if self.n_reducers <= 0:
            raise MapReduceError(f"n_reducers must be positive, got {self.n_reducers}")


@dataclass
class JobResult:
    """Output and execution record of one job run."""

    pairs: list[tuple[object, object]]
    counters: dict[str, int] = field(default_factory=dict)
    map_task_seconds: list[float] = field(default_factory=list)
    reduce_task_seconds: list[float] = field(default_factory=list)

    def as_dict(self) -> dict:
        """Output pairs as a dict (keys must then be unique)."""
        out = dict(self.pairs)
        if len(out) != len(self.pairs):
            raise MapReduceError("duplicate keys in job output; use .pairs")
        return out

    def makespan(self, n_workers: int) -> float:
        """Simulated wall time on ``n_workers`` parallel workers.

        Map and reduce phases are barriers (as in Hadoop without slow-start):
        the job's makespan is the LPT makespan of the map tasks plus that of
        the reduce tasks.
        """
        return lpt_makespan(self.map_task_seconds, n_workers) + lpt_makespan(
            self.reduce_task_seconds, n_workers
        )


def lpt_makespan(task_seconds: Sequence[float], n_workers: int) -> float:
    """Makespan of greedy longest-processing-time-first scheduling."""
    if n_workers <= 0:
        raise MapReduceError(f"n_workers must be positive, got {n_workers}")
    loads = [0.0] * min(n_workers, max(len(task_seconds), 1))
    for t in sorted(task_seconds, reverse=True):
        i = loads.index(min(loads))
        loads[i] += t
    return max(loads) if loads else 0.0


class MapReduceRuntime:
    """Executes :class:`MapReduceJob` instances against a :class:`SimDfs`."""

    def __init__(self, dfs: SimDfs) -> None:
        self.dfs = dfs

    def run(self, job: MapReduceJob, input_path: str,
            output_path: str | None = None) -> JobResult:
        """Run ``job`` over the table file at ``input_path``.

        Each DFS block of the input file becomes one input split / map
        task.  If ``output_path`` is given, reducer output is written back
        to the DFS as one packed two-column table (repr'd key, float value)
        per reducer — callers with richer outputs read ``result.pairs``.
        """
        blocks = self.dfs.file_blocks(input_path)
        counters = {
            "map_input_records": 0,
            "map_output_records": 0,
            "combine_output_records": 0,
            "shuffle_bytes": 0,
            "reduce_input_groups": 0,
            "reduce_output_records": 0,
        }
        result = JobResult(pairs=[], counters=counters)

        # -- map phase (+ optional combine) ------------------------------
        partitions: list[dict[object, list]] = [
            {} for _ in range(job.n_reducers)
        ]
        for split_index, info in enumerate(blocks):
            t0 = time.perf_counter()
            table = unpack_table(self.dfs.read_block(info.block_id))
            counters["map_input_records"] += table.n_rows
            local: dict[object, list] = {}
            for key, value in job.mapper(split_index, table):
                counters["map_output_records"] += 1
                local.setdefault(key, []).append(value)
            if job.combiner is not None:
                combined: dict[object, list] = {}
                for key, values in local.items():
                    for k2, v2 in job.combiner(key, values):
                        combined.setdefault(k2, []).append(v2)
                        counters["combine_output_records"] += 1
                local = combined
            for key, values in local.items():
                bucket = job.partitioner(key, job.n_reducers)
                if not (0 <= bucket < job.n_reducers):
                    raise MapReduceError(
                        f"partitioner returned {bucket} for {job.n_reducers} reducers"
                    )
                partitions[bucket].setdefault(key, []).extend(values)
                counters["shuffle_bytes"] += _rough_size(key, values)
            result.map_task_seconds.append(time.perf_counter() - t0)

        # -- reduce phase --------------------------------------------------
        reducer_outputs: list[list[tuple[object, object]]] = []
        for bucket in partitions:
            t0 = time.perf_counter()
            out: list[tuple[object, object]] = []
            for key in sorted(bucket, key=repr):  # sorted reduce input, as in Hadoop
                counters["reduce_input_groups"] += 1
                for pair in job.reducer(key, bucket[key]):
                    out.append(pair)
                    counters["reduce_output_records"] += 1
            reducer_outputs.append(out)
            result.reduce_task_seconds.append(time.perf_counter() - t0)

        result.pairs = [p for out in reducer_outputs for p in out]
        if output_path is not None:
            self._write_output(output_path, reducer_outputs)
        return result

    def _write_output(self, path: str,
                      reducer_outputs: list[list[tuple[object, object]]]) -> None:
        import numpy as np

        from repro.data.schema import Schema

        schema = Schema([("key", np.int64), ("value", np.float64)])
        flat = [p for out in reducer_outputs for p in out]
        try:
            keys = np.array([int(k) for k, _ in flat], dtype=np.int64)
            values = np.array([float(v) for _, v in flat], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise MapReduceError(
                "DFS output requires int-keyed float-valued results; "
                "read result.pairs instead"
            ) from exc
        table = ColumnTable.from_arrays(schema, key=keys, value=values)
        self.dfs.write_table(path, table, rows_per_block=max(table.n_rows, 1))


def _rough_size(key, values: list) -> int:
    """Cheap estimate of shuffled bytes for one (key, values) group: an
    array value counts its ``nbytes``, anything else 8 bytes."""
    return 16 + sum(getattr(value, "nbytes", 8) for value in values)
