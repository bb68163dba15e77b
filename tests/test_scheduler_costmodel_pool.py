"""Tests for the pipeline cost model and the work pool."""

import multiprocessing
import os
import time

import pytest

from repro.errors import AnalysisError, ConfigurationError
from repro.hpc.cost_model import PipelineCostModel, StageSpec
from repro.hpc.pool import WorkPool, available_parallelism


class TestStageSpec:
    def test_runtime_amdahl(self):
        s = StageSpec("s", work_items=100.0, throughput_per_proc=1.0,
                      parallel_fraction=1.0)
        assert s.runtime_seconds(1) == pytest.approx(100.0)
        assert s.runtime_seconds(4) == pytest.approx(25.0)

    def test_serial_fraction_floors_runtime(self):
        s = StageSpec("s", 100.0, 1.0, parallel_fraction=0.5)
        assert s.runtime_seconds(10**6) >= 50.0

    def test_comm_overhead_grows(self):
        s = StageSpec("s", 100.0, 1.0, comm_overhead_per_proc_s=1.0)
        assert s.runtime_seconds(64) > s.runtime_seconds(64) - 1  # exists
        assert s.runtime_seconds(2**16) > s.runtime_seconds(2**4)

    @pytest.mark.parametrize("kwargs", [
        dict(work_items=-1, throughput_per_proc=1),
        dict(work_items=1, throughput_per_proc=0),
        dict(work_items=1, throughput_per_proc=1, parallel_fraction=0.0),
        dict(work_items=1, throughput_per_proc=1, parallel_fraction=1.5),
        dict(work_items=1, throughput_per_proc=1, comm_overhead_per_proc_s=-1),
    ])
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            StageSpec("s", **kwargs)


class TestPipelineCostModel:
    def model(self):
        return PipelineCostModel([
            StageSpec("fast", 100.0, 10.0),
            StageSpec("slow", 1e9, 1e3, comm_overhead_per_proc_s=0.01),
        ])

    def test_single_proc_meets_loose_deadline(self):
        req = self.model().procs_for_deadline("fast", 1000.0)
        assert req.n_procs == 1 and req.feasible

    def test_tight_deadline_needs_more_procs(self):
        req = self.model().procs_for_deadline("slow", 3600.0)
        assert req.feasible
        assert req.n_procs > 100
        assert req.runtime_seconds <= 3600.0

    def test_minimality(self):
        """One fewer processor must miss the deadline."""
        model = self.model()
        req = model.procs_for_deadline("slow", 3600.0)
        spec = model.stage("slow")
        assert spec.runtime_seconds(req.n_procs - 1) > 3600.0

    def test_infeasible_deadline_reported(self):
        model = PipelineCostModel([
            StageSpec("hopeless", 1e12, 1.0, parallel_fraction=0.5)
        ])
        req = model.procs_for_deadline("hopeless", 1.0)
        assert not req.feasible

    def test_unknown_stage_rejected(self):
        with pytest.raises(AnalysisError):
            self.model().procs_for_deadline("nope", 1.0)

    def test_bad_deadline_rejected(self):
        with pytest.raises(AnalysisError):
            self.model().procs_for_deadline("fast", 0.0)

    def test_burst_profile(self):
        reqs = self.model().burst_profile({"fast": 100.0, "slow": 3600.0})
        by_name = {r.stage: r.n_procs for r in reqs}
        assert by_name["fast"] == 1
        assert by_name["slow"] > by_name["fast"]

    def test_burst_unknown_stage_rejected(self):
        with pytest.raises(AnalysisError):
            self.model().burst_profile({"nope": 1.0})

    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(ConfigurationError):
            PipelineCostModel([StageSpec("a", 1, 1), StageSpec("a", 1, 1)])

    def test_empty_stages_rejected(self):
        with pytest.raises(ConfigurationError):
            PipelineCostModel([])


def _square(x):
    return x * x


def _scale(factor, x):
    return factor * x


def _pid_and_cpus():  # pragma: no cover - runs in a worker process
    return os.getpid(), sorted(os.sched_getaffinity(0))


def _die(x):  # pragma: no cover - runs in a worker process
    os._exit(13)


class TestWorkPool:
    def test_available_parallelism_positive(self):
        assert available_parallelism() >= 1

    def test_starmap(self):
        with WorkPool(n_workers=1) as pool:
            assert pool.starmap(pow, [(2, 3), (3, 2)]) == [8, 9]

    def test_order_preserved(self):
        with WorkPool(n_workers=2) as pool:
            assert pool.starmap(_square, [(i,) for i in range(20)]) == [
                i * i for i in range(20)]

    def test_default_workers(self):
        assert WorkPool().n_workers == available_parallelism()

    def test_one_task_runs_in_a_worker(self):
        """The pool has no in-process path: one task, on one worker or
        on several, runs in a worker process.  Which runs stay in
        process is the pooled dispatcher's decision."""
        for n_workers in (1, 2):
            with WorkPool(n_workers=n_workers) as pool:
                assert pool.starmap(os.getpid, [()]) != [os.getpid()]

    def test_parallel_paths_share_one_closeable_set_of_workers(self):
        with WorkPool(n_workers=2) as pool:
            assert not pool.started  # lazy
            assert pool.starmap(pow, [(2, 3), (3, 2), (2, 2)]) == [8, 9, 4]
            pids = pool.starmap(os.getpid, [(), ()])
            forked = {child.pid for child in multiprocessing.active_children()}
            assert set(pids) <= forked and len(set(pids)) == 2
            # every later call, whatever it maps, runs on the same workers
            assert pool.starmap(abs, [(-1,), (-2,), (-3,)]) == [1, 2, 3]
            assert pool.starmap(_scale, [(100, 4), (100, 5)]) == [400, 500]
            assert pool.starmap(os.getpid, [(), ()]) == pids
        assert not pool.started  # the context manager closed it
        assert not set(pids) & {child.pid
                                for child in multiprocessing.active_children()}

    def test_task_i_runs_on_worker_i_on_the_cpu_after_i(self):
        """Task ``i`` goes to worker ``i mod n``, pinned to CPU ``(i + 1)
        mod k`` of the parent's (the first is the caller's): over 100
        warm 2-task calls, every call runs on both workers, in slot
        order."""
        cpus = sorted(os.sched_getaffinity(0))
        with WorkPool(n_workers=2) as pool:
            first = pool.starmap(_pid_and_cpus, [(), ()])
            for _ in range(100):
                placed = pool.starmap(_pid_and_cpus, [(), ()])
                assert len({pid for pid, _ in placed}) == 2
                assert placed == first
        assert [cpu for _, cpu in first] == [[cpus[1 % len(cpus)]],
                                             [cpus[2 % len(cpus)]]]

    def test_close_is_prompt_and_leaves_no_process(self):
        """A stop message per pipe, then one join each: a worker holds no
        other worker's pipe end, so none waits out the join timeout."""
        with WorkPool(n_workers=2) as pool:
            pids = set(pool.starmap(os.getpid, [(), (), ()]))
            t0 = time.perf_counter()
        assert time.perf_counter() - t0 < 1.0
        assert not pids & {child.pid
                           for child in multiprocessing.active_children()}

    def test_a_worker_sees_the_end_of_its_pipe(self):
        """Worker 1 was forked while worker 0's pipe was open, and closed
        its copy of the parent end: when the parent closes that end,
        worker 0 reads the end of its pipe and exits, stop message or
        none."""
        with WorkPool(n_workers=2) as pool:
            pool.ensure_started()
            first = pool._workers[0]
            first.conn.close()
            first.process.join(5.0)
            assert first.process.exitcode == 0

    def test_a_task_that_will_not_pickle_raises_and_leaves_no_reply(self):
        """Task 1 cannot be sent while task 0 runs: the error is raised,
        and no reply of this call reaches the next one."""
        with WorkPool(n_workers=2) as pool:
            with pytest.raises(AttributeError, match="pickle"):
                pool.starmap(_scale, [(1, 2), (lambda: 0, 3)])
            assert pool.starmap(_scale, [(2, 2), (2, 3), (2, 4)]) == [4, 6, 8]

    def test_broken_executor_recovers_on_next_call(self, monkeypatch):
        """A dead worker costs one call, not the pool's lifetime.

        A task that kills its worker on *every* attempt exhausts the
        supervision retries and surfaces as a typed ExecutionError (the
        raw BrokenProcessPool rides along in the failure chain); the
        pool itself stays usable for the next call.
        """
        from repro.errors import ExecutionError
        from repro.hpc import pool as supervision

        monkeypatch.setattr(supervision, "MAX_RETRIES", 1)
        with WorkPool(n_workers=2) as pool:
            with pytest.raises(ExecutionError) as exc_info:
                pool.starmap(_die, [(1,), (2,), (3,)])
            assert exc_info.value.failures
            snap = pool.telemetry.snapshot()["metrics"]
            assert snap["pool.worker_deaths"] >= 1
            assert snap["pool.call_failures"] == 1
            assert pool.starmap(_square, [(2,), (3,)]) == [4, 9]
            assert pool.health.consecutive_failures == 0
