"""Tests for the pipeline cost model and the work pool."""

import os

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

    def test_parallel_paths_share_one_closeable_executor(self):
        with WorkPool(n_workers=2) as pool:
            assert pool._executor is None  # lazy
            assert pool.starmap(pow, [(2, 3), (3, 2), (2, 2)]) == [8, 9, 4]
            first = pool._executor
            assert first is not None
            # every later call, whatever it maps, reuses the executor
            assert pool.starmap(abs, [(-1,), (-2,), (-3,)]) == [1, 2, 3]
            assert pool.starmap(_scale, [(100, 4), (100, 5)]) == [400, 500]
            assert pool._executor is first
        assert pool._executor is None  # context manager closed it

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
