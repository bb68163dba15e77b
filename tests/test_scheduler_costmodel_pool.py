"""Tests for the pipeline cost model and the work pool."""

import gc
import operator
import os
import resource
import signal
import time

import pytest
from conftest import exited, python_c, segments_mapped, worker_pids

from repro.core.tables import YetTable
from repro.errors import AnalysisError, ConfigurationError
from repro.hpc import pool as supervision
from repro.hpc import shm
from repro.hpc.cost_model import PipelineCostModel, StageSpec
from repro.hpc.pool import WorkPool, available_parallelism
from repro.serve.dispatch import InlineDispatcher, PooledDispatcher
from repro.session import RiskSession


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
            assert pids == worker_pids(pool) and len(set(pids)) == 2
            # every later call, whatever it maps, runs on the same workers
            assert pool.starmap(abs, [(-1,), (-2,), (-3,)]) == [1, 2, 3]
            assert pool.starmap(_scale, [(100, 4), (100, 5)]) == [400, 500]
            assert pool.starmap(os.getpid, [(), ()]) == pids
        assert not pool.started  # the context manager closed it
        assert all(exited(pid) for pid in pids)

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
        """A stop message per pipe, then one wait each for the worker's
        exit: a worker holds no other worker's pipe end, so none waits
        out the join timeout, and once ``close`` returns every worker
        has exited."""
        with WorkPool(n_workers=2) as pool:
            pids = set(pool.starmap(os.getpid, [(), (), ()]))
            t0 = time.perf_counter()
        assert time.perf_counter() - t0 < 1.0
        assert all(exited(pid) for pid in pids)

    def test_a_worker_sees_the_end_of_its_pipe(self):
        """Worker 1 was forked after worker 0's pipe was sent, by a
        template that holds no pipe end it has sent: when the parent
        closes worker 0's end, worker 0 reads the end of its pipe and
        exits, stop message or none."""
        with WorkPool(n_workers=2) as pool:
            pool.ensure_started()
            first = pool._workers[0]
            first.conn.close()
            assert exited(first.pid, 5.0)
            assert not exited(pool._workers[1].pid)

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


def _nested_pool():  # pragma: no cover - runs in a worker process
    """This worker's pid, the owner and pid of the template a pool opened
    here forks its worker from, and that worker's parent."""
    with WorkPool(n_workers=1) as inner:
        parent = inner.starmap(os.getppid, [()])[0]
    template = supervision._TEMPLATE
    return os.getpid(), template.owner, template.pid, parent


class TestWorkerTemplate:
    """Every worker is forked by the template ``import repro`` forked,
    never by the caller (parentage and counts, no clock)."""

    def test_no_worker_is_the_callers_child(self):
        """After ``ensure_started`` a task's parent is the template, not
        the caller: the same template for two pools and for a killed
        worker's replacement."""
        template = supervision._TEMPLATE
        assert template.owner == os.getpid() != template.pid
        with WorkPool(n_workers=2) as first, WorkPool(n_workers=1) as second:
            first.ensure_started()
            second.ensure_started()
            assert (first.starmap(os.getppid, [(), ()])
                    + second.starmap(os.getppid, [()])) == [template.pid] * 3
            killed = worker_pids(first)[0]
            os.kill(killed, signal.SIGKILL)
            assert exited(killed, 5.0)
            assert first.starmap(os.getppid, [(), ()]) == [template.pid] * 2
            assert first.health.totals["worker_deaths"] == 1
            assert killed not in worker_pids(first)
        assert supervision._TEMPLATE is template

    def test_a_cold_sweep_after_the_forks_faults_no_page(
            self, small_portfolio_workload):
        """The caller's heap is shared with no process, so a cold sweep
        right after the workers start writes its own pages: 0 minor
        faults, where workers forked by the caller made that sweep
        copy-on-write some 230-470 pages.  The collector is held off
        the count: a collection writes every object it visits."""
        wl = small_portfolio_workload
        kernel = wl.portfolio.kernel()

        def cold_sweep():
            InlineDispatcher().run(kernel,
                                   YetTable(wl.yet.table, wl.yet.n_trials))

        def minor_faults():
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

        cold_sweep()
        cold_sweep()    # the allocator now holds every page a sweep takes
        with WorkPool(n_workers=1) as pool:
            pool.ensure_started()
            gc.collect()
            gc.disable()
            try:
                before = minor_faults()
                cold_sweep()
                faults = minor_faults() - before
            finally:
                gc.enable()
        assert faults == 0

    def test_after_close_no_worker_pid_is_alive(self):
        """Every worker a pool ever had — one killed between calls and
        its replacement too — has exited once ``close`` returns."""
        with WorkPool(n_workers=2) as pool:
            pids = pool.starmap(os.getpid, [(), ()])
            os.kill(pids[0], signal.SIGKILL)
            pids += pool.starmap(os.getpid, [(), ()])
        assert len(set(pids)) == 3
        assert all(exited(pid) for pid in pids)

    def test_a_pool_in_a_worker_forks_a_template_of_its_own(self):
        """A worker inherits its template's record but not its socket's
        use: a pool opened in a task forks a template of the worker's
        own, and that pool's worker is that template's child."""
        with WorkPool(n_workers=1) as pool:
            [(worker, owner, template, parent)] = pool.starmap(
                _nested_pool, [()])
        assert owner == worker != os.getpid()
        assert parent == template != supervision._TEMPLATE.pid

    def test_a_template_that_died_is_forked_afresh(self):
        """A process whose template is gone forks a fresh one at the next
        start, and its workers are that template's children."""
        proc = python_c("""
            import os, signal
            from repro.hpc import pool as supervision

            dead = supervision._TEMPLATE.pid
            os.kill(dead, signal.SIGKILL)
            with supervision.WorkPool(n_workers=1) as pool:
                parent = pool.starmap(os.getppid, [()])[0]
            print(dead, supervision._TEMPLATE.pid, parent)
        """)
        assert proc.returncode == 0
        dead, template, parent = map(int, proc.stdout.split())
        assert parent == template != dead


#: A worker's record of the first calls it made.
_MARKS: list = []


def _mark(value):  # pragma: no cover - runs in a worker process
    _MARKS.append((value, sorted(os.sched_getaffinity(0))))


def _marks():  # pragma: no cover - runs in a worker process
    return list(_MARKS), sorted(os.sched_getaffinity(0))


class TestFirstCall:
    """``ensure_started(first=...)``: each worker forked then makes its
    one call, pinned, before its first task; a worker already live and a
    replacement make none, and what the call raises is no one's error
    (no clock)."""

    def test_each_worker_forked_makes_its_own_call_before_any_task(self):
        with WorkPool(n_workers=2) as pool:
            pool.ensure_started(first=[(_mark, ("a",)), (_mark, ("b",))])
            pool.ensure_started(first=[(_mark, ("again",))] * 2)
            (marks_a, cpus_a), (marks_b, cpus_b) = pool.starmap(
                _marks, [(), ()])
            # made once, on the CPU the worker's tasks run on
            assert (marks_a, marks_b) == ([("a", cpus_a)], [("b", cpus_b)])
            killed = worker_pids(pool)[0]
            os.kill(killed, signal.SIGKILL)
            assert exited(killed, 5.0)
            after = pool.starmap(_marks, [(), ()])
            assert pool.health.totals["worker_deaths"] == 1
        assert [marks for marks, _ in after] == [[], marks_b]

    def test_a_first_call_that_raises_leaves_the_worker_serving(self):
        """A call that raises is swallowed in the worker, and a slot the
        list does not reach makes none."""
        with WorkPool(n_workers=2) as pool:
            pool.ensure_started(first=[(operator.truediv, (1, 0))])
            assert pool.starmap(operator.add, [(1, 2), (3, 4)]) == [3, 7]
            assert pool.starmap(_marks, [(), ()])[1][0] == []
            assert pool.health.totals["worker_deaths"] == 0
            assert pool.health.totals["retries"] == 0

    def test_a_session_closed_right_after_warmup_leaves_nothing(
            self, small_portfolio_workload):
        """Closed while the workers' first calls may still run: every
        worker has exited, no segment is left, and ``close`` took less
        than the wait it allows a worker."""
        wl = small_portfolio_workload
        before = shm.active_segment_names()
        session = RiskSession(wl.yet, wl.portfolio, n_workers=3)
        session.warmup("pooled")
        pids = worker_pids(session.dispatcher("pooled").pool)
        start = time.monotonic()
        session.close()
        assert time.monotonic() - start < supervision._JOIN_SECONDS
        assert len(pids) == 2 and all(exited(pid) for pid in pids)
        assert shm.active_segment_names() == before

    def test_the_template_maps_no_segment_after_a_pooled_warmup(
            self, small_portfolio_workload):
        """The template forwards a first call as bytes: it never runs
        one, so it maps none of the segments the calls name."""
        template = supervision._TEMPLATE
        if not os.path.exists(f"/proc/{template.pid}/maps"):
            pytest.skip("no /proc/<pid>/maps on this host")
        wl = small_portfolio_workload
        with PooledDispatcher(n_workers=2) as pooled:
            pooled.warmup(wl.yet)
            assert pooled.pool.starmap(os.getppid, [()]) == [template.pid]
            assert segments_mapped(template.pid) == {}
