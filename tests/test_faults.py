"""Chaos suite: deterministic fault injection against the supervised pool.

Every test here drives :mod:`repro.hpc.faults` through the real
execution stack — pool, engine, dispatcher, pricing service — and
asserts the recovery contract: answers bit-identical to a fault-free
run, the ``pool.*`` metrics recording what happened, and plans fully
consumed (a scheduled fault that never fired is a test that proved
nothing).  A plan's ordinals count worker tasks only: a pooled run of
``n`` processors sends ``n - 1`` of them, the caller sweeping span 0
itself, so a scenario that needs two worker tasks in one run uses three
processors.

The ``chaos`` marker keeps the set addressable (``-m chaos`` /
``-m "not chaos"``); the tests themselves are tier-1 fast — tiny
workloads, and a retry follows its failed attempt at once, as shipped
(the pool has no backoff sleep).  A test that needs
another retry budget or degrade threshold monkeypatches the pool's
module constant.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest
from conftest import exited, multicore, worker_probes

from repro.errors import ConfigurationError, ExecutionError
from repro.hpc import faults, shm
from repro.hpc import pool as supervision
from repro.hpc.faults import FaultPlan, FaultSpec
from repro.hpc.pool import WorkPool
from repro.serve.dispatch import InlineDispatcher, PooledDispatcher

pytestmark = pytest.mark.chaos


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    """A test must never leak its fault plan into the next one."""
    yield
    faults.clear()


def _square(x):
    return x * x


def _inverse(x):
    return 1 / x


def _squares(*xs):
    """``_square``'s task tuples over ``xs``."""
    return [(x,) for x in xs]


def _placement(yet):  # pragma: no cover - in a worker
    """A worker's CPUs and the trial spans its YET copy keeps."""
    return sorted(os.sched_getaffinity(0)), sorted(yet._spans)


def _metrics(owner) -> dict:
    """The ``pool.*`` (and every other) count on ``owner``'s plane."""
    return owner.telemetry.snapshot()["metrics"]


# ---------------------------------------------------------------------------
# plan construction and the env gate
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("explode", 0)

    def test_negative_seq_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("kill", -1)

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("delay", 0, delay_seconds=-0.1)

    def test_duplicate_seq_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan([FaultSpec("kill", 3), FaultSpec("delay", 3)])

    def test_take_consumes_exactly_once(self):
        plan = FaultPlan.kill_task(2)
        assert plan.take(0) is None
        spec = plan.take(2)
        assert spec is not None and spec.kind == "kill"
        assert plan.take(2) is None  # consumed
        assert plan.exhausted
        assert [e.kind for e in plan.events] == ["kill"]

    def test_install_and_clear_switch_the_active_plan(self):
        assert faults.active_plan() is None
        plan = faults.install(FaultPlan.kill_task(0))
        assert faults.active_plan() is plan
        faults.clear()
        assert faults.active_plan() is None

    def test_report_is_json_ready(self):
        plan = FaultPlan.delay_task(1, 0.5, seed=7)
        plan.take(1)
        report = plan.report()
        assert report["seed"] == 7
        assert report["pending"] == 0
        assert report["events"][0]["kind"] == "delay"


# ---------------------------------------------------------------------------
# recovery through the raw pool
# ---------------------------------------------------------------------------

class TestPoolRecovery:
    def test_kill_recovers_bit_identical(self):
        with WorkPool(n_workers=2) as pool:
            with faults.inject(FaultPlan.kill_task(2)) as plan:
                got = pool.starmap(_square, _squares(*range(8)))
            assert got == [i * i for i in range(8)]
            assert plan.exhausted
            snap = _metrics(pool)
            assert snap["pool.worker_deaths"] >= 1
            assert snap["pool.retries"] >= 1
            assert snap["pool.executor_cycles"] >= 1
            assert not pool.health.degraded
            assert pool.health.consecutive_failures == 0

    def test_reset_leaves_one_truth_per_counter(self):
        """``reset_health`` clears the streak and the degraded flag; the
        counters are the registry's and read the same from both doors."""
        with WorkPool(n_workers=2) as pool:
            with faults.inject(FaultPlan.kill_task(2)):
                pool.starmap(_square, _squares(*range(8)))
            pool.health.degraded = True
            pool.reset_health()
            assert not pool.health.degraded
            scraped = _metrics(pool)
            assert scraped["pool.worker_deaths"] >= 1
            assert len(pool.health.totals) == 7
            for name, n in pool.health.totals.items():
                assert scraped[f"pool.{name}"] == n, name

    def test_deadline_miss_recovers(self):
        with WorkPool(n_workers=2) as pool:
            with faults.inject(FaultPlan.delay_task(1, 5.0)) as plan:
                got = pool.starmap(_square, _squares(1, 2, 3, 4),
                                   deadline_seconds=0.2)
            assert got == [1, 4, 9, 16]
            assert plan.exhausted
            assert _metrics(pool)["pool.timeouts"] >= 1

    def test_a_caller_error_is_raised_once_every_reply_is_read(self):
        """The caller's own share raises while task 1 still runs: the
        error is raised once its reply is read, no worker is lost, no
        reply reaches the next call, and the share is never rerun."""
        calls = []

        def share():
            calls.append(1)
            raise ArithmeticError("the caller's share failed")

        with WorkPool(n_workers=2) as pool:
            pids = pool.starmap(os.getpid, [(), ()])
            with faults.inject(FaultPlan.delay_task(1, 0.2)) as plan:
                with pytest.raises(ArithmeticError):
                    pool.starmap(_square, _squares(1, 2), meanwhile=share)
            assert plan.exhausted and calls == [1]
            assert pool.starmap(_square, _squares(3, 4)) == [9, 16]
            assert pool.starmap(os.getpid, [(), ()]) == pids
            assert _metrics(pool)["pool.worker_deaths"] == 0

    def test_the_callers_share_runs_once_beside_a_retry(self):
        """A killed worker's task is resubmitted; the caller's share,
        run in the first attempt, is not."""
        calls = []
        with WorkPool(n_workers=2) as pool:
            with faults.inject(FaultPlan.kill_task(1)) as plan:
                got = pool.starmap(_square, _squares(1, 2),
                                   meanwhile=lambda: calls.append(1))
            assert plan.exhausted
            assert got == [1, 4] and calls == [1]
            assert _metrics(pool)["pool.retries"] == 1

    def test_a_task_error_propagates_once_every_reply_is_read(self):
        """A task that raises its own error is not retried: the error is
        raised once task 1, still running, replied; no worker is lost to
        it, and none of that call's replies reaches the next call."""
        with WorkPool(n_workers=2) as pool:
            pids = pool.starmap(os.getpid, [(), ()])
            with faults.inject(FaultPlan.delay_task(1, 0.2)) as plan:
                with pytest.raises(ZeroDivisionError):
                    pool.starmap(_inverse, [(0,), (2,), (4,)])
            assert plan.exhausted
            assert pool.starmap(_square, _squares(4, 5, 6)) == [16, 25, 36]
            assert pool.starmap(os.getpid, [(), ()]) == pids
            snap = _metrics(pool)
            assert snap["pool.worker_deaths"] == snap["pool.retries"] == 0

    def test_orphan_is_reclaimable(self):
        with WorkPool(n_workers=2) as pool:
            with faults.inject(FaultPlan([FaultSpec("orphan", 0)])) as plan:
                got = pool.starmap(_square, _squares(1, 2, 3))
            assert got == [1, 4, 9]  # the task itself ran clean
            if shm.shm_available():
                assert len(plan.orphaned) == 1
                name = plan.orphaned[0]
                assert name in shm.active_segment_names()
                assert plan.reclaim_orphans() == 1
                assert name not in shm.active_segment_names()

    def test_exhausted_retries_raise_execution_error(self, monkeypatch):
        # Kill every attempt: 3 tasks x (1 + MAX_RETRIES) attempts.
        plan = FaultPlan([FaultSpec("kill", i) for i in range(12)])
        monkeypatch.setattr(supervision, "MAX_RETRIES", 1)
        with WorkPool(n_workers=2) as pool:
            with faults.inject(plan):
                with pytest.raises(ExecutionError) as exc_info:
                    pool.starmap(_square, _squares(1, 2, 3))
            err = exc_info.value
            assert err.attempts == 2
            assert err.failures  # the chain rode along
            assert any("BrokenProcessPool" in entry or "Broken" in entry
                       for entry in err.failure_chain)
            assert _metrics(pool)["pool.call_failures"] == 1
            assert pool.health.consecutive_failures == 1
            # one terminal failure is not degradation (DEGRADE_AFTER=3)
            assert not pool.health.degraded
            # and the pool still works afterwards
            faults.clear()
            assert pool.starmap(_square, _squares(4, 5)) == [16, 25]

    def test_degrades_after_consecutive_terminal_failures(self, monkeypatch):
        plan_specs = [FaultSpec("kill", i) for i in range(24)]
        monkeypatch.setattr(supervision, "MAX_RETRIES", 0)
        monkeypatch.setattr(supervision, "DEGRADE_AFTER", 2)
        with WorkPool(n_workers=2) as pool:
            with faults.inject(FaultPlan(plan_specs)):
                for _ in range(2):
                    with pytest.raises(ExecutionError):
                        pool.starmap(_square, _squares(1, 2, 3))
            assert pool.health.degraded
            assert pool.health.consecutive_failures == 2
            # the flag is the dispatcher's to act on (its in-process
            # fallback counts the degraded calls): the pool itself still
            # runs what it is given on its workers
            assert pool.starmap(_square, _squares(1, 2, 3)) == [1, 4, 9]
            assert _metrics(pool)["pool.degraded_calls"] == 0
            # operator path back
            pool.reset_health()
            assert not pool.health.degraded
            assert pool.starmap(_square, _squares(2)) == [4]

    def test_success_resets_consecutive_failures(self, monkeypatch):
        monkeypatch.setattr(supervision, "MAX_RETRIES", 0)
        monkeypatch.setattr(supervision, "DEGRADE_AFTER", 2)
        with WorkPool(n_workers=2) as pool:
            with faults.inject(FaultPlan([FaultSpec("kill", i)
                                          for i in range(6)])):
                with pytest.raises(ExecutionError):
                    pool.starmap(_square, _squares(1, 2, 3))
            assert pool.health.consecutive_failures == 1
            assert pool.starmap(_square, _squares(1, 2, 3)) == [1, 4, 9]
            assert pool.health.consecutive_failures == 0
            assert not pool.health.degraded


# ---------------------------------------------------------------------------
# recovery through the engine and session layers
# ---------------------------------------------------------------------------

class TestEngineChaos:
    def test_multicore_run_bit_identical_under_kill(
            self, small_portfolio_workload):
        wl = small_portfolio_workload
        with multicore(3) as engine:
            baseline = engine.run(wl.portfolio, wl.yet)
            before = _metrics(engine.dispatcher.pool)
            ships = engine.dispatcher.payload_ships
            packs = engine.dispatcher.telemetry.counter("dispatch.slab.packs")
            packed = packs.value
            segments = shm.active_segment_names()
            with faults.inject(FaultPlan.kill_task(1)) as plan:
                recovered = engine.run(wl.portfolio, wl.yet)
            assert plan.exhausted
            # the replacement worker attached the staged handles: the
            # kernel was not exported again
            assert packs.value == packed == (1 if shm.shm_available() else 0)
            np.testing.assert_array_equal(
                baseline.portfolio_ylt.losses, recovered.portfolio_ylt.losses)
            for lid in baseline.ylt_by_layer:
                np.testing.assert_array_equal(
                    baseline.ylt_by_layer[lid].losses,
                    recovered.ylt_by_layer[lid].losses)
            assert recovered.details["degraded"] is False
            # recovery in counts, not ms: one death, one replaced worker,
            # and the YET is not staged again: the resubmitted task names
            # the staged handles
            after = _metrics(engine.dispatcher.pool)
            delta = {k: after[k] - before[k] for k in
                     ("pool.worker_deaths", "pool.executor_cycles",
                      "pool.retries")}
            assert delta["pool.worker_deaths"] == 1
            assert delta["pool.executor_cycles"] == 1
            assert 1 <= delta["pool.retries"] <= recovered.details["n_blocks"]
            assert engine.dispatcher.payload_ships == ships
            if shm.shm_available():
                assert shm.active_segment_names() == segments

    def test_a_worker_killed_after_warmup_is_replaced(
            self, small_portfolio_workload):
        """Killed through its pidfd after ``warmup`` — its first call
        made or not — and before the first run: the run is the inline
        answer, one death is counted, and the replacement, which makes
        no first call, serves the next run."""
        wl = small_portfolio_workload
        kernel = wl.portfolio.kernel()
        inline = InlineDispatcher().run(kernel, wl.yet)
        with PooledDispatcher(n_workers=2) as d:
            d.warmup(wl.yet)
            (worker,) = d.pool._workers
            if worker.pidfd is None:
                pytest.skip("no pidfds on this host")
            signal.pidfd_send_signal(worker.pidfd, signal.SIGKILL)
            assert exited(worker.pid, 5.0)
            assert np.array_equal(d.run(kernel, wl.yet), inline)
            assert d.pool.health.totals["worker_deaths"] == 1
            (replacement,) = d.pool._workers
            assert replacement.pid != worker.pid
            assert np.array_equal(d.run(kernel, wl.yet), inline)
            assert d.pool.health.totals["worker_deaths"] == 1

    def test_a_killed_workers_span_reruns_on_its_replacement_and_cpu(
            self, small_portfolio_workload, monkeypatch):
        """Three processors: the caller sweeps span 0, worker ``i``
        span ``i + 1``.  Worker 1, running span 2, dies: its
        replacement, in slot 1 on slot 1's CPU, reruns span 2 alone —
        worker 0 and its span are untouched, and the caller's span 0
        columns are kept, swept once — and the answer is bit-identical."""
        from repro.serve import dispatch

        wl = small_portfolio_workload
        kernel = wl.portfolio.kernel()
        with PooledDispatcher(n_workers=3) as d:
            clean = d.run(kernel, wl.yet)
            spans = d.spans(wl.yet)
            before = d.pool.starmap(os.getpid, [(), ()])
            placed = worker_probes(d, _placement)
            swept = []
            sweep = dispatch._sweep_trials

            def counted(yet, kernel, t0, t1, out=None):
                swept.append((t0, t1))
                return sweep(yet, kernel, t0, t1, out=out)

            monkeypatch.setattr(dispatch, "_sweep_trials", counted)
            with faults.inject(FaultPlan.kill_task(1)) as plan:
                recovered = d.run(kernel, wl.yet)
            monkeypatch.undo()
            assert plan.exhausted
            after = d.pool.starmap(os.getpid, [(), ()])
            replaced = worker_probes(d, _placement)
            metrics = _metrics(d)
        np.testing.assert_array_equal(recovered, clean)
        np.testing.assert_array_equal(recovered,
                                      InlineDispatcher().run(kernel, wl.yet))
        assert swept == [spans[0]]          # in this process, once
        assert metrics["pool.worker_deaths"] == metrics["pool.retries"] == 1
        assert after[0] == before[0] and after[1] != before[1]
        assert replaced[after[0]] == placed[before[0]]
        assert replaced[after[1]] == (placed[before[1]][0], [spans[2]])
        assert placed[before[0]][1] == [spans[1]]
        assert placed[before[1]][1] == [spans[2]]

    def test_a_caller_error_is_raised_once_every_reply_is_read(
            self, small_portfolio_workload, monkeypatch):
        """The caller's own sweep of span 0 raises while worker 1's task
        is still running: the error is raised once that reply is read,
        no worker is lost to it, and the next run reads no stale reply."""
        from repro.serve import dispatch

        wl = small_portfolio_workload
        kernel = wl.portfolio.kernel()
        with PooledDispatcher(n_workers=3) as d:
            clean = d.run(kernel, wl.yet)
            pids = d.pool.starmap(os.getpid, [(), ()])

            def broken(*args, **kwargs):
                raise ArithmeticError("the caller's sweep failed")

            monkeypatch.setattr(dispatch, "_sweep_trials", broken)
            plan = FaultPlan.delay_task(1, 0.3)
            with faults.inject(plan):
                with pytest.raises(ArithmeticError):
                    d.run(kernel, wl.yet)
            assert plan.exhausted
            monkeypatch.undo()
            np.testing.assert_array_equal(d.run(kernel, wl.yet), clean)
            assert d.pool.starmap(os.getpid, [(), ()]) == pids
            metrics = _metrics(d)
        assert metrics["pool.worker_deaths"] == metrics["pool.retries"] == 0

    def test_degraded_engine_matches_pooled_bitwise(
            self, small_portfolio_workload):
        wl = small_portfolio_workload
        with multicore(2) as engine:
            pooled = engine.run(wl.portfolio, wl.yet)
            engine.dispatcher.pool.health.degraded = True
            inline = engine.run(wl.portfolio, wl.yet)
            assert inline.details["degraded"] is True
            assert inline.details["transport"] == "inline"
            assert inline.details["n_workers"] == 1
            np.testing.assert_array_equal(
                pooled.portfolio_ylt.losses, inline.portfolio_ylt.losses)

    def test_session_surfaces_health_and_replans(
            self, small_portfolio_workload, risk_session):
        wl = small_portfolio_workload
        session = risk_session(wl.yet, wl.portfolio, n_workers=2)
        assert session.pool_health is None  # nothing pooled yet
        session.warmup("pooled")
        health = session.pool_health
        assert health is not None and not health.degraded
        baseline = session.aggregate(engine="multicore")
        health.degraded = True
        plan = session.plan("aggregate")
        est = {e.engine: e for e in plan.estimates}["multicore"]
        assert est.n_procs == 1
        assert est.startup_seconds == 0.0
        assert "serial fallback" in est.note
        assert "serial fallback" in plan.explain()
        degraded = session.aggregate(engine="multicore")
        assert degraded.details["degraded"] is True
        np.testing.assert_array_equal(
            baseline.portfolio_ylt.losses, degraded.portfolio_ylt.losses)


# ---------------------------------------------------------------------------
# recovery through the serving path
# ---------------------------------------------------------------------------

class TestServingChaos:
    def test_worker_death_mid_batch_quotes_unchanged(
            self, small_portfolio_workload, risk_session, pricing_service):
        """A killed worker inside a pooled quote batch is invisible in
        the quotes: supervision resubmits the lost trial blocks and the
        batch prices bit-identical to a fault-free pooled service (and
        to the inline one: no row's answer depends on the trial
        decomposition)."""
        wl = small_portfolio_workload
        layers = list(wl.portfolio)

        inline_svc = pricing_service(wl.yet)
        clean_svc = risk_session(wl.yet, n_workers=3).pricing_service(
            engine="pooled")
        chaos_svc = risk_session(wl.yet, n_workers=3).pricing_service(
            engine="pooled")
        try:
            inline_q = inline_svc.quote_many(layers)
            clean_q = clean_svc.quote_many(layers)
            chaos_svc.warmup()
            with faults.inject(FaultPlan.kill_task(1)) as plan:
                chaos_q = chaos_svc.quote_many(layers)
            assert plan.exhausted
            health = chaos_svc.pool_health
            assert health is not None
            metrics = _metrics(chaos_svc)
            assert metrics["pool.worker_deaths"] >= 1
            assert metrics["pool.retries"] >= 1
            assert not health.degraded
            for clean, chaos, inline in zip(clean_q, chaos_q, inline_q):
                # bit-identical to the fault-free pooled run ...
                assert chaos.expected_loss == clean.expected_loss
                assert chaos.premium == clean.premium
                # ... and to the inline substrate's whole-YET sweep
                assert chaos.premium == inline.premium
        finally:
            inline_svc.close()

    def test_degraded_service_quotes_bit_identical(
            self, small_portfolio_workload, risk_session):
        wl = small_portfolio_workload
        layers = list(wl.portfolio)
        pooled_svc = risk_session(wl.yet, n_workers=2).pricing_service(
            engine="pooled")
        degraded_session = risk_session(wl.yet, n_workers=2)
        degraded_dispatcher = degraded_session.dispatcher("pooled")
        degraded_dispatcher.pool.health.degraded = True
        degraded_svc = degraded_session.pricing_service(engine="pooled")
        assert degraded_svc.dispatcher is degraded_dispatcher
        assert degraded_dispatcher.n_procs == 1
        assert degraded_dispatcher.transport_active == "inline"
        pooled_q = pooled_svc.quote_many(layers)
        degraded_q = degraded_svc.quote_many(layers)
        assert _metrics(degraded_dispatcher)["pool.degraded_calls"] >= 1
        for a, b in zip(pooled_q, degraded_q):
            assert a.expected_loss == b.expected_loss
            assert a.premium == b.premium

    def test_terminal_serving_failure_is_typed(self, small_portfolio_workload,
                                               risk_session, monkeypatch):
        wl = small_portfolio_workload
        layers = list(wl.portfolio)[:2]
        svc = risk_session(wl.yet, n_workers=2).pricing_service(
            engine="pooled")
        monkeypatch.setattr(supervision, "MAX_RETRIES", 0)
        plan = FaultPlan([FaultSpec("kill", i) for i in range(8)])
        with faults.inject(plan):
            with pytest.raises(ExecutionError) as exc_info:
                svc.quote_many(layers)
        assert exc_info.value.failures
        assert _metrics(svc)["pool.call_failures"] == 1
        # the service survives: the next batch prices normally
        faults.clear()
        quotes = svc.quote_many(layers)
        assert len(quotes) == 2
