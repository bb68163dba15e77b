"""Tests for the session layer: RiskSession, the planner, the registry.

The contract under test is the paper's thesis applied to the API: bind
the YET once, stage it once, and every workload — aggregate runs, quote
batches, EP curves, sensitivities — sweeps data that is already
resident.  Plus the engine registry (one table from a name to its
engine class, boundary-surfaced unknown-name errors) and the cost-model
planner behind ``engine="auto"``.
"""

import dataclasses

import numpy as np

import pytest
from conftest import exited, multicore, python_c, worker_pids

from repro.core.engines import (
    Engine,
    VectorizedEngine,
    available_engines,
    engine_class,
    get_engine,
)
from repro.core.kernels import ROUTING_COUNTERS
from repro.core.layer import Layer
from repro.errors import ConfigurationError, EngineError
from repro.hpc import shm
from repro.hpc.cost_model import ThroughputEstimate
from repro.session import EnginePlanner, ExecutionPlan, RiskSession

ALL_ENGINES = ["sequential", "vectorized", "device", "multicore",
               "mapreduce"]

needs_shm = pytest.mark.skipif(
    not shm.shm_available(), reason="shared memory unavailable on this host"
)


def _candidates(portfolio, n):
    base = portfolio.layers[0]
    out = []
    for i in range(n):
        terms = dataclasses.replace(
            base.terms, occ_retention=base.terms.occ_retention * (1 + 0.2 * i)
        )
        out.append(Layer(900 + i, base.elts, terms, weights=base.weights))
    return out


# ---------------------------------------------------------------------------
# the declarative registry
# ---------------------------------------------------------------------------

class TestEngineSpecs:
    def test_every_engine_has_a_spec(self):
        """The engine class is the record: its name is its key."""
        for name in ALL_ENGINES:
            cls = engine_class(name)
            assert issubclass(cls, Engine)
            assert cls.name == name
            assert cls().name == name

    def test_unknown_name_surfaces_available_list(self):
        with pytest.raises(EngineError) as err:
            engine_class("quantum")
        for name in ALL_ENGINES:
            assert name in str(err.value)

    def test_capability_flags_match_engine_behaviour(self, tiny_workload,
                                                     risk_session):
        """No engine declares a YELT capability, and every one emits:
        the same YELTs, through the session, by name."""
        session = risk_session(tiny_workload.yet, tiny_workload.portfolio,
                               n_workers=2)
        ref = session.aggregate(engine="vectorized", emit_yelt=True)
        for name in ALL_ENGINES:
            assert not hasattr(engine_class(name), "emits_yelt")
            res = session.aggregate(engine=name, emit_yelt=True)
            assert res.yelt_by_layer.keys() == ref.yelt_by_layer.keys()
            for lid, yelt in ref.yelt_by_layer.items():
                assert res.yelt_by_layer[lid].table.equals(
                    yelt.table, rtol=1e-12, atol=1e-9), (name, lid)


# ---------------------------------------------------------------------------
# the planner
# ---------------------------------------------------------------------------

class TestPlanner:
    def test_tiny_workload_plans_inline(self):
        planner = EnginePlanner(n_workers=8)
        plan = planner.plan("aggregate", n_trials=100, n_occurrences=1_000,
                            n_layers=1)
        assert plan.engine == "vectorized"
        assert plan.transport == "inline"

    def test_huge_workload_plans_pooled(self):
        planner = EnginePlanner(n_workers=8)
        plan = planner.plan("aggregate", n_trials=1_000_000,
                            n_occurrences=500_000_000, n_layers=16)
        assert plan.engine == "multicore"
        assert plan.n_procs == 8

    def test_single_core_host_never_plans_pooled(self):
        planner = EnginePlanner(n_workers=1)
        plan = planner.plan("aggregate", n_trials=1_000_000,
                            n_occurrences=500_000_000, n_layers=16)
        assert plan.engine == "vectorized"
        ineligible = [e for e in plan.estimates if not e.eligible]
        assert ineligible and ineligible[0].engine == "multicore"

    def test_warm_pool_waives_startup(self):
        planner = EnginePlanner(n_workers=4)
        shape = dict(n_trials=10_000, n_occurrences=2_000_000, n_layers=4)
        cold = planner.plan("aggregate", pool_warm=False, **shape)
        warm = planner.plan("aggregate", pool_warm=True, **shape)
        cold_mc = next(e for e in cold.estimates if e.engine == "multicore")
        warm_mc = next(e for e in warm.estimates if e.engine == "multicore")
        assert cold_mc.startup_seconds > 0
        assert warm_mc.startup_seconds == 0

    def test_observation_calibrates_the_estimate(self, tiny_workload,
                                                 risk_session):
        session = risk_session(tiny_workload.yet)
        rate = session.dispatcher("inline").throughput

        def throughput():
            est = next(e for e in session.plan().estimates
                       if e.engine == "vectorized")
            return est.throughput_per_proc

        seed = throughput()
        rate.observe(1e6, 1.0)
        assert throughput() == pytest.approx(1e6)
        assert throughput() != seed
        # second observation is EWMA-blended, not a replacement
        rate.observe(2e6, 1.0)
        assert 1e6 < throughput() < 2e6

    def test_explain_names_engine_and_cost_inputs(self):
        planner = EnginePlanner(n_workers=8)
        plan = planner.plan("aggregate", n_trials=1_000,
                            n_occurrences=100_000, n_layers=2)
        text = plan.explain()
        assert plan.engine in text
        assert "lanes" in text
        assert "throughput" in text
        assert "startup" in text
        for est in plan.estimates:
            assert est.engine in text

    def test_seeded_rows_price_exactly_as_the_cost_model(self):
        """The table's two rows are the seed numbers the registry used
        to carry, priced through ``StageSpec`` and nothing else."""
        from repro.hpc.cost_model import StageSpec

        for n_workers, shape in (
                (8, dict(n_trials=100, n_occurrences=1_000, n_layers=1)),
                (8, dict(n_trials=1_000_000, n_occurrences=500_000_000,
                         n_layers=16)),
                (4, dict(n_trials=10_000, n_occurrences=2_000_000,
                         n_layers=4))):
            plan = EnginePlanner(n_workers=n_workers).plan("aggregate",
                                                           **shape)
            lanes = float(shape["n_occurrences"] * shape["n_layers"])
            est = {e.engine: e for e in plan.estimates}
            assert list(est) == ["vectorized", "multicore"]
            vec, mc = est["vectorized"], est["multicore"]
            assert (vec.n_procs, mc.n_procs) == (1, n_workers)
            assert vec.runtime_seconds == StageSpec(
                "v", lanes, 2.5e7).runtime_seconds(1)
            assert vec.startup_seconds == 0.0
            assert mc.runtime_seconds == StageSpec(
                "m", lanes, 2.2e7, parallel_fraction=0.92,
                comm_overhead_per_proc_s=0.01).runtime_seconds(n_workers)
            assert mc.startup_seconds == 0.35

    def test_a_measured_row_is_priced_at_what_it_measured(self):
        """A row whose dispatcher has run takes ``lanes / (rate x
        procs)``, the inverse of ``ThroughputEstimate.observe``: no
        Amdahl fraction or communication term on top of a wall-time
        rate."""
        shape = dict(n_trials=2_000, n_occurrences=200_000, n_layers=8)
        lanes = 200_000 * 8
        plan = EnginePlanner(n_workers=2).plan(
            "aggregate", pool_warm=True,
            rates={"inline": 4e8, "pooled": 2.5e8}, **shape)
        est = {e.engine: e for e in plan.estimates}
        assert est["vectorized"].runtime_seconds == lanes / 4e8
        assert est["multicore"].runtime_seconds == lanes / (2.5e8 * 2)
        assert plan.engine == "multicore"

    def test_after_both_run_auto_picks_the_faster_measured_one(
            self, small_portfolio_workload, risk_session):
        wl = small_portfolio_workload
        session = risk_session(wl.yet, wl.portfolio, n_workers=2)
        session.aggregate(engine="vectorized")
        session.aggregate(engine="multicore")
        lanes = wl.portfolio.n_layers * wl.yet.n_occurrences
        inline = session.dispatcher("inline")
        pooled = session.dispatcher("pooled")
        seconds = {
            "vectorized": lanes / inline.throughput.rate,
            "multicore": lanes / (pooled.throughput.rate * pooled.n_procs)}
        plan = session.plan("aggregate")
        assert plan.engine == min(seconds, key=seconds.get)
        for est in plan.estimates:
            assert est.calibrated
            assert est.total_seconds == pytest.approx(seconds[est.engine])
        (chosen,) = [line for line in plan.explain().splitlines()
                     if line.startswith("  * ")]
        assert plan.engine in chosen and "(measured)" in chosen

    def test_unpriced_engines_calibrate_nothing(self):
        """A rate is read for a row's dispatcher only: one for a name
        no row runs on prices nothing."""
        planner = EnginePlanner(n_workers=4)
        shape = dict(n_trials=10_000, n_occurrences=1_000_000, n_layers=16)
        plan = planner.plan("aggregate", rates={"device": 1e6,
                                                "inline": None}, **shape)
        assert [e.engine for e in plan.estimates] == ["vectorized",
                                                      "multicore"]
        assert not any(e.calibrated for e in plan.estimates)

    def test_unknown_workload_rejected(self):
        for workload in ("quantum", "sensitivity"):
            with pytest.raises(ConfigurationError):
                EnginePlanner(n_workers=2).plan(workload, n_trials=1,
                                                n_occurrences=1)

    def test_plan_workload_one_shot(self, tiny_workload, risk_session):
        plan = risk_session(tiny_workload.yet).plan("aggregate", n_layers=1)
        assert isinstance(plan, ExecutionPlan)
        assert plan.engine in available_engines()


# ---------------------------------------------------------------------------
# session lifecycle
# ---------------------------------------------------------------------------

class TestSessionLifecycle:
    def test_close_is_idempotent(self, tiny_workload):
        session = RiskSession(tiny_workload.yet, tiny_workload.portfolio)
        session.aggregate(engine="vectorized")
        session.close()
        session.close()
        assert session.closed

    def test_use_after_close_raises(self, tiny_workload):
        session = RiskSession(tiny_workload.yet, tiny_workload.portfolio)
        session.close()
        for call in (
            lambda: session.aggregate(engine="vectorized"),
            lambda: session.quote(tiny_workload.portfolio.layers[0]),
            lambda: session.ep_curve(),
            lambda: session.plan(),
            lambda: session.engine("vectorized"),
            lambda: session.dispatcher("inline"),
            lambda: session.pricing_service(),
            lambda: session.warmup(),
        ):
            with pytest.raises(ConfigurationError, match="closed"):
                call()

    def test_context_manager_closes(self, tiny_workload):
        with RiskSession(tiny_workload.yet, tiny_workload.portfolio) as s:
            s.aggregate(engine="vectorized")
        assert s.closed

    @pytest.mark.parametrize("name", ALL_ENGINES)
    def test_no_worker_outlives_a_closed_session(self, tiny_workload, name):
        """Whichever engine ran — by name, or an instance riding the
        session's pool — the session's close leaves no worker process
        (read off the pool's own record: a worker is its template's
        child) and no child process."""
        import multiprocessing

        from repro.core.engines import MulticoreEngine

        before = set(multiprocessing.active_children())
        with RiskSession(tiny_workload.yet, tiny_workload.portfolio,
                         n_workers=2) as session:
            session.aggregate(engine=name, emit_yelt=True)
            pooled = session.dispatcher("pooled")
            session.aggregate(engine=MulticoreEngine.riding(pooled))
            pids = worker_pids(pooled.pool)
            if shm.shm_available():
                assert pids and not any(exited(pid) for pid in pids)
        assert all(exited(pid) for pid in pids)
        assert set(multiprocessing.active_children()) <= before

    @needs_shm
    def test_a_session_left_open_leaves_no_process_at_exit(self):
        """A process that opens a pooled session and exits without
        closing it leaves no process behind: its template reads the end
        of its socket and each worker the end of its pipe, so a reader
        of its stdout reads the end of it, and every pid it printed has
        exited.  A task its ``__main__`` defines after ``import repro``
        is not found by a worker, and raises in the caller."""
        proc = python_c("""
            from repro.bench.workloads import build_layer_workload
            from repro.hpc import pool as supervision
            from repro.session import RiskSession

            def late():
                return 1

            wl = build_layer_workload(
                n_trials=200, mean_events_per_trial=25.0, n_elts=2,
                elt_rows=150, catalog_events=500, seed=99)
            session = RiskSession(wl.yet, wl.portfolio, n_workers=3)
            session.aggregate(engine="multicore")
            pool = session.dispatcher("pooled").pool
            try:
                pool.starmap(late, [()])
            except AttributeError:
                print("late: AttributeError")
            print(supervision._TEMPLATE.pid, *(w.pid for w in pool._workers))
        """)
        assert proc.returncode == 0
        late, pids = proc.stdout.splitlines()
        assert late == "late: AttributeError"
        pids = [int(pid) for pid in pids.split()]
        assert len(set(pids)) == 3
        assert all(exited(pid, 10.0) for pid in pids)

    @needs_shm
    def test_no_leaked_segments(self, tiny_workload):
        before = set(shm.active_segment_names())
        with RiskSession(tiny_workload.yet, tiny_workload.portfolio,
                         n_workers=2) as s:
            s.aggregate(engine="multicore")
            s.pricing_service(engine="pooled").quote(
                tiny_workload.portfolio.layers[0]
            )
        assert set(shm.active_segment_names()) == before

    def test_rejects_wrong_types(self, tiny_workload):
        with pytest.raises(ConfigurationError):
            RiskSession("not a yet")
        with pytest.raises(ConfigurationError):
            RiskSession(tiny_workload.yet, "not a portfolio")
        for transport in ("carrier-pigeon", "pickle", "auto"):
            with pytest.raises(ConfigurationError):
                RiskSession(tiny_workload.yet, transport=transport)
        RiskSession(tiny_workload.yet, transport="shm").close()

    def test_no_bound_portfolio_is_a_clear_error(self, tiny_workload):
        with RiskSession(tiny_workload.yet) as s:
            with pytest.raises(ConfigurationError, match="portfolio"):
                s.aggregate()

    def test_closing_a_session_service_keeps_the_session_alive(
            self, tiny_workload, risk_session):
        session = risk_session(tiny_workload.yet, tiny_workload.portfolio)
        svc = session.pricing_service()
        svc.quote(tiny_workload.portfolio.layers[0])
        svc.close()
        # the session's substrate survives its services
        res = session.aggregate(engine="vectorized")
        assert res.portfolio_ylt.n_trials == tiny_workload.yet.n_trials


# ---------------------------------------------------------------------------
# parity: session-mediated vs the engines and services built by hand
# ---------------------------------------------------------------------------

class TestSessionParity:
    @pytest.mark.parametrize("name", ALL_ENGINES)
    def test_aggregate_matches_legacy(self, tiny_workload, risk_session, name):
        """A session-owned engine answers what the registry's engine,
        built and run by hand, answers."""
        if name == "multicore":
            with multicore(2) as engine:
                legacy = engine.run(tiny_workload.portfolio, tiny_workload.yet)
        else:
            legacy = get_engine(name).run(tiny_workload.portfolio,
                                          tiny_workload.yet)
        session = risk_session(tiny_workload.yet, tiny_workload.portfolio)
        staged = session.aggregate(engine=name)
        assert staged.engine == legacy.engine == name
        np.testing.assert_array_equal(staged.portfolio_ylt.losses,
                                      legacy.portfolio_ylt.losses)
        for lid, ylt in legacy.ylt_by_layer.items():
            np.testing.assert_array_equal(staged.ylt_by_layer[lid].losses,
                                          ylt.losses)

    def test_session_quote_matches_legacy_service(self, tiny_workload,
                                                  risk_session,
                                                  pricing_service):
        """The session's default service quotes what an inline service
        built on another session over the same YET quotes."""
        layer = tiny_workload.portfolio.layers[0]
        with pricing_service(tiny_workload.yet) as svc:
            legacy = svc.quote(layer)
        session = risk_session(tiny_workload.yet, tiny_workload.portfolio)
        staged = session.quote(layer)
        assert staged.premium == pytest.approx(legacy.premium, rel=1e-9)

    def test_session_sensitivities_match_legacy(self, tiny_workload,
                                                risk_session):
        from repro.analytics.sensitivity import term_sensitivities

        layer = tiny_workload.portfolio.layers[0]
        session = risk_session(tiny_workload.yet, tiny_workload.portfolio)
        staged = session.sensitivities(layer, engine="vectorized")
        # The function on a fresh session, with any engine the session
        # resolves: the registry default, and the planner's choice.
        for engine in ("vectorized", "auto"):
            legacy = term_sensitivities(risk_session(tiny_workload.yet),
                                        layer, engine=engine)
            assert staged == pytest.approx(legacy)

    def test_ep_curves_from_one_run(self, small_portfolio_workload,
                                    risk_session):
        session = risk_session(small_portfolio_workload.yet,
                               small_portfolio_workload.portfolio)
        by_layer, total = session.ep_curves(engine="vectorized")
        assert set(by_layer) == set(
            small_portfolio_workload.portfolio.layer_ids
        )
        # the portfolio's total-loss curve dominates each layer's
        for curve in by_layer.values():
            assert total.dominates(curve)

    def test_ep_curve_layer_path_matches_service(self, tiny_workload,
                                                 risk_session):
        layer = tiny_workload.portfolio.layers[0]
        session = risk_session(tiny_workload.yet, tiny_workload.portfolio)
        via_layer = session.ep_curve(layer)
        assert via_layer.n_trials == tiny_workload.yet.n_trials


# ---------------------------------------------------------------------------
# the staged data plane: the one-ship invariant
# ---------------------------------------------------------------------------

class TestStagedPayload:
    @needs_shm
    def test_mixed_workload_ships_payload_once(self, small_portfolio_workload,
                                               risk_session):
        """Acceptance: aggregate + >=8 quotes + EP curve through one
        session stages the YET at most once (``pool.payload_ships``)."""
        from repro.serve.cache import CachePolicy

        wl = small_portfolio_workload
        session = risk_session(wl.yet, wl.portfolio, n_workers=2)
        session.aggregate(engine="multicore")
        assert session.payload_ships == 1
        svc = session.pricing_service(engine="pooled", cache=CachePolicy(0))
        quotes = svc.quote_many(_candidates(wl.portfolio, 8))
        assert len(quotes) == 8 and all(q.premium >= 0 for q in quotes)
        svc.ep_curve(wl.portfolio.layers[0])
        assert session.payload_ships == 1
        # and a repeat aggregate, the session's own quotes and EP
        # curves still re-ship nothing
        session.aggregate(engine="multicore")
        session.quote_many(_candidates(wl.portfolio, 4))
        session.ep_curves(engine="multicore")
        assert session.payload_ships == 1
        # one scrape of the session's plane sees the whole stack: the
        # ship counter, the serve counters, and the session counters
        metrics = session.telemetry.snapshot()["metrics"]
        assert metrics["pool.payload_ships"] == 1
        assert metrics["serve.requests"] >= 8
        assert metrics["session.aggregates"] == 3     # ep_curves runs one

    @needs_shm
    def test_a_session_owns_one_pool(self, small_portfolio_workload,
                                     risk_session):
        """Every pooled workload rides the session's one staged pool,
        and no call can configure a second: an engine is configured by
        building it, not by keywords on ``aggregate``."""
        from repro.serve.cache import CachePolicy

        wl = small_portfolio_workload
        session = risk_session(wl.yet, wl.portfolio, n_workers=2)
        session.aggregate(engine="multicore")
        session.aggregate(engine="multicore")
        svc = session.pricing_service(engine="pooled", cache=CachePolicy(0))
        svc.quote_many(_candidates(wl.portfolio, 8))
        engine = session.engine("multicore")
        pooled = session.dispatcher("pooled")
        pool = pooled.pool
        assert session.payload_ships == pooled.payload_ships == 1
        assert engine.dispatcher.pool is pool and svc.dispatcher.pool is pool
        assert [e.dispatcher for e in session._engines.values()] == [pooled]
        with pytest.raises(TypeError, match="n_workers"):
            session.aggregate(engine="multicore", n_workers=2)
        with pytest.raises(TypeError, match="n_workers"):
            session.engine("multicore", n_workers=2)
        assert session.payload_ships == 1

    @needs_shm
    def test_session_counts_are_read_off_the_plane(
            self, small_portfolio_workload, risk_session):
        """Every ``session.*`` count is read from the plane's scrape,
        the one place it lives."""
        wl = small_portfolio_workload
        session = risk_session(wl.yet, wl.portfolio, n_workers=2)
        # quoted before any run, so the serving plan is priced at its
        # seeds (a cold pool's start-up dominates) and not at the wall
        # time of a cold run: the quotes ride the inline dispatcher
        session.quote_many(_candidates(wl.portfolio, 3))
        session.aggregate(engine="multicore")
        session.aggregate(engine="multicore")
        session.aggregate()
        session.ep_curves()
        metrics = session.telemetry.snapshot()["metrics"]
        assert metrics["session.stages"] == 1
        # the engine was handed the staged dispatcher when the session
        # built it; its runs look nothing up
        assert metrics["session.stage_reuse"] == 0
        assert metrics["session.quotes"] == 3

    @needs_shm
    def test_run_all_ships_do_not_grow_across_the_sweep(
            self, tiny_workload, risk_session):
        """Satellite: run_all through one session stages (kernel, YET)
        once; a second sweep ships nothing more."""
        session = risk_session(tiny_workload.yet, tiny_workload.portfolio,
                               n_workers=2)
        first = session.run_all(["vectorized", "multicore"])
        ships_after_first = session.payload_ships
        assert ships_after_first == 1
        second = session.run_all(["vectorized", "multicore"])
        assert session.payload_ships == ships_after_first
        np.testing.assert_array_equal(first["multicore"].portfolio_ylt.losses,
                                      second["multicore"].portfolio_ylt.losses)

    @needs_shm
    def test_staged_multicore_details(self, tiny_workload, risk_session):
        session = risk_session(tiny_workload.yet, tiny_workload.portfolio,
                               n_workers=2)
        res = session.aggregate(engine="multicore")
        assert res.details["n_workers"] == 2
        assert res.details["n_blocks"] == 2
        assert res.details["transport"] == "shm"

    def test_reading_the_session_engine_counts_and_builds_nothing(
            self, tiny_workload, risk_session):
        """The session looks an engine's dispatcher up once, when it
        builds the engine: each host engine rides the session's own
        dispatcher for its row, no worker is spawned until a run, and
        neither runs nor ``.dispatcher`` reads move the stage counters."""
        session = risk_session(tiny_workload.yet, tiny_workload.portfolio,
                               n_workers=2)

        def stage_counts():
            metrics = session.telemetry.snapshot()["metrics"]
            return (metrics.get("session.stages", 0),
                    metrics.get("session.stage_reuse", 0))

        assert stage_counts() == (0, 0)
        engine = session.engine("multicore")
        inline = session.engine("vectorized")
        assert stage_counts() == (1, 0)
        assert session.engine("multicore") is engine
        assert not engine.dispatcher.pool.started
        session.aggregate(engine="multicore")
        session.aggregate(engine="multicore")
        session.aggregate(engine="vectorized")
        assert engine.dispatcher.pool.started
        assert engine.dispatcher.pool.health.degraded is False
        assert stage_counts() == (1, 0)
        assert inline.dispatcher is session.dispatcher("inline")
        assert engine.dispatcher is session.dispatcher("pooled")
        assert stage_counts() == (1, 1)      # that one was this test's own
        assert not hasattr(engine, "close")  # rides, so owns nothing

    def test_degraded_details_report_the_blocks_that_ran(
            self, tiny_workload, risk_session):
        """A degraded pool sweeps serial over the workers' blocks: one
        processor, still ``pool.n_workers`` blocks."""
        session = risk_session(tiny_workload.yet, tiny_workload.portfolio,
                               n_workers=2)
        session.dispatcher("pooled").pool.health.degraded = True
        res = session.aggregate(engine="multicore")
        assert res.details["degraded"] is True
        assert res.details["n_workers"] == 1
        assert res.details["n_blocks"] == 2
        assert res.details["transport"] == "inline"

    def test_staged_multicore_rejects_emit_yelt(self, tiny_workload,
                                                risk_session):
        """The staged multicore engine rejects no YELT request: a YELT
        is drawn host-side from the kernel and the YET, so the session's
        pool emits what its inline dispatcher does."""
        session = risk_session(tiny_workload.yet, tiny_workload.portfolio,
                               n_workers=2)
        res = session.aggregate(engine="multicore", emit_yelt=True)
        ref = session.aggregate(engine="vectorized", emit_yelt=True)
        assert res.details["n_blocks"] == 2
        assert res.yelt_rows() == ref.yelt_rows() > 0
        for lid, yelt in ref.yelt_by_layer.items():
            for column in ("trial", "event_id", "loss"):
                np.testing.assert_array_equal(
                    res.yelt_by_layer[lid].table[column], yelt.table[column])


# ---------------------------------------------------------------------------
# engine="auto" through the session
# ---------------------------------------------------------------------------

class TestAutoEngine:
    def test_auto_with_emit_yelt_plans_an_emitting_engine(self, tiny_workload,
                                                          risk_session):
        """Every substrate emits, so ``emit_yelt`` does not constrain the
        plan: ``auto`` emits on whichever substrate wins on cost."""
        session = risk_session(tiny_workload.yet, tiny_workload.portfolio,
                               n_workers=2)
        ref = session.aggregate(engine="vectorized", emit_yelt=True)
        session.warmup()
        for winner in ("multicore", "vectorized"):
            for name in ("multicore", "vectorized"):
                session.dispatcher(name).throughput.rate = (
                    1e15 if name == winner else 1.0)
            res = session.aggregate(engine="auto", emit_yelt=True)
            assert res.engine == res.details["plan"].engine == winner
            assert all(e.eligible for e in res.details["plan"].estimates)
            assert res.yelt_rows() == ref.yelt_rows() > 0
            for lid, yelt in ref.yelt_by_layer.items():
                np.testing.assert_array_equal(
                    res.yelt_by_layer[lid].table["loss"], yelt.table["loss"])

    def test_planner_marks_non_emitters_ineligible(self):
        """There are no non-emitters to mark: the planner takes no YELT
        constraint, and a shape where multicore wins plans multicore
        with every substrate eligible and no YELT note."""
        import inspect

        assert "require_emit_yelt" not in inspect.signature(
            EnginePlanner.plan).parameters
        assert "require_emit_yelt" not in inspect.signature(
            RiskSession.plan).parameters
        plan = EnginePlanner(n_workers=8).plan(
            "aggregate", n_trials=1_000_000, n_occurrences=500_000_000,
            n_layers=16)
        assert plan.engine == "multicore"
        assert all(e.eligible for e in plan.estimates)
        assert "YELT" not in plan.explain()

    def test_auto_attaches_an_execution_plan(self, tiny_workload,
                                             risk_session):
        session = risk_session(tiny_workload.yet, tiny_workload.portfolio)
        res = session.aggregate()
        plan = res.details["plan"]
        assert isinstance(plan, ExecutionPlan)
        assert plan.engine == res.engine
        text = plan.explain()
        assert res.engine in text and "throughput" in text

    def test_auto_works_standalone(self, tiny_workload):
        """A session opened for one run plans it, and closes."""
        with RiskSession(tiny_workload.yet, tiny_workload.portfolio) as s:
            res = s.aggregate(engine="auto")
        assert isinstance(res.details["plan"], ExecutionPlan)
        assert res.engine == res.details["plan"].engine

    def test_auto_emit_yelt_works_standalone(self, tiny_workload):
        """The emit_yelt constraint reaches the planner of a session
        opened for one run."""
        with RiskSession(tiny_workload.yet, tiny_workload.portfolio) as s:
            res = s.aggregate(engine="auto", emit_yelt=True)
        assert res.yelt_by_layer
        assert res.engine == res.details["plan"].engine

    def test_plan_and_dispatcher_come_from_one_row(self, tiny_workload,
                                                   risk_session):
        """What a serving plan names is what ``dispatcher("auto")``
        hands back, whichever substrate is the cheapest."""
        session = risk_session(tiny_workload.yet, tiny_workload.portfolio,
                               n_workers=2)
        rows = {est.engine: session.dispatcher(est.engine)
                for est in session.plan("serving").estimates}
        assert {d.name for d in rows.values()} == {"inline", "pooled"}
        # (first observations replace the seed outright, so the slow
        # 1 lane/s reading has to come before the fast one)
        for winner in ("multicore", "vectorized"):
            for engine in rows:
                session.dispatcher(engine).throughput.observe(
                    1e15 if engine == winner else 1.0, 1.0)
            plan = session.plan("serving")
            assert plan.engine == winner
            assert rows[winner].name == plan.dispatcher
            assert session.dispatcher("auto") is rows[winner]

    def test_simulated_runs_leave_auto_on_the_host(self, tiny_workload,
                                                   risk_session):
        session = risk_session(tiny_workload.yet, tiny_workload.portfolio,
                               n_workers=2)
        for name in ("device", "mapreduce"):
            assert session.aggregate(engine=name).engine == name
        res = session.aggregate(engine="auto")
        assert res.engine in ("vectorized", "multicore")
        estimates = res.details["plan"].estimates
        assert [e.engine for e in estimates] == ["vectorized", "multicore"]
        assert not any(e.calibrated for e in estimates)

    def test_simulated_runs_route_onto_the_session_plane(
            self, tiny_workload, risk_session):
        """``device`` and ``mapreduce`` ride inline dispatchers of their own,
        so they calibrate nothing; where their rows were priced still
        lands on the session's plane, once, as a session dispatcher's
        run does for ``vectorized``."""
        session = risk_session(tiny_workload.yet, tiny_workload.portfolio)

        def routing():
            metrics = session.telemetry.snapshot()["metrics"]
            return {name: metrics.get(name, 0) for name in ROUTING_COUNTERS}

        for name in ("device", "mapreduce", "vectorized"):
            before = routing()
            routed = session.aggregate(engine=name).details["routed"]
            moved = {k: v - before[k] for k, v in routing().items()}
            assert moved == {k: routed.get(k, 0) for k in ROUTING_COUNTERS}
            assert sum(moved.values()) > 0, name

    def test_runs_calibrate_later_plans(self, tiny_workload, risk_session):
        session = risk_session(tiny_workload.yet, tiny_workload.portfolio)
        seed_rate = session.plan().chosen.throughput_per_proc
        session.aggregate(engine="vectorized")
        est = next(e for e in session.plan().estimates
                   if e.engine == "vectorized")
        assert est.calibrated
        assert est.throughput_per_proc != pytest.approx(seed_rate)


# ---------------------------------------------------------------------------
# one measured rate per substrate: the dispatcher's
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def rated_workload():
    """8 books over 200 k occurrences: large enough that a measured
    sweep rate sits far above any order-of-magnitude seed."""
    from repro.bench.workloads import build_portfolio_workload

    return build_portfolio_workload(
        n_layers=8, n_trials=2_000, mean_events_per_trial=100.0,
        elts_per_layer=2, elt_rows=400, catalog_events=5_000, seed=5)


class TestOneMeasuredRate:
    def test_a_serving_only_session_calibrates_auto(self, rated_workload,
                                                    risk_session):
        wl = rated_workload
        session = risk_session(wl.yet, wl.portfolio)
        session.pricing_service("inline").quote_many(list(wl.portfolio))
        est = next(e for e in session.plan("serving").estimates
                   if e.engine == "vectorized")
        assert est.calibrated
        assert est.throughput_per_proc == (
            session.dispatcher("inline").throughput.rate)

    def test_a_fresh_service_on_a_warm_session_admits_an_idle_request(
            self, rated_workload, risk_session):
        wl = rated_workload
        session = risk_session(wl.yet, wl.portfolio)
        warm = session.pricing_service("inline")
        warm.quote_many(list(wl.portfolio))
        metrics = warm.telemetry.snapshot()["metrics"]
        lanes = wl.yet.n_occurrences
        # the warm batch's measured rate, off the service's own counters
        measured = (metrics["serve.sweep_seconds"]
                    / metrics["serve.kernel_rows"])
        seeded = lanes / 1e7   # a fresh controller's former seed rate
        assert measured < seeded
        svc = session.pricing_service(
            "inline", slo_seconds=(measured * seeded) ** 0.5)
        assert svc.quote(wl.portfolio.layers[0]).premium > 0
        assert svc.telemetry.snapshot()["metrics"]["serve.shed"] == 0

    def test_one_estimate_serves_every_reader(self, small_portfolio_workload,
                                              risk_session, monkeypatch):
        wl = small_portfolio_workload
        session = risk_session(wl.yet, wl.portfolio, n_workers=2)
        svc = session.pricing_service("inline")
        inline = session.dispatcher("inline").throughput
        assert svc.admission.throughput is inline
        assert inline.rate is None
        session.aggregate(engine="vectorized")
        after_aggregate = inline.rate
        assert after_aggregate is not None
        svc.quote_many(_candidates(wl.portfolio, 4))
        assert inline.rate != after_aggregate

        observed = []
        real_observe = ThroughputEstimate.observe

        def spy(self, work_items, seconds, n_procs=1):
            observed.append((self, work_items, seconds, n_procs))
            return real_observe(self, work_items, seconds, n_procs)

        monkeypatch.setattr(ThroughputEstimate, "observe", spy)
        pooled = session.dispatcher("pooled")
        session.aggregate(engine="multicore")
        assert pooled.n_procs == 2
        (estimate, lanes, seconds, n_procs), = observed
        assert estimate is pooled.throughput
        assert (lanes, n_procs) == (
            wl.portfolio.n_layers * wl.yet.n_occurrences, 2)
        assert pooled.throughput.rate == pytest.approx(lanes / seconds / 2)


# ---------------------------------------------------------------------------
# registry/session parity for engine options (satellite)
# ---------------------------------------------------------------------------

class TestKernelOptionParity:
    """Engine options must behave identically on an engine built from
    the registry and through the session."""

    def test_neither_entry_point_takes_a_kernel_sweep_option(
            self, small_portfolio_workload, risk_session):
        """How rows are priced is the kernel's rule, not an engine
        option: both entry points refuse the retired knobs alike."""
        wl = small_portfolio_workload
        session = risk_session(wl.yet, wl.portfolio)
        for knob in ({"sublinear_tail": False}, {"block_occurrences": 64}):
            with pytest.raises(TypeError, match=next(iter(knob))):
                get_engine("vectorized", **knob)
            with pytest.raises(TypeError, match=next(iter(knob))):
                session.aggregate(engine="vectorized", **knob)
        res_sa = get_engine("vectorized").run(wl.portfolio, wl.yet)
        assert "sublinear_tail" not in res_sa.details
        np.testing.assert_array_equal(
            res_sa.portfolio_ylt.losses,
            session.aggregate(engine="vectorized").portfolio_ylt.losses)

    def test_run_all_matches_between_entry_points(
            self, small_portfolio_workload, risk_session):
        wl = small_portfolio_workload
        names = ["sequential", "vectorized", "device"]
        standalone = {name: get_engine(name).run(wl.portfolio, wl.yet)
                      for name in names}
        session = risk_session(wl.yet, wl.portfolio)
        via_session = session.run_all(names)
        assert set(standalone) == set(via_session) == set(names)
        for name in names:
            np.testing.assert_allclose(
                standalone[name].portfolio_ylt.losses,
                via_session[name].portfolio_ylt.losses,
            )


# ---------------------------------------------------------------------------
# boundary errors at the session's doors (satellite)
# ---------------------------------------------------------------------------

class TestBoundaryErrors:
    def test_unknown_engine_name_in_run(self, tiny_workload, risk_session):
        session = risk_session(tiny_workload.yet, tiny_workload.portfolio)
        with pytest.raises(EngineError) as err:
            session.engine("quantum")
        assert "available" in str(err.value)
        for name in ALL_ENGINES:
            assert name in str(err.value)

    def test_run_all_validates_names_before_running(self, tiny_workload,
                                                    risk_session):
        session = risk_session(tiny_workload.yet, tiny_workload.portfolio)
        with pytest.raises(EngineError) as err:
            session.run_all(["vectorized", "quantum"])
        assert "available" in str(err.value)
        metrics = session.telemetry.snapshot()["metrics"]
        assert metrics["session.aggregates"] == 0

    def test_session_surfaces_unknown_engine(self, tiny_workload,
                                             risk_session):
        session = risk_session(tiny_workload.yet, tiny_workload.portfolio)
        with pytest.raises(EngineError) as err:
            session.aggregate(engine="quantum")
        assert "available" in str(err.value)

    def test_session_surfaces_unknown_dispatcher(self, tiny_workload,
                                                 risk_session):
        session = risk_session(tiny_workload.yet, tiny_workload.portfolio)
        with pytest.raises(ConfigurationError, match="dispatcher"):
            session.dispatcher("warp-drive")
        # the one name resolver: engine aliases name the same substrates
        assert session.dispatcher("vectorized") is session.dispatcher("inline")
        assert session.dispatcher("multicore") is session.dispatcher("pooled")

# ---------------------------------------------------------------------------
# entry points over a session
# ---------------------------------------------------------------------------

class TestVeneers:
    def test_engine_instances_are_not_closed_by_session(self, tiny_workload,
                                                        risk_session):
        session = risk_session(tiny_workload.yet, tiny_workload.portfolio)
        mine = VectorizedEngine()
        res = session.aggregate(engine=mine)
        assert res.engine == "vectorized"
        assert session.engine(mine) is mine

    def test_session_engines_are_cached_and_warm(self, tiny_workload,
                                                 risk_session):
        session = risk_session(tiny_workload.yet, tiny_workload.portfolio)
        assert session.engine("vectorized") is session.engine("vectorized")
        assert isinstance(session.engine("vectorized"), Engine)

    def test_instance_plus_kwargs_rejected(self, tiny_workload,
                                           risk_session):
        session = risk_session(tiny_workload.yet, tiny_workload.portfolio)
        with pytest.raises(TypeError, match="n_workers"):
            session.aggregate(engine=VectorizedEngine(), n_workers=2)

    def test_shared_cache_evictions_are_counted_once(self, tiny_workload,
                                                     risk_session):
        """Two services of one session over one ``ResultCache``: each
        adds the entries its own puts evicted, so the shared plane reads
        the four that six puts into a two-entry cache evict (each used to
        add every eviction since its private watermark — its neighbour's
        too)."""
        from repro.serve.cache import CachePolicy, ResultCache

        session = risk_session(tiny_workload.yet, tiny_workload.portfolio)
        shared = ResultCache(CachePolicy(max_entries=2))
        first = session.pricing_service(cache=shared)
        second = session.pricing_service(cache=shared)
        layers = _candidates(tiny_workload.portfolio, 6)
        for service, layer in zip((first, second) * 3, layers):
            service.quote(layer)
        metrics = session.telemetry.snapshot()["metrics"]
        assert metrics["serve.cache.evictions"] == 4
        evicted = [event["fields"]["n_entries"]
                   for event in session.telemetry.snapshot()["events"]
                   if event["kind"] == "cache.evicted"]
        assert sum(evicted) == 4

    def test_service_engine_auto_resolves_via_planner(self, tiny_workload,
                                                      risk_session):
        session = risk_session(tiny_workload.yet, tiny_workload.portfolio)
        svc = session.pricing_service(engine="auto")
        quote = svc.quote(tiny_workload.portfolio.layers[0])
        assert quote.premium > 0
