"""The telemetry plane: registry semantics, spans, events, and the
instrumented subsystems' use of them.

Covers the rules of record in :mod:`repro.obs`: counter monotonicity,
histogram bucket math, prometheus round-trips, span nesting under the
micro-batcher's broker thread, registry thread-safety under concurrent
quote traffic, the chaos contract (fault injection must surface as
degradation/recovery events), and the tier-1 overhead guard holding
telemetry to an absolute microseconds-per-call budget.
"""

from __future__ import annotations

import statistics
import threading
import time

import pytest

from repro.bench.workloads import build_layer_workload
from repro.errors import ExecutionError
from repro.hpc import WorkPool
from repro.hpc import faults
from repro.hpc import pool as supervision
from repro.hpc.faults import FaultPlan, FaultSpec
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    Telemetry,
    as_telemetry,
    parse_prometheus_text,
    prometheus_name,
)
from repro.serve import BatchPolicy, CachePolicy
from repro.session import RiskSession

TINY = dict(n_trials=120, mean_events_per_trial=12.0, n_elts=1,
            elt_rows=60, catalog_events=400, seed=11)


def _square(x):
    return x * x


# ---------------------------------------------------------------------------
# registry primitives
# ---------------------------------------------------------------------------

class TestCounter:
    def test_monotone(self):
        c = MetricsRegistry().counter("t.count")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_inc_rejected(self):
        c = MetricsRegistry().counter("t.count")
        with pytest.raises(ValueError):
            c.inc(-1)
        assert c.value == 0.0

    def test_get_or_create_returns_same_handle(self):
        reg = MetricsRegistry()
        assert reg.counter("t.x") is reg.counter("t.x")

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("t.x")
        with pytest.raises(ValueError):
            reg.gauge("t.x")


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("t.level")
        g.set(5)
        g.inc(2)
        g.dec(4)
        assert g.value == 3.0

    def test_track_max_high_water(self):
        reg = MetricsRegistry()
        g = reg.gauge("t.depth", track_max=True)
        g.set(7)
        g.set(2)
        assert g.value == 2.0 and g.max_value == 7.0
        snap = reg.snapshot()
        assert snap["t.depth"] == 2.0 and snap["t.depth.max"] == 7.0


class TestHistogram:
    def test_bucket_math(self):
        h = MetricsRegistry().histogram("t.lat", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.0, 1.5, 3.0, 100.0):
            h.observe(v)
        buckets = h.bucket_counts()
        # le semantics: inclusive upper bounds, cumulative counts
        assert buckets[1.0] == 2          # 0.5, 1.0
        assert buckets[2.0] == 3          # + 1.5
        assert buckets[4.0] == 4          # + 3.0
        assert buckets[float("inf")] == 5  # + 100.0 overflow
        assert h.count == 5
        assert h.sum == pytest.approx(106.0)
        assert h.max_value == 100.0

    def test_quantiles_interpolate_and_clamp(self):
        h = MetricsRegistry().histogram("t.lat", buckets=(1.0, 2.0, 4.0))
        for _ in range(10):
            h.observe(0.5)
        # all mass in the first bucket: interpolation stays inside it
        assert 0.0 < h.quantile(0.5) <= 1.0
        h.observe(1.2)
        # the p100 escapes into (1, 2] but can never exceed observed max
        assert h.quantile(1.0) <= 1.2
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_empty_quantile_is_zero(self):
        h = MetricsRegistry().histogram("t.lat")
        assert h.quantile(0.99) == 0.0

    def test_snapshot_expands_summary_keys(self):
        reg = MetricsRegistry()
        reg.histogram("t.lat").observe(0.01)
        snap = reg.snapshot()
        for suffix in (".count", ".sum", ".max", ".p50", ".p95", ".p99"):
            assert "t.lat" + suffix in snap


class TestDisabledRegistry:
    def test_noop_handles_absorb_updates(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("t.x")
        c.inc(5)
        reg.gauge("t.g").set(3)
        reg.histogram("t.h").observe(1.0)
        assert c.value == 0.0
        assert reg.snapshot() == {}
        assert reg.samples() == {}

    def test_as_telemetry_coercion(self):
        tel = Telemetry()
        assert as_telemetry(tel) is tel
        assert as_telemetry(None).enabled is True
        assert as_telemetry(True).enabled is True
        assert as_telemetry(False).enabled is False
        with pytest.raises(TypeError):
            as_telemetry("yes")

    def test_disabled_telemetry_spans_and_events(self):
        tel = Telemetry(enabled=False)
        with tel.span("t.block") as span:
            span.annotate(rows=1)
        assert tel.event("t.kind", a=1) is None
        assert tel.snapshot()["metrics"] == {}
        assert tel.snapshot()["spans"] == []


class TestPrometheus:
    def test_name_mangling(self):
        assert (prometheus_name("serve.request.seconds")
                == "repro_serve_request_seconds")

    def test_round_trip_exact(self):
        reg = MetricsRegistry()
        reg.counter("t.requests").inc(3)
        reg.gauge("t.depth", track_max=True).set(2.5)
        h = reg.histogram("t.lat", buckets=DEFAULT_LATENCY_BUCKETS)
        for v in (0.0001, 0.003, 0.2, 42.0):
            h.observe(v)
        assert parse_prometheus_text(reg.to_prometheus_text()) == reg.samples()

    def test_bucket_series_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("t.lat", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        samples = reg.samples()
        assert samples['repro_t_lat_bucket{le="0.1"}'] == 1.0
        assert samples['repro_t_lat_bucket{le="1"}'] == 2.0
        assert samples['repro_t_lat_bucket{le="+Inf"}'] == 2.0
        assert samples["repro_t_lat_count"] == 2.0


# ---------------------------------------------------------------------------
# spans and events
# ---------------------------------------------------------------------------

class TestTracing:
    def test_nesting_and_completion_order(self):
        tel = Telemetry()
        with tel.span("outer") as outer:
            with tel.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        inner_rec, outer_rec = tel.tracer.records()
        assert inner_rec.name == "inner"          # children finish first
        assert inner_rec.parent_id == outer_rec.span_id
        assert outer_rec.parent_id is None
        assert outer_rec.wall_seconds >= inner_rec.wall_seconds >= 0.0

    def test_threads_get_separate_stacks(self):
        tel = Telemetry()
        inner_parent = []

        def other_thread():
            with tel.span("b"):
                pass

        with tel.span("a"):
            t = threading.Thread(target=other_thread)
            t.start()
            t.join()
        b_rec = tel.tracer.records("b")[0]
        assert b_rec.parent_id is None            # not parented across threads

    def test_span_feeds_histogram(self):
        tel = Telemetry()
        with tel.span("work"):
            time.sleep(0.001)
        snap = tel.snapshot()["metrics"]
        assert snap["span.work.seconds.count"] == 1.0
        assert snap["span.work.seconds.sum"] > 0.0

    def test_bounded_buffer_rotates(self):
        tel = Telemetry(max_spans=4)
        for i in range(10):
            with tel.span("s"):
                pass
        assert len(tel.tracer.records()) == 4


class TestEvents:
    def test_emit_and_tail(self):
        tel = Telemetry()
        tel.event("t.alpha", n=1)
        tel.event("t.beta")
        tel.event("t.alpha", n=2)
        alphas = tel.events.tail(kind="t.alpha")
        assert [e.fields["n"] for e in alphas] == [1, 2]
        assert [e.kind for e in tel.events.tail(2)] == ["t.beta", "t.alpha"]

    def test_counter_outlives_rotation(self):
        tel = Telemetry(max_events=2)
        for _ in range(5):
            tel.event("t.kind")
        assert len(tel.events) == 2
        assert tel.snapshot()["metrics"]["events.t.kind"] == 5.0


# ---------------------------------------------------------------------------
# instrumented subsystems
# ---------------------------------------------------------------------------

def _tiny_service(pricing_service):
    wl = build_layer_workload(**TINY)
    return wl, pricing_service(
        wl.yet,
        batch=BatchPolicy(max_batch=8, window_seconds=0.001, auto_flush=True),
        cache=CachePolicy(max_entries=0),
    )


class TestServeSpans:
    def test_batch_span_parents_stack_dispatch_merge(self, pricing_service):
        """The broker thread's batch span must parent its stage spans."""
        wl, svc = _tiny_service(pricing_service)
        with svc:
            svc.quote(wl.portfolio.layers[0])
            batch = svc.telemetry.tracer.records("serve.batch")[-1]
            for stage in ("serve.stack", "serve.dispatch", "serve.merge"):
                rec = svc.telemetry.tracer.records(stage)[-1]
                assert rec.parent_id == batch.span_id, stage
                assert rec.thread == batch.thread
            # completion order: children land before their parent
            order = [r.name for r in svc.telemetry.tracer.records()
                     if r.name.startswith("serve.")]
            assert order.index("serve.merge") < order.index("serve.batch")

    def test_registry_thread_safe_under_concurrent_quotes(self,
                                                          pricing_service):
        """≥8 threads quoting through one service: counts stay exact."""
        n_threads, per_thread = 8, 4
        wl, svc = _tiny_service(pricing_service)
        layers = wl.portfolio.layers
        errors = []

        def worker(i):
            try:
                for j in range(per_thread):
                    svc.quote(layers[(i + j) % len(layers)])
            except Exception as exc:          # pragma: no cover - must not fire
                errors.append(exc)

        with svc:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            snap = svc.telemetry.snapshot()["metrics"]
        assert not errors
        total = n_threads * per_thread
        assert snap["serve.requests"] == total
        assert snap["serve.request.seconds.count"] == total
        assert snap["serve.batched_requests"] == total
        assert parse_prometheus_text(svc.telemetry.to_prometheus_text()) \
            == svc.telemetry.samples()


class TestSessionTelemetry:
    def test_session_scrape_covers_request_path(self):
        wl = build_layer_workload(**TINY)
        with RiskSession(wl.yet, wl.portfolio) as session:
            session.aggregate(engine="vectorized")
            session.quote(wl.portfolio.layers[0])
            snap = session.telemetry.snapshot()
        m = snap["metrics"]
        assert m["session.aggregates"] == 1.0
        assert m["session.quotes"] == 1.0
        assert m["engine.vectorized.runs"] >= 1.0
        span_names = {s["name"] for s in snap["spans"]}
        assert "session.sweep" in span_names

    def test_plan_decision_event(self):
        wl = build_layer_workload(**TINY)
        with RiskSession(wl.yet, wl.portfolio) as session:
            session.plan()
            decisions = session.telemetry.events.tail(kind="plan.decision")
        assert decisions
        assert "engine" in decisions[0].fields
        assert "alternatives" in decisions[0].fields

    def test_telemetry_off_still_prices_correctly(self):
        wl = build_layer_workload(**TINY)
        with RiskSession(wl.yet, wl.portfolio, telemetry=False) as session:
            on = session.aggregate(engine="vectorized")
            assert session.telemetry.snapshot()["metrics"] == {}
        with RiskSession(wl.yet, wl.portfolio) as session:
            off = session.aggregate(engine="vectorized")
        import numpy as np
        np.testing.assert_allclose(on.portfolio_ylt.losses,
                                   off.portfolio_ylt.losses)


@pytest.mark.chaos
class TestChaosEvents:
    """Fault injection must surface in the event log, not just counters."""

    @pytest.fixture(autouse=True)
    def _no_leftover_plan(self):
        yield
        faults.clear()

    def test_injection_emits_fault_and_degradation_events(self, monkeypatch):
        plan_specs = [FaultSpec("kill", i) for i in range(24)]
        monkeypatch.setattr(supervision, "MAX_RETRIES", 0)
        monkeypatch.setattr(supervision, "DEGRADE_AFTER", 2)
        with WorkPool(n_workers=2) as pool:
            with faults.inject(FaultPlan(plan_specs)):
                for _ in range(2):
                    with pytest.raises(ExecutionError):
                        pool.starmap(_square, [(1,), (2,), (3,)])
            assert pool.health.degraded
            kinds = [e.kind for e in pool.telemetry.events.tail()]
            assert "fault.injected" in kinds
            assert "pool.degraded" in kinds
            assert "pool.recovered" not in kinds
            metrics = pool.telemetry.snapshot()["metrics"]
            assert metrics["events.fault.injected"] >= 1.0
            assert metrics["pool.degraded"] == 1.0        # the gauge
            # recovery is an event too
            pool.reset_health()
            assert not pool.health.degraded
            kinds = [e.kind for e in pool.telemetry.events.tail()]
            assert "pool.recovered" in kinds
            assert pool.telemetry.snapshot()["metrics"]["pool.degraded"] == 0.0

    def test_kill_recovery_keeps_health_view_consistent(self):
        with WorkPool(n_workers=2) as pool:
            with faults.inject(FaultPlan.kill_task(2)):
                got = pool.starmap(_square, [(i,) for i in range(8)])
            assert got == [i * i for i in range(8)]
            deaths = pool.health.totals["worker_deaths"]
            metrics = pool.telemetry.snapshot()["metrics"]
            assert deaths == metrics["pool.worker_deaths"]
            assert deaths >= 1


# ---------------------------------------------------------------------------
# the overhead guard
# ---------------------------------------------------------------------------

#: Absolute telemetry budget per ``session.aggregate``, in microseconds.
#: Measured cost is a fixed ~12 us per call (two span sites, a handful of
#: pre-bound counters) whatever the sweep costs; the bar leaves ~4x
#: headroom for a busy host and still catches a per-call cost that
#: starts to scale with the work.
OVERHEAD_BUDGET_US = 50.0

#: :func:`_reference_us` on the host the budget was set on.  This host's
#: speed wanders 2-3x for seconds at a time and the fixed cost wanders
#: with it (0.4-0.6 reference loops at every speed measured), so a slower
#: host stretches the budget in proportion; a faster one never shrinks it.
REFERENCE_US = 25.0


def _reference_us() -> float:
    """A fixed pure-Python loop of the kind of work telemetry does (dict
    reads and writes), timed: the host's speed right now."""
    t0 = time.perf_counter()
    counts = {}
    for i in range(500):
        counts[i & 7] = counts.get(i & 7, 0) + 1
    return 1e6 * (time.perf_counter() - t0)


def test_overhead_guard_instrumented_within_us_budget():
    """Telemetry's cost ceiling, stated in microseconds per call: median
    instrumented minus median uninstrumented ``session.aggregate``.  An
    absolute budget, not a ratio — the fixed cost does not shrink when
    the sweep gets faster.  The two sessions' calls and the reference
    loop are interleaved so host drift lands on all three medians
    alike."""
    wl = build_layer_workload(n_trials=600, mean_events_per_trial=40.0,
                              n_elts=1, elt_rows=120, catalog_events=1_500,
                              seed=5)
    with RiskSession(wl.yet, wl.portfolio, telemetry=False) as off, \
            RiskSession(wl.yet, wl.portfolio, telemetry=True) as on:
        seconds = {off: [], on: []}
        reference = []
        for call in range(160):
            reference.append(_reference_us())
            for session in (off, on):
                t0 = time.perf_counter()
                session.aggregate(engine="vectorized")
                if call >= 10:                       # warm every cache
                    seconds[session].append(time.perf_counter() - t0)
    overhead_us = 1e6 * (statistics.median(seconds[on])
                         - statistics.median(seconds[off]))
    budget_us = OVERHEAD_BUDGET_US * max(
        1.0, statistics.median(reference) / REFERENCE_US)
    assert overhead_us <= budget_us, (
        f"telemetry adds {overhead_us:.1f} us per session.aggregate "
        f"(budget: {budget_us:.0f} us at this host's speed)"
    )
