"""The serving layer: batcher parity, cache behaviour, admission control.

The central invariant: a quote that rode a coalesced multi-request sweep
must equal the same layer priced alone through a direct
``PortfolioKernel.run`` — batching changes wall time, never answers.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import multiprocessing
import os
import threading
import time
import types

import numpy as np
import pytest
from conftest import make_yet
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics.ep_curves import aep_curve
from repro.core import tables
from repro.core.kernels import PortfolioKernel
from repro.core.layer import Layer
from repro.core.tables import EltTable, YetTable
from repro.core.terms import LayerTerms
from repro.dfa.metrics import tail_value_at_risk
from repro.errors import AdmissionError, ConfigurationError
from repro.hpc.cost_model import EWMA_WEIGHT, ThroughputEstimate
from repro.obs import parse_prometheus_text
from repro.serve import (
    AdmissionController,
    BatchPolicy,
    CachePolicy,
    InlineDispatcher,
    ResultCache,
    layer_digest,
)
from repro.session import RiskSession


def direct_layer_pricing(layer, yet):
    """One layer priced alone through the fused kernel (the oracle)."""
    kernel = PortfolioKernel.from_layers([layer], layer_ids=[0])
    return kernel.run(yet.trials, yet.event_ids, yet.n_trials)[0]


def fresh_yet(n_trials=300, catalog_events=600, seed=5, epk=30.0):
    ids = np.arange(catalog_events, dtype=np.int64)
    rates = np.full(catalog_events, 1.0 / catalog_events)
    return YetTable.simulate(ids, rates, n_trials,
                             np.random.default_rng(seed),
                             mean_events_per_trial=epk)


@functools.lru_cache(maxsize=1)
def _hypothesis_rig():
    """One shared (YET, ELTs, id counter) across Hypothesis examples —
    a module fixture would trip the function-scoped-fixture health check."""
    from repro.bench.workloads import build_elt

    rng = np.random.default_rng(77)
    elts = tuple(build_elt(150, 500, rng, contract_id=i) for i in range(2))
    return fresh_yet(n_trials=200, catalog_events=500, seed=7, epk=25.0), \
        elts, itertools.count().__next__


# ---------------------------------------------------------------------------
# batcher parity
# ---------------------------------------------------------------------------

class TestBatcherParity:
    def test_batched_quotes_match_direct_pricing(self, small_portfolio_workload,
                                                 pricing_service):
        wl = small_portfolio_workload
        layers = list(wl.portfolio)
        with pricing_service(wl.yet) as svc:
            quotes = svc.quote_many(layers)
            # scraped off the public telemetry plane
            metrics = svc.telemetry.snapshot()["metrics"]
            assert metrics["serve.batches"] == 1, \
                "all requests must share one sweep"
            for layer, q in zip(layers, quotes):
                losses = direct_layer_pricing(layer, wl.yet)
                np.testing.assert_allclose(q.expected_loss, losses.mean(),
                                           rtol=1e-9, atol=1e-6)

    def test_quote_decomposition_and_latency_fields(self, tiny_workload,
                                                    pricing_service):
        with pricing_service(tiny_workload.yet) as svc:
            q = svc.quote(tiny_workload.portfolio.layers[0])
        assert q.premium == pytest.approx(
            q.expected_loss + q.volatility_load + q.tail_load
        )
        assert q.latency_seconds > 0
        assert q.trials_per_second > 0

    def test_duplicate_requests_collapse_to_one_kernel_row(self, tiny_workload,
                                                           pricing_service):
        layer = tiny_workload.portfolio.layers[0]
        with pricing_service(tiny_workload.yet, cache=CachePolicy(0)) as svc:
            quotes = svc.quote_many([layer, layer, layer])
        metrics = svc.telemetry.snapshot()["metrics"]
        assert metrics["serve.batches"] == 1
        assert metrics["serve.kernel_rows"] == 1, "identical layers share one row"
        assert quotes[0].premium == quotes[1].premium == quotes[2].premium

    def test_many_quotes_one_book_routes_sublinear(self, tiny_workload,
                                                   pricing_service):
        # The quote_many shape the sublinear tail-group path exists for:
        # >=16 distinct tail-attaching layers over one shared book form
        # one same-lookup group in the stacked kernel, and the service
        # counts the batch as sublinear-qualified.
        wl = tiny_workload
        elts = wl.portfolio.layers[0].elts
        layers = [
            Layer(i, elts, LayerTerms(occ_retention=1e4 + 500.0 * i,
                                      occ_limit=5e5))
            for i in range(20)
        ]
        with pricing_service(wl.yet, cache=CachePolicy(0)) as svc:
            quotes = svc.quote_many(layers)
            metrics = svc.telemetry.snapshot()["metrics"]
            assert metrics["serve.batches"] == 1
            assert metrics["serve.sublinear.batches"] == 1
            assert metrics["serve.sublinear.rows"] >= 16
            # ... and the rows really priced off the book's profile
            assert metrics["kernel.profile_rows"] == 20
            assert metrics["yet.profile.resident"] == 1
        for layer, q in zip(layers[:3], quotes[:3]):
            losses = direct_layer_pricing(layer, wl.yet)
            np.testing.assert_allclose(q.expected_loss, losses.mean(),
                                       rtol=1e-9, atol=1e-6)

    def test_mixed_metrics_one_sweep(self, tiny_workload, pricing_service):
        layer = tiny_workload.portfolio.layers[0]
        with pricing_service(tiny_workload.yet) as svc:
            t_quote = svc.submit(layer, "quote")
            t_ylt = svc.submit(layer, "ylt")
            t_ep = svc.submit(layer, "ep_curve")
            svc.drain()
            quote, ylt, ep = (t.result(5) for t in (t_quote, t_ylt, t_ep))
        assert svc.telemetry.snapshot()["metrics"]["serve.batches"] == 1
        np.testing.assert_allclose(
            ylt.losses, direct_layer_pricing(layer, tiny_workload.yet)
        )
        ref = aep_curve(ylt)
        assert ep.loss_at_return_period(50.0) == pytest.approx(
            ref.loss_at_return_period(50.0)
        )
        assert quote.expected_loss == pytest.approx(ylt.mean())

    @settings(max_examples=25, deadline=None)
    @given(
        occ_retention=st.floats(0.0, 3e6, allow_nan=False),
        occ_limit=st.floats(1e5, 1e9, allow_nan=False),
        agg_retention=st.floats(0.0, 5e6, allow_nan=False),
        agg_limit=st.floats(1e5, 1e10, allow_nan=False),
        participation=st.floats(0.05, 1.0, allow_nan=False,
                                exclude_min=True),
    )
    def test_random_terms_parity(self, occ_retention, occ_limit,
                                 agg_retention, agg_limit, participation):
        """Hypothesis-random terms: batched == direct, bit for bit-ish."""
        yet, elts, counter = _hypothesis_rig()
        terms = LayerTerms(
            occ_retention=occ_retention, occ_limit=occ_limit,
            agg_retention=agg_retention, agg_limit=agg_limit,
            participation=participation,
        )
        ad_hoc = Layer(counter(), elts, terms)
        fixed = Layer(counter(), elts, LayerTerms(occ_retention=1e5))
        with RiskSession(yet) as session, session.pricing_service(
                engine="inline", cache=CachePolicy(0)) as svc:
            q_batch = svc.quote_many([ad_hoc, fixed])[0]
        direct = direct_layer_pricing(ad_hoc, yet)
        np.testing.assert_allclose(q_batch.expected_loss, direct.mean(),
                                   rtol=1e-9, atol=1e-6)
        tol_std = float(direct.std(ddof=1)) if direct.size > 1 else 0.0
        np.testing.assert_allclose(
            q_batch.volatility_load, 0.25 * tol_std, rtol=1e-9, atol=1e-6
        )


# ---------------------------------------------------------------------------
# dispatchers
# ---------------------------------------------------------------------------

class TestDispatchers:
    def test_pooled_matches_inline(self, small_portfolio_workload,
                                   risk_session, pricing_service):
        wl = small_portfolio_workload
        layers = list(wl.portfolio)
        session = risk_session(wl.yet, n_workers=2)
        with session.pricing_service(engine="pooled") as pooled:
            pooled.warmup()
            qp = pooled.quote_many(layers)
        session.close()
        with pricing_service(wl.yet) as inline:
            qi = inline.quote_many(layers)
        for a, b in zip(qp, qi):
            assert a.premium == b.premium      # lane rows: bit-identical

    def test_a_dispatcher_instance_is_not_an_engine(self, tiny_workload,
                                                    pricing_service):
        """A substrate belongs to a session: a service takes a dispatcher
        name, never a caller-built instance to adopt."""
        with pytest.raises(ConfigurationError, match="unknown dispatcher"):
            pricing_service(tiny_workload.yet, engine=InlineDispatcher())

    @pytest.mark.parametrize("cause", ["no_shm", "degraded"])
    def test_a_degraded_call_is_a_run_the_workers_would_have_split(
            self, monkeypatch, small_portfolio_workload, cause):
        """A pooled run stays in process by design when it is one span —
        a one-worker pool, or a one-trial YET — and as a fallback when a
        run of more spans meets a host without shared memory or a
        degraded pool.  Only the fallback is a degraded call; all three
        give the inline answer and start no worker."""
        from repro.hpc import shm
        from repro.serve.dispatch import PooledDispatcher

        if cause == "no_shm":
            monkeypatch.setattr(shm, "_AVAILABLE", False)
        wl = small_portfolio_workload
        kernel = wl.portfolio.kernel()
        one_trial = wl.yet.slice_trials(0, 1)
        for n_workers, yet, counted in ((1, wl.yet, 0), (2, one_trial, 0),
                                        (2, wl.yet, 1)):
            with PooledDispatcher(n_workers=n_workers) as d:
                d.pool.health.degraded = cause == "degraded"
                np.testing.assert_array_equal(
                    d.run(kernel, yet), InlineDispatcher().run(kernel, yet))
                assert d.pool.health.totals["degraded_calls"] == counted
                assert d.telemetry.snapshot()["metrics"][
                    "pool.degraded_calls"] == counted
                assert not d.pool.started

    def test_ensure_started_actually_spawns_workers(self):
        from repro.hpc.pool import WorkPool

        before = set(multiprocessing.active_children())
        with WorkPool(2) as pool:
            pool.ensure_started()
            forked = set(multiprocessing.active_children()) - before
            assert len(forked) == 2, "warm-up must fork real workers"
            # and they are the workers the tasks then run on
            assert set(pool.starmap(os.getpid, [(), ()])) == {
                child.pid for child in forked}


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

class TestCache:
    def test_hit_on_equal_content_distinct_objects(self, tiny_workload,
                                                   pricing_service):
        base = tiny_workload.portfolio.layers[0]
        twin = Layer(base.layer_id, base.elts, base.terms)
        with pricing_service(tiny_workload.yet) as svc:
            first = svc.quote(base)
            again = svc.quote(twin)
        # telemetry is the scrape surface; cache bytes ride along
        metrics = svc.telemetry.snapshot()["metrics"]
        assert metrics["serve.cache.hits"] == 1
        assert metrics["serve.batches"] == 1, "the hit must not trigger a sweep"
        assert metrics["serve.cache.hit_bytes"] > 0
        assert again.premium == first.premium
        # latency fields are re-stamped per request, not served stale
        assert again.latency_seconds != first.latency_seconds

    def test_lru_eviction(self, small_portfolio_workload, pricing_service):
        wl = small_portfolio_workload
        layers = list(wl.portfolio)[:3]
        with pricing_service(wl.yet, cache=CachePolicy(max_entries=2)) as svc:
            for layer in layers:
                svc.quote(layer)          # fills: 0,1 then evicts 0 for 2
            assert len(svc.cache) == 2
            assert svc.telemetry.snapshot()["metrics"][
                "serve.cache.evictions"] == 1
            svc.quote(layers[0])          # evicted -> a fresh sweep
        metrics = svc.telemetry.snapshot()["metrics"]
        assert metrics["serve.cache.hits"] == 0
        assert metrics["serve.batches"] == 4

    def test_shared_cache_never_serves_another_trial_set(
            self, tiny_workload, pricing_service):
        """A new trial set is a new session; a cache shared into its
        service keys on the YET fingerprint, so the old set's entry is
        never served there."""
        layer = tiny_workload.portfolio.layers[0]
        shared = ResultCache()
        with pricing_service(tiny_workload.yet, cache=shared) as svc:
            before = svc.quote(layer)
        fresh = fresh_yet(n_trials=tiny_workload.yet.n_trials)
        with pricing_service(fresh, cache=shared) as svc:
            after = svc.quote(layer)
        assert svc.telemetry.snapshot()["metrics"]["serve.cache.hits"] == 0
        assert len(shared) == 2
        assert after.expected_loss != before.expected_loss

    def test_digest_is_content_addressed(self, tiny_workload):
        base = tiny_workload.portfolio.layers[0]
        twin = Layer(99, base.elts, base.terms)   # layer_id is NOT content
        assert layer_digest(base) == layer_digest(twin)
        reterm = Layer(base.layer_id, base.elts,
                       LayerTerms(occ_retention=base.terms.occ_retention + 1.0))
        assert layer_digest(base) != layer_digest(reterm)

    def test_the_yet_is_hashed_only_for_a_cache_key(
            self, tiny_workload, pricing_service, monkeypatch):
        """A service with its cache off builds no key and never hashes
        its YET; with the cache on it hashes it exactly once, when it is
        built, and never on a quote."""
        hashed = []

        def blake2b(*args, **kwargs):
            hashed.append(1)
            return hashlib.blake2b(*args, **kwargs)

        monkeypatch.setattr(tables, "hashlib",
                            types.SimpleNamespace(blake2b=blake2b))
        layers = tiny_workload.portfolio.layers[:3]
        off = fresh_yet(seed=7)
        with pricing_service(off, cache=CachePolicy(0)) as svc:
            svc.quote_many(layers)
            svc.quote(layers[0])
        assert off._fingerprint is None and not hashed
        on = fresh_yet(seed=7)
        with pricing_service(on) as svc:
            assert len(hashed) == 1 and on._fingerprint is not None
            svc.quote_many(layers)
            svc.quote(layers[0])
        assert svc.telemetry.snapshot()["metrics"]["serve.cache.hits"] == 1
        assert len(hashed) == 1

    def test_zero_entry_policy_disables_cache(self):
        cache = ResultCache(CachePolicy(max_entries=0))
        cache.put(("a", "b", "quote"), 1)
        assert len(cache) == 0
        assert cache.get(("a", "b", "quote")) is None

    def test_shared_cache_respects_loadings(self, tiny_workload,
                                            pricing_service):
        """Two services sharing one cache but configured with different
        premium loadings must never serve each other's quotes."""
        shared = ResultCache()
        layer = tiny_workload.portfolio.layers[0]
        with pricing_service(tiny_workload.yet, cache=shared) as loaded:
            q_loaded = loaded.quote(layer)
        with pricing_service(tiny_workload.yet, cache=shared,
                            volatility_loading=0.0,
                            tail_loading=0.0) as pure:
            q_pure = pure.quote(layer)
        assert q_pure.premium == pytest.approx(q_pure.expected_loss)
        assert q_loaded.premium > q_pure.premium
        # the loading-free ylt/ep_curve payloads DO share
        with pricing_service(tiny_workload.yet, cache=shared) as again:
            again.ylt(layer)
            assert again.telemetry.snapshot()["metrics"][
                "serve.cache.hits"] == 0
        with pricing_service(tiny_workload.yet, cache=shared,
                            volatility_loading=0.0) as other:
            other.ylt(layer)
            assert other.telemetry.snapshot()["metrics"][
                "serve.cache.hits"] == 1

    def test_byte_budget_evicts_bulky_payloads(self, small_portfolio_workload,
                                               pricing_service):
        """EP curves are ~n_trials floats: a byte budget of about two of
        them must keep the cache at two entries regardless of max_entries."""
        wl = small_portfolio_workload
        budget = 2 * wl.yet.n_trials * 8 + 16
        with pricing_service(
            wl.yet,
            cache=CachePolicy(max_entries=100, max_bytes=budget),
        ) as svc:
            for layer in wl.portfolio.layers:        # 3 distinct curves
                svc.ep_curve(layer)
        assert len(svc.cache) <= 2
        assert svc.telemetry.snapshot()["metrics"]["serve.cache.evictions"] > 0
        assert svc.cache.nbytes <= budget

    def test_cached_quote_reports_sweep_throughput(self, tiny_workload,
                                                   pricing_service):
        with pricing_service(tiny_workload.yet) as svc:
            fresh = svc.quote(tiny_workload.portfolio.layers[0])
            hit = svc.quote(tiny_workload.portfolio.layers[0])
        assert svc.telemetry.snapshot()["metrics"]["serve.cache.hits"] == 1
        assert hit.trials_per_second == fresh.trials_per_second, (
            "a cache hit must report the producing sweep's throughput, "
            "not the cache lookup's"
        )

    def test_cached_ylt_is_mutation_safe(self, tiny_workload, pricing_service):
        layer = tiny_workload.portfolio.layers[0]
        with pricing_service(tiny_workload.yet) as svc:
            first = svc.ylt(layer)
            first.losses *= 0.0   # a caller scaling its own copy
            second = svc.ylt(layer)
        assert second.losses.sum() > 0.0, "cache must not see the mutation"


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------

class TestAdmission:
    def test_sheds_under_synthetic_burst(self, small_portfolio_workload,
                                         pricing_service):
        """A burst against a pathologically slow calibration must shed."""
        wl = small_portfolio_workload
        layers = list(wl.portfolio)
        svc = pricing_service(wl.yet, slo_seconds=0.05,
                             cache=CachePolicy(0))
        # Calibrate as if a sweep lane took a second: the modelled
        # backlog blows through the 50 ms SLO almost immediately.
        svc.dispatcher.throughput.observe(1_000.0, 1_000.0)
        shed = 0
        for _ in range(8):
            for layer in layers:
                try:
                    svc.submit(layer)
                except AdmissionError:
                    shed += 1
        assert shed > 0
        metrics = svc.telemetry.snapshot()["metrics"]
        assert metrics["serve.shed"] == shed
        # every shed also left a structured event with its reason
        shed_events = svc.telemetry.events.tail(kind="serve.shed")
        assert shed_events and "reason" in shed_events[-1].fields
        svc.drain()
        svc.close()

    def test_accepts_after_recalibration(self, tiny_workload, pricing_service):
        svc = pricing_service(tiny_workload.yet, slo_seconds=30.0)
        q = svc.quote(tiny_workload.portfolio.layers[0])
        assert q.premium > 0
        # the real sweep calibrated the rate the controller reads
        assert svc.admission.throughput is svc.dispatcher.throughput
        assert svc.dispatcher.throughput.rate > 0
        assert svc.telemetry.snapshot()["metrics"]["serve.shed"] == 0
        svc.close()

    def test_queue_cap_is_hard(self, tiny_workload, pricing_service):
        svc = pricing_service(tiny_workload.yet, max_pending=2)
        layer = tiny_workload.portfolio.layers[0]
        svc.submit(layer, "quote")
        svc.submit(layer, "ylt")
        with pytest.raises(AdmissionError):
            svc.submit(layer, "ep_curve")
        svc.drain()
        # served = offered - shed, and the export round-trips with a shed
        # on the plane
        metrics = svc.telemetry.snapshot()["metrics"]
        assert metrics["serve.requests"] == 3
        assert metrics["serve.shed"] == 1
        assert metrics["serve.request.seconds.count"] == 2
        assert parse_prometheus_text(svc.telemetry.to_prometheus_text()) \
            == svc.telemetry.samples()
        svc.close()

    def test_decision_fields(self):
        rate = ThroughputEstimate()
        rate.observe(100.0, 1.0)
        ctl = AdmissionController(slo_seconds=1.0, throughput=rate)
        ok = ctl.decide(n_pending=0, lanes_per_request=10.0)
        assert ok.accepted and ok.estimated_seconds <= 1.0
        full = ctl.decide(n_pending=10_000, lanes_per_request=10.0)
        assert not full.accepted
        assert full.retry_after_seconds > 0
        slow = ctl.decide(n_pending=50, lanes_per_request=10.0)
        assert not slow.accepted and "SLO" in slow.reason

    def test_observe_recalibrates_ewma(self):
        rate = ThroughputEstimate()
        assert rate.rate is None                  # no seed
        rate.observe(1000.0, 1.0)                 # first: sets the rate
        assert rate.rate == pytest.approx(1000.0)
        rate.observe(0.0, 1.0)                    # degenerate: ignored
        rate.observe(2000.0, 1.0)                 # then: EWMA
        assert rate.rate == pytest.approx(
            (1 - EWMA_WEIGHT) * 1000.0 + EWMA_WEIGHT * 2000.0)

    def test_pooled_calibration_is_per_processor(self):
        """A batch measured on N workers must calibrate a per-proc rate:
        storing the aggregate wall rate and multiplying by N again at
        decide() time would make pooled estimates N times optimistic."""
        rate = ThroughputEstimate()
        rate.observe(8000.0, 1.0, n_procs=8)
        assert rate.rate == pytest.approx(1000.0)
        ctl = AdmissionController(slo_seconds=10.0, throughput=rate)
        est = ctl.decide(n_pending=0, lanes_per_request=8000.0,
                         n_procs=8).estimated_seconds
        assert est == pytest.approx(1.0, rel=1e-6)

    def test_sheds_nothing_on_cost_before_the_first_batch(
            self, small_portfolio_workload, pricing_service):
        """No seed stands in for a rate nobody measured: until its
        dispatcher has run, a service sheds only at the queue cap; a
        measured rate then sheds the same burst."""
        wl = small_portfolio_workload
        layers = list(wl.portfolio) * 8
        svc = pricing_service(wl.yet, slo_seconds=1e-9, cache=CachePolicy(0))
        assert svc.dispatcher.throughput.rate is None
        for layer in layers:
            svc.submit(layer)
        assert svc.telemetry.snapshot()["metrics"]["serve.shed"] == 0
        svc.dispatcher.throughput.observe(1_000.0, 1_000.0)
        with pytest.raises(AdmissionError, match="SLO"):
            svc.submit(layers[0])
        assert svc.telemetry.snapshot()["metrics"]["serve.shed"] == 1
        svc.drain()
        svc.close()


# ---------------------------------------------------------------------------
# async / threaded coalescing
# ---------------------------------------------------------------------------

class TestThreadedCoalescing:
    def test_concurrent_submitters_share_sweeps(self, small_portfolio_workload,
                                                pricing_service):
        wl = small_portfolio_workload
        layers = list(wl.portfolio)
        with pricing_service(
            wl.yet,
            batch=BatchPolicy(max_batch=64, window_seconds=0.05,
                              auto_flush=True),
            cache=CachePolicy(0),
        ) as svc:
            results = {}
            barrier = threading.Barrier(4)

            def submitter(tid):
                barrier.wait()
                tickets = [svc.submit(layer) for layer in layers]
                results[tid] = [t.result(timeout=10.0) for t in tickets]

            threads = [threading.Thread(target=submitter, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        metrics = svc.telemetry.snapshot()["metrics"]
        assert metrics["serve.batched_requests"] == 4 * len(layers)
        assert metrics["serve.batches"] < 4 * len(layers), \
            "concurrent requests must coalesce into fewer sweeps"
        ref = {l.layer_id: direct_layer_pricing(l, wl.yet).mean()
               for l in layers}
        for quotes in results.values():
            for layer, q in zip(layers, quotes):
                assert q.expected_loss == pytest.approx(ref[layer.layer_id])

    def test_slow_flush_past_deadline_keeps_results(self, tiny_workload,
                                                    pricing_service):
        """A drain deadline must not discard work that completed late:
        the check runs before starting a batch, never after finishing."""
        import time as _time

        svc = pricing_service(tiny_workload.yet, cache=CachePolicy(0))
        slow = _SlowDispatcher(0.05)
        svc.dispatcher = slow
        ticket = svc.submit(tiny_workload.portfolio.layers[0])
        svc.drain(timeout=0.01)   # batch runs inline past the deadline
        assert ticket.done()
        assert ticket.result(timeout=1).premium > 0
        svc.close()

    def test_drain_deadline_refuses_to_start_late_work(self, tiny_workload,
                                                       pricing_service):
        svc = pricing_service(tiny_workload.yet, cache=CachePolicy(0))
        svc.submit(tiny_workload.portfolio.layers[0])
        with pytest.raises(TimeoutError):
            svc.drain(timeout=-1.0)   # already expired: nothing starts
        assert svc.telemetry.snapshot()["metrics"]["serve.batches"] == 0
        svc.drain()
        svc.close()

    def test_flush_error_propagates_to_every_ticket(self, tiny_workload,
                                                    pricing_service):
        from repro.errors import ExecutionError

        svc = pricing_service(tiny_workload.yet)
        svc.dispatcher = _ExplodingDispatcher()
        layer = tiny_workload.portfolio.layers[0]
        t1 = svc.submit(layer, "quote")
        t2 = svc.submit(layer, "ylt")
        svc.flush()
        for t in (t1, t2):
            # terminal execution failures surface typed, with the raw
            # dispatcher exception preserved in the failure chain
            with pytest.raises(ExecutionError, match="boom") as exc_info:
                t.result(timeout=5)
            assert any(isinstance(f, RuntimeError)
                       for f in exc_info.value.failures)
        svc.close()


class _ExplodingDispatcher(InlineDispatcher):
    def run(self, kernel, yet, deadline_seconds=None):
        raise RuntimeError("boom")


class _SlowDispatcher(InlineDispatcher):
    def __init__(self, delay: float) -> None:
        super().__init__()
        self.delay = delay

    def run(self, kernel, yet, deadline_seconds=None):
        time.sleep(self.delay)
        return super().run(kernel, yet, deadline_seconds)


# ---------------------------------------------------------------------------
# enablers: ephemeral kernels + fingerprints
# ---------------------------------------------------------------------------

class TestEnablers:
    def test_from_layers_matches_from_portfolio(self, small_portfolio_workload):
        wl = small_portfolio_workload
        by_portfolio = wl.portfolio.kernel()
        loose = PortfolioKernel.from_layers(list(wl.portfolio))
        assert loose.layer_ids == by_portfolio.layer_ids
        for name in ("ids", "values", "offsets", "source"):
            np.testing.assert_array_equal(getattr(loose, name),
                                          getattr(by_portfolio, name))
        full_a = loose.run(wl.yet.trials, wl.yet.event_ids, wl.yet.n_trials)
        full_b = by_portfolio.run(wl.yet.trials, wl.yet.event_ids,
                                  wl.yet.n_trials)
        np.testing.assert_array_equal(full_a, full_b)

    def test_from_layers_synthetic_ids_allow_collisions(self, tiny_workload):
        layer = tiny_workload.portfolio.layers[0]
        other = Layer(layer.layer_id, layer.elts,
                      LayerTerms(occ_retention=0.0))
        kernel = PortfolioKernel.from_layers([layer, other],
                                             layer_ids=[0, 1])
        assert sorted(kernel.layer_ids) == [0, 1]
        assert kernel.n_layers == 2

    def test_from_layers_validation(self, tiny_workload):
        layer = tiny_workload.portfolio.layers[0]
        with pytest.raises(ConfigurationError):
            PortfolioKernel.from_layers([])
        with pytest.raises(ConfigurationError):
            PortfolioKernel.from_layers([layer], layer_ids=[0, 1])

    def test_infinite_retention_prices_to_zero(self, tiny_workload):
        """inf occ_retention must yield a zero YLT, not NaN (the shifted
        clip's inf - inf correction), matching the scalar oracle."""
        layer = tiny_workload.portfolio.layers[0]
        frozen = Layer(7, layer.elts,
                       LayerTerms(occ_retention=float("inf")))
        kernel = PortfolioKernel.from_layers([layer, frozen],
                                             layer_ids=[0, 1])
        final = kernel.run(tiny_workload.yet.trials,
                           tiny_workload.yet.event_ids,
                           tiny_workload.yet.n_trials)
        row = kernel.row_of(1)
        assert np.isfinite(final).all()
        np.testing.assert_array_equal(final[row], 0.0)
        live = kernel.row_of(0)
        np.testing.assert_allclose(
            final[live], direct_layer_pricing(layer, tiny_workload.yet)
        )

    def test_extreme_retention_keeps_sequential_parity(self):
        """Retention at 1e12 with losses a hair above it: the shifted
        clip's cancellation would eat ~5 digits, so such rows must fall
        back to exact subtract-then-clip and match the scalar oracle."""
        r = 1.23456789e12
        rng = np.random.default_rng(11)
        n_events = 400
        losses = r + rng.uniform(0.0, 10.0, size=n_events)
        elt = EltTable.from_arrays(np.arange(n_events, dtype=np.int64), losses)
        layer = Layer(0, [elt], LayerTerms(occ_retention=r))
        yet = fresh_yet(n_trials=50, catalog_events=n_events, seed=13,
                        epk=40.0)
        kernel = PortfolioKernel.from_layers([layer], layer_ids=[0])
        fused = kernel.run(yet.trials, yet.event_ids, yet.n_trials)[0]
        oracle = np.zeros(yet.n_trials)
        o = yet.trial_offsets
        for t in range(yet.n_trials):
            ev = yet.event_ids[o[t]:o[t + 1]]
            oracle[t] = layer.terms.trial_loss_scalar(losses[ev])
        np.testing.assert_allclose(fused, oracle, rtol=1e-9, atol=1e-6)

    def test_clustered_trial_keeps_parity_at_high_retention(self):
        """A trial holding far more occurrences than the mean must not
        slip a high-retention row through the shifted-clip gate: the
        mask keys on the sweep's exact max trial count."""
        r = 1e8
        n_events = 64
        losses = r + np.linspace(0.0, 5.0, n_events)
        elt = EltTable.from_arrays(np.arange(n_events, dtype=np.int64), losses)
        layer = Layer(0, [elt], LayerTerms(occ_retention=r))
        # mean ~3 occurrences/trial, one clustered trial with 1000
        n_trials = 300
        rng = np.random.default_rng(21)
        reg_trials = np.repeat(np.arange(1, n_trials, dtype=np.int64), 3)
        clustered = np.zeros(1000, dtype=np.int64)
        trials = np.concatenate([clustered, reg_trials])
        events = rng.integers(0, n_events, size=trials.size)
        order = np.argsort(trials, kind="stable")
        trials, events = trials[order], events[order].astype(np.int64)
        kernel = PortfolioKernel.from_layers([layer], layer_ids=[0])
        fused = kernel.run(trials, events, n_trials)[0]
        oracle = np.zeros(n_trials)
        for t, e in zip(trials, events):
            oracle[t] += layer.terms.occurrence_scalar(float(losses[e]))
        np.testing.assert_allclose(fused, oracle, rtol=1e-9, atol=1e-6)

    def test_service_close_is_terminal(self, tiny_workload, pricing_service):
        service = pricing_service(tiny_workload.yet)
        service.quote(tiny_workload.portfolio.layers[0])
        service.close()
        with pytest.raises(ConfigurationError):
            service.quote(tiny_workload.portfolio.layers[0])

    def test_yet_fingerprint_is_content_addressed(self):
        a = fresh_yet(seed=5)
        b = fresh_yet(seed=5)
        c = fresh_yet(seed=6)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()
        # The trial offsets stand in for the trial column: the same
        # event ids cut into other trials, or over more trials, hash
        # apart.
        ids = [3, 1, 4, 1, 5]
        cuts = [([0, 0, 1, 1, 1], 2), ([0, 1, 1, 1, 1], 2),
                ([0, 0, 1, 1, 1], 3), ([0, 0, 2, 2, 2], 3)]
        prints = [make_yet(trials, ids, n).fingerprint() for trials, n in cuts]
        assert len(set(prints)) == len(cuts)
        assert make_yet(cuts[0][0], ids, 2).fingerprint() == prints[0]

    def test_batch_policy_validation(self):
        with pytest.raises(ConfigurationError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ConfigurationError):
            BatchPolicy(window_seconds=-1.0)
        with pytest.raises(ConfigurationError):
            CachePolicy(max_entries=-1)
