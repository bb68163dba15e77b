"""The zero-copy shared-memory data plane: lifecycle, parity, recovery.

Three invariant families:

- **lifecycle** — arenas and slabs own their segments: handles pickle
  small, attach as read-only views (an output slab's, writable), and
  closing the owner unlinks everything (the session-scoped fixture in
  ``conftest.py`` additionally asserts the whole suite leaks no
  segments);
- **parity** — the shm transport changes wall time, never answers:
  the counted in-process loop a host without shared memory runs is
  bit-identical to the inline answer, and so are the pooled
  dispatcher's blocks, which come back through its output slab however
  wide the answer, however many workers, and after a worker was
  abandoned mid-write (the equivalence matrix covers the rest);
- **staging** — one YET is staged at a time, once per content
  fingerprint, and rides each task as handles: a swap stages once more
  and keeps the workers;
- **recovery** — a dead worker breaks the executor, not the data plane:
  the next run's tasks name the same staged handles and re-attach
  cleanly.
"""

from __future__ import annotations

import gc
import os
import pickle
import weakref

import numpy as np
import pytest
from conftest import as_csr, worker_probes

from repro.core.engines import MulticoreEngine, VectorizedEngine
from repro.core.kernels import PortfolioKernel
from repro.core.layer import Layer
from repro.core.portfolio import Portfolio
from repro.core.tables import StoredYet, YetTable
from repro.data.store import ChunkStore
from repro.errors import ConfigurationError, ExecutionError
from repro.hpc import faults, shm
from repro.hpc.faults import FaultPlan
from repro.hpc.pool import TaskPolicy, WorkPool
from repro.serve import dispatch
from repro.serve.dispatch import InlineDispatcher, PooledDispatcher

pytestmark = pytest.mark.skipif(
    not shm.shm_available(), reason="shared memory unavailable on this host"
)


def _tiny_kernel_layer():
    from repro.core.layer import Layer
    from repro.core.tables import EltTable
    from repro.core.terms import LayerTerms

    elt = EltTable.from_arrays(np.arange(50, dtype=np.int64),
                               np.linspace(1e4, 5e5, 50))
    return Layer(0, [elt], LayerTerms(occ_retention=1e4))


# ---------------------------------------------------------------------------
# handles and arenas
# ---------------------------------------------------------------------------

class TestHandles:
    def test_handle_pickles_small_and_attaches_equal(self):
        data = np.arange(50_000, dtype=np.float64)
        with shm.SharedArena() as arena:
            handle = arena.share(data)
            wire = pickle.dumps(handle)
            assert len(wire) < 500, "a handle must pickle as a descriptor"
            view = pickle.loads(wire).attach()
            np.testing.assert_array_equal(view, data)

    def test_attached_views_are_read_only(self):
        with shm.SharedArena() as arena:
            view = arena.share(np.arange(8.0)).attach()
            with pytest.raises(ValueError):
                view[0] = 99.0

    def test_place_packs_many_arrays_into_one_segment(self):
        a = np.arange(10, dtype=np.int64)
        b = np.linspace(0.0, 1.0, 17)
        c = np.arange(6, dtype=np.int32).reshape(2, 3)
        with shm.SharedArena() as arena:
            ha, hb, hc = arena.place(a, b, c)
            assert ha.segment == hb.segment == hc.segment
            np.testing.assert_array_equal(ha.attach(), a)
            np.testing.assert_array_equal(hb.attach(), b)
            np.testing.assert_array_equal(hc.attach(), c)
            assert hc.attach().shape == (2, 3)

    def test_close_unlinks_owned_segments(self):
        arena = shm.SharedArena()
        arena.share(np.arange(4.0))
        arena.share(np.arange(8.0))
        assert arena.n_segments == 2
        assert len(shm.active_segment_names()) >= 2
        arena.close()
        arena.close()  # idempotent
        assert arena.n_segments == 0 or arena.nbytes == 0
        with pytest.raises(ConfigurationError):
            arena.share(np.arange(2.0))

    def test_slab_reuses_segment_until_outgrown(self):
        with shm.ShmSlab(capacity_bytes=1024) as slab:
            slab.pack(np.arange(16.0))
            name = slab.segment_name
            assert slab.generations == 1
            (h,) = slab.pack(np.arange(32.0))
            assert slab.segment_name == name, "a fitting payload must reuse"
            np.testing.assert_array_equal(h.attach(), np.arange(32.0))
            (h,) = slab.pack(np.arange(50_000.0))
            assert slab.segment_name != name, "an outgrown slab must roll"
            assert slab.generations == 2
            np.testing.assert_array_equal(h.attach(), np.arange(50_000.0))
        assert slab.segment_name is None


# ---------------------------------------------------------------------------
# table and kernel round-trips
# ---------------------------------------------------------------------------

class TestRoundTrips:
    def test_yet_to_shared_from_handles(self, tiny_workload):
        yet = tiny_workload.yet
        yet.fingerprint()   # cached → must ride the handles
        with shm.SharedArena() as arena:
            handles = pickle.loads(pickle.dumps(yet.to_shared(arena)))
            again = YetTable.from_handles(handles)
            assert again.n_trials == yet.n_trials
            assert again.fingerprint() == yet.fingerprint()
            np.testing.assert_array_equal(again.trials, yet.trials)
            np.testing.assert_array_equal(again.event_ids, yet.event_ids)
            np.testing.assert_array_equal(again.trial_offsets,
                                          yet.trial_offsets)

    def test_kernel_export_from_handles_bit_identical(
            self, small_portfolio_workload):
        wl = small_portfolio_workload
        kernel = wl.portfolio.kernel()
        with shm.SharedArena() as arena:
            handles = pickle.loads(pickle.dumps(kernel.export_handles(arena)))
            assert handles.nbytes >= kernel.nbytes
            again = PortfolioKernel.from_handles(handles)
            assert again.layer_ids == kernel.layer_ids
            a = kernel.run(wl.yet.trials, wl.yet.event_ids, wl.yet.n_trials)
            b = again.run(wl.yet.trials, wl.yet.event_ids, wl.yet.n_trials)
            np.testing.assert_array_equal(a, b)

    def test_mixed_dense_sparse_kernel_round_trip(self, tiny_workload):
        """A book past ``DENSE_MAX_ENTRIES`` is CSR by its own shape; the
        CSR arrays must survive the handle round-trip like the dense
        stack does."""
        wl = tiny_workload
        layer = wl.portfolio.layers[0]
        csr = as_csr(layer)
        kernel = Portfolio([layer, Layer(1, csr.elts, layer.terms,
                                         weights=csr.weights)]).kernel()
        assert kernel.n_dense == kernel.n_sparse == 1
        with shm.SharedArena() as arena:
            again = PortfolioKernel.from_handles(kernel.export_handles(arena))
            a = kernel.run(wl.yet.trials, wl.yet.event_ids, wl.yet.n_trials)
            b = again.run(wl.yet.trials, wl.yet.event_ids, wl.yet.n_trials)
            np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# engine / dispatcher parity
# ---------------------------------------------------------------------------

class TestTransportParity:
    def test_multicore_repeat_runs_ship_zero_payloads(
            self, small_portfolio_workload):
        wl = small_portfolio_workload
        with MulticoreEngine(n_workers=2) as engine:
            engine.run(wl.portfolio, wl.yet)
            ships = engine.dispatcher.payload_ships
            engine.run(wl.portfolio, wl.yet)
            engine.run(wl.portfolio, wl.yet)
            assert engine.dispatcher.payload_ships == ships, (
                "repeat runs with an unchanged kernel and YET must not "
                "re-deliver the shared payload"
            )

    def test_an_equal_yet_does_not_reship(self, rng):
        """Staging keys on content fingerprint, not object identity:
        an equal YET built a second time stages nothing."""
        ids = np.arange(500, dtype=np.int64)
        rates = np.full(500, 1.0 / 500)
        make = lambda: YetTable.simulate(ids, rates, 200,
                                         np.random.default_rng(3),
                                         mean_events_per_trial=20.0)
        yet_a, yet_b = make(), make()
        assert yet_a is not yet_b
        layer = _tiny_kernel_layer()
        kernel = PortfolioKernel.from_layers([layer], layer_ids=[0])
        with PooledDispatcher(n_workers=2) as d:
            first = d.run(kernel, yet_a)
            ships = d.payload_ships
            second = d.run(kernel, yet_b)
            assert d.payload_ships == ships
            np.testing.assert_array_equal(first, second)

    def test_host_without_shm_runs_a_counted_degraded_pool(
            self, monkeypatch, small_portfolio_workload, risk_session,
            pricing_service):
        """With no shared memory there is no second transport: an
        engine's run, a session's pooled aggregate and a pooled quote
        batch each sweep in process, counted as a degraded call, on an
        unstarted pool — no ship, no segment, the inline answer — and the
        planner prices the pool as the serial fallback."""
        monkeypatch.setattr(shm, "_AVAILABLE", False)
        wl = small_portfolio_workload
        layers = list(wl.portfolio)
        before = shm.active_segment_names()
        inline = VectorizedEngine().run(wl.portfolio, wl.yet)
        with pricing_service(wl.yet) as svc:
            inline_quotes = svc.quote_many(layers)

        def check(dispatcher, runs):
            health = dispatcher.health.snapshot()
            assert dispatcher.transport_active == "inline"
            assert dispatcher.n_procs == 1
            assert health["pool.degraded_calls"] == runs
            assert not dispatcher.pool.started
            assert dispatcher.payload_ships == 0
            assert shm.active_segment_names() == before

        def same_ylts(res):
            for lid, ylt in inline.ylt_by_layer.items():
                np.testing.assert_array_equal(res.ylt_by_layer[lid].losses,
                                              ylt.losses)

        with MulticoreEngine(n_workers=2) as engine:
            for runs in (1, 2):
                res = engine.run(wl.portfolio, wl.yet)
                same_ylts(res)
                assert res.details["degraded"] is True
                check(engine.dispatcher, runs)

        session = risk_session(wl.yet, wl.portfolio, n_workers=2)
        plan = session.plan("aggregate")
        pooled_row = next(e for e in plan.estimates
                          if e.engine == "multicore")
        assert pooled_row.n_procs == 1
        assert "serial fallback" in pooled_row.note
        assert plan.transport == "inline"
        res = session.aggregate(engine="multicore")
        same_ylts(res)
        assert res.details["transport"] == "inline"
        check(session.dispatcher("pooled"), 1)

        svc = session.pricing_service(engine="pooled")
        quotes = svc.quote_many(layers)
        batches = svc.telemetry.snapshot()["metrics"]["serve.batches"]
        assert batches >= 1
        for a, b in zip(quotes, inline_quotes):
            assert a.premium == b.premium
        check(svc.dispatcher, 1 + batches)
        session.close()
        assert shm.active_segment_names() == before

    def test_pool_health_counts_on_a_disabled_plane(
            self, monkeypatch, small_portfolio_workload, risk_session):
        """``PoolHealth.snapshot()`` reads the counts supervision acts
        on, not the plane's mirror of them: a session built with
        ``telemetry=False`` still reports its degraded call."""
        monkeypatch.setattr(shm, "_AVAILABLE", False)
        wl = small_portfolio_workload
        session = risk_session(wl.yet, wl.portfolio, n_workers=2,
                               telemetry=False)
        session.aggregate(engine="multicore")
        health = session.pool_health
        assert health.totals["degraded_calls"] == 1
        assert health.snapshot()["pool.degraded_calls"] == 1
        assert session.telemetry.snapshot()["metrics"] == {}

    def test_a_stored_yet_is_refused_typed_before_staging(
            self, small_portfolio_workload, tmp_path):
        """A pooled run stages its YET in shared memory, which a
        ``StoredYet`` cannot be: ``run`` and ``warmup`` refuse it with a
        typed error naming the open item, and stage or spawn nothing."""
        wl = small_portfolio_workload
        store = ChunkStore(tmp_path)
        store.write_table("yet", wl.yet.table, rows_per_chunk=97)
        stored = StoredYet(store, "yet", wl.yet.n_trials)
        before = shm.active_segment_names()
        with PooledDispatcher(n_workers=2) as dispatcher:
            for call in (lambda: dispatcher.run(wl.portfolio.kernel(), stored),
                         lambda: dispatcher.warmup(stored)):
                with pytest.raises(ConfigurationError, match=r"9\(b\)"):
                    call()
            assert not dispatcher.pool.started
        assert shm.active_segment_names() == before

    def test_unknown_transport_rejected(self):
        """``transport`` takes one value, ``"shm"``, and selects nothing;
        the multicore engine does not take it at all."""
        for transport in ("carrier-pigeon", "pickle", "auto"):
            with pytest.raises(ConfigurationError):
                PooledDispatcher(transport=transport)
            with pytest.raises(TypeError):
                MulticoreEngine(transport=transport)
        PooledDispatcher(transport="shm").close()

    def test_a_different_yet_keeps_the_executor_and_its_workers(
            self, small_portfolio_workload, rng):
        """A second trial set is staged once more and rides the next
        tasks' handles: the executor and its worker processes stay."""
        wl = small_portfolio_workload
        kernel = wl.portfolio.kernel()
        other = YetTable.simulate(np.arange(500, dtype=np.int64),
                                  np.full(500, 1 / 500), 150, rng,
                                  mean_events_per_trial=15.0)
        with PooledDispatcher(n_workers=2) as d:
            d.run(kernel, wl.yet)
            executor, ships = d.pool._executor, d.payload_ships
            pids = set(executor._processes)
            np.testing.assert_array_equal(
                d.run(kernel, other), InlineDispatcher().run(kernel, other))
            assert d.pool._executor is executor
            assert set(worker_probes(d, _worker_yet_segments)) <= pids
            assert d.payload_ships == ships + 1
            metrics = d.telemetry.snapshot()["metrics"]
            assert metrics["pool.payload_ships"] == ships + 1
            assert metrics["pool.executor_cycles"] == 0

    def test_a_yet_swap_frees_the_old_segment_at_once(
            self, small_portfolio_workload, rng):
        """One YET is staged at a time: each swap unlinks the old YET's
        segment, and a worker detaches the YET it drops."""
        wl = small_portfolio_workload
        kernel = wl.portfolio.kernel()
        ids = np.arange(500, dtype=np.int64)
        yets = [wl.yet, *(YetTable.simulate(ids, np.full(500, 1 / 500), n,
                                            rng, mean_events_per_trial=15.0)
                          for n in (150, 100))]
        before = shm.active_segment_names()
        with PooledDispatcher(n_workers=2) as d:
            for yet in yets:
                d.run(kernel, yet)
                staged = d._yet_handles.trial.segment
                assert {name for name in shm.active_segment_names() - before
                        if not name.startswith("repro-slab-")} == {staged}
            held = worker_probes(d, _worker_yet_segments)
        assert set(held.values()) == {frozenset({staged})}
        assert shm.active_segment_names() == before


# ---------------------------------------------------------------------------
# a staged kernel: packed once, attached once per worker
# ---------------------------------------------------------------------------

def _worker_yet_segments(_yet):  # pragma: no cover - in a worker
    """The segments other than slabs this worker has attached."""
    with shm._ATTACHED_LOCK:
        return frozenset(name for name in shm._ATTACHED
                         if not name.startswith("repro-slab-"))


def _worker_kernel_attaches(_yet):  # pragma: no cover - in a worker
    held = dispatch._attached
    return dispatch._attaches, held and held[0]


class TestStagedKernel:
    N_RUNS = 6

    def test_packed_once_per_kernel_and_attached_once_per_stamp(
            self, small_portfolio_workload):
        """Repeat runs of one portfolio write its kernel to the slab once;
        a different kernel packs again, and so does the first one after
        it.  No worker attaches a stamp twice, every answer is the
        inline one, and ``close()`` lets go of the held kernel."""
        wl = small_portfolio_workload
        first = wl.portfolio.kernel()
        second = Portfolio(list(wl.portfolio)[:2]).kernel()
        inline = {id(k): InlineDispatcher().run(k, wl.yet)
                  for k in (first, second)}
        d = PooledDispatcher(n_workers=2)
        packs = d.telemetry.counter("dispatch.slab.packs")
        stamps = []

        def run(kernel, times=1):
            for _ in range(times):
                np.testing.assert_array_equal(d.run(kernel, wl.yet),
                                              inline[id(kernel)])
            stamps.append(d._staged[1].stamp)
            seen = worker_probes(d, _worker_kernel_attaches)
            # a worker attaches a stamp at most once: no more attaches
            # than stamps issued, and what it holds is one of them
            assert 1 <= max(a for a, _ in seen.values()) <= len(set(stamps))
            assert {s for a, s in seen.values() if a} <= set(stamps)

        try:
            assert d.transport_active == "shm"
            run(first, self.N_RUNS)
            assert packs.value == 1
            run(second)
            assert packs.value == 2
            run(first)
            assert packs.value == 3
            assert len(set(stamps)) == 3
            throwaway = Portfolio(list(wl.portfolio)[:1]).kernel()
            inline[id(throwaway)] = InlineDispatcher().run(throwaway, wl.yet)
            run(throwaway)
            # (the kernel is slotted without weakrefs: watch its own stack)
            held = weakref.ref(throwaway.dense_stack)
            del throwaway
            gc.collect()
            assert held() is not None, "the staged kernel is held strongly"
        finally:
            d.close()
        gc.collect()
        assert held() is None, "close() must release the staged kernel"


# ---------------------------------------------------------------------------
# the output slab: blocks come back through shared pages
# ---------------------------------------------------------------------------

class TestOutputSlab:
    """Each worker writes its columns of the answer into the pooled
    dispatcher's output slab and returns nothing; the parent copies the
    matrix out.  Every answer is the inline one, bit for bit."""

    def test_answers_of_different_widths_grow_the_slab(self):
        """An 8-row answer over 20,000 trials (1.28 MB) outgrows the
        1 MiB default; alternating it with a one-row answer grows the
        slab once and reuses it after."""
        from repro.bench.workloads import build_portfolio_workload

        wl = build_portfolio_workload(
            n_layers=8, n_trials=20_000, mean_events_per_trial=2.0,
            elts_per_layer=1, elt_rows=100, catalog_events=400, seed=5)
        wide = wl.portfolio.kernel()
        narrow = Portfolio(list(wl.portfolio)[:1]).kernel()
        inline = {id(k): InlineDispatcher().run(k, wl.yet)
                  for k in (wide, narrow)}
        with PooledDispatcher(n_workers=2) as d:
            gauge = d.telemetry.gauge("dispatch.output_slab.generations")
            for kernel, generations in ((narrow, 1), (wide, 2), (narrow, 2),
                                        (wide, 2)):
                np.testing.assert_array_equal(d.run(kernel, wl.yet),
                                              inline[id(kernel)])
                assert d._output.generations == gauge.value == generations
            assert d._output.nbytes == 2 << 20

    def test_three_workers(self, small_portfolio_workload):
        wl = small_portfolio_workload
        kernel = wl.portfolio.kernel()
        with PooledDispatcher(n_workers=3) as d:
            assert len(d.spans(wl.yet)) == 3
            for _ in range(2):
                np.testing.assert_array_equal(
                    d.run(kernel, wl.yet), InlineDispatcher().run(kernel, wl.yet))
            assert d._output.generations == 1

    @pytest.mark.parametrize("telemetry", [True, False])
    def test_a_deadline_miss_rolls_the_slab(self, small_portfolio_workload,
                                            telemetry):
        """A worker abandoned past its deadline wakes up later and writes
        its columns: the run that abandoned it leaves the slab on a fresh
        generation, so the next run — a different kernel here — is read
        from pages no straggler writes.  A disabled telemetry plane
        counts nothing, and the slab rolls all the same."""
        wl = small_portfolio_workload
        first = wl.portfolio.kernel()
        second = Portfolio(list(wl.portfolio)[:2]).kernel()
        policy = TaskPolicy(deadline_seconds=0.5, max_retries=2,
                            backoff_seconds=0.0)
        with PooledDispatcher(n_workers=2, telemetry=telemetry) as d:
            np.testing.assert_array_equal(
                d.run(first, wl.yet), InlineDispatcher().run(first, wl.yet))
            stale = d._output.segment_name
            with faults.inject(FaultPlan.delay_task(1, 2.0)) as plan:
                answer = d.run(first, wl.yet, policy=policy)
            assert plan.exhausted
            assert d.pool.health.totals["timeouts"] >= 1
            np.testing.assert_array_equal(
                answer, InlineDispatcher().run(first, wl.yet))
            assert d._output.generations >= 2
            assert d._output.segment_name != stale
            assert stale not in shm.active_segment_names()
            np.testing.assert_array_equal(
                d.run(second, wl.yet), InlineDispatcher().run(second, wl.yet))

    def test_close_returns_the_segments(self, small_portfolio_workload):
        wl = small_portfolio_workload
        before = shm.active_segment_names()
        d = PooledDispatcher(n_workers=2)
        d.run(wl.portfolio.kernel(), wl.yet)
        assert d._output.segment_name in shm.active_segment_names()
        d.close()
        assert shm.active_segment_names() == before


# ---------------------------------------------------------------------------
# worker death and recovery
# ---------------------------------------------------------------------------

def _die(_yet):  # pragma: no cover - runs in a worker
    os._exit(17)


def _attach_and_cached_slabs(handle):
    """Worker: attach one slab handle, report this process's cached
    slab mappings (picklable task for the eviction tests)."""
    view = handle.attach()
    with shm._ATTACHED_LOCK:
        cached = sorted(n for n in shm._ATTACHED
                        if n.startswith("repro-slab-"))
    return float(view.sum()), cached


#: No-retry supervision: a persistent killer fails terminally at once,
#: keeping these tests to exactly one executor cycle.
_NO_RETRY = TaskPolicy(max_retries=0, backoff_seconds=0.0)


class TestRecovery:
    def test_engine_recovers_and_reattaches_after_worker_death(
            self, small_portfolio_workload):
        wl = small_portfolio_workload
        with MulticoreEngine(n_workers=2) as engine:
            before = engine.run(wl.portfolio, wl.yet)
            ships = engine.dispatcher.payload_ships
            handles = engine.dispatcher._yet_handles
            staged = shm.active_segment_names()
            with pytest.raises(ExecutionError):
                worker_probes(engine.dispatcher, _die, n_tasks=4,
                              policy=_NO_RETRY)
            after = engine.run(wl.portfolio, wl.yet)
            np.testing.assert_array_equal(before.portfolio_ylt.losses,
                                          after.portfolio_ylt.losses)
            # fresh workers attached the staged handles: the YET was
            # not staged again and the staged arena is untouched
            assert engine.dispatcher.payload_ships == ships
            assert engine.dispatcher._yet_handles is handles
            assert shm.active_segment_names() == staged
            assert engine.pool.health.snapshot()["pool.worker_deaths"] >= 1

    def test_dispatcher_recovers_after_worker_death(
            self, small_portfolio_workload):
        wl = small_portfolio_workload
        kernel = wl.portfolio.kernel()
        with PooledDispatcher(n_workers=2) as d:
            before = d.run(kernel, wl.yet)
            with pytest.raises(ExecutionError):
                worker_probes(d, _die, n_tasks=4, policy=_NO_RETRY)
            after = d.run(kernel, wl.yet)
            np.testing.assert_array_equal(before, after)


# ---------------------------------------------------------------------------
# slab generation eviction on the attach side
# ---------------------------------------------------------------------------

class TestSlabGenerationEviction:
    def test_workers_unmap_outgrown_generations(self):
        """Attaching a newer slab generation evicts the worker's cached
        mapping of the outgrown one — the stale segment must not stay
        pinned until worker exit."""
        arr1 = np.arange(256, dtype=np.float64)
        arr2 = np.arange(4096, dtype=np.float64)  # outgrows the slab
        with WorkPool(n_workers=2) as pool, \
                shm.ShmSlab(capacity_bytes=1 << 11) as slab:
            # Spawn workers before any segment exists: a forked worker
            # inherits the owner registry, which would short-circuit the
            # attach path this test is about.
            pool.ensure_started()
            (h1,) = slab.pack(arr1)
            g1 = slab.segment_name
            assert shm._SLAB_NAME_RE.match(g1)
            for total, cached in pool.map(_attach_and_cached_slabs,
                                          [h1] * 8):
                assert total == arr1.sum()
                assert g1 in cached
            (h2,) = slab.pack(arr2)
            g2 = slab.segment_name
            assert slab.generations == 2 and g1 != g2
            for total, cached in pool.map(_attach_and_cached_slabs,
                                          [h2] * 8):
                assert total == arr2.sum()
                assert g2 in cached
                # the outgrown generation was unmapped at attach time
                assert g1 not in cached

    def test_unrelated_slabs_do_not_evict_each_other(self):
        arr = np.arange(128, dtype=np.float64)
        with WorkPool(n_workers=2) as pool, \
                shm.ShmSlab(capacity_bytes=1 << 11) as a, \
                shm.ShmSlab(capacity_bytes=1 << 11) as b:
            pool.ensure_started()  # fork before any segment exists
            (ha,) = a.pack(arr)
            (hb,) = b.pack(arr)
            # Every worker attaches slab A, then slab B: different uids,
            # so A's generation-1 mapping must survive B's attach.
            for total, cached in pool.map(_attach_and_cached_slabs,
                                          [ha] * 8):
                assert total == arr.sum()
            for _total, cached in pool.map(_attach_and_cached_slabs,
                                           [hb] * 8):
                if a.segment_name in cached or b.segment_name in cached:
                    # a worker that saw both keeps both mappings
                    assert b.segment_name in cached
