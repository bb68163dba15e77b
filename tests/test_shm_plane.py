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
  cleanly;
- **mapping** — a worker owns no segment and, after a task, maps
  exactly the staged YET, the kernel slab and the output slab that task
  named: no swapped YET, outgrown or rolled slab stays mapped.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
import weakref

import numpy as np
import pytest
from conftest import (as_csr, make_yet, multicore, worker_mappings,
                      worker_probes)

from repro.core.engines import MulticoreEngine, VectorizedEngine
from repro.core.kernels import PortfolioKernel
from repro.core.layer import Layer
from repro.core.lookup import fits_direct
from repro.core.portfolio import Portfolio
from repro.core.tables import StoredYet, YetTable
from repro.data.store import ChunkStore
from repro.errors import ConfigurationError, ExecutionError
from repro.hpc import faults, shm
from repro.hpc.faults import FaultPlan
from repro.hpc import pool as supervision
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
            (handle,) = arena.place(data)
            wire = pickle.dumps(handle)
            assert len(wire) < 500, "a handle must pickle as a descriptor"
            view = pickle.loads(wire).attach()
            np.testing.assert_array_equal(view, data)

    def test_attached_views_are_read_only(self):
        with shm.SharedArena() as arena:
            view = arena.place(np.arange(8.0))[0].attach()
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
        arena.place(np.arange(4.0))
        arena.place(np.arange(8.0))
        assert arena.n_segments == 2
        assert len(shm.active_segment_names()) >= 2
        arena.close()
        arena.close()  # idempotent
        assert arena.n_segments == 0 or arena.nbytes == 0
        with pytest.raises(ConfigurationError):
            arena.place(np.arange(2.0))

    def test_slab_reuses_segment_until_outgrown(self):
        with shm.ShmSlab(capacity_bytes=1024) as slab:
            slab.place(np.arange(16.0))
            name = slab.segment_name
            assert slab.generations == 1
            (h,) = slab.place(np.arange(32.0))
            assert slab.segment_name == name, "a fitting payload must reuse"
            np.testing.assert_array_equal(h.attach(), np.arange(32.0))
            (h,) = slab.place(np.arange(50_000.0))
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
        with shm.SharedArena() as arena:
            handles = pickle.loads(pickle.dumps(yet.to_shared(arena)))
            again = YetTable.from_handles(handles)
            assert again.n_trials == yet.n_trials
            assert again.fingerprint() == yet.fingerprint()
            np.testing.assert_array_equal(again.trials, yet.trials)
            np.testing.assert_array_equal(again.event_ids, yet.event_ids)
            np.testing.assert_array_equal(again.trial_offsets,
                                          yet.trial_offsets)

    def test_an_attached_yet_hashes_as_its_source(self, tiny_workload):
        """An attached copy computes its source's hash from the staged
        offsets and event ids (the handles carry no hash)."""
        yet = YetTable(tiny_workload.yet.table, tiny_workload.yet.n_trials)
        with shm.SharedArena() as arena:
            again = YetTable.from_handles(yet.to_shared(arena))
            assert again._fingerprint is None
            assert again.fingerprint() == yet.fingerprint()

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
        """A book of a wide id range (past ``DENSE_MAX_ENTRIES``) is
        stored as every book is, and survives the handle round-trip
        beside a compact one."""
        wl = tiny_workload
        layer = wl.portfolio.layers[0]
        csr = as_csr(layer)
        kernel = Portfolio([layer, Layer(1, csr.elts, layer.terms,
                                         weights=csr.weights)]).kernel()
        assert [fits_direct(kernel.book(s)[0]) for s in (0, 1)] == [
            True, False]
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
        with multicore(2) as engine:
            engine.run(wl.portfolio, wl.yet)
            ships = engine.dispatcher.payload_ships
            engine.run(wl.portfolio, wl.yet)
            engine.run(wl.portfolio, wl.yet)
            assert engine.dispatcher.payload_ships == ships, (
                "repeat runs with an unchanged kernel and YET must not "
                "re-deliver the shared payload"
            )

    def test_an_equal_yet_does_not_reship(self, rng):
        """The staged table is held by object and another compared with
        it by content fingerprint: an equal YET built a second time
        stages nothing."""
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
            metrics = dispatcher.telemetry.snapshot()["metrics"]
            assert dispatcher.transport_active == "inline"
            assert dispatcher.n_procs == 1
            assert metrics["pool.degraded_calls"] == runs
            assert not dispatcher.pool.started
            assert dispatcher.payload_ships == 0
            assert shm.active_segment_names() == before

        def same_ylts(res):
            for lid, ylt in inline.ylt_by_layer.items():
                np.testing.assert_array_equal(res.ylt_by_layer[lid].losses,
                                              ylt.losses)

        with multicore(2) as engine:
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
        """``PoolHealth.totals`` holds the counts supervision acts on,
        not the plane's mirror of them: a session built with
        ``telemetry=False`` still counts its degraded call."""
        monkeypatch.setattr(shm, "_AVAILABLE", False)
        wl = small_portfolio_workload
        session = risk_session(wl.yet, wl.portfolio, n_workers=2,
                               telemetry=False)
        session.aggregate(engine="multicore")
        health = session.pool_health
        assert health.totals["degraded_calls"] == 1
        assert session.telemetry.snapshot()["metrics"] == {}

    def test_a_stored_yet_is_refused_typed_before_staging(
            self, small_portfolio_workload, tmp_path):
        """A pooled run stages its YET in shared memory, which a
        ``StoredYet`` cannot be: ``run`` and ``warmup`` refuse it with a
        typed error naming the open item, and stage or spawn nothing."""
        wl = small_portfolio_workload
        stored = StoredYet.write(ChunkStore(tmp_path), "yet", wl.yet, 97)
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

    def test_a_different_yet_keeps_the_workers(
            self, small_portfolio_workload, rng):
        """A second trial set is staged once more and rides the next
        tasks' handles: the worker processes stay."""
        wl = small_portfolio_workload
        kernel = wl.portfolio.kernel()
        other = YetTable.simulate(np.arange(500, dtype=np.int64),
                                  np.full(500, 1 / 500), 150, rng,
                                  mean_events_per_trial=15.0)
        with PooledDispatcher(n_workers=2) as d:
            d.run(kernel, wl.yet)
            pids, ships = set(worker_probes(d, _worker_owned)), d.payload_ships
            np.testing.assert_array_equal(
                d.run(kernel, other), InlineDispatcher().run(kernel, other))
            assert set(worker_probes(d, _worker_owned)) == pids
            assert d.payload_ships == ships + 1
            metrics = d.telemetry.snapshot()["metrics"]
            assert metrics["pool.payload_ships"] == ships + 1
            assert metrics["pool.executor_cycles"] == 0

    def test_a_yet_swap_frees_the_old_segment_at_once(
            self, small_portfolio_workload, rng):
        """One YET is staged at a time: each swap unlinks the old YET's
        segment, and no worker maps it after — the first YET, staged
        before the workers forked, no more than the later ones."""
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
                staged = d._yet_handles.arrays["event_id"].segment
                assert {name for name in shm.active_segment_names() - before
                        if not name.startswith("repro-slab-")} == {staged}
                _assert_workers_map_the_live_payloads(d)
        assert shm.active_segment_names() == before

    def test_a_worker_owns_no_segment(self, small_portfolio_workload):
        """A forked worker inherits its parent's owner registry, and
        lets it go at fork: it owns nothing, so nothing it does can
        unlink its parent's segments, and what it maps a task attached."""
        wl = small_portfolio_workload
        with PooledDispatcher(n_workers=2) as d:
            d.run(wl.portfolio.kernel(), wl.yet)
            assert shm.active_segment_names()
            assert set(worker_probes(d, _worker_owned).values()) == {
                frozenset()}


# ---------------------------------------------------------------------------
# the caller's span, the staged bytes, the payload bytes (counts, no clock)
# ---------------------------------------------------------------------------

class TestCallerSweepsSpanZero:
    """``n_workers`` is the processors a run uses: the caller sweeps
    span 0 and ``n - 1`` forked workers the rest; the staged YET is its
    trial offsets and event ids, staged without a hash."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_n_processors_fork_n_minus_1_workers(
            self, small_portfolio_workload, risk_session, n):
        wl = small_portfolio_workload
        inline = risk_session(wl.yet, wl.portfolio).aggregate(
            engine="vectorized")
        before = {p.pid for p in multiprocessing.active_children()}
        session = risk_session(wl.yet, wl.portfolio, n_workers=n)
        result = session.aggregate(engine="multicore")
        forked = {p.pid for p in multiprocessing.active_children()} - before
        assert len(forked) == n - 1
        assert result.details["n_workers"] == n
        assert result.details["degraded"] is False
        assert result.details["transport"] == ("shm" if n > 1 else "inline")
        assert session.payload_ships == (1 if n > 1 else 0)
        np.testing.assert_array_equal(result.portfolio_ylt.losses,
                                      inline.portfolio_ylt.losses)
        for lid, ylt in inline.ylt_by_layer.items():
            np.testing.assert_array_equal(result.ylt_by_layer[lid].losses,
                                          ylt.losses)

    def test_the_arena_holds_trial_offsets_and_event_ids_only(self):
        """15 trials and 64 occurrences: each array fills whole 64 B
        lines, so the arena is exactly 4 B per occurrence plus 8 B per
        offset."""
        rng = np.random.default_rng(5)
        yet = make_yet(np.sort(rng.integers(0, 15, 64)),
                       rng.integers(0, 50, 64), n_trials=15)
        kernel = PortfolioKernel.from_layers([_tiny_kernel_layer()],
                                             layer_ids=[0])
        with PooledDispatcher(n_workers=2) as d:
            np.testing.assert_array_equal(
                d.run(kernel, yet), InlineDispatcher().run(kernel, yet))
            assert d._yet_arena.nbytes == 4 * 64 + 8 * (15 + 1)

    def test_a_first_staging_hashes_nothing(self, small_portfolio_workload,
                                            risk_session):
        """A fresh session's first pooled run stages its YET unhashed;
        an equal YET offered after is hashed, beside the staged one, to
        find that it ships nothing."""
        wl = small_portfolio_workload
        yet = YetTable(wl.yet.table, wl.yet.n_trials)
        session = risk_session(yet, wl.portfolio, n_workers=2)
        first = session.aggregate(engine="multicore")
        assert yet._fingerprint is None
        assert session.payload_ships == 1
        equal = YetTable(wl.yet.table, wl.yet.n_trials)
        d = session.dispatcher("pooled")
        again = d.run(wl.portfolio.kernel(), equal)
        assert session.payload_ships == 1
        assert yet._fingerprint == equal._fingerprint is not None
        np.testing.assert_array_equal(
            again, np.stack([first.ylt_by_layer[lid].losses
                             for lid in first.ylt_by_layer]))

    def test_warm_runs_send_one_payload_bytes_object(
            self, small_portfolio_workload, monkeypatch):
        """The ``(YET, kernel, output)`` handles are pickled once per
        change: ten warm runs send one bytes object, and a new kernel
        makes a new one."""
        wl = small_portfolio_workload
        kernel = wl.portfolio.kernel()
        with PooledDispatcher(n_workers=3) as d:
            d.run(kernel, wl.yet)
            sent = []
            starmap = d.pool.starmap

            def spy(fn, arg_tuples, **kwargs):
                arg_tuples = list(arg_tuples)
                sent.extend(args[0] for args in arg_tuples)
                return starmap(fn, arg_tuples, **kwargs)

            monkeypatch.setattr(d.pool, "starmap", spy)
            for _ in range(10):
                d.run(kernel, wl.yet)
            assert len(sent) == 20
            assert len({id(payload) for payload in sent}) == 1
            assert isinstance(sent[0], bytes)
            other = Portfolio(list(wl.portfolio)[:2]).kernel()
            np.testing.assert_array_equal(
                d.run(other, wl.yet), InlineDispatcher().run(other, wl.yet))
            assert sent[-1] is not sent[0] and sent[-1] != sent[0]
            assert pickle.loads(sent[-1])[1].stamp == d._staged[1].stamp


# ---------------------------------------------------------------------------
# a staged kernel: packed once, attached once per worker
# ---------------------------------------------------------------------------

def _worker_owned(_yet):  # pragma: no cover - in a worker
    return shm.active_segment_names()


def _assert_workers_map_the_live_payloads(d):
    """Every worker maps exactly the staged YET's, the kernel slab's and
    the output slab's live segments, after a task naming all three."""
    live = {d._yet_handles.arrays["event_id"].segment: False,
            d._slab.segment_name: False, d._output.segment_name: False}
    for mapped in worker_mappings(d).values():
        assert mapped == live


#: A worker's weak reference to the dense stack of each kernel a probe
#: found it holding, by stamp.
_stacks_seen: dict = {}


def _worker_held_kernel(_yet):  # pragma: no cover - in a worker
    """The stamp of the kernel this worker holds (``None`` before its
    first block task), and whether it is the very copy an earlier probe
    found under that stamp — a stamp is attached once."""
    held = dispatch._held.get("kernel")
    if held is None:
        return None, True
    stamp, _handles, kernel = held
    first = _stacks_seen.setdefault(stamp, weakref.ref(kernel.values))
    return stamp, first() is kernel.values


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
                seen = worker_probes(d, _worker_held_kernel)
                # a worker holds a stamp issued, as the one copy it
                # attached for it
                held = {stamp for stamp, _ in seen.values()} - {None}
                assert held and held <= set(stamps)
                assert all(same for _, same in seen.values())

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
            # (the kernel is slotted without weakrefs: watch its values)
            held = weakref.ref(throwaway.values)
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
        # three processors: worker tasks 0 and 1 per run, task 1 delayed
        with PooledDispatcher(n_workers=3, telemetry=telemetry) as d:
            np.testing.assert_array_equal(
                d.run(first, wl.yet), InlineDispatcher().run(first, wl.yet))
            stale = d._output.segment_name
            with faults.inject(FaultPlan.delay_task(1, 2.0)) as plan:
                answer = d.run(first, wl.yet, deadline_seconds=0.5)
            assert plan.exhausted
            assert d.pool.health.totals["timeouts"] >= 1
            np.testing.assert_array_equal(
                answer, InlineDispatcher().run(first, wl.yet))
            assert d._output.generations >= 2
            assert d._output.segment_name != stale
            assert stale not in shm.active_segment_names()
            np.testing.assert_array_equal(
                d.run(second, wl.yet), InlineDispatcher().run(second, wl.yet))
            # the workers the retry forked let the rolled segment go
            _assert_workers_map_the_live_payloads(d)

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


class TestRecovery:
    @pytest.fixture(autouse=True)
    def _no_retry(self, monkeypatch):
        """No-retry supervision: a persistent killer fails terminally at
        once, keeping these tests to exactly one executor cycle."""
        monkeypatch.setattr(supervision, "MAX_RETRIES", 0)

    def test_engine_recovers_and_reattaches_after_worker_death(
            self, small_portfolio_workload):
        wl = small_portfolio_workload
        with multicore(2) as engine:
            before = engine.run(wl.portfolio, wl.yet)
            ships = engine.dispatcher.payload_ships
            handles = engine.dispatcher._yet_handles
            staged = shm.active_segment_names()
            with pytest.raises(ExecutionError):
                worker_probes(engine.dispatcher, _die, n_tasks=4)
            after = engine.run(wl.portfolio, wl.yet)
            np.testing.assert_array_equal(before.portfolio_ylt.losses,
                                          after.portfolio_ylt.losses)
            # fresh workers attached the staged handles: the YET was
            # not staged again and the staged arena is untouched
            assert engine.dispatcher.payload_ships == ships
            assert engine.dispatcher._yet_handles is handles
            assert shm.active_segment_names() == staged
            assert engine.dispatcher.telemetry.snapshot()["metrics"][
                "pool.worker_deaths"] >= 1

    def test_dispatcher_recovers_after_worker_death(
            self, small_portfolio_workload):
        wl = small_portfolio_workload
        kernel = wl.portfolio.kernel()
        with PooledDispatcher(n_workers=2) as d:
            before = d.run(kernel, wl.yet)
            with pytest.raises(ExecutionError):
                worker_probes(d, _die, n_tasks=4)
            after = d.run(kernel, wl.yet)
            np.testing.assert_array_equal(before, after)


# ---------------------------------------------------------------------------
# what a worker maps: per role, the payload its last task named
# ---------------------------------------------------------------------------

class TestSlabGenerationEviction:
    def test_workers_unmap_outgrown_generations(self):
        """A kernel that outgrows the slab rolls it to a fresh segment,
        and a worker lets the outgrown one go at its first task naming
        the new kernel — the workers fork on the first run, so they
        inherited the first segment before they attached it."""
        from repro.bench.workloads import build_portfolio_workload

        wl = build_portfolio_workload(
            n_layers=4, n_trials=200, mean_events_per_trial=20.0,
            elts_per_layer=1, elt_rows=20_000, catalog_events=60_000, seed=7)
        wide = wl.portfolio.kernel()
        narrow = Portfolio(list(wl.portfolio)[:1]).kernel()
        assert narrow.nbytes < 1 << 20 < wide.nbytes
        with PooledDispatcher(n_workers=2) as d:
            for kernel, generations in ((narrow, 1), (wide, 2)):
                np.testing.assert_array_equal(
                    d.run(kernel, wl.yet), InlineDispatcher().run(kernel, wl.yet))
                assert d._slab.generations == generations
                _assert_workers_map_the_live_payloads(d)

    def test_unrelated_slabs_do_not_evict_each_other(
            self, small_portfolio_workload):
        """A role lets go of its own payload only: a new kernel on the
        same YET leaves the YET mapped."""
        wl = small_portfolio_workload
        with PooledDispatcher(n_workers=2) as d:
            for kernel in (wl.portfolio.kernel(),
                           Portfolio(list(wl.portfolio)[:2]).kernel()):
                d.run(kernel, wl.yet)
                _assert_workers_map_the_live_payloads(d)
            assert d.telemetry.counter("dispatch.slab.packs").value == 2
            assert d.payload_ships == 1
