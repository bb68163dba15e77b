"""Tests for layers and portfolios."""

import gc
import pickle
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from conftest import as_csr

from repro.analytics.sensitivity import term_sensitivities
from repro.core import layer as layer_module
from repro.core.layer import Layer, book_levels
from repro.core.kernels import _HANDLE_FIELDS, PortfolioKernel
from repro.core.lookup import LossLookup, fits_direct
from repro.core.portfolio import Portfolio
from repro.core.tables import EltTable
from repro.core.terms import LayerTerms
from repro.errors import ConfigurationError


def elt(ids, losses, cid=0):
    return EltTable.from_arrays(ids, losses, contract_id=cid)


class TestLayer:
    def test_basic_properties(self):
        layer = Layer(3, [elt([1], [2.0]), elt([2, 3], [4.0, 5.0])], LayerTerms())
        assert layer.layer_id == 3
        assert layer.n_elts == 2
        assert layer.n_events == 3

    def test_lookup_merges_elts(self):
        layer = Layer(0, [elt([1], [10.0]), elt([1, 2], [5.0, 7.0])], LayerTerms())
        lk = layer.lookup()
        np.testing.assert_allclose(lk(np.array([1, 2])), [15.0, 7.0])

    def test_lookup_cached(self):
        layer = Layer(0, [elt([1], [1.0])], LayerTerms())
        assert layer.lookup() is layer.lookup()

    def test_invalidate_lookup(self):
        layer = Layer(0, [elt([1], [1.0])], LayerTerms())
        first = layer.lookup()
        layer.invalidate_lookup()
        assert layer.lookup() is not first

    def test_weights(self):
        layer = Layer(0, [elt([1], [10.0])], LayerTerms(), weights=[0.5])
        assert layer.lookup().get_scalar(1) == 5.0

    def test_no_elts_rejected(self):
        with pytest.raises(ConfigurationError):
            Layer(0, [], LayerTerms())

    def test_non_elt_rejected(self):
        with pytest.raises(ConfigurationError):
            Layer(0, ["nope"], LayerTerms())

    def test_negative_id_rejected(self):
        with pytest.raises(ConfigurationError):
            Layer(-1, [elt([1], [1.0])], LayerTerms())

    def test_bad_weights_rejected(self):
        with pytest.raises(ConfigurationError):
            Layer(0, [elt([1], [1.0])], LayerTerms(), weights=[0.0])
        with pytest.raises(ConfigurationError):
            Layer(0, [elt([1], [1.0])], LayerTerms(), weights=[1.0, 2.0])


def run_threads(target, n: int) -> None:
    """``target(i)`` on ``n`` threads (more than this host's cores) with
    a short switch interval, so a lost update has room to happen."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=target, args=(i,))
                   for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


@pytest.fixture()
def merges(monkeypatch):
    """Counts :meth:`LossLookup.from_elts` calls: one per merge built."""
    calls = []
    real = LossLookup.from_elts

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(LossLookup, "from_elts", counting)
    return calls


class TestBookSharing:
    """Layers over one ELT set and weights share one interned book: one
    merge, one ELT-content digest."""

    def test_many_layers_one_merge(self, merges):
        e = elt([1, 5, 9], [1.0, 2.0, 3.0])
        layers = [Layer(i, [e], LayerTerms(occ_retention=float(i)))
                  for i in range(128)]
        lookups = {id(layer.lookup()) for layer in layers}
        assert len(merges) == 1
        assert len(lookups) == 1

    def test_other_weights_or_setting_is_another_lookup(self, merges):
        e = elt([1, 900], [1.0, 2.0])
        plain = Layer(0, [e], LayerTerms())
        weighted = Layer(1, [e], LayerTerms(), weights=[0.5])
        assert weighted.lookup() is not plain.lookup()
        twin = as_csr(plain)
        assert twin.lookup() is not plain.lookup()
        assert not fits_direct(twin.lookup().ids)
        assert len(merges) == 3
        assert weighted.lookup().get_scalar(900) == 1.0

    def test_book_leaves_the_registry_with_its_last_layer(self):
        e = elt([1, 2], [1.0, 2.0])
        layers = [Layer(i, [e], LayerTerms()) for i in range(3)]
        layers[0].lookup()
        book = weakref.ref(layers[0]._book)
        key = ((id(e),), None)
        assert layer_module._BOOKS.get(key) is book()
        del layers[1:]
        gc.collect()
        assert book() is not None          # one layer still reads it
        del layers
        gc.collect()
        assert book() is None
        assert key not in layer_module._BOOKS

    def test_concurrent_first_lookups_build_one_merge(self, merges,
                                                      monkeypatch):
        counting = LossLookup.from_elts

        def slow(*args, **kwargs):
            time.sleep(0.02)       # widen the window two first builds race in
            return counting(*args, **kwargs)

        monkeypatch.setattr(LossLookup, "from_elts", slow)
        e = elt([1, 2, 3], [1.0, 2.0, 3.0])
        layers = [Layer(i, [e], LayerTerms()) for i in range(8)]
        start = threading.Barrier(len(layers))
        got = [None] * len(layers)

        def first_lookup(i):
            start.wait()
            got[i] = layers[i].lookup()

        run_threads(first_lookup, len(layers))
        assert len(merges) == 1
        assert all(lk is got[0] for lk in got)

    def test_bumped_sensitivity_layers_reuse_the_base_merge(
            self, merges, tiny_workload, risk_session):
        src = tiny_workload.portfolio.layers[0]
        fresh = [elt(e.event_ids.copy(), e.mean_losses.copy(), cid=i)
                 for i, e in enumerate(src.elts)]
        layer = Layer(7, fresh, src.terms)
        sens = term_sensitivities(risk_session(tiny_workload.yet), layer)
        assert sens["occ_retention"] <= 0.0
        assert len(merges) == 1

    def test_digest_reads_content_not_objects(self):
        terms = LayerTerms(occ_retention=5.0)
        a = Layer(0, [elt([1, 2], [3.0, 4.0])], terms)
        twin = Layer(1, [elt([1, 2], [3.0, 4.0])], terms)
        assert twin._book is not a._book
        assert twin.content_digest() == a.content_digest()
        other_terms = Layer(2, a.elts, LayerTerms(occ_retention=6.0))
        assert other_terms._book is a._book
        assert other_terms.content_digest() != a.content_digest()
        # Cached: the same string, not a re-derived equal one.
        assert a.content_digest() is a.content_digest()

    def test_one_invalidation_reaches_every_layer_over_the_elt(self):
        shared = elt([1, 2], [1.0, 2.0])
        a = Layer(0, [shared], LayerTerms())
        b = Layer(1, [shared], LayerTerms(occ_retention=0.5))
        wider = Layer(2, [shared, elt([3], [3.0])], LayerTerms())
        stale = {l.layer_id: (l.lookup(), l.content_digest())
                 for l in (a, b, wider)}
        shared.table["mean_loss"][0] = 10.0
        a.invalidate_lookup()
        for l in (a, b, wider):
            lk, digest = stale[l.layer_id]
            assert l.lookup() is not lk
            assert l.lookup().get_scalar(1) == 10.0
            assert l.content_digest() != digest
        assert b.content_digest() == Layer(
            9, [elt([1, 2], [10.0, 2.0])], b.terms).content_digest()

    def test_shared_tables_are_read_only(self):
        layer = Layer(0, [elt([1, 900], [1.0, 2.0])], LayerTerms())
        for lk in (layer.lookup(), as_csr(layer).lookup()):
            for array in (lk.ids, lk.values):
                with pytest.raises(ValueError):
                    array[0] = 99.0
        assert layer.lookup().get_scalar(1) == 1.0

    def test_unpickled_layers_re_intern_their_book(self):
        e = elt([1, 2], [1.0, 2.0])
        layers = [Layer(0, [e], LayerTerms()),
                  Layer(1, [e], LayerTerms(occ_limit=1.0), weights=[2.0])]
        layers[0].lookup()
        a, b = pickle.loads(pickle.dumps(layers))
        c = pickle.loads(pickle.dumps(layers[0]))
        assert a.elts[0] is b.elts[0] and a.elts[0] is not e
        assert a._book is not layers[0]._book
        assert c._book is not a._book
        assert Layer(5, a.elts, LayerTerms()).lookup() is a.lookup()
        assert b.lookup().get_scalar(2) == 4.0
        assert b.terms == layers[1].terms
        assert [l.content_digest() for l in (a, b)] == [
            l.content_digest() for l in layers]


class TestBookLedger:
    """``layer.books.*``: books alive and the bytes of their merges,
    read off ``.nbytes`` — exact on the tiny shape."""

    #: A merge of ids {1, 2}: 2 sorted ids + 2 values, 8 B each.
    DENSE = (2 + 2) * 8
    #: Its twin of a wide id range, ids {1, 2, 10**9}: ids + values.
    SPARSE = (3 + 3) * 8

    def test_exact_bytes_on_the_tiny_shape(self):
        gc.collect()
        base = book_levels()
        e = elt([1, 2], [1.0, 2.0])
        layers = [Layer(i, [e], LayerTerms()) for i in range(4)]
        levels = book_levels()
        assert levels["layer.books.resident"] == base["layer.books.resident"] + 1
        assert levels["layer.books.bytes"] == base["layer.books.bytes"]
        assert len({id(layer.lookup()) for layer in layers}) == 1
        twin = as_csr(layers[0])
        twin.lookup()
        assert book_levels() == {
            "layer.books.resident": base["layer.books.resident"] + 2,
            "layer.books.bytes": (base["layer.books.bytes"] + self.DENSE
                                  + self.SPARSE)}
        assert layers[0].lookup().resident_bytes == self.DENSE
        assert twin.lookup().resident_bytes == self.SPARSE
        layers[1].invalidate_lookup()
        twin.invalidate_lookup()
        assert book_levels()["layer.books.bytes"] == base["layer.books.bytes"]
        layers[2].lookup()
        assert book_levels()["layer.books.bytes"] == (
            base["layer.books.bytes"] + self.DENSE)
        del layers, twin
        gc.collect()
        assert book_levels() == base

    def test_one_stored_layout_exact_bytes(self):
        """Two books, one of a wide id range, each stored one way: a
        lookup holds 16 B per entry, a kernel over both holds their ids
        and values once however many rows read them, its handles are its
        nine arrays, and the ``layer.books.bytes`` gauge is the hand
        count."""
        from repro.hpc import shm

        gc.collect()
        base = book_levels()
        e = elt([1, 2], [1.0, 2.0])
        layers = [Layer(i, [e], LayerTerms(occ_retention=float(i)))
                  for i in range(3)]
        twin = as_csr(layers[0])
        for lk, entries in ((layers[0].lookup(), 2), (twin.lookup(), 3)):
            assert lk.resident_bytes == 16 * entries == 16 * lk.n_entries
        assert book_levels()["layer.books.bytes"] == (
            base["layer.books.bytes"] + 16 * (2 + 3))
        kernel = PortfolioKernel.from_layers([*layers, twin],
                                             layer_ids=range(4))
        assert kernel.nbytes == kernel.ids.nbytes + kernel.values.nbytes
        assert kernel.nbytes == 16 * (2 + 3)
        assert len(_HANDLE_FIELDS) == 9
        with shm.SharedArena() as arena:
            handles = kernel.export_handles(arena)
            assert set(handles.arrays) == set(_HANDLE_FIELDS)
            # five (L,) term vectors, the 5 ids and values, 3 offsets
            # and the (L,) row → book source, 8 B each
            assert handles.nbytes == sum(
                getattr(kernel, name).nbytes for name in _HANDLE_FIELDS)
            assert handles.nbytes == 8 * (5 * 4 + 5 + 5 + 3 + 4)
        del layers, twin, lk, kernel
        gc.collect()
        assert book_levels() == base

    def test_concurrent_builds_and_invalidations_balance(self):
        gc.collect()
        base = book_levels()
        shared = elt([1, 2, 3], [1.0, 2.0, 3.0])

        def churn(i):
            for _ in range(40):
                own = Layer(i, [elt([1, 2], [1.0, 2.0])], LayerTerms())
                over_shared = Layer(i, [shared], LayerTerms())
                for layer in (own, over_shared, as_csr(over_shared)):
                    layer.lookup()
                    layer.content_digest()
                over_shared.invalidate_lookup()
                own.invalidate_lookup()
                own.lookup()

        run_threads(churn, 8)
        gc.collect()
        assert book_levels() == base     # no build or release was lost

    def test_exported_where_the_dispatcher_exports_cache_levels(
            self, tiny_workload, risk_session):
        session = risk_session(tiny_workload.yet, tiny_workload.portfolio)
        session.aggregate(engine="vectorized")
        metrics = session.telemetry.snapshot()["metrics"]
        for name, level in book_levels().items():
            assert metrics[name] == level
        assert metrics["layer.books.bytes"] >= sum(
            l.lookup().resident_bytes for l in tiny_workload.portfolio)


class TestPortfolio:
    def make_layers(self, n=3):
        return [Layer(i, [elt([i + 1], [float(i + 1)], cid=i)], LayerTerms())
                for i in range(n)]

    def test_properties(self):
        pf = Portfolio(self.make_layers(3))
        assert pf.n_layers == 3
        assert pf.layer_ids == (0, 1, 2)
        assert pf.n_elts == 3
        assert len(pf) == 3

    def test_layer_by_id(self):
        pf = Portfolio(self.make_layers(3))
        assert pf.layer(1).layer_id == 1
        with pytest.raises(ConfigurationError):
            pf.layer(99)

    def test_iteration_order(self):
        pf = Portfolio(self.make_layers(4))
        assert [l.layer_id for l in pf] == [0, 1, 2, 3]

    def test_duplicate_ids_rejected(self):
        layers = self.make_layers(2)
        dup = Layer(0, [elt([9], [1.0])], LayerTerms())
        with pytest.raises(ConfigurationError):
            Portfolio([layers[0], dup])

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            Portfolio([])

    def test_non_layer_rejected(self):
        with pytest.raises(ConfigurationError):
            Portfolio(["nope"])

    def test_invalidate_kernels(self):
        pf = Portfolio(self.make_layers(2))
        first = pf.kernel()
        first_lookup = pf.layers[0].lookup()
        pf.invalidate_kernels()
        assert pf.kernel() is not first
        assert pf.layers[0].lookup() is not first_lookup

    def test_layer_invalidation_rebuilds_kernel(self):
        """The documented ELT-mutation flow — layer.invalidate_lookup() —
        must not leave engines serving a stale fused kernel."""
        pf = Portfolio(self.make_layers(2))
        stale = pf.kernel()
        # Mutate layer 0's ELT loss in place, then invalidate as documented.
        pf.layers[0].elts[0].table["mean_loss"][0] = 123.0
        pf.layers[0].invalidate_lookup()
        fresh = pf.kernel()
        assert fresh is not stale
        assert fresh.gather_layer(fresh.row_of(0), np.array([1]))[0] == 123.0
