"""Tests for layer financial terms and the event-loss lookup."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from conftest import as_csr, make_yet
from hypothesis import strategies as st

from repro.core.engines import VectorizedEngine
from repro.core.kernels import PortfolioKernel
from repro.core.layer import Layer
from repro.core import lookup as lookup_module
from repro.core.lookup import LossLookup, fits_direct
from repro.core.portfolio import Portfolio
from repro.core.tables import EltTable
from repro.core.terms import LayerTerms
from repro.errors import ConfigurationError


def build(ids, values, dense_max):
    """The lookup over ``(ids, values)`` (looked up through a direct
    table, for these compact ids) or, at ``dense_max=1``, the same
    losses in a book of a wide id range — one more entry, a zero loss at
    10**9, past ``DENSE_MAX_ENTRIES`` — looked up by ``searchsorted``."""
    if dense_max == 1:
        ids, values = np.append(ids, 10**9), np.append(values, 0.0)
    return LossLookup.from_arrays(ids, values)


class TestLayerTermsValidation:
    def test_defaults_are_identity_like(self):
        t = LayerTerms()
        assert t.occurrence_scalar(100.0) == 100.0
        assert t.aggregate_scalar(100.0) == 100.0

    @pytest.mark.parametrize("kwargs", [
        dict(occ_retention=-1), dict(agg_retention=-1),
        dict(occ_limit=0), dict(agg_limit=0),
        dict(participation=0.0), dict(participation=1.2),
        dict(occ_retention=math.nan),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            LayerTerms(**kwargs)


class TestOccurrenceTerms:
    T = LayerTerms(occ_retention=100.0, occ_limit=500.0)

    def test_below_retention_zero(self):
        assert self.T.occurrence_scalar(50.0) == 0.0

    def test_mid_range_linear(self):
        assert self.T.occurrence_scalar(300.0) == 200.0

    def test_capped_at_limit(self):
        assert self.T.occurrence_scalar(10_000.0) == 500.0

    def test_vector_matches_scalar(self):
        losses = np.array([0.0, 50.0, 100.0, 300.0, 700.0, 1e6])
        vec = self.T.apply_occurrence(losses)
        scal = [self.T.occurrence_scalar(x) for x in losses]
        np.testing.assert_allclose(vec, scal)

    def test_does_not_mutate_input(self):
        losses = np.array([200.0])
        self.T.apply_occurrence(losses)
        assert losses[0] == 200.0


class TestAggregateTerms:
    T = LayerTerms(agg_retention=1000.0, agg_limit=5000.0, participation=0.5)

    def test_below_retention(self):
        assert self.T.aggregate_scalar(500.0) == 0.0

    def test_participation_applied_after_caps(self):
        # (10_000 - 1000) -> capped at 5000 -> x0.5
        assert self.T.aggregate_scalar(10_000.0) == 2500.0

    def test_vector_matches_scalar(self):
        annual = np.array([0.0, 1000.0, 3000.0, 10_000.0])
        np.testing.assert_allclose(
            self.T.apply_aggregate(annual),
            [self.T.aggregate_scalar(x) for x in annual],
        )


class TestTrialOracle:
    def test_full_trial_arithmetic(self):
        t = LayerTerms(occ_retention=10.0, occ_limit=100.0,
                       agg_retention=50.0, agg_limit=120.0, participation=0.8)
        # events: 5 (below ret), 60 -> 50, 500 -> 100; sum=150
        # aggregate: min(max(150-50,0),120)=100; x0.8 = 80
        assert t.trial_loss_scalar([5.0, 60.0, 500.0]) == pytest.approx(80.0)

    def test_empty_trial(self):
        t = LayerTerms(agg_retention=10.0)
        assert t.trial_loss_scalar([]) == 0.0


class TestLossLookup:
    def test_dense_layout_chosen_for_compact_ids(self):
        """Compact ids are looked up through a direct table; the book
        stores its sorted entries beside it."""
        lk = LossLookup.from_arrays([0, 1, 2], [1.0, 2.0, 3.0])
        assert fits_direct(lk.ids)
        assert lk.resident_bytes == 16 * lk.n_entries == 48

    def test_sparse_layout_for_huge_ids(self):
        """A wide id range is looked up by ``searchsorted``, stored the
        same way."""
        lk = LossLookup.from_arrays([10**12], [1.0])
        assert not fits_direct(lk.ids)
        assert lk.resident_bytes == 16 * lk.n_entries == 16

    @pytest.mark.parametrize("dense_max", [10**6, 1])
    def test_lookup_values(self, dense_max):
        lk = build([5, 10, 20], [1.0, 2.0, 3.0], dense_max)
        out = lk(np.array([10, 5, 20, 5]))
        np.testing.assert_allclose(out, [2.0, 1.0, 3.0, 1.0])

    @pytest.mark.parametrize("dense_max", [10**6, 1])
    def test_unknown_ids_map_to_zero(self, dense_max):
        lk = build([5, 10], [1.0, 2.0], dense_max)
        out = lk(np.array([0, 7, 11, 10**9]))
        np.testing.assert_allclose(out, [0.0, 0.0, 0.0, 0.0])

    def test_dense_and_sparse_agree(self):
        rng = np.random.default_rng(0)
        ids = np.sort(rng.choice(10_000, 500, replace=False))
        vals = rng.random(500)
        dense = LossLookup.from_arrays(ids, vals)
        sparse = build(ids, vals, dense_max=1)
        queries = rng.integers(0, 12_000, 2000)
        np.testing.assert_allclose(dense(queries), sparse(queries))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            LossLookup.from_arrays([1, 1], [1.0, 2.0])

    def test_negative_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            LossLookup.from_arrays([-1], [1.0])

    def test_from_elt(self):
        elt = EltTable.from_arrays([2, 4], [7.0, 9.0])
        lk = LossLookup.from_elt(elt)
        assert lk.get_scalar(4) == 9.0

    def test_from_elts_sums_overlaps(self):
        a = EltTable.from_arrays([1, 2], [10.0, 20.0])
        b = EltTable.from_arrays([2, 3], [5.0, 7.0])
        lk = LossLookup.from_elts([a, b])
        np.testing.assert_allclose(lk(np.array([1, 2, 3])), [10.0, 25.0, 7.0])

    def test_from_elts_weights(self):
        a = EltTable.from_arrays([1], [10.0])
        b = EltTable.from_arrays([1], [10.0])
        lk = LossLookup.from_elts([a, b], weights=[1.0, 0.5])
        assert lk.get_scalar(1) == 15.0

    def test_from_elts_weight_count_mismatch(self):
        a = EltTable.from_arrays([1], [10.0])
        with pytest.raises(ConfigurationError):
            LossLookup.from_elts([a], weights=[1.0, 2.0])

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_merge_is_bytes_of_the_unique_add_at_merge(self, data):
        """1-5 overlapping ELTs under positive weights, losses spread
        over 17 orders of magnitude so that a change in the order of an
        event's adds shows in its bits: the book's merged ids, values
        are byte for byte those of ``np.unique``'s inverse +
        ``np.add.at``, building the merge leaves the layer's content
        digest what a layer over copies of the same arrays digests to,
        and over one YET the book and its twin of a wide id range give
        equal losses through every gather: ``gather_into``, a kernel's
        ``gather_layer`` and ``gather_block``, and an engine's YELT."""
        n_elts = data.draw(st.integers(1, 5))
        elts = []
        for i in range(n_elts):
            ids = np.array(data.draw(st.lists(st.integers(0, 12), min_size=1,
                                              max_size=12, unique=True)))
            # (1e16 + 1) + 1 != (1 + 1) + 1e16: the adds' order shows
            losses = np.array(data.draw(st.lists(
                st.sampled_from([1e16, 1.0, 0.1, 0.0]) | st.floats(0.0, 1e16),
                min_size=ids.size, max_size=ids.size)))
            elts.append(EltTable.from_arrays(ids, losses, contract_id=i))
        weights = data.draw(st.none() | st.lists(
            st.floats(1e-3, 1e3), min_size=n_elts, max_size=n_elts))
        ids = np.concatenate([e.event_ids for e in elts])
        vals = np.concatenate([w * e.mean_losses for w, e in zip(
            weights or [1.0] * n_elts, elts)])
        ref_ids, inverse = np.unique(ids, return_inverse=True)
        ref_vals = np.zeros(ref_ids.size)
        np.add.at(ref_vals, inverse, vals)

        layer = Layer(0, elts, LayerTerms(occ_retention=1.0), weights=weights)
        digest = layer.content_digest()
        twin = as_csr(layer)
        dense, csr = layer.lookup(), twin.lookup()
        # The wide twin holds one more id, 10**9, past every other.
        for lk, n in ((dense, ref_ids.size), (csr, ref_ids.size + 1)):
            assert lk.ids[:ref_ids.size].tobytes() == ref_ids.tobytes()
            assert lk.values[:ref_ids.size].tobytes() == ref_vals.tobytes()
            assert lk.ids.size == n
        copies = [EltTable.from_arrays(np.array(e.event_ids),
                                       np.array(e.mean_losses),
                                       contract_id=e.contract_id)
                  for e in elts]
        copied = Layer(1, copies, LayerTerms(occ_retention=1.0),
                       weights=weights)
        assert layer.content_digest() == digest == copied.content_digest()

        # One YET over ids 0..14: some held by no ELT (ids reach 12).
        events = np.arange(30) % 15
        yet = make_yet(np.arange(30) // 4, events, 8)
        ref = np.zeros(events.size)
        held = np.isin(events, ref_ids)
        ref[held] = ref_vals[np.searchsorted(ref_ids, events[held])]
        gathered = [lk.gather_into(events, np.empty(events.size))
                    for lk in (dense, csr)]
        kernel = PortfolioKernel.from_layers([layer, twin], layer_ids=[0, 1])
        block = kernel.gather_block(events)
        yelts = [VectorizedEngine().run(Portfolio([lay]), yet, emit_yelt=True)
                 .yelt_by_layer[0].table["loss"] for lay in (layer, twin)]
        for row in (0, 1):
            np.testing.assert_array_equal(gathered[row], ref)
            np.testing.assert_array_equal(kernel.gather_layer(row, events),
                                          ref)
            np.testing.assert_array_equal(block[row], ref)
        np.testing.assert_array_equal(*yelts)

    def test_as_dict(self):
        lk = LossLookup.from_arrays([3, 9], [1.5, 2.5])
        assert lk.as_dict() == {3: 1.5, 9: 2.5}

    def test_nbytes_positive(self):
        lk = LossLookup.from_arrays([0, 100], [1.0, 2.0])
        assert lk.resident_bytes == 2 * 16  # sorted ids + values


class TestGatherInto:
    @pytest.mark.parametrize("dense_max", [10**6, 1])
    def test_a_lookup_builds_its_reader_once(self, dense_max, monkeypatch):
        """Every read of a book goes through one reader, built on the
        first read: two reads build one table and read equal values."""
        built = []
        make = lookup_module.reader
        monkeypatch.setattr(lookup_module, "reader", lambda ids, values: (
            built.append(ids.size) or make(ids, values)))
        lk = build([1, 3, 7], [10.0, 30.0, 70.0], dense_max)
        queries = np.array([1, 2, 3, 7, 99])
        first = lk(queries)
        second = lk.gather_into(queries, np.empty(queries.size))
        assert len(built) == 1
        np.testing.assert_array_equal(first, [10.0, 0.0, 30.0, 70.0, 0.0])
        np.testing.assert_array_equal(second, first)

    @pytest.mark.parametrize("dense_max", [10**6, 1])
    def test_matches_call(self, dense_max):
        rng = np.random.default_rng(3)
        ids = np.sort(rng.choice(5_000, 300, replace=False))
        lk = build(ids, rng.random(300), dense_max)
        queries = rng.integers(0, 7_000, 1_000)
        out = np.empty(queries.size, dtype=np.float64)
        result = lk.gather_into(queries, out)
        assert result is out
        np.testing.assert_array_equal(out, lk(queries))

    @pytest.mark.parametrize("dense_max", [10**6, 1])
    def test_buffer_reused_across_blocks(self, dense_max):
        """The fused sweep's pattern: one buffer, many gather calls."""
        lk = build([2, 5], [10.0, 20.0], dense_max)
        buf = np.full(3, -1.0)
        lk.gather_into(np.array([5, 9, 2]), buf)
        np.testing.assert_allclose(buf, [20.0, 0.0, 10.0])
        lk.gather_into(np.array([2, 2, 7]), buf)
        np.testing.assert_allclose(buf, [10.0, 10.0, 0.0])

    @pytest.mark.parametrize("dense_max", [10**6, 1])
    def test_row_view_of_matrix_as_out(self, dense_max):
        """gather_into must accept row views of an (L, block) matrix."""
        lk = build([1, 3], [1.0, 3.0], dense_max)
        block = np.zeros((2, 4))
        lk.gather_into(np.array([3, 1, 0, 3]), block[1])
        np.testing.assert_allclose(block[0], 0.0)
        np.testing.assert_allclose(block[1], [3.0, 1.0, 0.0, 3.0])
