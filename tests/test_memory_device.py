"""Tests for the device engine's placement: stacked uploads per resident
batch and the greedy constant packer."""

import numpy as np

from repro.core.engines import DeviceEngine, VectorizedEngine
from repro.core.layer import Layer
from repro.core.lookup import effective_width
from repro.core.portfolio import Portfolio
from repro.core.tables import EltTable
from repro.core.terms import LayerTerms
from repro.hpc.device import DeviceProperties


class TestStackedDevicePlacement:
    """The device engine ships ONE stacked dense upload per resident
    batch and packs the constant bank greedily by hit-frequency x size."""

    def test_exactly_one_dense_stack_upload_per_batch(
            self, small_portfolio_workload):
        wl = small_portfolio_workload
        # use_constant=False forces every merged lookup onto the global
        # stack: 3 layers, one batch, ONE stacked table upload.
        res = DeviceEngine(use_constant=False).run(wl.portfolio, wl.yet)
        assert res.details["n_batches"] == 1
        assert res.details["stack_uploads"] == 1
        # and one stacked YET upload per chunk, not one per layer
        assert res.details["yet_uploads"] == res.details["n_chunks_total"]

    def test_stack_uploads_track_batches_when_coresidency_splits(
            self, small_portfolio_workload):
        pf, yet = (small_portfolio_workload.portfolio,
                   small_portfolio_workload.yet)
        lk = pf.layers[0].lookup()      # placed as a table this wide
        lookup_bytes = 8 * effective_width(lk.ids, lk.values)
        props = DeviceProperties(
            global_mem_bytes=3 * (lookup_bytes + yet.n_trials * 8)
        )
        res = DeviceEngine(properties=props, use_constant=False).run(pf, yet)
        assert res.details["n_batches"] > 1
        assert res.details["stack_uploads"] == res.details["n_batches"]
        assert res.details["yet_uploads"] == res.details["n_chunks_total"]
        ref = VectorizedEngine().run(pf, yet)
        np.testing.assert_array_equal(res.portfolio_ylt.losses,
                                      ref.portfolio_ylt.losses)

    def test_greedy_packer_prefers_hot_bytes(self, tiny_workload):
        # Two merged books: a small table read by ten rows (score
        # 10 x 64 B = 640) and a big table read by one row (score
        # 1 x 256 B = 256).  With room for only one, first-come order
        # would give the big table (row 10 uploads last); the greedy
        # packer must give the constant bank to the hot small table.
        small_elt = EltTable.from_arrays(
            np.arange(1, 8, dtype=np.int64), np.full(7, 100.0)
        )
        big_elt = EltTable.from_arrays(
            np.array([1, 31], dtype=np.int64), np.array([50.0, 75.0]),
            contract_id=1,
        )
        layers = [Layer(i, [small_elt],
                        LayerTerms(occ_retention=10.0 * i))
                  for i in range(10)]
        layers.append(Layer(10, [big_elt], LayerTerms()))
        pf = Portfolio(layers)
        props = DeviceProperties(constant_mem_bytes=300)
        res = DeviceEngine(properties=props).run(pf, tiny_workload.yet)
        assert res.details["n_batches"] == 1
        for lid in range(10):
            assert res.details["layers"][lid]["lookup_in_constant"]
        assert not res.details["layers"][10]["lookup_in_constant"]
        # the spilled big table still ships as the stacked upload
        assert res.details["stack_uploads"] == 1
        ref = VectorizedEngine().run(pf, tiny_workload.yet)
        np.testing.assert_array_equal(res.portfolio_ylt.losses,
                                      ref.portfolio_ylt.losses)
