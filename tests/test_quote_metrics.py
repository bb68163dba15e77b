"""Batch-level quote metrics: one pass over axis 1, one-row semantics.

``premium_components_rows`` prices every quote row of a batch at once;
``premium_components`` is its one-row case.  Two contracts are checked:
every field agrees with the scalar sample statistics (``mean``,
``std(ddof=1)``, ``tail_expectation`` — which reads its VaR off
``empirical_quantile`` and includes the ties with it) to rtol 1e-12,
and a row's numbers never depend on which rows share its batch: row
``i`` of any batch ``==`` the one-row call on row ``i``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics.ep_curves import EpCurve
from repro.core.layer import Layer
from repro.core.tables import YltTable
from repro.core.terms import LayerTerms
from repro.dfa.quote import premium_components, premium_components_rows
from repro.errors import AnalysisError
from repro.serve import CachePolicy, PricingService
from repro.util import stats_utils

VOL, TAIL = 0.25, 0.02

#: Trial counts of interest: 1 and 2 (no interpolation partner / no
#: variance), sizes where 0.99·(n−1) is an integer (101, 201, 1001: the
#: VaR *is* an order statistic, so ties with it decide the tail), and
#: ordinary ones.
TRIAL_COUNTS = (1, 2, 3, 7, 50, 100, 101, 201, 777, 1001, 2000)

ROW_KINDS = ("gamma", "clipped", "equal", "zero", "sparse")


def make_row(kind: str, n: int, rng) -> np.ndarray:
    """One row of annual layer losses of the named shape."""
    if kind == "zero":
        return np.zeros(n)
    if kind == "equal":
        return np.full(n, rng.uniform(1.0, 1e7))
    row = rng.gamma(0.7, 1e6, size=n)
    if kind == "clipped":
        # An aggregate limit well inside the sample: the worst years all
        # equal it, so VaR99 ties with many entries.
        row = np.minimum(row, np.quantile(row, rng.uniform(0.5, 0.98)))
    elif kind == "sparse":
        row[rng.random(n) < 0.8] = 0.0
    return row


def fields(quote) -> tuple:
    return (quote.expected_loss, quote.volatility_load, quote.tail_load,
            quote.premium, quote.rate_on_line)


def same(a: tuple, b: tuple) -> bool:
    """Tuple equality where ``nan`` rate on line equals itself."""
    return all(x == y or (math.isnan(x) and math.isnan(y))
               for x, y in zip(a, b))


class TestParityWithSampleStatistics:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        n=st.sampled_from(TRIAL_COUNTS),
        kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=6),
        limit=st.sampled_from([0.0, math.inf, 1.0, 2.5e6]),
    )
    def test_every_field(self, seed, n, kinds, limit):
        rng = np.random.default_rng(seed)
        matrix = np.stack([make_row(kind, n, rng) for kind in kinds])
        limits = [limit] * len(kinds)
        tvar = stats_utils.tail_expectation_rows(matrix, 0.99)
        rows = premium_components_rows(matrix, limits, VOL, TAIL)
        assert len(rows) == len(kinds)
        for i, (expected, vol_load, tail, premium, rol) in enumerate(rows):
            losses = matrix[i]
            std = losses.std(ddof=1) if n > 1 else 0.0
            np.testing.assert_allclose(expected, losses.mean(), rtol=1e-12)
            np.testing.assert_allclose(vol_load, VOL * std, rtol=1e-12)
            np.testing.assert_allclose(
                tvar[i], stats_utils.tail_expectation(losses, 0.99),
                rtol=1e-12)
            np.testing.assert_allclose(
                tail, TAIL * stats_utils.tail_expectation(losses, 0.99),
                rtol=1e-12)
            assert premium == expected + vol_load + tail
            if limit in (0.0, math.inf):
                assert math.isnan(rol)
            else:
                assert rol == premium / limit

    def test_ties_at_var_are_included(self):
        # 101 trials: VaR99 is exactly the 100th order statistic.  Five
        # entries tie with it below the top one, and all of them belong
        # to the tail; dropping the ties would report the maximum alone.
        losses = np.concatenate([np.arange(95.0), np.full(5, 500.0), [900.0]])
        np.random.default_rng(0).shuffle(losses)
        assert stats_utils.empirical_quantile(losses, 0.99) == 500.0
        tvar = stats_utils.tail_expectation_rows(losses[None, :], 0.99)
        assert tvar[0] == pytest.approx((5 * 500.0 + 900.0) / 6)
        assert tvar[0] == pytest.approx(
            stats_utils.tail_expectation(losses, 0.99), rel=1e-12)

    def test_single_trial(self):
        (expected, vol_load, tail, premium, rol), = premium_components_rows(
            [[42.0]], [10.0], VOL, TAIL)
        assert (expected, vol_load, tail) == (42.0, 0.0, TAIL * 42.0)
        assert rol == premium / 10.0

    def test_rejects_bad_samples(self):
        with pytest.raises(AnalysisError):
            premium_components_rows([[1.0, np.nan]], [1.0], VOL, TAIL)
        with pytest.raises(AnalysisError):
            premium_components_rows(np.empty((2, 0)), [1.0, 1.0], VOL, TAIL)
        with pytest.raises(AnalysisError):
            stats_utils.tail_expectation_rows([1.0, 2.0], 0.99)
        with pytest.raises(AnalysisError):
            stats_utils.tail_expectation_rows([[1.0, 2.0]], 1.5)


class TestRowsAreIndependent:
    """Row ``i`` of a batch ``==`` the one-row function on that row."""

    @pytest.fixture(scope="class")
    def big(self):
        rng = np.random.default_rng(2024)
        rows = [make_row(ROW_KINDS[i % len(ROW_KINDS)], 2000, rng)
                for i in range(64)]
        return np.stack(rows), rng.uniform(1e6, 5e6, size=64)

    @staticmethod
    def one_row(matrix, limits, i):
        return premium_components(YltTable(matrix[i].copy()), limits[i],
                                  VOL, TAIL)

    @pytest.mark.parametrize("size", [1, 2, 32, 64])
    def test_batch_sizes(self, big, size):
        matrix, limits = big
        rows = premium_components_rows(matrix[:size], limits[:size],
                                       VOL, TAIL)
        for i in range(size):
            assert rows[i] == self.one_row(matrix, limits, i)

    @pytest.mark.parametrize("select", [
        slice(None, None, 2),            # a strided view
        slice(None, None, -3),           # reversed, strided
        [40, 3, 3, 17, 63, 0],           # fancy, with a repeat
    ], ids=["every-second", "reversed-third", "fancy"])
    def test_non_contiguous_row_selection(self, big, select):
        matrix, limits = big
        picked = np.arange(64)[select]
        rows = premium_components_rows(matrix[select], limits[select],
                                       VOL, TAIL)
        for row, i in zip(rows, picked):
            assert row == self.one_row(matrix, limits, i)

    def test_column_major_matrix(self, big):
        matrix, limits = big
        rows = premium_components_rows(np.asfortranarray(matrix[:8]),
                                       limits[:8], VOL, TAIL)
        assert rows == premium_components_rows(matrix[:8], limits[:8],
                                               VOL, TAIL)

    @pytest.mark.parametrize("q", [0.0, 0.5, 0.99, 1.0])
    def test_tvar_reads_values_not_their_order(self, big, q):
        """Shuffling each row's columns leaves every TVaR ``==``: the
        tail is summed in sorted order, whatever the partition left."""
        matrix, _ = big
        rng = np.random.default_rng(7)
        shuffled = rng.permuted(matrix, axis=1)
        assert not np.array_equal(shuffled, matrix)
        np.testing.assert_array_equal(
            stats_utils.tail_expectation_rows(shuffled, q),
            stats_utils.tail_expectation_rows(matrix, q))

    @pytest.mark.parametrize("n", [1, 2, 101])
    def test_small_trial_counts(self, n):
        rng = np.random.default_rng(n)
        matrix = np.stack([make_row(kind, n, rng) for kind in ROW_KINDS * 4])
        limits = np.full(len(matrix), 3e6)
        rows = premium_components_rows(matrix, limits, VOL, TAIL)
        for i in range(len(matrix)):
            assert rows[i] == self.one_row(matrix, limits, i)


class TestEveryPricerAgrees:
    """A batch, a cached re-quote and a quote priced alone: one formula."""

    @staticmethod
    def candidates(wl, n=20):
        elts = wl.portfolio.layers[0].elts
        return [
            Layer(i, elts, LayerTerms(
                occ_retention=1e4 + 700.0 * i, occ_limit=4e5 + 1e4 * i,
                # tight aggregate limits: worst years clip, VaR99 ties
                agg_limit=2e5 + 5e4 * i))
            for i in range(n)
        ]

    def test_service_pricer_and_cache_agree(self, tiny_workload):
        layers = self.candidates(tiny_workload)[:8]     # lanes: 8 < 16 rows
        with PricingService(tiny_workload.yet, volatility_loading=VOL,
                            tail_loading=TAIL) as svc:
            batched = svc.quote_many(layers)
            cached = [svc.quote(layer) for layer in layers]
            stats = svc.stats.snapshot()
            assert stats["serve.batches"] == 1
            assert stats["serve.cache.hits"] == 8
        with PricingService(tiny_workload.yet, volatility_loading=VOL,
                            tail_loading=TAIL, cache=CachePolicy(0)) as svc:
            alone = [svc.quote(layer) for layer in layers]
            assert svc.stats.snapshot()["serve.batches"] == 8
        for b, c, a in zip(batched, cached, alone):
            assert same(fields(b), fields(c))
            assert same(fields(b), fields(a))

    def test_mixed_metrics_ride_untouched(self, tiny_workload):
        """``ylt``/``ep_curve`` requests in a quote batch get the row
        itself; the quotes beside them equal the one-row function on
        that very row."""
        layers = self.candidates(tiny_workload)
        with PricingService(tiny_workload.yet, volatility_loading=VOL,
                            tail_loading=TAIL) as svc:
            t_quotes = [svc.submit(layer, "quote") for layer in layers]
            t_ylts = [svc.submit(layer, "ylt") for layer in layers[:5]]
            t_ep = svc.submit(layers[2], "ep_curve")
            svc.drain()
            stats = svc.stats.snapshot()
            assert stats["serve.batches"] == 1
            assert stats["serve.kernel_rows"] == len(layers)
        for layer, t_quote, t_ylt in zip(layers, t_quotes, t_ylts):
            ylt = t_ylt.result(5)
            assert isinstance(ylt, YltTable)
            assert same(fields(t_quote.result(5)), premium_components(
                ylt, layer.terms.occ_limit, VOL, TAIL))
        ylt, ep = t_ylts[2].result(5), t_ep.result(5)
        for years in (5.0, 20.0, 100.0):
            assert ep.loss_at_return_period(years) == \
                EpCurve(ylt.losses).loss_at_return_period(years)
