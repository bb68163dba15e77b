"""Tests for the empirical-statistics primitives."""

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.util.stats_utils import (
    empirical_quantile,
    exceedance_probability,
    loss_at_probability,
    return_period_loss,
    standard_error_of_mean,
    tail_expectation,
    tail_expectation_rows,
)

SAMPLE = np.arange(1.0, 101.0)  # 1..100


class TestEmpiricalQuantile:
    def test_median(self):
        assert empirical_quantile(SAMPLE, 0.5) == pytest.approx(50.5)

    def test_extremes(self):
        assert empirical_quantile(SAMPLE, 0.0) == 1.0
        assert empirical_quantile(SAMPLE, 1.0) == 100.0

    def test_bad_level_rejected(self):
        with pytest.raises(AnalysisError):
            empirical_quantile(SAMPLE, 1.5)

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            empirical_quantile([], 0.5)

    def test_nan_rejected(self):
        with pytest.raises(AnalysisError):
            empirical_quantile([1.0, np.nan], 0.5)


class TestExceedance:
    def test_strict_inequality(self):
        # exactly half the sample is > 50 (51..100)
        assert exceedance_probability(SAMPLE, 50.0) == 0.5

    def test_above_max_is_zero(self):
        assert exceedance_probability(SAMPLE, 1000.0) == 0.0

    def test_below_min_is_one(self):
        assert exceedance_probability(SAMPLE, 0.0) == 1.0


class TestTailExpectation:
    def test_tail_mean(self):
        # top 10% of 1..100 is 91..100 but ties at the quantile are
        # included; VaR(0.9)=90.1 -> tail = mean(91..100)
        assert tail_expectation(SAMPLE, 0.9) == pytest.approx(95.5)

    def test_dominates_quantile(self):
        for q in (0.5, 0.9, 0.99):
            assert tail_expectation(SAMPLE, q) >= empirical_quantile(SAMPLE, q)

    def test_q_one_returns_max(self):
        assert tail_expectation(SAMPLE, 1.0) == 100.0


def tail_expectation_rows_sorted_partition(samples, q):
    """The row-wise TVaR as it read before it partitioned the negated
    samples, copied literally: the reference the new one must equal
    bit for bit."""
    arr = np.ascontiguousarray(samples, dtype=np.float64)
    n = arr.shape[1]
    virtual = (n - 1) * q
    lo = int(virtual)
    hi = min(lo + 1, n - 1)
    gamma = virtual - lo
    part = np.partition(arr, lo, axis=1)
    top = np.sort(part[:, hi:], axis=1)
    below, above = part[:, lo], top[:, 0]
    spread = above - below
    var = (below + spread * gamma if gamma < 0.5
           else above - spread * (1.0 - gamma))
    ties = np.count_nonzero(part[:, :hi] >= var[:, None], axis=1)
    tail_sum = top.sum(axis=1) + ties * var
    return tail_sum / ((n - hi) + ties)


def tvar_rows(n, seed):
    """Rows of the shapes a quote matrix holds: all zero, all tied,
    limit-clipped, mostly zero with a clipped tail, tie-heavy on a few
    values, and continuous."""
    rng = np.random.default_rng(seed)
    limit = 3.0
    return np.stack([
        np.zeros(n),
        np.full(n, 7.25),
        np.minimum(rng.exponential(2.0, n), limit),
        np.minimum(rng.exponential(1.0, n) * (rng.random(n) < 0.3), limit),
        rng.choice([0.0, 1.0, 2.5, limit], n, p=[0.5, 0.2, 0.2, 0.1]),
        rng.random(n) * 1e6,
    ])


class TestTailExpectationRows:
    @pytest.mark.parametrize("n", [1, 2, 2000])
    @pytest.mark.parametrize("q", [0.0, 0.5, 0.99, 1.0])
    @pytest.mark.parametrize("seed", range(5))
    def test_equals_the_sorted_partition_formula(self, n, q, seed):
        rows = tvar_rows(n, seed)
        got = tail_expectation_rows(rows, q)
        assert np.array_equal(
            got, tail_expectation_rows_sorted_partition(rows, q))
        # row i is the one-row call on row i
        for i, row in enumerate(rows):
            assert got[i] == tail_expectation(row, q)

    def test_row_order_and_shuffles_do_not_move_a_row(self):
        rows = tvar_rows(2000, 11)
        got = tail_expectation_rows(rows, 0.99)
        rng = np.random.default_rng(3)
        shuffled = rng.permuted(rows, axis=1)
        assert np.array_equal(tail_expectation_rows(shuffled[::-1], 0.99),
                              got[::-1])

    @pytest.mark.parametrize("bad", [np.zeros(5), np.zeros((0, 3)),
                                     np.array([[1.0, np.nan]]),
                                     np.array([[1.0, np.inf]])])
    def test_shape_and_finite_checks(self, bad):
        with pytest.raises(AnalysisError):
            tail_expectation_rows(bad, 0.99)


class TestReturnPeriod:
    def test_hundred_year(self):
        assert return_period_loss(SAMPLE, 100.0) == \
            pytest.approx(empirical_quantile(SAMPLE, 0.99))

    def test_monotone_in_period(self):
        assert return_period_loss(SAMPLE, 250.0) >= return_period_loss(SAMPLE, 10.0)

    def test_subannual_rejected(self):
        with pytest.raises(AnalysisError):
            return_period_loss(SAMPLE, 1.0)


class TestLossAtProbability:
    def test_inverse_relationship(self):
        loss = loss_at_probability(SAMPLE, 0.01)
        assert loss == pytest.approx(return_period_loss(SAMPLE, 100.0))

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5])
    def test_bad_probability_rejected(self, bad):
        with pytest.raises(AnalysisError):
            loss_at_probability(SAMPLE, bad)


class TestStandardError:
    def test_shrinks_with_n(self):
        rng = np.random.default_rng(0)
        small = standard_error_of_mean(rng.normal(size=100))
        large = standard_error_of_mean(rng.normal(size=10_000))
        assert large < small

    def test_single_observation_rejected(self):
        with pytest.raises(AnalysisError):
            standard_error_of_mean([1.0])
