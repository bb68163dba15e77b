"""Tests for secondary-uncertainty sampling."""

import numpy as np
import pytest

from repro.bench.workloads import build_portfolio_workload
from repro.core.layer import Layer
from repro.core.lookup import LossLookup
from repro.core.portfolio import Portfolio
from repro.core.tables import EltTable
from repro.core.terms import LayerTerms
from repro.core.uncertainty import (
    SecondaryUncertainty,
    sample_occurrence_losses,
    sampled_aggregate_analysis,
)
from repro.errors import ConfigurationError
from repro.session import RiskSession


def make_uncertainty(means, sigmas, ids=None):
    ids = np.arange(len(means)) if ids is None else np.asarray(ids)
    return SecondaryUncertainty(
        LossLookup.from_arrays(ids, np.asarray(means, dtype=float)),
        LossLookup.from_arrays(ids, np.asarray(sigmas, dtype=float)),
    )


class TestSampling:
    def test_zero_sigma_is_deterministic(self):
        unc = make_uncertainty([100.0, 200.0], [0.0, 0.0])
        out = sample_occurrence_losses(
            np.array([0, 1, 0]), unc, np.random.default_rng(0)
        )
        np.testing.assert_allclose(out, [100.0, 200.0, 100.0])

    def test_unknown_events_zero(self):
        unc = make_uncertainty([100.0], [10.0])
        out = sample_occurrence_losses(
            np.array([99]), unc, np.random.default_rng(0)
        )
        assert out[0] == 0.0

    def test_moment_matching(self):
        """Sample mean and std converge to the ELT's (mean, sigma)."""
        unc = make_uncertainty([1000.0], [400.0])
        rng = np.random.default_rng(1)
        out = sample_occurrence_losses(np.zeros(200_000, dtype=np.int64),
                                       unc, rng)
        assert out.mean() == pytest.approx(1000.0, rel=0.01)
        assert out.std() == pytest.approx(400.0, rel=0.03)

    def test_samples_positive(self):
        unc = make_uncertainty([50.0], [200.0])  # heavy cv
        out = sample_occurrence_losses(np.zeros(10_000, dtype=np.int64),
                                       unc, np.random.default_rng(2))
        assert (out > 0).all()

    def test_deterministic_under_seed(self):
        unc = make_uncertainty([10.0, 20.0], [2.0, 4.0])
        ids = np.array([0, 1, 1, 0])
        a = sample_occurrence_losses(ids, unc, np.random.default_rng(3))
        b = sample_occurrence_losses(ids, unc, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)


def expected_mode(portfolio, yet):
    with RiskSession(yet, portfolio) as session:
        return session.aggregate(engine="vectorized")


class TestFromElts:
    def test_means_add_sigmas_quadrature(self):
        a = EltTable.from_arrays([1], [100.0], [30.0])
        b = EltTable.from_arrays([1], [200.0], [40.0])
        layer = Layer(0, [a, b], LayerTerms())
        unc = SecondaryUncertainty.from_layer(layer)
        # The means are the book's one merge, the table engines price by.
        assert unc.mean_lookup is layer.lookup()
        assert unc.mean_lookup.get_scalar(1) == 300.0
        assert unc.sigma_lookup.get_scalar(1) == pytest.approx(50.0)
        weighted = SecondaryUncertainty.from_layer(
            Layer(0, [a, b], LayerTerms(), weights=(0.5, 2.0)))
        assert weighted.mean_lookup.get_scalar(1) == 450.0
        assert weighted.sigma_lookup.get_scalar(1) == pytest.approx(
            np.hypot(15.0, 80.0))

    def test_non_elt_rejected(self):
        with pytest.raises(ConfigurationError):
            SecondaryUncertainty.from_layer(["x"])


class TestSampledAnalysis:
    def test_mean_converges_with_passthrough_terms(self, tiny_workload):
        """With identity terms the sampled-mode mean is unbiased for the
        expected-mode mean (linearity — no Jensen effect)."""
        from repro.core.layer import Layer
        from repro.core.portfolio import Portfolio
        from repro.core.terms import LayerTerms

        passthrough = Portfolio([
            Layer(0, tiny_workload.portfolio.layers[0].elts, LayerTerms())
        ])
        expected = expected_mode(passthrough, tiny_workload.yet)
        rng = np.random.default_rng(5)
        acc = 0.0
        n_runs = 40
        for _ in range(n_runs):
            ylts = sampled_aggregate_analysis(
                passthrough, tiny_workload.yet, rng
            )
            acc += sum(y.losses.sum() for y in ylts.values())
        sampled_mean = acc / n_runs
        expected_total = expected.portfolio_ylt.losses.sum()
        assert sampled_mean == pytest.approx(expected_total, rel=0.05)

    def test_jensen_gap_with_convex_retention(self, tiny_workload):
        """Through a high retention, sampling *raises* the expected
        retained loss (E[max(X-r,0)] >= max(E[X]-r,0)): the economic
        reason sampled mode matters for excess layers."""
        expected = expected_mode(tiny_workload.portfolio, tiny_workload.yet)
        rng = np.random.default_rng(6)
        acc = 0.0
        n_runs = 20
        for _ in range(n_runs):
            ylts = sampled_aggregate_analysis(
                tiny_workload.portfolio, tiny_workload.yet, rng
            )
            acc += sum(y.losses.sum() for y in ylts.values())
        sampled_mean = acc / n_runs
        expected_total = sum(
            y.losses.sum() for y in expected.ylt_by_layer.values()
        )
        assert sampled_mean >= expected_total * 0.98

    def test_sampling_adds_dispersion(self, tiny_workload):
        """With wide sigmas, sampled-mode annual losses vary more."""
        expected = expected_mode(tiny_workload.portfolio, tiny_workload.yet)
        ylts = sampled_aggregate_analysis(
            tiny_workload.portfolio, tiny_workload.yet,
            np.random.default_rng(6),
        )
        lid = tiny_workload.portfolio.layers[0].layer_id
        assert ylts[lid].n_trials == expected.portfolio_ylt.n_trials

    def test_reproducible(self, tiny_workload):
        a = sampled_aggregate_analysis(
            tiny_workload.portfolio, tiny_workload.yet,
            np.random.default_rng(7),
        )
        b = sampled_aggregate_analysis(
            tiny_workload.portfolio, tiny_workload.yet,
            np.random.default_rng(7),
        )
        for lid in a:
            np.testing.assert_array_equal(a[lid].losses, b[lid].losses)

    def test_weighted_zero_sigma_layer_prices_the_engines_book(self):
        """With zero sigmas sampling is the identity, so sampled mode
        must price the very book the engines price — ELT weights
        included."""
        wl = build_portfolio_workload(
            n_layers=3, n_trials=300, mean_events_per_trial=30.0,
            elts_per_layer=2, elt_rows=120, catalog_events=600, seed=3)
        zero = [EltTable.from_arrays(e.event_ids, e.mean_losses)
                for e in wl.portfolio.layers[0].elts[:2]]
        portfolio = Portfolio([
            Layer(i, zero, layer.terms, weights=(0.5, 2.0))
            for i, layer in enumerate(wl.portfolio)])
        expected = expected_mode(portfolio, wl.yet)
        sampled = sampled_aggregate_analysis(portfolio, wl.yet,
                                             np.random.default_rng(0))
        for lid, ylt in expected.ylt_by_layer.items():
            np.testing.assert_allclose(sampled[lid].losses, ylt.losses,
                                       rtol=1e-12)
