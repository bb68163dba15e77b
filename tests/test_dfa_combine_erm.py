"""Tests for YLT combination, the enterprise roll-up, reporting, pricing."""

import numpy as np
import pytest

from repro.core.tables import YltTable
from repro.dfa.combine import combine_ylts
from repro.dfa.correlation import GaussianCopula
from repro.dfa.erm import BusinessUnit, Enterprise
from repro.dfa.metrics import RiskMetrics, tail_value_at_risk
from repro.dfa.reporting import regulator_report
from repro.errors import AnalysisError

RNG = lambda s: np.random.default_rng(s)


def make_ylts(k=3, n=10_000, seed=0):
    rng = RNG(seed)
    return [YltTable(rng.lognormal(10, 1, n)) for _ in range(k)]


class TestCombine:
    def test_trial_aligned_is_elementwise_sum(self):
        ylts = make_ylts(2)
        out = combine_ylts(ylts, "trial_aligned")
        np.testing.assert_allclose(out.losses, ylts[0].losses + ylts[1].losses)

    def test_mean_invariant_across_methods(self):
        ylts = make_ylts(3)
        expect = sum(y.mean() for y in ylts)
        for method, kwargs in [
            ("trial_aligned", {}),
            ("independent", dict(rng=RNG(1))),
            ("comonotonic", {}),
            ("copula", dict(correlation=GaussianCopula.uniform(3, 0.4).correlation,
                            rng=RNG(2))),
        ]:
            got = combine_ylts(ylts, method, **kwargs).mean()
            assert got == pytest.approx(expect, rel=1e-9), method

    def test_comonotonic_has_fattest_tail(self):
        ylts = make_ylts(3)
        q = 0.99
        tv_como = tail_value_at_risk(combine_ylts(ylts, "comonotonic"), q)
        tv_ind = tail_value_at_risk(
            combine_ylts(ylts, "independent", rng=RNG(3)), q
        )
        assert tv_como > tv_ind

    def test_copula_between_independent_and_comonotonic(self):
        ylts = make_ylts(3)
        q = 0.99
        tv_ind = tail_value_at_risk(combine_ylts(ylts, "independent", rng=RNG(4)), q)
        tv_cop = tail_value_at_risk(combine_ylts(
            ylts, "copula",
            correlation=GaussianCopula.uniform(3, 0.5).correlation, rng=RNG(5)
        ), q)
        tv_como = tail_value_at_risk(combine_ylts(ylts, "comonotonic"), q)
        assert tv_ind <= tv_cop <= tv_como

    def test_missing_rng_rejected(self):
        with pytest.raises(AnalysisError):
            combine_ylts(make_ylts(2), "independent")

    def test_unknown_method_rejected(self):
        with pytest.raises(AnalysisError):
            combine_ylts(make_ylts(2), "psychic")

    def test_mismatched_trials_rejected(self):
        with pytest.raises(AnalysisError):
            combine_ylts([YltTable(np.ones(5)), YltTable(np.ones(6))])

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            combine_ylts([])


class TestEnterprise:
    def make_enterprise(self):
        ylts = make_ylts(3, seed=7)
        units = [BusinessUnit(f"bu{i}", y) for i, y in enumerate(ylts)]
        return Enterprise(units)

    def test_combined_mean(self):
        ent = self.make_enterprise()
        expect = sum(u.ylt.mean() for u in ent.units)
        assert ent.combined_ylt().mean() == pytest.approx(expect)

    def test_diversification_benefit_in_range(self):
        ent = self.make_enterprise()
        b = ent.diversification_benefit(q=0.99)
        assert 0.0 <= b < 1.0

    def test_comonotonic_kills_diversification(self):
        ent = self.make_enterprise()
        b = ent.diversification_benefit(q=0.99, method="comonotonic")
        assert b == pytest.approx(0.0, abs=0.02)

    def test_metrics_coherent(self):
        self.make_enterprise().metrics().check_coherence()

    def test_duplicate_names_rejected(self):
        y = YltTable(np.ones(10))
        with pytest.raises(AnalysisError):
            Enterprise([BusinessUnit("a", y), BusinessUnit("a", y)])

    def test_mismatched_trials_rejected(self):
        with pytest.raises(AnalysisError):
            Enterprise([
                BusinessUnit("a", YltTable(np.ones(5))),
                BusinessUnit("b", YltTable(np.ones(6))),
            ])

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            Enterprise([])


class TestReporting:
    def test_report_contains_ladders(self):
        m = RiskMetrics.from_ylt(YltTable(np.arange(1.0, 1001.0)))
        text = regulator_report(m, title="Test book")
        assert "Test book" in text
        assert "250y" in text
        assert "TVaR" in text
        assert "99.0%" in text

    def test_report_numbers_formatted(self):
        m = RiskMetrics.from_ylt(YltTable(np.full(100, 1_234_567.0)))
        assert "1,234,567" in regulator_report(m)


class TestServiceQuote:
    def test_quote_structure(self, tiny_workload, pricing_service):
        with pricing_service(tiny_workload.yet) as service:
            quote = service.quote(tiny_workload.portfolio.layers[0])
        assert quote.expected_loss > 0
        assert quote.premium >= quote.expected_loss
        assert quote.latency_seconds > 0
        assert quote.trials_per_second > 0

    def test_premium_decomposition(self, tiny_workload, pricing_service):
        with pricing_service(tiny_workload.yet) as service:
            q = service.quote(tiny_workload.portfolio.layers[0])
        assert q.premium == pytest.approx(
            q.expected_loss + q.volatility_load + q.tail_load
        )

    def test_rate_on_line_uses_occ_limit(self, tiny_workload, pricing_service):
        layer = tiny_workload.portfolio.layers[0]
        with pricing_service(tiny_workload.yet) as service:
            q = service.quote(layer)
        assert q.rate_on_line == pytest.approx(q.premium / layer.terms.occ_limit)

    def test_zero_loadings_price_is_pure_premium(self, tiny_workload,
                                                 pricing_service):
        with pricing_service(tiny_workload.yet, volatility_loading=0.0,
                            tail_loading=0.0) as service:
            q = service.quote(tiny_workload.portfolio.layers[0])
        assert q.premium == pytest.approx(q.expected_loss)

    def test_quote_many(self, tiny_workload, pricing_service):
        with pricing_service(tiny_workload.yet) as service:
            quotes = service.quote_many(list(tiny_workload.portfolio.layers))
        assert len(quotes) == tiny_workload.portfolio.n_layers

    def test_negative_loading_rejected(self, tiny_workload, pricing_service):
        with pytest.raises(AnalysisError):
            pricing_service(tiny_workload.yet, volatility_loading=-0.1)
