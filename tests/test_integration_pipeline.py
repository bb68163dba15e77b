"""End-to-end integration: stage 1 → stage 2 → stage 3.

Runs the complete §II pipeline on synthetic data: catastrophe modelling
produces ELTs, aggregate analysis produces YLTs on several engines, DFA
combines risks and derives the regulator metrics.
"""

import numpy as np
import pytest

from repro.analytics.comparison import assert_engines_equivalent
from repro.analytics.convergence import ConvergenceDiagnostics
from repro.analytics.ep_curves import aep_curve, oep_curve
from repro.bench.workloads import dfa_workload
from repro.catmod import (
    CatModPipeline,
    assign_contracts,
    generate_catalog,
    generate_exposure,
    standard_perils,
)
from repro.catmod.geography import Region
from repro.core import Layer, LayerTerms, Portfolio, YetTable
from repro.dfa import (
    BusinessUnit,
    Enterprise,
    RiskMetrics,
    combine_ylts,
    regulator_report,
)
from repro.session import RiskSession
from repro.util.rng import RngHierarchy


def aggregate(portfolio, yet, **kwargs):
    with RiskSession(yet, portfolio) as session:
        return session.aggregate(engine="vectorized", **kwargs)


@pytest.fixture(scope="module")
def full_pipeline():
    """Stage 1 + YET simulation, shared by the integration tests."""
    rng = RngHierarchy(2012)
    region = Region(25.0, 33.0, -98.0, -80.0)
    perils = standard_perils()
    catalog = generate_catalog(perils, region, 300, rng.generator("catalog"))
    exposure = generate_exposure(region, 800, rng.generator("exposure"))
    contracts = assign_contracts(exposure, 10, rng.generator("contracts"))
    elts, stats = CatModPipeline(perils).run(catalog, exposure, contracts)
    yet = YetTable.simulate(
        catalog.event_ids, catalog.rates, n_trials=400,
        rng=rng.generator("yet"), mean_events_per_trial=30.0,
    )
    terms = LayerTerms(occ_retention=2e5, occ_limit=5e7,
                       agg_retention=5e5, agg_limit=5e8, participation=0.85)
    layers = [
        Layer(i, [elts[2 * i], elts[2 * i + 1]], terms) for i in range(5)
    ]
    return Portfolio(layers), yet, elts, stats


class TestStage1ToStage2:
    def test_elts_feed_engines(self, full_pipeline):
        portfolio, yet, _, _ = full_pipeline
        res = aggregate(portfolio, yet)
        assert res.portfolio_ylt.n_trials == 400
        assert res.expected_annual_loss() > 0

    def test_engines_agree_on_catmod_output(self, full_pipeline):
        portfolio, yet, _, _ = full_pipeline
        with RiskSession(yet, portfolio) as session:
            assert_engines_equivalent(session.run_all(
                ["sequential", "vectorized", "device", "multicore",
                 "mapreduce"]))

    def test_stage1_throughput_recorded(self, full_pipeline):
        _, _, _, stats = full_pipeline
        assert stats.pairs_per_second > 0
        assert stats.event_site_pairs == 300 * 800


class TestStage2ToStage3:
    def test_metrics_ladder(self, full_pipeline):
        portfolio, yet, _, _ = full_pipeline
        res = aggregate(portfolio, yet)
        metrics = RiskMetrics.from_ylt(res.portfolio_ylt)
        metrics.check_coherence()
        report = regulator_report(metrics)
        assert "Probable Maximum Loss" in report

    def test_ep_curves(self, full_pipeline):
        portfolio, yet, _, _ = full_pipeline
        res = aggregate(portfolio, yet, emit_yelt=True)
        for lid, yelt in res.yelt_by_layer.items():
            assert aep_curve(yelt.to_ylt()).dominates(oep_curve(yelt))

    def test_dfa_combination(self, full_pipeline):
        portfolio, yet, _, _ = full_pipeline
        cat_ylt = aggregate(portfolio, yet).portfolio_ylt
        sources = dfa_workload(cat_ylt, seed=3)
        assert len(sources) == 6  # the six §II risk names
        names = {s.name for s in sources}
        assert names == {"investment", "reserve", "interest_rate",
                         "market_cycle", "counterparty", "operational"}
        combined = combine_ylts([cat_ylt] + [s.ylt for s in sources])
        assert combined.mean() > cat_ylt.mean()

    def test_enterprise_rollup(self, full_pipeline):
        portfolio, yet, _, _ = full_pipeline
        cat_ylt = aggregate(portfolio, yet).portfolio_ylt
        units = [BusinessUnit("cat", cat_ylt)] + [
            BusinessUnit(s.name, s.ylt) for s in dfa_workload(cat_ylt, seed=3)
        ]
        ent = Enterprise(units)
        assert ent.economic_capital(0.99) > 0
        assert 0.0 <= ent.diversification_benefit(0.99) < 1.0

    def test_realtime_pricing_workflow(self, full_pipeline, pricing_service):
        portfolio, yet, _, _ = full_pipeline
        base_layer = portfolio.layers[0]
        alternatives = [
            Layer(99, base_layer.elts,
                  LayerTerms(occ_retention=r, occ_limit=5e7))
            for r in (1e5, 5e5, 1e6)
        ]
        with pricing_service(yet) as service:
            quotes = service.quote_many(alternatives)
        # premium decreases as the attachment rises
        premiums = [q.premium for q in quotes]
        assert premiums == sorted(premiums, reverse=True)

    def test_convergence_diagnostics(self, full_pipeline):
        portfolio, yet, _, _ = full_pipeline
        ylt = aggregate(portfolio, yet).portfolio_ylt
        diag = ConvergenceDiagnostics(ylt)
        pts = diag.curve(6)
        assert pts[-1].standard_error <= pts[0].standard_error


class TestDeterminism:
    def test_full_pipeline_reproducible(self):
        """The same root seed regenerates the identical portfolio YLT."""
        outputs = []
        for _ in range(2):
            rng = RngHierarchy(777)
            region = Region(25.0, 30.0, -95.0, -85.0)
            perils = standard_perils()
            catalog = generate_catalog(perils, region, 100, rng.generator("cat"))
            exposure = generate_exposure(region, 200, rng.generator("exp"))
            contracts = assign_contracts(exposure, 4, rng.generator("con"))
            elts, _ = CatModPipeline(perils).run(catalog, exposure, contracts)
            yet = YetTable.simulate(
                catalog.event_ids, catalog.rates, 100,
                rng.generator("yet"), mean_events_per_trial=10.0,
            )
            pf = Portfolio([Layer(0, elts, LayerTerms(occ_retention=1e5))])
            res = aggregate(pf, yet)
            outputs.append(res.portfolio_ylt.losses)
        np.testing.assert_array_equal(outputs[0], outputs[1])
