"""Tests for EP curves, convergence diagnostics, and engine comparison."""

import dataclasses

import numpy as np
import pytest

from repro.analytics.comparison import assert_engines_equivalent
from repro.analytics.convergence import ConvergenceDiagnostics
from repro.analytics.ep_curves import EpCurve, aep_curve, oep_curve
from repro.core.tables import YeltTable, YltTable
from repro.data.columnar import ColumnTable
from repro.errors import AnalysisError
from repro.session import RiskSession


class TestEpCurve:
    CURVE = EpCurve(np.arange(1.0, 101.0))

    def test_probability_of_exceeding(self):
        assert self.CURVE.probability_of_exceeding(50.0) == pytest.approx(0.5)
        assert self.CURVE.probability_of_exceeding(1000.0) == 0.0
        assert self.CURVE.probability_of_exceeding(0.0) == 1.0

    def test_monotone_nonincreasing(self):
        thresholds = np.linspace(0, 120, 50)
        probs = self.CURVE.probability_of_exceeding(thresholds)
        assert (np.diff(probs) <= 1e-12).all()

    def test_loss_at_probability_inverse(self):
        loss = self.CURVE.loss_at_probability(0.1)
        assert self.CURVE.probability_of_exceeding(loss - 1e-9) >= 0.1 - 1e-9

    def test_loss_at_return_period(self):
        assert self.CURVE.loss_at_return_period(10.0) == \
            pytest.approx(self.CURVE.loss_at_probability(0.1))

    def test_as_points_shapes(self):
        losses, probs = self.CURVE.as_points(20)
        assert losses.shape == (20,) and probs.shape == (20,)
        assert (np.diff(losses) >= 0).all()
        assert (np.diff(probs) <= 0).all()

    def test_invalid_inputs(self):
        with pytest.raises(AnalysisError):
            EpCurve([])
        with pytest.raises(AnalysisError):
            self.CURVE.loss_at_probability(0.0)
        with pytest.raises(AnalysisError):
            self.CURVE.loss_at_return_period(0.5)
        with pytest.raises(AnalysisError):
            self.CURVE.as_points(1)


class TestOepAep:
    def make_yelt(self):
        from repro.core.tables import YELT_SCHEMA

        table = ColumnTable.from_arrays(
            YELT_SCHEMA,
            trial=[0, 0, 1, 3],
            event_id=[1, 2, 1, 5],
            loss=[10.0, 30.0, 5.0, 100.0],
        )
        return YeltTable(table, n_trials=4)

    def test_oep_uses_trial_maxima(self):
        curve = oep_curve(self.make_yelt())
        # maxima per trial: [30, 5, 0, 100]
        assert curve.loss_at_return_period(4.0) == pytest.approx(
            np.quantile([30.0, 5.0, 0.0, 100.0], 0.75)
        )

    def test_aep_uses_trial_sums(self):
        curve = aep_curve(self.make_yelt().to_ylt())
        assert curve.probability_of_exceeding(39.0) == pytest.approx(0.5)

    def test_aep_dominates_oep(self):
        yelt = self.make_yelt()
        assert aep_curve(yelt.to_ylt()).dominates(oep_curve(yelt))

    def test_aep_dominates_oep_on_real_workload(self, tiny_workload):
        wl = tiny_workload
        with RiskSession(wl.yet, wl.portfolio) as session:
            res = session.aggregate(engine="vectorized", emit_yelt=True)
        lid = tiny_workload.portfolio.layers[0].layer_id
        yelt = res.yelt_by_layer[lid]
        assert aep_curve(yelt.to_ylt()).dominates(oep_curve(yelt))

    def test_dominates_requires_same_trials(self):
        a = EpCurve(np.ones(5))
        b = EpCurve(np.ones(6))
        with pytest.raises(AnalysisError):
            a.dominates(b)


class TestConvergence:
    def make_diag(self, n=10_000):
        rng = np.random.default_rng(0)
        return ConvergenceDiagnostics(YltTable(rng.lognormal(10, 1, n)))

    def test_curve_error_decays(self):
        pts = self.make_diag().curve(n_points=8)
        assert pts[-1].standard_error < pts[0].standard_error
        assert pts[-1].n_trials == 10_000

    def test_relative_error_target(self):
        diag = self.make_diag()
        n = diag.trials_for_relative_error(0.01)
        assert n > 0
        # CLT: quadrupling precision needs 16x trials
        n_fine = diag.trials_for_relative_error(0.0025)
        assert n_fine == pytest.approx(16 * n, rel=0.01)

    def test_tail_stability_positive(self):
        assert self.make_diag().tail_stability(q=0.95) > 0

    def test_tail_stability_improves_with_n(self):
        small = self.make_diag(512).tail_stability(0.9, n_blocks=4)
        large = self.make_diag(65_536).tail_stability(0.9, n_blocks=4)
        assert large < small

    def test_too_few_trials_rejected(self):
        with pytest.raises(AnalysisError):
            ConvergenceDiagnostics(YltTable(np.ones(3)))

    def test_bad_args_rejected(self):
        diag = self.make_diag(100)
        with pytest.raises(AnalysisError):
            diag.curve(n_points=1)
        with pytest.raises(AnalysisError):
            diag.trials_for_relative_error(0.0)
        with pytest.raises(AnalysisError):
            diag.tail_stability(n_blocks=1)


class TestComparison:
    def test_detects_disagreement(self, tiny_workload):
        """A layer whose terms differ must trip the equivalence check when
        compared against doctored outputs."""
        # sanity: the real engines agree
        wl = tiny_workload
        with RiskSession(wl.yet, wl.portfolio) as session:
            results = session.run_all(["sequential", "vectorized"])
        assert_engines_equivalent(results)
        doctored = dataclasses.replace(
            results["vectorized"],
            portfolio_ylt=YltTable(results["vectorized"].portfolio_ylt.losses
                                   * 1.01 + 1.0))
        with pytest.raises(AnalysisError, match="vectorized"):
            assert_engines_equivalent({**results, "vectorized": doctored})

    def test_detects_swapped_layers(self, small_portfolio_workload):
        """Every layer is compared, not just the total: two layers'
        YLTs swapped leave the total as it was and still fail."""
        wl = small_portfolio_workload
        with RiskSession(wl.yet, wl.portfolio) as session:
            results = session.run_all(["sequential", "vectorized"])
        ylts = results["vectorized"].ylt_by_layer
        a, b, *_ = ylts
        swapped = dataclasses.replace(results["vectorized"], ylt_by_layer={
            **ylts, a: ylts[b], b: ylts[a]})
        with pytest.raises(AnalysisError, match=f"layer {a}: .*layer {b}: "):
            assert_engines_equivalent({**results, "vectorized": swapped})
        dropped = dataclasses.replace(results["vectorized"], ylt_by_layer={
            lid: ylt for lid, ylt in ylts.items() if lid != a})
        with pytest.raises(AnalysisError, match="priced layers"):
            assert_engines_equivalent({**results, "vectorized": dropped})
