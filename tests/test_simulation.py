"""Tests for the AggregateAnalysis orchestrator."""

import pytest

from repro.core.engines import VectorizedEngine
from repro.core.simulation import AggregateAnalysis
from repro.errors import EngineError


class TestAggregateAnalysis:
    def test_run_by_name(self, tiny_workload):
        res = AggregateAnalysis(tiny_workload.portfolio, tiny_workload.yet).run(
            "vectorized"
        )
        assert res.engine == "vectorized"
        assert res.portfolio_ylt.n_trials == tiny_workload.yet.n_trials

    def test_run_with_instance(self, tiny_workload):
        res = AggregateAnalysis(tiny_workload.portfolio, tiny_workload.yet).run(
            VectorizedEngine()
        )
        assert res.engine == "vectorized"

    def test_kwargs_with_instance_rejected(self, tiny_workload):
        analysis = AggregateAnalysis(tiny_workload.portfolio, tiny_workload.yet)
        with pytest.raises(TypeError, match="n_workers"):
            analysis.run(VectorizedEngine(), n_workers=2)

    def test_run_takes_no_engine_configuration(self, tiny_workload):
        """An engine is configured by building it: a name runs the
        registry default and ``run`` forwards nothing to a constructor."""
        from repro.core.engines import get_engine

        analysis = AggregateAnalysis(tiny_workload.portfolio, tiny_workload.yet)
        with pytest.raises(TypeError, match="n_splits"):
            analysis.run("mapreduce", n_splits=2)
        res = analysis.run(get_engine("mapreduce", n_splits=2))
        assert res.details["n_splits"] == 2

    def test_run_all(self, tiny_workload):
        analysis = AggregateAnalysis(tiny_workload.portfolio, tiny_workload.yet)
        results = analysis.run_all(["sequential", "vectorized"])
        assert set(results) == {"sequential", "vectorized"}

    def test_run_closes_engines_it_constructs(self, tiny_workload, monkeypatch):
        """Registry-constructed engines (worker pools and the like) must be
        torn down by run(); caller-provided instances must be left open."""
        from repro.core.engines import MulticoreEngine
        from repro.serve.dispatch import PooledDispatcher

        closed = []
        real = PooledDispatcher.close
        monkeypatch.setattr(
            PooledDispatcher, "close",
            lambda self: (closed.append(self), real(self)))
        analysis = AggregateAnalysis(tiny_workload.portfolio, tiny_workload.yet)
        analysis.run("multicore")
        assert len(closed) == 1

        mine = MulticoreEngine(n_workers=1)
        analysis.run(mine)
        assert len(closed) == 1         # caller-owned engine untouched
        dispatcher = mine.dispatcher
        mine.close()
        assert closed[1:] == [dispatcher]

    def test_expected_annual_loss_positive(self, tiny_workload):
        res = AggregateAnalysis(tiny_workload.portfolio, tiny_workload.yet).run()
        assert res.expected_annual_loss() > 0

    def test_layer_expected_losses_sum_to_portfolio(self, small_portfolio_workload):
        res = AggregateAnalysis(
            small_portfolio_workload.portfolio, small_portfolio_workload.yet
        ).run()
        total = sum(res.layer_expected_losses().values())
        assert total == pytest.approx(res.expected_annual_loss())

    def test_trials_per_second(self, tiny_workload):
        res = AggregateAnalysis(tiny_workload.portfolio, tiny_workload.yet).run()
        assert res.trials_per_second() > 0

    def test_yelt_rows_zero_when_not_emitted(self, tiny_workload):
        res = AggregateAnalysis(tiny_workload.portfolio, tiny_workload.yet).run()
        assert res.yelt_rows() == 0

    def test_invalid_inputs_rejected(self, tiny_workload):
        with pytest.raises(EngineError):
            AggregateAnalysis("nope", tiny_workload.yet)
        with pytest.raises(EngineError):
            AggregateAnalysis(tiny_workload.portfolio, "nope")
