"""Tests for an aggregate analysis run through ``RiskSession.aggregate``."""

import pytest

from repro.session import RiskSession


class TestSessionAggregate:
    def test_run_by_name(self, tiny_workload, risk_session):
        res = risk_session(tiny_workload.yet, tiny_workload.portfolio
                           ).aggregate(engine="vectorized")
        assert res.engine == "vectorized"
        assert res.portfolio_ylt.n_trials == tiny_workload.yet.n_trials

    def test_run_takes_no_engine_configuration(self, tiny_workload,
                                               risk_session):
        """An engine is configured by building it: a name runs the
        registry default and ``aggregate`` forwards nothing to a
        constructor."""
        from repro.core.engines import get_engine

        session = risk_session(tiny_workload.yet, tiny_workload.portfolio)
        with pytest.raises(TypeError, match="n_splits"):
            session.aggregate(engine="mapreduce", n_splits=2)
        res = session.aggregate(engine=get_engine("mapreduce", n_splits=2))
        assert res.details["n_splits"] == 2

    def test_run_closes_engines_it_constructs(self, tiny_workload, monkeypatch):
        """The pool a session's engines ride is torn down when the
        session closes; an instance riding a caller's pool leaves it to
        the caller."""
        from repro.core.engines import MulticoreEngine
        from repro.serve.dispatch import PooledDispatcher

        closed = []
        real = PooledDispatcher.close
        monkeypatch.setattr(
            PooledDispatcher, "close",
            lambda self: (closed.append(self), real(self)))
        with RiskSession(tiny_workload.yet, tiny_workload.portfolio) as s:
            s.aggregate(engine="multicore")
        assert len(closed) == 1

        dispatcher = PooledDispatcher(n_workers=1)
        mine = MulticoreEngine.riding(dispatcher)
        with RiskSession(tiny_workload.yet, tiny_workload.portfolio) as s:
            s.aggregate(engine=mine)
        assert len(closed) == 1         # caller-owned pool untouched
        dispatcher.close()
        assert closed[1:] == [dispatcher]

    def test_expected_annual_loss_positive(self, tiny_workload, risk_session):
        res = risk_session(tiny_workload.yet, tiny_workload.portfolio
                           ).aggregate()
        assert res.expected_annual_loss() > 0

    def test_layer_expected_losses_sum_to_portfolio(self,
                                                    small_portfolio_workload,
                                                    risk_session):
        wl = small_portfolio_workload
        res = risk_session(wl.yet, wl.portfolio).aggregate()
        total = sum(res.layer_expected_losses().values())
        assert total == pytest.approx(res.expected_annual_loss())

    def test_trials_per_second(self, tiny_workload, risk_session):
        res = risk_session(tiny_workload.yet, tiny_workload.portfolio
                           ).aggregate()
        assert res.trials_per_second() > 0

    def test_yelt_rows_zero_when_not_emitted(self, tiny_workload,
                                             risk_session):
        res = risk_session(tiny_workload.yet, tiny_workload.portfolio
                           ).aggregate()
        assert res.yelt_rows() == 0
