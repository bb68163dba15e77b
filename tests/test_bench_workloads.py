"""Tests for the bench workload generators."""

import numpy as np
import pytest

from repro.bench.workloads import (
    build_elt,
    build_layer_workload,
    build_portfolio_workload,
    companion_study_workload,
    dfa_workload,
    typical_contract_workload,
    warehouse_fact_table,
)
from repro.core.tables import YltTable
from repro.errors import ConfigurationError


class TestBuildElt:
    def test_shape(self):
        elt = build_elt(100, 1000, np.random.default_rng(0))
        assert elt.n_events == 100
        assert elt.max_event_id < 1000

    def test_unique_sorted_ids(self):
        elt = build_elt(200, 500, np.random.default_rng(1))
        ids = elt.event_ids
        assert (np.diff(ids) > 0).all()

    def test_too_many_rows_rejected(self):
        with pytest.raises(ConfigurationError):
            build_elt(100, 50, np.random.default_rng(0))


class TestWorkloads:
    def test_layer_workload_deterministic(self):
        a = build_layer_workload(50, 10.0, 2, 20, 100, seed=5)
        b = build_layer_workload(50, 10.0, 2, 20, 100, seed=5)
        assert a.yet.table.equals(b.yet.table)
        for ea, eb in zip(a.portfolio.layers[0].elts, b.portfolio.layers[0].elts):
            assert ea.table.equals(eb.table)

    def test_companion_study_shape(self):
        wl = companion_study_workload(n_trials=100)
        assert wl.portfolio.n_layers == 1
        assert wl.portfolio.layers[0].n_elts == 15
        assert wl.meta["elt_rows"] == 16_000

    def test_typical_contract_shape(self):
        wl = typical_contract_workload(n_trials=100)
        assert wl.portfolio.layers[0].n_elts == 1

    def test_portfolio_workload(self):
        wl = build_portfolio_workload(3, 50, 10.0, 2, 20, 200, seed=5)
        assert wl.portfolio.n_layers == 3
        assert wl.portfolio.n_elts == 6

    def test_nondegenerate_ylt(self):
        """The canonical workload must produce a dispersed YLT (guards the
        terms calibration that E3/E4 depend on)."""
        from repro.session import RiskSession

        wl = companion_study_workload(n_trials=500)
        with RiskSession(wl.yet, wl.portfolio) as session:
            losses = session.aggregate(
                engine="vectorized").portfolio_ylt.losses
        assert losses.std() > 0.01 * losses.mean()
        assert (losses == losses.max()).mean() < 0.5

    def test_dfa_workload_sources(self):
        sources = dfa_workload(YltTable(np.ones(100)), seed=1)
        assert len(sources) == 6
        assert all(s.n_trials == 100 for s in sources)

    def test_warehouse_fact_table(self):
        t = warehouse_fact_table(n_trials=10, rows_per_trial=3)
        assert t.n_rows == 30
        assert t["trial"].max() == 9

