"""Property-based checks of what an engine result holds.

Hypothesis drives the workload *shape* (trial counts, event frequencies,
ELT sizes, terms): the portfolio YLT is its layers' sum, and a YELT
rolls up to its layer's YLT.  Every engine against the oracle is
``tests/test_equivalence_matrix.py``.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.layer import Layer
from repro.core.portfolio import Portfolio
from repro.core.tables import EltTable, YetTable
from repro.core.terms import LayerTerms
from repro.session import RiskSession


@st.composite
def workload(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    n_trials = draw(st.integers(1, 60))
    catalog_events = draw(st.integers(2, 80))
    epk = draw(st.floats(0.1, 12.0))
    n_elts = draw(st.integers(1, 3))
    elt_rows = draw(st.integers(1, catalog_events))

    elts = []
    for i in range(n_elts):
        ids = rng.choice(catalog_events, size=elt_rows, replace=False)
        ids.sort()
        losses = rng.lognormal(10, 1.5, elt_rows)
        elts.append(EltTable.from_arrays(ids, losses, contract_id=i))

    terms = LayerTerms(
        occ_retention=draw(st.floats(0.0, 1e5)),
        occ_limit=draw(st.one_of(st.just(np.inf), st.floats(1e3, 1e6))),
        agg_retention=draw(st.floats(0.0, 1e6)),
        agg_limit=draw(st.one_of(st.just(np.inf), st.floats(1e3, 1e8))),
        participation=draw(st.floats(0.05, 1.0)),
    )
    yet = YetTable.simulate(
        np.arange(catalog_events, dtype=np.int64),
        np.full(catalog_events, 1.0),
        n_trials,
        rng,
        mean_events_per_trial=epk,
    )
    return Portfolio([Layer(0, elts, terms)]), yet


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(wl=workload())
def test_portfolio_ylt_is_layer_sum(wl):
    portfolio, yet = wl
    with RiskSession(yet, portfolio) as session:
        res = session.aggregate(engine="vectorized")
    total = np.sum([y.losses for y in res.ylt_by_layer.values()], axis=0)
    np.testing.assert_allclose(res.portfolio_ylt.losses, total, rtol=1e-12)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(wl=workload())
def test_yelt_rollup_consistency(wl):
    """YELT → YLT → aggregate terms equals the engine's YLT."""
    portfolio, yet = wl
    from repro.core.engines import VectorizedEngine

    res = VectorizedEngine().run(portfolio, yet, emit_yelt=True)
    for layer in portfolio:
        yelt = res.yelt_by_layer[layer.layer_id]
        rebuilt = layer.terms.apply_aggregate(yelt.to_ylt().losses)
        np.testing.assert_allclose(
            rebuilt, res.ylt_by_layer[layer.layer_id].losses,
            rtol=1e-9, atol=1e-6,
        )
