"""The quote record and premium arithmetic.

A leaf module: :mod:`repro.serve.service` (the batched service every
quote goes through) and a caller pricing one layer's YLT from an
aggregate run both produce :class:`PricingQuote` values from the same
:func:`premium_components_rows` arithmetic (:func:`premium_components`
is its one-row case), so it lives below both — one formula, one place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.tables import YltTable
from repro.util.stats_utils import tail_expectation_rows

__all__ = ["PricingQuote", "premium_components", "premium_components_rows"]


def premium_components_rows(
    losses,
    occ_limits,
    volatility_loading: float,
    tail_loading: float,
) -> list[tuple[float, float, float, float, float]]:
    """Technical-premium decomposition of every row of an ``(L, n_trials)``
    matrix of annual layer losses, in one pass over axis 1.

    Returns one ``(expected_loss, volatility_load, tail_load, premium,
    rate_on_line)`` tuple per row — the latency-free fields of a
    :class:`PricingQuote`, and exactly what the serving layer caches.
    Expected loss is the row mean, the volatility load scales
    ``std(ddof=1)`` (0 for a single trial), the tail load scales
    TVaR₉₉ with ties at the VaR included
    (:func:`~repro.util.stats_utils.tail_expectation_rows`), and the rate
    on line is ``nan`` for a zero or infinite occurrence limit.  Rows
    are reduced independently, so a row's numbers do not depend on which
    rows share its batch, and the tail load is exactly ``tail_loading *
    dfa.metrics.tail_value_at_risk(ylt, 0.99)``.

    Where its time goes, on a quote burst's 32 × 2,000 miss matrix
    (2-vCPU host, medians of 400 calls): ≈ 0.33 ms in all.  TVaR₉₉ is
    ≈ 0.16 ms, most of it the one partition of the negated matrix;
    ``std`` ≈ 0.11 ms; the mean and the finite check ≈ 0.02 ms each;
    the tuples are the rest.
    """
    losses = np.ascontiguousarray(losses, dtype=np.float64)
    tvar = tail_expectation_rows(losses, 0.99)
    expected = losses.mean(axis=1)
    std = (losses.std(axis=1, ddof=1) if losses.shape[1] > 1
           else np.zeros(len(losses)))
    vol_load = volatility_loading * std
    tail = tail_loading * tvar
    premium = expected + vol_load + tail
    limits = np.asarray(occ_limits, dtype=np.float64)
    on_line = np.isfinite(limits) & (limits != 0.0)
    rol = np.divide(premium, limits, out=np.full(len(losses), np.nan),
                    where=on_line)
    return list(zip(expected.tolist(), vol_load.tolist(), tail.tolist(),
                    premium.tolist(), rol.tolist()))


def premium_components(
    ylt: YltTable,
    occ_limit: float,
    volatility_loading: float,
    tail_loading: float,
) -> tuple[float, float, float, float, float]:
    """Technical-premium decomposition of one layer YLT: the one-row
    case of :func:`premium_components_rows`, so a quote priced alone and
    the same quote priced inside a batch are the same numbers."""
    return premium_components_rows(
        ylt.losses[None, :], [occ_limit], volatility_loading, tail_loading,
    )[0]


@dataclass(frozen=True)
class PricingQuote:
    """A technical price for one layer.

    Attributes
    ----------
    expected_loss:
        Mean annual layer loss over the trial set (the pure premium).
    volatility_load:
        Loading proportional to the annual-loss standard deviation.
    tail_load:
        Loading proportional to TVaR₉₉ (capital-cost proxy).
    premium:
        Technical premium: expected loss + both loadings.
    rate_on_line:
        Premium divided by the layer's occurrence limit (the market's
        quoting convention), when the limit is finite.
    latency_seconds:
        Wall time to produce the quote (for batched quotes: submission
        to resolution, including the wait for the sweep in flight).
    trials_per_second:
        Simulation throughput of the sweep that produced this number —
        for a cached quote, the throughput of the original sweep, not
        of the cache lookup.
    """

    expected_loss: float
    volatility_load: float
    tail_load: float
    premium: float
    rate_on_line: float
    latency_seconds: float
    trials_per_second: float
