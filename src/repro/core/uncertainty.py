"""Secondary uncertainty: sampling occurrence losses around ELT means.

An ELT row is not a point loss but a distribution: the industry encodes
a mean and a standard deviation per (event, contract), and aggregate
analysis may either use means ("expected mode") or *sample* each
occurrence ("sampled mode") to capture loss volatility within the
simulated year.  This module provides the sampled mode as a pure
function over the occurrence stream: lognormal sampling moment-matched
to the ELT's (mean, sigma) per event, drawn layer by layer from one
``Generator``, so reordering a portfolio changes every sampled YLT
(draws keyed by trial and occurrence are ROADMAP item 12).

Sampling changes the YLT's dispersion but not its expectation;
``tests/test_uncertainty.py`` pins both properties.
"""

from __future__ import annotations

import numpy as np

from repro.core.layer import Layer
from repro.core.lookup import LossLookup, merge_by_id
from repro.errors import ConfigurationError

__all__ = ["SecondaryUncertainty", "sample_occurrence_losses",
           "sampled_aggregate_analysis"]


class SecondaryUncertainty:
    """Per-event (mean, sigma) pair of lookups for sampled-mode analysis."""

    __slots__ = ("mean_lookup", "sigma_lookup")

    def __init__(self, mean_lookup: LossLookup, sigma_lookup: LossLookup) -> None:
        self.mean_lookup = mean_lookup
        self.sigma_lookup = sigma_lookup

    @classmethod
    def from_layer(cls, layer: Layer) -> "SecondaryUncertainty":
        """(mean, sigma) lookups over a layer's book.

        The means are the book's one merge, :meth:`Layer.lookup` — the
        table every engine prices by, ELT weights included.  Sigmas
        merge once with the same weights and combine in quadrature
        (``w·σ`` per ELT; independent contract-level uncertainty), which
        keeps the merged row's coefficient of variation physically
        sensible.
        """
        if not isinstance(layer, Layer):
            raise ConfigurationError(
                f"expected Layer, got {type(layer).__name__}")
        weights = layer.weights or (1.0,) * layer.n_elts
        ids, variances = merge_by_id(
            np.concatenate([e.event_ids for e in layer.elts]),
            np.concatenate([(w * e.sigmas) ** 2
                            for w, e in zip(weights, layer.elts)]))
        return cls(layer.lookup(),
                   LossLookup.from_arrays(ids, np.sqrt(variances)))


def sample_occurrence_losses(
    event_ids: np.ndarray,
    uncertainty: SecondaryUncertainty,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample one loss per occurrence, moment-matched lognormal.

    For an event with ELT mean ``m > 0`` and std-dev ``s``, the sample is
    ``LogNormal(mu, sig)`` with ``sig² = ln(1 + (s/m)²)`` and
    ``mu = ln m − sig²/2`` — so ``E[sample] = m`` and ``SD[sample] = s``
    exactly.  Events with ``s = 0`` (or unknown events, mean 0) pass
    through deterministically.
    """
    event_ids = np.asarray(event_ids, dtype=np.int64)
    means = uncertainty.mean_lookup(event_ids)
    sigmas = uncertainty.sigma_lookup(event_ids)
    out = means.copy()
    stochastic = (means > 0.0) & (sigmas > 0.0)
    if stochastic.any():
        m = means[stochastic]
        s = sigmas[stochastic]
        sig2 = np.log1p((s / m) ** 2)
        mu = np.log(m) - 0.5 * sig2
        z = rng.standard_normal(int(stochastic.sum()))
        out[stochastic] = np.exp(mu + np.sqrt(sig2) * z)
    return out


def sampled_aggregate_analysis(portfolio, yet,
                               rng: np.random.Generator) -> dict:
    """Sampled-mode aggregate analysis (vectorised path).

    Like the vectorized engine, but each occurrence's loss is a fresh
    draw from its ELT distribution instead of the mean.  Returns
    ``{layer_id: YltTable}``.  The expectation of each YLT converges to
    the expected-mode YLT's as trials grow (tested); the dispersion is
    strictly larger, which is the information secondary uncertainty adds
    to tail metrics.
    """
    from repro.core.tables import YltTable

    event_ids = yet.event_ids
    trials = yet.trials
    out = {}
    for layer in portfolio:
        unc = SecondaryUncertainty.from_layer(layer)
        losses = sample_occurrence_losses(event_ids, unc, rng)
        retained = layer.terms.apply_occurrence(losses)
        annual = np.bincount(trials, weights=retained, minlength=yet.n_trials)
        out[layer.layer_id] = YltTable(layer.terms.apply_aggregate(annual))
    return out
