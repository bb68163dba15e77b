"""Empirical statistics shared by the metrics and analytics layers.

The portfolio metrics of §II (PML, TVaR) and the exceedance-probability
curves of :mod:`repro.analytics.ep_curves` all reduce to operations on an
empirical sample of annual losses (one value per simulated trial year).
This module holds the sample-level primitives: quantiles with the
actuarial conventions used by YLT tooling, exceedance probabilities, and
tail expectations.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AnalysisError

__all__ = [
    "empirical_quantile",
    "exceedance_probability",
    "tail_expectation",
    "tail_expectation_rows",
    "return_period_loss",
    "loss_at_probability",
    "standard_error_of_mean",
]


def _as_sample(losses) -> np.ndarray:
    arr = np.asarray(losses, dtype=np.float64).ravel()
    if arr.size == 0:
        raise AnalysisError("empty loss sample")
    if not np.isfinite(arr).all():
        raise AnalysisError("loss sample contains non-finite values")
    return arr


def empirical_quantile(losses, q: float) -> float:
    """Empirical quantile with linear interpolation (NumPy default).

    ``q`` is the non-exceedance probability: ``empirical_quantile(x, 0.99)``
    is the loss exceeded in ~1% of trial years.
    """
    if not (0.0 <= q <= 1.0):
        raise AnalysisError(f"quantile level must lie in [0,1], got {q}")
    return float(np.quantile(_as_sample(losses), q))


def exceedance_probability(losses, threshold: float) -> float:
    """Fraction of trial years with loss strictly greater than ``threshold``."""
    arr = _as_sample(losses)
    return float(np.count_nonzero(arr > threshold) / arr.size)


def tail_expectation(losses, q: float) -> float:
    """Mean of the worst ``(1-q)`` fraction of the sample (the TVaR kernel).

    Uses the conditional-expectation convention ``E[X | X >= VaR_q]``; when
    several sample points tie with the VaR the ties are included, which
    keeps the estimator monotone in ``q`` and ≥ the quantile itself.
    """
    arr = _as_sample(losses)
    var = empirical_quantile(arr, q)
    tail = arr[arr >= var]
    if tail.size == 0:  # can only happen with q == 1 and fp round-off
        return float(arr.max())
    return float(tail.mean())


def tail_expectation_rows(samples, q: float) -> np.ndarray:
    """Row-wise ``TVaR_q`` of an ``(L, n)`` matrix of samples.

    One single-k ``np.partition`` along axis 1 at the lower of the two
    order statistics the linear-interpolated quantile reads, instead of
    one sort per row: the upper one is the least entry past it, so the
    VaR repeats :func:`empirical_quantile`'s arithmetic exactly.  The
    tail is the upper slice plus the lower entries that tie with the
    VaR — the "ties are included" rule of :func:`tail_expectation`,
    which a limit-clipped row exercises (its worst years all equal the
    limit).  The upper slice is summed in sorted order, so a row's
    numbers depend on its values alone: not on their order, on how the
    partition arranged them, or on which rows share the matrix — row
    ``i`` equals the one-row call on row ``i``, bit for bit.  Against
    :func:`tail_expectation` the summation order differs, so the two
    agree to rtol 1e-12, not ``==``.
    """
    if not (0.0 <= q <= 1.0):
        raise AnalysisError(f"quantile level must lie in [0,1], got {q}")
    arr = np.ascontiguousarray(samples, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise AnalysisError("expected a non-empty (rows, samples) matrix")
    if not np.isfinite(arr).all():
        raise AnalysisError("loss sample contains non-finite values")
    n = arr.shape[1]
    # NumPy's default quantile: virtual index q·(n−1), interpolated
    # between its two neighbouring order statistics.
    virtual = (n - 1) * q
    lo = int(virtual)
    hi = min(lo + 1, n - 1)
    gamma = virtual - lo
    # One kth takes NumPy's vectorized selection; a tuple of two takes
    # the generic introselect.  Entries from ``lo`` on are >= entry
    # ``lo``, so the least of those from ``hi`` on is order statistic
    # ``hi`` (``hi == lo`` when ``n == 1`` or ``q == 1``).
    part = np.partition(arr, lo, axis=1)
    top = np.sort(part[:, hi:], axis=1)
    below, above = part[:, lo], top[:, 0]
    spread = above - below
    var = (below + spread * gamma if gamma < 0.5
           else above - spread * (1.0 - gamma))
    # Entries from ``hi`` on are >= VaR; the ones before it are <= VaR,
    # so those that reach it are exact ties.
    ties = np.count_nonzero(part[:, :hi] >= var[:, None], axis=1)
    tail_sum = top.sum(axis=1) + ties * var
    return tail_sum / ((n - hi) + ties)


def return_period_loss(losses, years: float) -> float:
    """Loss with a mean recurrence interval of ``years`` (the PML convention).

    A ``years``-year return period corresponds to exceedance probability
    ``1/years`` per contractual year, i.e. the ``1 - 1/years`` quantile.
    """
    if years <= 1.0:
        raise AnalysisError(f"return period must exceed 1 year, got {years}")
    return empirical_quantile(losses, 1.0 - 1.0 / years)


def loss_at_probability(losses, p_exceed: float) -> float:
    """Loss whose exceedance probability is ``p_exceed`` (inverse EP curve)."""
    if not (0.0 < p_exceed < 1.0):
        raise AnalysisError(f"exceedance probability must lie in (0,1), got {p_exceed}")
    return empirical_quantile(losses, 1.0 - p_exceed)


def standard_error_of_mean(losses) -> float:
    """Monte-Carlo standard error of the sample mean."""
    arr = _as_sample(losses)
    if arr.size < 2:
        raise AnalysisError("need at least two observations for a standard error")
    return float(arr.std(ddof=1) / np.sqrt(arr.size))
