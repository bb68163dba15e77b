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
    keeps the estimator monotone in ``q`` and ≥ the quantile itself.  It
    is the one-row case of :func:`tail_expectation_rows`, so a quote's
    tail load and this TVaR are the same number.
    """
    return float(tail_expectation_rows(_as_sample(losses)[None, :], q)[0])


def tail_expectation_rows(samples, q: float) -> np.ndarray:
    """Row-wise ``TVaR_q`` of an ``(L, n)`` matrix of samples.

    One single-k ``np.partition`` along axis 1 of the *negated* samples,
    at the lower of the two order statistics the linear-interpolated
    quantile reads, instead of one sort per row: the upper one is the
    greatest entry before it (the least past it in the samples), so the
    VaR repeats :func:`empirical_quantile`'s arithmetic exactly.  The
    tail is the upper slice plus the lower entries that tie with the
    VaR — the "ties are included" rule of :func:`tail_expectation`,
    which a limit-clipped row exercises (its worst years all equal the
    limit).  The upper slice is summed in ascending sample order, so a
    row's numbers depend on its values alone: not on their order, on
    how the partition arranged them, or on which rows share the matrix
    — row ``i`` equals the one-row call on row ``i`` — which is
    :func:`tail_expectation` — bit for bit.

    Why negated: a quote row is mostly zeros (no loss reaches the
    layer in most years), and NumPy's introselect finds a high order
    statistic of such a row in about half the time when it is the low
    one of the negation (0.17 against 0.39 ms on a 32 × 2,000 burst
    matrix, 53 % zeros); the upper slice it leaves in front is a few
    entries wide.
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
    # the generic introselect.  Order statistic ``lo`` of the samples is
    # entry ``n-1-lo`` of the negation's partition, and its first
    # ``n - hi`` entries are the samples' order statistics ``hi`` on
    # (``lo`` itself when ``hi == lo``: ``n == 1`` or ``q == 1``).
    part = np.partition(np.negative(arr), n - 1 - lo, axis=1)
    n_top = n - hi
    top = np.sort(np.negative(part[:, :n_top]), axis=1)
    below, above = -part[:, n - 1 - lo], top[:, 0]
    spread = above - below
    var = (below + spread * gamma if gamma < 0.5
           else above - spread * (1.0 - gamma))
    # The top slice is >= VaR; the rest is <= order statistic ``lo``,
    # which is <= VaR, so an entry there reaches the VaR only as an
    # exact tie, and only in a row whose VaR is its order statistic.
    ties = np.zeros(len(arr), dtype=np.intp)
    tied = np.flatnonzero(var <= below)
    if tied.size:
        ties[tied] = np.count_nonzero(
            part[tied, n_top:] <= -var[tied, None], axis=1)
    tail_sum = top.sum(axis=1) + ties * var
    return tail_sum / (n_top + ties)


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
