"""Portfolio risk metrics: PML, VaR, TVaR (§II's named metrics).

All metrics are empirical functionals of a year-loss sample:

- **VaR(q)** — the ``q``-quantile of annual loss;
- **TVaR(q)** — the conditional mean above VaR(q); always ≥ VaR(q);
- **PML(T)** — the loss with a ``T``-year mean recurrence interval,
  i.e. VaR(1 − 1/T) (Woo 2002, the paper's ref. [8]).

:class:`RiskMetrics` bundles the standard report set for one YLT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.tables import YltTable
from repro.util import stats_utils

__all__ = [
    "value_at_risk",
    "tail_value_at_risk",
    "probable_maximum_loss",
    "RiskMetrics",
    "STANDARD_RETURN_PERIODS",
    "STANDARD_TAIL_LEVELS",
]

#: Return periods (years) quoted in standard PML reports.
STANDARD_RETURN_PERIODS = (10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0)
#: Tail levels quoted in standard VaR/TVaR reports.
STANDARD_TAIL_LEVELS = (0.9, 0.95, 0.99, 0.995, 0.999)


def _losses(ylt) -> np.ndarray:
    if isinstance(ylt, YltTable):
        return ylt.losses
    return np.asarray(ylt, dtype=np.float64)


def value_at_risk(ylt, q: float) -> float:
    """Annual-loss quantile at non-exceedance level ``q``."""
    return stats_utils.empirical_quantile(_losses(ylt), q)


def tail_value_at_risk(ylt, q: float) -> float:
    """Conditional expectation of annual loss beyond VaR(q); a quote's
    ``tail_load`` (:mod:`repro.dfa.quote`) is this times its loading."""
    return stats_utils.tail_expectation(_losses(ylt), q)


def probable_maximum_loss(ylt, return_period_years: float) -> float:
    """Loss with the given mean recurrence interval (PML)."""
    return stats_utils.return_period_loss(_losses(ylt), return_period_years)


@dataclass(frozen=True)
class RiskMetrics:
    """The standard metric set for one year-loss table."""

    mean: float
    std: float
    pml: dict[float, float]       # return period -> loss
    var: dict[float, float]       # level -> loss
    tvar: dict[float, float]      # level -> loss
    standard_error: float
    n_trials: int

    @classmethod
    def from_ylt(
        cls,
        ylt,
        return_periods=STANDARD_RETURN_PERIODS,
        tail_levels=STANDARD_TAIL_LEVELS,
    ) -> "RiskMetrics":
        losses = _losses(ylt)
        return cls(
            mean=float(losses.mean()),
            std=float(losses.std(ddof=1)) if losses.size > 1 else 0.0,
            pml={t: stats_utils.return_period_loss(losses, t) for t in return_periods},
            var={q: stats_utils.empirical_quantile(losses, q) for q in tail_levels},
            tvar={q: stats_utils.tail_expectation(losses, q) for q in tail_levels},
            standard_error=(
                stats_utils.standard_error_of_mean(losses) if losses.size > 1 else 0.0
            ),
            n_trials=losses.size,
        )

    def check_coherence(self) -> None:
        """Assert the internal-order invariants (used by property tests).

        Tolerances are relative: empirical quantiles and tail means of
        large-magnitude samples carry O(eps·|loss|) round-off.
        """
        def tol(x: float) -> float:
            return 1e-9 * max(1.0, abs(x))

        periods = sorted(self.pml)
        for a, b in zip(periods, periods[1:]):
            assert self.pml[a] <= self.pml[b] + tol(self.pml[b]), \
                "PML must grow with return period"
        for q in self.var:
            assert self.tvar[q] + tol(self.var[q]) >= self.var[q], \
                "TVaR must dominate VaR"
        levels = sorted(self.var)
        for a, b in zip(levels, levels[1:]):
            assert self.var[a] <= self.var[b] + tol(self.var[b]), \
                "VaR must grow with level"
