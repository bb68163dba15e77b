"""Engine interface and result contract.

An engine declares its registry ``name`` and what ``run`` reads the
trials from (``source``); whether a run may emit YELTs is not an
engine's to declare — every engine does.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.core.portfolio import Portfolio
from repro.core.tables import YeltTable, YetTable, YltTable
from repro.errors import EngineError

__all__ = ["EngineResult", "Engine"]


@dataclass
class EngineResult:
    """Output of one aggregate-analysis run: what an engine returns and
    what :meth:`~repro.session.RiskSession.aggregate` hands the caller.

    Attributes
    ----------
    engine:
        Name of the engine that produced the result.
    ylt_by_layer:
        One dense YLT per layer id (after all financial terms).
    portfolio_ylt:
        Trial-aligned sum of the per-layer YLTs.
    yelt_by_layer:
        Optional per-layer YELTs (the event-granularity intermediate,
        *after* occurrence terms, *before* aggregate terms); emitted only
        on request because it is ~10³× larger than the YLT (§II).
    seconds:
        Wall-clock of the run's compute phase.
    details:
        Engine-specific diagnostics (chunk counts, transfer bytes,
        communication time, task timings...).
    """

    engine: str
    ylt_by_layer: dict[int, YltTable]
    portfolio_ylt: YltTable
    yelt_by_layer: dict[int, YeltTable] | None = None
    seconds: float = 0.0
    details: dict = field(default_factory=dict)

    def expected_annual_loss(self) -> float:
        """Portfolio pure premium: mean of the portfolio YLT."""
        return self.portfolio_ylt.mean()

    def layer_expected_losses(self) -> dict[int, float]:
        return {lid: ylt.mean() for lid, ylt in self.ylt_by_layer.items()}

    def trials_per_second(self) -> float:
        if self.seconds <= 0:
            raise EngineError("run recorded no elapsed time")
        return self.portfolio_ylt.n_trials / self.seconds

    def yelt_rows(self) -> int:
        """Total YELT rows (0 when YELTs were not emitted)."""
        if not self.yelt_by_layer:
            return 0
        return sum(y.n_rows for y in self.yelt_by_layer.values())


class Engine(abc.ABC):
    """Abstract aggregate-analysis engine."""

    #: Registry name; subclasses override.
    name: str = "abstract"

    #: What ``run`` reads the trials from (a tuple of accepted types).
    source: tuple = (YetTable,)

    @abc.abstractmethod
    def run(self, portfolio: Portfolio, yet: YetTable, *,
            emit_yelt: bool = False) -> EngineResult:
        """Execute the analysis; see :class:`EngineResult`."""

    def _validate(self, portfolio: Portfolio, yet: YetTable) -> None:
        if not isinstance(portfolio, Portfolio):
            raise EngineError(f"expected Portfolio, got {type(portfolio).__name__}")
        if not isinstance(yet, self.source):
            expected = " or ".join(cls.__name__ for cls in self.source)
            raise EngineError(f"expected {expected}, got {type(yet).__name__}")
