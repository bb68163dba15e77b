"""The aggregate-analysis orchestrator.

:class:`AggregateAnalysis` is the classic entry point of stage 2: bind a
portfolio to a YET, pick an engine (by name, by instance, or ``"auto"``
for the planner's choice), run, and get the engine's
:class:`~repro.core.engines.EngineResult` — per-layer and portfolio
YLTs, optional YELTs, expected losses, and the size accounting (E1/E2).

Since the session layer landed it is a veneer over
:class:`~repro.session.RiskSession`: pass ``session=`` to share one
staged substrate (worker pool, shared-memory arena) with other entry
points, and :meth:`AggregateAnalysis.run_all` always sweeps through one
session so pooled engines stage the (kernel, YET) payload once for the
whole sweep.  Standalone ``run()`` goes through an ephemeral session —
engines it constructs are torn down before it returns.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.core.engines import Engine, EngineResult
from repro.core.portfolio import Portfolio
from repro.core.tables import YetTable
from repro.errors import EngineError

__all__ = ["AggregateAnalysis"]


class AggregateAnalysis:
    """Binds a portfolio to a YET and runs engines over them.

    Parameters
    ----------
    portfolio:
        The book of layers to price.
    yet:
        The pre-simulated year-event table (the "consistent lens").
    """

    def __init__(self, portfolio: Portfolio, yet: YetTable, *,
                 session=None) -> None:
        if not isinstance(portfolio, Portfolio):
            raise EngineError(f"expected Portfolio, got {type(portfolio).__name__}")
        if not isinstance(yet, YetTable):
            raise EngineError(f"expected YetTable, got {type(yet).__name__}")
        if session is not None:
            session.check_yet(yet, "analysis")
        self.portfolio = portfolio
        self.yet = yet
        #: Borrowed staged substrate; ``None`` runs each call through
        #: an ephemeral session.
        self.session = session

    @contextmanager
    def _session(self):
        """The bound session, or an ephemeral one closed on exit."""
        if self.session is not None:
            yield self.session
            return
        from repro.session import RiskSession

        with RiskSession(self.yet) as session:
            yield session

    def run(self, engine: str | Engine = "vectorized", *,
            emit_yelt: bool = False) -> EngineResult:
        """Run the analysis on the chosen engine.

        ``engine`` may be a registry name (``"sequential"``,
        ``"vectorized"``, ``"device"``, ``"multicore"``, ``"mapreduce"``),
        ``"auto"`` to let the planner price the substrates against the
        data shape, or a pre-built
        :class:`Engine` instance — a name runs the registry default; to
        configure, pass an instance.  The run is
        :meth:`RiskSession.aggregate <repro.session.RiskSession.aggregate>`
        on the bound session (reusing its staged engines) or on an
        ephemeral one, so engines constructed for a standalone run are
        torn down before it returns; caller-built instances keep their
        own lifecycle either way.
        """
        with self._session() as session:
            return session.aggregate(self.portfolio, engine=engine,
                                     emit_yelt=emit_yelt)

    def run_all(self, names: list[str] | None = None) -> dict[str, EngineResult]:
        """Run several engines on the same inputs (cross-validation aid).

        The whole sweep goes through ONE session (the bound one, or an
        ephemeral session closed when the sweep ends): names are
        validated against the registry before anything runs, and pooled
        engines stage their (kernel, YET) payload once for the sweep
        instead of once per engine.
        """
        with self._session() as session:
            return session.run_all(names, self.portfolio)
