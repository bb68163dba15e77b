"""Trial-block multiprocess engine.

The YET decomposes perfectly by trial (no occurrence crosses a trial
boundary), so the analysis parallelises as: split the trial range into
contiguous blocks, run the **fused portfolio sweep** per block, and
concatenate the per-block ``(L, trials)`` slices.  Aggregate terms are
block-local because each trial lives in exactly one block.

The repo has ONE implementation of that decomposition over a process
pool — :class:`~repro.serve.dispatch.PooledDispatcher` — and this engine
is its aggregate-analysis driver: ``portfolio.kernel()`` →
``dispatcher.run(kernel, yet)`` → per-layer YLTs.  Spans, block task,
transport (shared-memory data plane, pickle fallback), supervision and
the degraded serial fallback are the dispatcher's; see its module
docstring for the rules.  A standalone engine lazily builds a private
dispatcher that :meth:`MulticoreEngine.close` (or ``with``) frees, pool
and shared segments both; an engine handed out by
:meth:`RiskSession.engine("multicore") <repro.session.RiskSession.engine>`
rides the session's staged one and owns nothing.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.core.engines.base import Engine, EngineResult
from repro.core.portfolio import Portfolio
from repro.core.tables import YetTable, YltTable
from repro.errors import EngineError
from repro.hpc import shm

__all__ = ["MulticoreEngine"]


class MulticoreEngine(Engine):
    """Process-pool aggregate analysis over contiguous trial blocks.

    Parameters
    ----------
    n_workers:
        Worker processes; ``None`` means the host's parallelism.
    transport:
        ``"auto"`` (shared memory when the host supports it, else
        pickle), ``"shm"`` (require the shared-memory plane), or
        ``"pickle"`` (force the legacy ship — the E15 bench baseline).
    """

    name = "multicore"

    def __init__(self, n_workers: int | None = None,
                 transport: str = "auto") -> None:
        shm.validate_transport(transport)
        self.n_workers = n_workers
        self.transport = transport
        self._dispatcher = None     # private: built on demand, ours to close
        self._borrowed: Callable | None = None

    @classmethod
    def on_dispatcher(cls, lookup: Callable) -> "MulticoreEngine":
        """An engine over a dispatcher it does not own.

        ``lookup()`` is called exactly once per :meth:`run` (a session
        counts its stage reuse there) and nowhere else: :attr:`dispatcher`
        and :attr:`pool` show the dispatcher the last run rode (``None``
        before the first), so reading them counts and builds nothing.
        :meth:`close` leaves that dispatcher running, and ``n_workers`` /
        ``transport`` stay the constructor defaults — the dispatcher's
        own are in ``result.details``.
        """
        engine = cls()
        engine._borrowed = lookup
        return engine

    # -- substrate lifecycle -----------------------------------------------

    @property
    def dispatcher(self):
        """The :class:`~repro.serve.dispatch.PooledDispatcher` this
        engine rides; a private one is constructed lazily on first access
        (its workers fork on the first parallel run)."""
        if self._dispatcher is None and self._borrowed is None:
            # Lazy: serve sits above core in the import order.
            from repro.serve.dispatch import PooledDispatcher

            self._dispatcher = PooledDispatcher(self.n_workers,
                                                self.transport)
        return self._dispatcher

    @property
    def pool(self):
        """The dispatcher's :class:`~repro.hpc.pool.WorkPool`."""
        dispatcher = self.dispatcher
        return None if dispatcher is None else dispatcher.pool

    def close(self) -> None:
        """Shut down the private dispatcher — worker pool and shared
        segments (idempotent; engine stays usable)."""
        if self._borrowed is None and self._dispatcher is not None:
            self._dispatcher.close()
            self._dispatcher = None

    def __enter__(self) -> "MulticoreEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- run ---------------------------------------------------------------

    def run(self, portfolio: Portfolio, yet: YetTable, *,
            emit_yelt: bool = False) -> EngineResult:
        self._validate(portfolio, yet)
        if emit_yelt:
            raise EngineError(
                "multicore engine does not emit YELTs; use the vectorized "
                "engine for event-granularity output"
            )
        t0 = time.perf_counter()
        kernel = portfolio.kernel()
        if self._borrowed is not None:
            self._dispatcher = self._borrowed()
        dispatcher = self.dispatcher
        final = dispatcher.run(kernel, yet)
        ylt_by_layer = {
            lid: YltTable(final[row]) for row, lid in enumerate(kernel.layer_ids)
        }
        return EngineResult(
            engine=self.name,
            ylt_by_layer=ylt_by_layer,
            portfolio_ylt=YltTable.sum(list(ylt_by_layer.values())),
            seconds=time.perf_counter() - t0,
            details={"n_workers": dispatcher.n_procs,
                     "n_blocks": len(dispatcher.spans(yet)),
                     "fused_layers": kernel.n_layers,
                     "transport": dispatcher.transport_active,
                     "degraded": dispatcher.health.degraded},
        )
