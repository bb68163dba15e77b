"""The host engines — one implementation over a dispatcher.

``vectorized``, ``multicore`` and ``outofcore`` are the engines that
really execute on the host, and they are one implementation:
``portfolio.kernel()`` → ``dispatcher.run(kernel, yet)`` → per-layer
YLTs (views of the answer's rows, checked once as one matrix) and
their total (checked once) → one ``details`` schema read off the
dispatcher.  Spans, block
task, transport, supervision, the degraded serial fallback and the
telemetry export of what the kernel counted are the dispatcher's
(:mod:`repro.serve.dispatch`, the one door from a kernel to an answer);
the classes say which dispatcher a standalone instance builds, what it
reads (``source``) and whether a run may emit YELTs, nothing else.

- ``vectorized`` is the "GPU with everything in global memory" model of
  DESIGN.md: one fused sweep of the whole trial set on the calling
  thread, one occurrence per array lane as one CUDA thread handles one
  occurrence in the companion study.
- ``multicore`` splits the trial range into one contiguous block per
  pool worker — the YET decomposes perfectly by trial (no occurrence
  crosses a trial boundary, so aggregate terms are block-local) — and
  each worker writes its ``(L, trials)`` columns into the dispatcher's
  shared output.
- ``outofcore`` (unregistered) is ``vectorized`` over a YET on disk.
- ``mapreduce`` (:mod:`~repro.core.engines.mapreduce_engine`) replaces
  only :meth:`HostEngine._execute`: a MapReduce job whose map tasks are
  runs of its inline dispatcher over whole-trial splits.

A standalone engine lazily builds a private dispatcher that ``close()``
(or ``with``) frees, pool and shared segments both; an engine made by
:meth:`HostEngine.riding` — how :meth:`RiskSession.engine
<repro.session.RiskSession.engine>` makes its own — runs on a dispatcher
someone else owns, and owns nothing.
"""

from __future__ import annotations

import abc
import time

import numpy as np

from repro.core.engines.base import Engine, EngineResult
from repro.core.kernels import PortfolioKernel
from repro.core.portfolio import Portfolio
from repro.core.tables import YELT_SCHEMA, StoredYet, YeltTable, YetTable, YltTable
from repro.data.columnar import ColumnTable
from repro.errors import EngineError
from repro.hpc import shm

__all__ = ["HostEngine", "VectorizedEngine", "MulticoreEngine",
           "OutOfCoreEngine", "emit_yelt_row"]


def emit_yelt_row(kernel: PortfolioKernel, row: int,
                  yet: YetTable) -> YeltTable:
    """One kernel row's YELT: a row per *covered* occurrence (the
    layer's ELTs price the event), carrying the post-occurrence-terms
    loss — zero rows are real occurrences below retention.  A host-side
    artefact whichever engine priced the YLT."""
    losses = kernel.gather_layer(row, yet.event_ids)
    retained = kernel.occurrence_row(row, losses)
    covered = losses > 0.0
    table = ColumnTable.from_arrays(
        YELT_SCHEMA, trial=yet.trials[covered],
        event_id=yet.event_ids[covered], loss=retained[covered])
    return YeltTable(table, yet.n_trials)


class HostEngine(Engine):
    """Aggregate analysis as one run of a
    :class:`~repro.serve.dispatch.Dispatcher` over the portfolio's fused
    kernel."""

    #: Whether ``run(..., emit_yelt=True)`` is accepted.
    emits_yelt = False

    def __init__(self) -> None:
        self._dispatcher = None
        self._private = True    # built and closed here; see riding()

    @classmethod
    def riding(cls, dispatcher) -> "HostEngine":
        """An engine on a dispatcher it does not own: :meth:`close`
        leaves the dispatcher running, and any constructor settings stay
        the defaults — the dispatcher's own are in ``result.details``."""
        engine = cls()
        engine._dispatcher = dispatcher
        engine._private = False
        return engine

    @abc.abstractmethod
    def _build_dispatcher(self, dispatch):
        """A private dispatcher out of :mod:`repro.serve.dispatch`."""

    @property
    def dispatcher(self):
        """The :class:`~repro.serve.dispatch.Dispatcher` this engine
        rides; a private one is constructed lazily on first access (a
        pooled one forks its workers on the first parallel run)."""
        if self._dispatcher is None:
            # Lazy: serve sits above core in the import order.
            from repro.serve import dispatch

            self._dispatcher = self._build_dispatcher(dispatch)
        return self._dispatcher

    def close(self) -> None:
        """Shut down the private dispatcher (idempotent; the engine
        stays usable, on a fresh one)."""
        if self._private and self._dispatcher is not None:
            self._dispatcher.close()
            self._dispatcher = None

    def __enter__(self) -> "HostEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(self, portfolio: Portfolio, yet: YetTable, *,
            emit_yelt: bool = False) -> EngineResult:
        self._validate(portfolio, yet)
        if emit_yelt and not self.emits_yelt:
            raise EngineError(
                f"{self.name} engine does not emit YELTs; use the vectorized "
                "engine for event-granularity output"
            )
        t0 = time.perf_counter()
        kernel = portfolio.kernel()
        routed_before = dict(kernel.routed)
        final, details = self._execute(kernel, yet)
        # One check of the matrix and one of the total, summed row by
        # row in place — the order ``YltTable.sum`` adds in.
        total = final[0].copy()
        for row in final[1:]:
            total += row
        return EngineResult(
            engine=self.name,
            ylt_by_layer=dict(zip(kernel.layer_ids, YltTable.rows(final))),
            portfolio_ylt=YltTable(total),
            yelt_by_layer={
                lid: emit_yelt_row(kernel, row, yet)
                for row, lid in enumerate(kernel.layer_ids)
            } if emit_yelt else None,
            seconds=time.perf_counter() - t0,
            details={
                **details,
                "fused_layers": kernel.n_layers,
                "occurrences_processed": yet.n_occurrences * portfolio.n_layers,
                "tail_group_rows": kernel.tail_group_rows,
                # Where this run's rows went in this process (the kernel
                # is the portfolio's, shared across runs; pool workers
                # count on their own copies).
                "routed": kernel.routed_since(routed_before),
            },
        )

    def _execute(self, kernel: PortfolioKernel,
                 yet: YetTable | StoredYet) -> tuple[np.ndarray, dict]:
        """The final ``(L, n_trials)`` matrix and the ``details`` of the
        substrate that ran it: here, one run of the dispatcher."""
        dispatcher = self.dispatcher
        final = dispatcher.run(kernel, yet)
        health = dispatcher.health
        return final, {
            "n_workers": dispatcher.n_procs,
            "n_blocks": len(dispatcher.spans(yet)),
            "transport": dispatcher.transport_active,
            "degraded": health is not None and health.degraded,
        }


class VectorizedEngine(HostEngine):
    """Whole-array aggregate analysis over the fused portfolio kernel."""

    name = "vectorized"
    emits_yelt = True

    def _build_dispatcher(self, dispatch):
        return dispatch.InlineDispatcher()


class MulticoreEngine(HostEngine):
    """Process-pool aggregate analysis over contiguous trial blocks.

    Parameters
    ----------
    n_workers:
        Worker processes; ``None`` means the host's parallelism.
    transport:
        ``"auto"`` (shared memory when the host supports it, else
        pickle), ``"shm"`` (require the shared-memory plane), or
        ``"pickle"`` (force the legacy ship: YET through the pool
        initializer, kernel pickled per task).
    """

    name = "multicore"

    def __init__(self, n_workers: int | None = None,
                 transport: str = "auto") -> None:
        super().__init__()
        shm.validate_transport(transport)
        self.n_workers = n_workers
        self.transport = transport

    def _build_dispatcher(self, dispatch):
        return dispatch.PooledDispatcher(self.n_workers, self.transport)

    @property
    def pool(self):
        """The dispatcher's :class:`~repro.hpc.pool.WorkPool`."""
        return self.dispatcher.pool


class OutOfCoreEngine(HostEngine):
    """Streamed aggregate analysis over a :class:`StoredYet`."""

    name = "outofcore"
    source = StoredYet

    def _build_dispatcher(self, dispatch):
        return dispatch.InlineDispatcher()
