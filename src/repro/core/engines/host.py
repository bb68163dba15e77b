"""The host engines — one implementation over a dispatcher.

``vectorized`` and ``multicore`` are the engines that really execute on
the host, and they are one implementation: ``portfolio.kernel()`` →
``dispatcher.run(kernel, yet)`` → per-layer YLTs (views of the answer's
rows, checked once as one matrix) and their total (checked once) → one
``details`` schema read off the dispatcher.  Spans, block task, the
shared-memory data plane, supervision, the degraded serial fallback and
the telemetry export of what the kernel counted are the dispatcher's
(:mod:`repro.serve.dispatch`, the one door from a kernel to an answer);
an engine class says only its ``name``, what it reads (``source``) and
how it cuts a run.

- ``vectorized`` is the "GPU with everything in global memory" model
  (the ``device`` engine's naive placement): one fused sweep of the
  whole trial set on the calling thread, one occurrence per array lane
  as one CUDA thread handles one occurrence in the companion study.
  It reads a YET in memory or on disk
  (:class:`~repro.core.tables.StoredYet`, swept block by block by the
  same inline dispatcher — the out-of-core path).
- ``multicore`` splits the trial range into one contiguous block per
  processor — the YET decomposes perfectly by trial (no occurrence
  crosses a trial boundary, so aggregate terms are block-local) — and
  the calling thread and each pool worker write their ``(L, trials)``
  columns into the dispatcher's shared output.
- ``mapreduce`` (:mod:`~repro.core.engines.mapreduce_engine`) replaces
  only :meth:`HostEngine._execute`: a MapReduce job whose map tasks are
  runs of its inline dispatcher over whole-trial splits.
- ``device`` (:mod:`~repro.core.engines.device`) replaces only
  :meth:`HostEngine._execute` too: a device plan drawn from the kernel's
  metadata, then one run of its inline dispatcher over the whole YET.

An engine owns no substrate.  One made by :meth:`HostEngine.riding` —
how :meth:`RiskSession.engine <repro.session.RiskSession.engine>` makes
its own — runs on a dispatcher its owner closes; any other runs on an
inline dispatcher it makes on first use, which holds no process or
segment.  A ``multicore`` engine needs a pool, so it runs only riding
one: the session's (``RiskSession(yet, n_workers=...)`` with
``engine="multicore"``) or a
:class:`~repro.serve.dispatch.PooledDispatcher` its caller closes.
Every engine emits YELTs alike, host-side (:func:`emit_yelt_row` reads
only the run's kernel and YET), except over a stored YET, which is never
in memory whole.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.engines.base import Engine, EngineResult
from repro.core.kernels import PortfolioKernel
from repro.core.portfolio import Portfolio
from repro.core.tables import YELT_SCHEMA, StoredYet, YeltTable, YetTable, YltTable
from repro.data.columnar import ColumnTable
from repro.errors import ConfigurationError, EngineError

__all__ = ["HostEngine", "VectorizedEngine", "MulticoreEngine",
           "emit_yelt_row"]


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
    """Aggregate analysis as runs of a
    :class:`~repro.serve.dispatch.Dispatcher` over the portfolio's fused
    kernel; a piece of a YET in memory (a span, a split) routes as the
    whole YET, so every host engine is ``np.array_equal`` to
    ``vectorized``."""

    def __init__(self) -> None:
        self._dispatcher = None

    @classmethod
    def riding(cls, dispatcher) -> "HostEngine":
        """An engine on ``dispatcher``, which its owner closes; any
        constructor settings stay the defaults — the dispatcher's own
        are in ``result.details``."""
        engine = cls()
        engine._dispatcher = dispatcher
        return engine

    @property
    def dispatcher(self):
        """The :class:`~repro.serve.dispatch.Dispatcher` this engine
        rides: the one handed to :meth:`riding`, else an inline one made
        on first use, which holds no process or segment."""
        if self._dispatcher is None:
            # Lazy: serve sits above core in the import order.
            from repro.serve.dispatch import InlineDispatcher

            self._dispatcher = InlineDispatcher()
        return self._dispatcher

    def run(self, portfolio: Portfolio, yet: YetTable | StoredYet, *,
            emit_yelt: bool = False) -> EngineResult:
        self._validate(portfolio, yet)
        if emit_yelt and isinstance(yet, StoredYet):
            raise EngineError(
                "a YELT needs the occurrence stream in memory; a StoredYet "
                "is read block by block")
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
        n_blocks = len(dispatcher.spans(yet))
        # One block ran in process, whatever the pool's width.
        return final, {
            "n_workers": dispatcher.n_procs if n_blocks > 1 else 1,
            "n_blocks": n_blocks,
            "transport": (dispatcher.transport_active if n_blocks > 1
                          else "inline"),
            "degraded": dispatcher.degraded,
        }


class VectorizedEngine(HostEngine):
    """Whole-array aggregate analysis over the fused portfolio kernel,
    from a YET in memory or on disk."""

    name = "vectorized"
    source = (YetTable, StoredYet)


class MulticoreEngine(HostEngine):
    """Process-pool aggregate analysis over contiguous trial blocks, on
    a :class:`~repro.serve.dispatch.PooledDispatcher` someone else owns.

    The payload rides the shared-memory data plane; a one-block run, a
    degraded pool and a host without shared memory sweep in process
    (``details["transport"] == "inline"``).
    """

    name = "multicore"

    @property
    def dispatcher(self):
        if self._dispatcher is None:
            raise ConfigurationError(
                "a multicore engine builds no pool: run "
                "RiskSession(yet, n_workers=...).aggregate(engine='multicore'),"
                " or MulticoreEngine.riding(PooledDispatcher(...)) and close "
                "the dispatcher when done")
        return self._dispatcher
