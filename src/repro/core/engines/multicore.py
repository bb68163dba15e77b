"""Trial-block multiprocess engine.

The YET decomposes perfectly by trial (no occurrence crosses a trial
boundary), so the analysis parallelises as: split the trial range into
contiguous blocks, run the **fused portfolio sweep** per block, and
concatenate the per-block ``(L, trials)`` slices.  Aggregate terms are
block-local because each trial lives in exactly one block.

Payload transport is the zero-copy shared-memory data plane
(:mod:`repro.hpc.shm`) wherever the host supports it: the stacked
:class:`~repro.core.kernels.PortfolioKernel` and the YET columns are
placed in shared segments once per (kernel, trial set) and workers
receive ~1 KB of handles through the pool initializer, attaching the
payload as read-only views on first touch.  Tasks then carry only
``(trial_start, trial_stop)`` index pairs.  Repeat
runs with an unchanged kernel and YET ship *nothing* — not even on
executor cycling or broken-pool recovery, which re-send handles alone.
Where shared memory is unavailable (``transport="pickle"``, or hosts
without it) the engine falls back to the original pickle ship — the
kernel through the initializer, renumbered YET slices with each task —
with bit-identical results.  On single-core hosts the pool degrades to
serial execution, also with identical results.

The pool is constructed lazily on first use;
:meth:`MulticoreEngine.close` (or ``with`` support) is the shutdown path
and also frees the engine's shared-memory arena.

Failure semantics: blocks execute under the supervised
:class:`~repro.hpc.pool.WorkPool` contract — lost or timed-out blocks
are resubmitted idempotently (pure functions of their index tuples, so
re-execution cannot change answers) and terminal failures raise a typed
:class:`~repro.errors.ExecutionError`.  Once the pool degrades
(``pool.health.degraded``) the engine sweeps inline and serial with
``details["degraded"] = True`` until :meth:`WorkPool.reset_health`.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.engines.base import Engine, EngineResult
from repro.core.kernels import PortfolioKernel
from repro.core.portfolio import Portfolio
from repro.core.tables import YetTable, YltTable
from repro.errors import EngineError
from repro.hpc import shm
from repro.hpc.pool import WorkPool

__all__ = ["MulticoreEngine"]


def _run_portfolio_block(kernel: PortfolioKernel, trials_block, events_block,
                         n_trials_block) -> np.ndarray:
    """Worker: fused sweep over one renumbered trial block (picklable)."""
    annual = kernel.sweep(trials_block, events_block, n_trials_block)
    return kernel.apply_aggregate(annual)


def _run_block_shared(shared, t0: int, t1: int) -> np.ndarray:
    """Worker: fused sweep over trials ``[t0, t1)`` of the YET on the
    shared-memory plane (picklable task).  The block is offset
    arithmetic over the trial index the worker's ``YetTable`` derives
    once, not a re-scan of the trial column per run."""
    kernel, yet = shared
    annual = kernel.sweep_segments(*yet.trial_block(t0, t1))
    return kernel.apply_aggregate(annual)


class _ShmRun(shm.HandleShipment):
    """Handle-backed shipment of one (kernel handles, YET handles) pair;
    workers attach and rebuild both once, on first touch."""

    __slots__ = ()

    def _materialise(self, handles):
        kernel_handles, yet_handles = handles
        return (PortfolioKernel.from_handles(kernel_handles),
                YetTable.from_handles(yet_handles))


class MulticoreEngine(Engine):
    """Process-pool aggregate analysis over contiguous trial blocks.

    Parameters
    ----------
    n_workers:
        Worker processes; ``None`` means the host's parallelism.
    dense_max_entries:
        Dense-lookup threshold forwarded to kernel construction.
    transport:
        ``"auto"`` (shared memory when the host supports it, else
        pickle), ``"shm"`` (require the shared-memory plane), or
        ``"pickle"`` (force the legacy ship — the E15 bench baseline).
    """

    name = "multicore"

    def __init__(self, n_workers: int | None = None,
                 dense_max_entries: int = 4_000_000,
                 transport: str = "auto") -> None:
        shm.validate_transport(transport, EngineError)
        self.n_workers = n_workers
        self.dense_max_entries = dense_max_entries
        self.transport = transport
        self._pool: WorkPool | None = None
        self._arena: shm.SharedArena | None = None
        #: Last staged (kernel, yet fingerprint, shipment): repeat runs
        #: with the same payload reuse it, shipping zero bytes.
        self._staged: tuple | None = None

    # -- pool lifecycle ----------------------------------------------------

    @property
    def pool(self) -> WorkPool:
        """The work pool, constructed lazily on first access."""
        if self._pool is None:
            self._pool = WorkPool(self.n_workers)
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool and free shared segments
        (idempotent; engine stays usable)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        if self._arena is not None:
            self._arena.close()
            self._arena = None
        self._staged = None

    def __enter__(self) -> "MulticoreEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the shared-memory staging -----------------------------------------

    def _stage(self, kernel: PortfolioKernel, yet: YetTable) -> _ShmRun:
        """Shared-memory staging of (kernel, yet), reused while unchanged.

        Keyed by kernel identity (the portfolio kernel cache makes that
        stable) and YET content fingerprint, so a re-simulated but equal
        trial set does not force a re-placement — and the pool, seeing
        the same shipment object, re-ships nothing at all.
        """
        fp = yet.fingerprint()
        if self._staged is not None:
            staged_kernel, staged_fp, shipment = self._staged
            if staged_kernel is kernel and staged_fp == fp:
                return shipment
        if self._arena is not None:
            self._arena.close()
        self._arena = shm.SharedArena()
        shipment = _ShmRun(
            (kernel.export_handles(self._arena), yet.to_shared(self._arena)),
            local=(kernel, yet),
        )
        self._staged = (kernel, fp, shipment)
        return shipment

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

        kernel = portfolio.kernel(dense_max_entries=self.dense_max_entries)
        n_workers = self.pool.n_workers
        n_trials = yet.n_trials
        n_blocks = min(n_workers, n_trials)
        bounds = np.linspace(0, n_trials, n_blocks + 1).astype(int)
        spans = [
            (int(bounds[i]), int(bounds[i + 1]))
            for i in range(n_blocks)
            if bounds[i + 1] > bounds[i]
        ]
        if self.pool.health.degraded:
            # Graceful degradation: the pool has terminally failed too
            # many consecutive times (see WorkPool's failure semantics),
            # so the sweep runs serial on the calling thread, over the
            # trial blocks the workers would have executed (every row's
            # answer is a function of the trial alone, so the result is
            # bit-identical), instead of betting on dead workers.
            self.pool.health.degraded_calls += 1
            final = np.concatenate(
                [_run_block_shared((kernel, yet), b0, b1)
                 for b0, b1 in spans], axis=1)
            ylt_by_layer = {
                lid: YltTable(final[row])
                for row, lid in enumerate(kernel.layer_ids)
            }
            return EngineResult(
                engine=self.name,
                ylt_by_layer=ylt_by_layer,
                portfolio_ylt=YltTable.sum(list(ylt_by_layer.values())),
                seconds=time.perf_counter() - t0,
                details={"n_workers": 1, "n_blocks": len(spans),
                         "fused_layers": kernel.n_layers,
                         "transport": "inline", "degraded": True},
            )

        use_shm = n_workers > 1 and shm.resolve_transport(self.transport,
                                                          EngineError)
        if use_shm:
            partials = self.pool.starmap_shared(
                _run_block_shared, self._stage(kernel, yet), spans,
            )
        else:
            blocks = [yet.slice_trials(b0, b1) for b0, b1 in spans]
            partials = self.pool.starmap_shared(
                _run_portfolio_block, kernel,
                [(b.trials, b.event_ids, b.n_trials) for b in blocks],
            )
        final = np.concatenate(partials, axis=1)
        ylt_by_layer = {
            lid: YltTable(final[row]) for row, lid in enumerate(kernel.layer_ids)
        }

        portfolio_ylt = YltTable.sum(list(ylt_by_layer.values()))
        return EngineResult(
            engine=self.name,
            ylt_by_layer=ylt_by_layer,
            portfolio_ylt=portfolio_ylt,
            seconds=time.perf_counter() - t0,
            details={"n_workers": n_workers, "n_blocks": len(spans),
                     "fused_layers": kernel.n_layers,
                     "transport": "shm" if use_shm else "pickle",
                     "degraded": False},
        )
