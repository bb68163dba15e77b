"""Batch execution engines for the serving layer.

A dispatcher takes one stacked :class:`~repro.core.kernels.PortfolioKernel`
(the micro-batch) and the shared YET and produces the final
``(L, n_trials)`` YLT matrix — sweep plus aggregate terms.  Two
substrates are provided, mirroring the engine family:

- :class:`InlineDispatcher` — the vectorized path: one fused sweep on
  the calling thread.  Lowest latency; what a single-node service runs.
- :class:`PooledDispatcher` — trial-block decomposition over
  :class:`~repro.hpc.pool.WorkPool` workers; the one pooled execution
  path (the multicore engine is a driver of it).  Both sides of its
  payload ride the zero-copy shared-memory data plane
  (:mod:`repro.hpc.shm`) when the host supports it:

  * the *YET arrays* (the stable side of a serving workload) are placed
    in a shared arena keyed by content fingerprint — workers attach once
    and a re-simulated-but-equal trial set re-ships nothing;
  * the *per-batch kernel* (the churning side) is written into one
    reusable :class:`~repro.hpc.shm.ShmSlab` — steady-state batches cost
    an owner-side ``memcpy`` plus ~1 KB of handles per task, instead of
    pickling the full stacked lookup with every task.

  ``transport="pickle"`` (or a host without shared memory) falls back to
  the original ship — YET through the pool initializer, kernel pickled
  per task — with bit-identical results.

Both close cleanly; :meth:`Dispatcher.warmup` lets the service pay
worker spawn and YET delivery outside any request's SLO window.

Failure semantics
-----------------
Pooled batches run under the supervised :class:`~repro.hpc.pool.WorkPool`
contract (see its module docstring): a worker death or deadline miss
resubmits only the lost trial blocks — idempotent pure functions, so the
final matrix is bit-identical to a fault-free run — and a terminal
failure surfaces as a typed :class:`~repro.errors.ExecutionError`
carrying the whole failure chain.  Callers may pass a per-batch
:class:`~repro.hpc.pool.TaskPolicy` through :meth:`Dispatcher.run` (the
pricing service derives one from its SLO so request deadlines reach the
workers).  Once the pool degrades (``pool.health.degraded``, after
consecutive terminal failures) the pooled dispatcher executes batches
inline on the calling thread — same answers, worse wall time — and
reports ``n_procs == 1`` so admission control and the planner stop
modelling parallelism that no longer exists.  :attr:`Dispatcher.health`
exposes the :class:`~repro.hpc.pool.PoolHealth` record upward.
"""

from __future__ import annotations

import abc
import threading

import numpy as np

from repro.core.kernels import PortfolioKernel
from repro.core.tables import YetTable
from repro.hpc import shm
from repro.hpc.pool import PoolHealth, TaskPolicy, WorkPool
from repro.obs import Telemetry, as_telemetry

__all__ = ["Dispatcher", "InlineDispatcher", "PooledDispatcher"]


class Dispatcher(abc.ABC):
    """Executes one batched kernel over the shared YET."""

    #: Registry name; subclasses override.
    name: str = "abstract"

    #: Parallelism the admission controller should model.
    n_procs: int = 1

    @property
    def transport_active(self) -> str:
        """Transport the next batch will ride (diagnostic surface)."""
        return "inline"

    @property
    def health(self) -> PoolHealth | None:
        """The substrate's :class:`~repro.hpc.pool.PoolHealth` (``None``
        for in-process substrates, which have no workers to lose)."""
        return None

    @abc.abstractmethod
    def run(self, kernel: PortfolioKernel, yet: YetTable,
            policy: TaskPolicy | None = None) -> np.ndarray:
        """The final ``(L, n_trials)`` matrix (aggregate terms applied).

        ``policy`` supervises pooled execution (deadline, retries); the
        inline substrate has no workers to supervise and ignores it.
        """

    def warmup(self, yet: YetTable) -> None:
        """Pay one-off setup costs (worker spawn, YET shipping) now."""

    def close(self) -> None:
        """Release execution resources (idempotent)."""

    def __enter__(self) -> "Dispatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class InlineDispatcher(Dispatcher):
    """One fused sweep on the calling thread (the vectorized substrate)."""

    name = "inline"

    def run(self, kernel: PortfolioKernel, yet: YetTable,
            policy: TaskPolicy | None = None) -> np.ndarray:
        return kernel.apply_aggregate(
            kernel.sweep_segments(*yet.trial_block()))


def _sweep_trials(yet: YetTable, kernel: PortfolioKernel,
                  t0: int, t1: int) -> np.ndarray:
    """Worker: fused sweep over trials ``[t0, t1)`` of the shared YET,
    renumbered block-local (picklable top-level task).  The block is
    offset arithmetic over the trial index the worker's ``YetTable``
    derives once, not a re-scan of the trial column per batch."""
    annual = kernel.sweep_segments(*yet.trial_block(t0, t1))
    return kernel.apply_aggregate(annual)


def _sweep_trials_handles(yet: YetTable, kernel_handles,
                          t0: int, t1: int) -> np.ndarray:
    """Worker: like :func:`_sweep_trials` but the batch kernel arrives as
    slab handles and is attached as zero-copy views (picklable task)."""
    return _sweep_trials(yet, PortfolioKernel.from_handles(kernel_handles),
                         t0, t1)


class _ShmYet(shm.HandleShipment):
    """Handle-backed shipment of the YET; workers attach the columns as
    read-only views once, on first touch, and keep the ``YetTable`` (so
    its trial index is derived once per worker too)."""

    __slots__ = ()

    def _materialise(self, handles):
        return YetTable.from_handles(handles)


class PooledDispatcher(Dispatcher):
    """Trial-block decomposition over a persistent worker pool.

    The YET is installed as the pool's shared object on first use and
    reused across batches.  The
    bundle is keyed by :meth:`YetTable.fingerprint`, so only a trial set
    with *different content* forces a re-ship — swapping in an equal
    re-simulated YET costs nothing.  On shared-memory hosts the bundle
    is a handle shipment (workers attach the columns zero-copy) and the
    per-batch kernel travels as slab handles; see the module docstring
    for the transport rules and the pickle fallback.
    """

    name = "pooled"

    def __init__(self, n_workers: int | None = None,
                 transport: str = "auto",
                 telemetry: Telemetry | bool | None = None) -> None:
        shm.validate_transport(transport)
        #: The dispatcher's telemetry plane, shared with its pool (a
        #: session passes its own so one scrape covers the stack).
        self.telemetry = as_telemetry(telemetry)
        self.pool = WorkPool(n_workers, telemetry=self.telemetry)
        self.transport = transport
        self._shared = None
        self._shared_fp: str | None = None
        #: Arenas staged for this dispatcher's YETs, newest last.  The
        #: superseded one is *retired*, not closed, when the service
        #: swaps trial sets: a batch formed just before the swap may
        #: still be delivering the old handles to a fresh worker, and
        #: unlinking under it would break the attach.  One retiree is
        #: enough (the service drains before each swap), so older ones
        #: are freed at the next swap and the rest at close().
        self._yet_arenas: list[shm.SharedArena] = []
        self._slab: shm.ShmSlab | None = None
        self._m_slab_generations = self.telemetry.gauge(
            "dispatch.slab.generations")
        #: Guards bundle swaps and the slab: the bundle/arena state is
        #: check-then-mutate, and the slab is single-writer with the
        #: in-flight batch as its readers — concurrent callers (the
        #: batcher executes outside its queue lock) serialise here.
        self._lock = threading.Lock()

    @property
    def n_procs(self) -> int:  # type: ignore[override]
        # A degraded pool executes inline: admission control and the
        # planner must model serial throughput, not phantom workers.
        return 1 if self.pool.health.degraded else self.pool.n_workers

    @property
    def health(self) -> PoolHealth:
        """The shared pool's failure/recovery record."""
        return self.pool.health

    @property
    def transport_active(self) -> str:
        """``"shm"`` when the data plane will carry the next batch;
        ``"inline"`` once the pool has degraded to serial fallback."""
        if self.pool.health.degraded:
            return "inline"
        return "shm" if self._shm_active() else "pickle"

    def _shm_active(self) -> bool:
        if self.pool.n_workers <= 1 or self.pool.health.degraded:
            return False
        return shm.resolve_transport(self.transport)

    def _bundle(self, yet: YetTable):
        """The shared-object bundle, keyed by YET content fingerprint."""
        fp = yet.fingerprint()
        with self._lock:
            if self._shared_fp != fp:
                if self._shm_active():
                    while len(self._yet_arenas) > 1:
                        self._yet_arenas.pop(0).close()
                    arena = shm.SharedArena()
                    self._yet_arenas.append(arena)
                    self._shared = _ShmYet(yet.to_shared(arena), local=yet)
                else:
                    self._shared = yet
                self._shared_fp = fp
            return self._shared

    def warmup(self, yet: YetTable) -> None:
        shared = self._bundle(yet)   # takes the lock itself
        with self._lock:
            self.pool.ensure_started(shared)

    def spans(self, yet: YetTable) -> list[tuple[int, int]]:
        """The trial-block decomposition a run over ``yet`` executes,
        pooled or degraded: ``(t0, t1)`` trial spans, one per worker
        (capped by trial count)."""
        n_blocks = min(self.pool.n_workers, yet.n_trials)
        bounds = np.linspace(0, yet.n_trials, n_blocks + 1).astype(int)
        return [(int(b0), int(b1))
                for b0, b1 in zip(bounds[:-1], bounds[1:]) if b1 > b0]

    def run(self, kernel: PortfolioKernel, yet: YetTable,
            policy: TaskPolicy | None = None) -> np.ndarray:
        with self.telemetry.span("dispatch.pooled",
                                 transport=self.transport_active):
            return self._run(kernel, yet, policy)

    def _run(self, kernel: PortfolioKernel, yet: YetTable,
             policy: TaskPolicy | None = None) -> np.ndarray:
        if self.pool.health.degraded:
            # Graceful degradation: the pool has failed terminally too
            # many consecutive times, so the batch runs on the calling
            # thread, over the trial blocks the workers would have
            # executed (every row's answer is a function of the trial
            # alone, so degraded answers are bit-identical to pooled
            # and inline ones).  No slab packing, no handle ships,
            # nothing left to break.
            self.pool.health.count("degraded_calls")
            return np.concatenate(
                [_sweep_trials(yet, kernel, t0, t1)
                 for t0, t1 in self.spans(yet)], axis=1)
        shared = self._bundle(yet)
        spans = self.spans(yet)
        if self._shm_active() and len(spans) > 1:
            # The batch kernel rides the reusable slab: one memcpy here,
            # ~1 KB of handles per task, no per-task unpickle of the
            # stacked lookup in the workers.
            with self._lock:
                if self._slab is None:
                    self._slab = shm.ShmSlab()
                handles = kernel.export_handles(self._slab)
                self._m_slab_generations.set(self._slab.generations)
                partials = self.pool.starmap_shared(
                    _sweep_trials_handles, shared,
                    [(handles, t0, t1) for t0, t1 in spans],
                    policy=policy,
                )
        else:
            # Same serialisation as the slab branch: a concurrent
            # bundle swap would cycle the pool executor under an
            # in-flight batch's submissions.
            with self._lock:
                partials = self.pool.starmap_shared(
                    _sweep_trials, shared,
                    [(kernel, t0, t1) for t0, t1 in spans],
                    policy=policy,
                )
        return np.concatenate(partials, axis=1)

    def close(self) -> None:
        self.pool.close()
        with self._lock:
            if self._slab is not None:
                self._slab.close()
                self._slab = None
            for arena in self._yet_arenas:
                arena.close()
            self._yet_arenas.clear()
            self._shared = None
            self._shared_fp = None
