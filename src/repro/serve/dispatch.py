"""Batch execution engines for the serving layer.

A dispatcher takes one stacked :class:`~repro.core.kernels.PortfolioKernel`
(the micro-batch) and the shared YET and produces the final
``(L, n_trials)`` YLT matrix — sweep plus aggregate terms.  This is the
one door from a kernel to an answer: a quote batch hands its dispatcher
the stacked batch kernel, and the host engines (``vectorized`` /
``multicore`` / ``outofcore``, one implementation —
:mod:`repro.core.engines.host`) hand theirs the portfolio's.  A run is
:func:`_sweep_trials` over the dispatcher's :meth:`~Dispatcher.spans`,
and the two substrates differ in where the spans execute:

- :class:`InlineDispatcher` — one span, the whole trial set, on the
  calling thread.  Lowest latency; what a single-node service runs.
- :class:`PooledDispatcher` — one span per
  :class:`~repro.hpc.pool.WorkPool` worker; the one pooled execution
  path.  Both sides of its payload ride the zero-copy shared-memory
  data plane (:mod:`repro.hpc.shm`) when the host supports it:

  * the *YET arrays* (the stable side of a serving workload) are placed
    in a shared arena keyed by content fingerprint — workers attach once
    and a re-simulated-but-equal trial set re-ships nothing;
  * the *kernel* is written into one reusable
    :class:`~repro.hpc.shm.ShmSlab` once per kernel: the dispatcher
    holds the one kernel it last packed (compared by identity, held by a
    strong reference — one entry, like the YET's one fingerprint) and
    packs again only when a different kernel arrives, counted by the
    ``dispatch.slab.packs`` counter.  The handles carry a stamp that
    names the pack; each worker keeps the one kernel it last attached,
    with the caches its sweeps derive (pierced entries, net tables,
    masks), under that stamp.  A repeated aggregate therefore ships
    ~1 KB of handles per task and rebuilds nothing; a serving batch (a
    fresh stacked kernel) costs one owner-side ``memcpy`` and one attach
    per worker.  A kernel is immutable once built, which is what lets
    identity stand for content here;
  * the *answer* comes back through a second slab: the dispatcher
    reserves the ``(L, n_trials)`` matrix there, each worker writes its
    trial span's columns, aggregate terms applied, straight into it and
    returns nothing, and the dispatcher copies the matrix out under its
    lock once every block is in.  No block is pickled back or
    concatenated.  A worker killed mid-write is rewritten by its retry
    (the bytes are the same); one abandoned past a deadline may still
    write later, so a run in which ``pool.timeouts`` moved leaves the
    output slab on a fresh generation.

  ``transport="pickle"`` (or a host without shared memory) falls back to
  the original ship — YET through the pool initializer, kernel pickled
  per task, blocks pickled back — with bit-identical results; so do a
  degraded pool and a one-worker pool, which run their spans in process.

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

What a run counted
------------------
:meth:`Dispatcher.run` times every run and folds its
``kernel.n_layers × yet.n_occurrences`` lanes, per processor, into
:attr:`Dispatcher.throughput` — the one measured rate of the substrate
(:class:`~repro.hpc.cost_model.ThroughputEstimate`), which the session
planner prices the substrate's row at and the serve admission
controller sheds by — and sets the ``dispatch.<name>.lanes_per_second``
gauge.  It exports, once per run, where the calling process's kernel
priced its rows (:data:`~repro.core.kernels.ROUTING_COUNTERS`) and what
the YET keeps or read for them (``yet.cache_levels()``) — inline,
degraded or on a one-worker pool.  Pool workers count on their own
copies; those counts do not come back yet (ROADMAP item 8: a pooled
block task returns nothing, so its counts would be all it returns), and
this is where they will arrive.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.core.kernels import ROUTING_COUNTERS, PortfolioKernel
from repro.core.tables import StoredYet, YetTable, trial_spans
from repro.hpc import shm
from repro.hpc.cost_model import ThroughputEstimate
from repro.hpc.pool import PoolHealth, TaskPolicy, WorkPool
from repro.obs import Telemetry, as_telemetry

__all__ = ["Dispatcher", "InlineDispatcher", "PooledDispatcher"]


class Dispatcher:
    """Executes one batched kernel over the shared YET — on the calling
    thread, unless a subclass sends its spans elsewhere."""

    #: Registry name; subclasses override.
    name: str = "abstract"

    #: Parallelism the admission controller should model.
    n_procs: int = 1

    def __init__(self, telemetry: Telemetry | bool | None = None) -> None:
        #: The dispatcher's telemetry plane (a session passes its own so
        #: one scrape covers the stack).
        self.telemetry = as_telemetry(telemetry)
        self._m_routed = {name: self.telemetry.counter(name)
                          for name in ROUTING_COUNTERS}
        #: The substrate's one measured rate (lanes/s per processor),
        #: fed by every :meth:`run`; ``rate`` is ``None`` until then.
        self.throughput = ThroughputEstimate()
        self._m_rate = self.telemetry.gauge(
            f"dispatch.{self.name}.lanes_per_second")

    @property
    def transport_active(self) -> str:
        """Transport the next batch will ride (diagnostic surface)."""
        return "inline"

    @property
    def health(self) -> PoolHealth | None:
        """The substrate's :class:`~repro.hpc.pool.PoolHealth` (``None``
        for in-process substrates, which have no workers to lose)."""
        return None

    def spans(self, yet: YetTable | StoredYet) -> list[tuple[int, int]]:
        """The trial-block decomposition a run over ``yet`` executes:
        ``(t0, t1)`` trial spans — in process, the whole trial set."""
        return [(0, yet.n_trials)]

    def run(self, kernel: PortfolioKernel, yet: YetTable | StoredYet,
            policy: TaskPolicy | None = None) -> np.ndarray:
        """The final ``(L, n_trials)`` matrix (aggregate terms applied).

        ``policy`` supervises pooled execution (deadline, retries); the
        inline substrate has no workers to supervise and ignores it.
        """
        before = dict(kernel.routed)
        n_procs = self.n_procs
        t0 = time.perf_counter()
        final = self._run(kernel, yet, policy)
        rate = self.throughput.observe(
            kernel.n_layers * yet.n_occurrences,
            time.perf_counter() - t0, n_procs)
        if rate is not None:
            self._m_rate.set(rate)
        routed = {name: rows for name, rows
                  in kernel.routed_since(before).items() if rows}
        for name, rows in routed.items():
            self._m_routed[name].inc(rows)
        if routed:
            for name, level in yet.cache_levels().items():
                self.telemetry.gauge(name).set(level)
        return final

    def _run(self, kernel: PortfolioKernel, yet: YetTable | StoredYet,
             policy: TaskPolicy | None) -> np.ndarray:
        """The substrate's execution of :meth:`run`; here, every span
        on the calling thread.  Each row's answer is a function of the
        trial alone, so the blocks give bit-identical answers in
        process, in a worker, or as one whole-YET span."""
        partials = [_sweep_trials(yet, kernel, t0, t1)
                    for t0, t1 in self.spans(yet)]
        return (partials[0] if len(partials) == 1
                else np.concatenate(partials, axis=1))

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


def _sweep_trials(yet: YetTable | StoredYet, kernel: PortfolioKernel,
                  t0: int, t1: int, out: np.ndarray | None = None
                  ) -> np.ndarray:
    """Fused sweep over trials ``[t0, t1)``, aggregate terms applied —
    the one sweep outside the kernel under ``src/``, on the calling
    thread or as a pool worker's task (picklable top-level function).  A
    ``YetTable`` yields one block (offset arithmetic over the trial index
    it derives once per copy), returned as is; a ``StoredYet``'s blocks
    each fill their own trial columns.  The answer is written to
    ``out`` (an ``(L, t1 - t0)`` array) when one is given."""
    annual, col = None, 0
    for segments, event_ids in yet.trial_blocks(t0, t1):
        swept = kernel.sweep_segments(segments, event_ids)
        # Drop the block before a stored source reads its next chunk:
        # held, it sends that read to fresh pages (≈ 2x the run).
        del segments, event_ids
        if swept.shape[1] == t1 - t0:
            annual = swept
        else:
            if annual is None:
                annual = np.empty((kernel.n_layers, t1 - t0))
            annual[:, col:col + swept.shape[1]] = swept
        col += swept.shape[1]
    return kernel.apply_aggregate(annual, out=out)


#: A pool worker's one attached kernel, ``(stamp, kernel)``, and how
#: many times the worker attached one.
_attached: tuple | None = None
_attaches = 0


def _sweep_trials_handles(yet: YetTable, kernel_handles, t0: int, t1: int,
                          output) -> None:
    """Worker: :func:`_sweep_trials` over the kernel the slab handles
    name — attached as zero-copy views once per stamp and kept, derived
    caches and all, until a task names another — written straight into
    columns ``[t0, t1)`` of the dispatcher's ``output`` handle; nothing
    comes back but completion (picklable task)."""
    global _attached, _attaches
    if _attached is None or _attached[0] != kernel_handles.stamp:
        # Drop the old views first: they may pin an outgrown slab
        # generation that attaching the new one would unmap.
        _attached = None
        _attached = (kernel_handles.stamp,
                     PortfolioKernel.from_handles(kernel_handles))
        _attaches += 1
    _sweep_trials(yet, _attached[1], t0, t1, out=output.attach()[:, t0:t1])


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
    is a handle shipment (workers attach the columns zero-copy), the
    kernel travels as slab handles, packed once per kernel and attached
    once per worker, and the answer returns through an output slab the
    workers write; see the module docstring for the transport rules and
    the pickle fallback.
    """

    name = "pooled"

    def __init__(self, n_workers: int | None = None,
                 transport: str = "auto",
                 telemetry: Telemetry | bool | None = None) -> None:
        shm.validate_transport(transport)
        super().__init__(telemetry)
        #: The pool shares the dispatcher's telemetry plane.
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
        #: ``(kernel, handles)`` of the kernel the slab holds.
        self._staged: tuple | None = None
        #: Where the workers write the ``(L, n_trials)`` answer.
        self._output: shm.ShmSlab | None = None
        self._m_slab_generations = self.telemetry.gauge(
            "dispatch.slab.generations")
        self._m_slab_packs = self.telemetry.counter("dispatch.slab.packs")
        self._m_output_generations = self.telemetry.gauge(
            "dispatch.output_slab.generations")
        #: Guards bundle swaps and the slabs: the bundle/arena state is
        #: check-then-mutate, the kernel slab is single-writer with the
        #: in-flight batch as its readers, and the output slab is the
        #: in-flight batch's to write until copied out — concurrent
        #: callers (the batcher executes outside its queue lock)
        #: serialise here.
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
        ``"inline"`` when its spans run in process — a one-worker pool,
        or one degraded to serial fallback."""
        if self.pool.n_workers <= 1 or self.pool.health.degraded:
            return "inline"
        return "shm" if shm.resolve_transport(self.transport) else "pickle"

    def _bundle(self, yet: YetTable):
        """The shared-object bundle, keyed by YET content fingerprint."""
        fp = yet.fingerprint()
        with self._lock:
            if self._shared_fp != fp:
                if self.transport_active == "shm":
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
        """One span per worker (capped by trial count), pooled or
        degraded."""
        return trial_spans(yet.n_trials, self.pool.n_workers)

    def run(self, kernel: PortfolioKernel, yet: YetTable,
            policy: TaskPolicy | None = None) -> np.ndarray:
        with self.telemetry.span("dispatch.pooled",
                                 transport=self.transport_active):
            return super().run(kernel, yet, policy)

    def _run(self, kernel: PortfolioKernel, yet: YetTable,
             policy: TaskPolicy | None) -> np.ndarray:
        if self.pool.health.degraded:
            # Graceful degradation: the pool has failed terminally too
            # many consecutive times, so the batch runs on the calling
            # thread, over the trial blocks the workers would have
            # executed.  No slab packing, no handle ships, nothing left
            # to break.
            self.pool.health.count("degraded_calls")
            return super()._run(kernel, yet, policy)
        shared = self._bundle(yet)
        spans = self.spans(yet)
        # One lock over the slabs and submissions: both slabs belong to
        # the in-flight batch (its readers', its writers'), and a
        # concurrent bundle swap would cycle the pool executor under an
        # in-flight batch's submissions.
        with self._lock:
            if self.transport_active != "shm" or len(spans) == 1:
                partials = self.pool.starmap_shared(
                    _sweep_trials, shared,
                    [(kernel, t0, t1) for t0, t1 in spans], policy=policy)
                return np.concatenate(partials, axis=1)
            # The kernel rides the reusable slab: one memcpy when a
            # different kernel arrives, ~1 KB of handles per task.
            if self._staged is None or self._staged[0] is not kernel:
                if self._slab is None:
                    self._slab = shm.ShmSlab()
                self._staged = None   # a failed pack holds neither
                self._staged = (kernel, kernel.export_handles(self._slab))
                self._m_slab_packs.inc()
                self._m_slab_generations.set(self._slab.generations)
            # Each worker writes its columns of the answer into the
            # output slab and returns nothing; the answer is copied out
            # once every block is in.
            if self._output is None:
                self._output = shm.ShmSlab()
            output = self._output.reserve((kernel.n_layers, yet.n_trials))
            timeouts = self.pool.health.totals["timeouts"]
            try:
                self.pool.starmap_shared(
                    _sweep_trials_handles, shared,
                    [(self._staged[1], t0, t1, output) for t0, t1 in spans],
                    policy=policy)
                return output.attach().copy()
            finally:
                if self.pool.health.totals["timeouts"] != timeouts:
                    # A worker abandoned past its deadline may still
                    # write: leave it a generation nobody reads.
                    self._output.roll()
                self._m_output_generations.set(self._output.generations)

    def close(self) -> None:
        self.pool.close()
        with self._lock:
            self._staged = None
            for slab in (self._slab, self._output):
                if slab is not None:
                    slab.close()
            self._slab = self._output = None
            for arena in self._yet_arenas:
                arena.close()
            self._yet_arenas.clear()
            self._shared = None
            self._shared_fp = None
