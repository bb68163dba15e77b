"""Batch execution engines for the serving layer.

A dispatcher takes one stacked :class:`~repro.core.kernels.PortfolioKernel`
(the micro-batch) and the shared YET and produces the final
``(L, n_trials)`` YLT matrix — sweep plus aggregate terms.  This is the
one door from a kernel to an answer: a quote batch hands its dispatcher
the stacked batch kernel, and the host engines (``vectorized`` /
``multicore``, one implementation — :mod:`repro.core.engines.host`)
hand theirs the portfolio's.  A run is
:func:`_sweep_trials` over the dispatcher's :meth:`~Dispatcher.spans`
(cut once per trial count: :func:`~repro.core.tables.trial_spans`
keeps its cuts, so a warm run only looks them up), and the two
substrates differ in where the spans execute:

- :class:`InlineDispatcher` — one span, the whole trial set, on the
  calling thread.  Lowest latency; what a single-node service runs.
- :class:`PooledDispatcher` — one span per processor of
  ``n_workers``; the one pooled execution path.  The calling thread
  sends spans 1 to ``n - 1`` to a :class:`~repro.hpc.pool.WorkPool` of
  ``n - 1`` workers — span ``i`` on worker ``i - 1``, which is pinned to
  a CPU of its own and reached over a pipe of its own, every run — and
  then sweeps span 0 itself, unpinned, straight into the output slab: a
  pooled run costs its slowest span plus one pipe round trip, ``n``
  processors take ``n - 1`` workers — forked by the pool's template,
  not by the caller, so the caller's heap (its YET, its kernel, its
  span 0's caches) is shared with no worker — and each side derives
  (and keeps) only its own span's index and profiles.  Its payload rides the
  zero-copy shared-memory data plane (:mod:`repro.hpc.shm`), the one
  transport.  A block task names its whole input — the ``(YET, kernel,
  output)`` handles, pickled once per change of any of the three and
  sent as those bytes, which a worker unpickles only when they differ
  from its last task's — and a worker owns no segment: for each role a
  task names it holds the one payload its last task named, and when a
  task names another it drops that payload and detaches the segments
  the new one does not share (:func:`_hold`):

  * the *YET* (the stable side of a serving workload) is staged in one
    shared arena as its int64 trial offsets and int32 event ids — 4 B
    per occurrence plus 8 B per trial, the layout a
    :class:`~repro.core.tables.StoredYet` keeps — and rides every task
    as handles beside the kernel's.  The dispatcher holds the staged
    table by object, and stages it without hashing it; another
    ``YetTable`` is compared with it by content fingerprint, so a
    re-simulated but equal trial set stages nothing, and a different
    one costs one staging and one attach per worker, the workers
    themselves kept and the old YET's pages let go.  A worker holds the
    YET by its staging (the arena segment), with what its sweeps derive
    — one :class:`~repro.core.tables.TrialSegments` per span it has
    swept (:meth:`YetTable.trial_block`), each holding the event index
    and book profiles built over that span's rows alone — so no process
    sorts or profiles the whole YET, and no worker derives the trial
    offsets: they are staged;
  * the *kernel* is written into one reusable
    :class:`~repro.hpc.shm.ShmSlab` once per kernel: the dispatcher
    holds the one kernel it last packed (compared by identity, held by a
    strong reference — one entry, like the one staged YET) and packs
    again only when a different kernel arrives, counted by the
    ``dispatch.slab.packs`` counter.  The handles carry a stamp that
    names the pack; a worker holds the kernel by stamp, with the caches
    its sweeps derive (pierced entries, net tables, masks), and lets an
    outgrown slab segment go at the first task naming its successor.
    A repeated aggregate therefore sends the same ~1 KB of bytes per
    task and rebuilds nothing; a serving batch (a fresh stacked kernel)
    costs one owner-side ``memcpy`` and one attach per worker.  A kernel
    is immutable once built, which is what lets identity stand for
    content here;
  * the *answer* comes back through a second slab: the dispatcher
    reserves the ``(L, n_trials)`` matrix there, each worker writes its
    trial span's columns, aggregate terms applied, straight into it and
    returns nothing, the caller writes span 0's the same way, and the
    dispatcher copies the matrix out under its lock once every block is
    in.  A worker holds its view of the matrix by the output handle, so
    a new shape or segment replaces it.  No block is pickled back or
    concatenated.  A worker killed mid-write is rewritten by its
    replacement's retry (the bytes are the same), and the caller's
    columns are kept, never swept again; a worker wedged past a deadline
    is killed the same way, and a run in which ``pool.timeouts`` moved
    leaves the output slab on a fresh segment all the same.

  Every other pooled run sweeps its spans in process, on the calling
  thread, with bit-identical results — the pool itself has no serial
  path, so this is the one place a run stays in process: a run of one
  span (a one-worker dispatcher, or a one-trial YET) stages and spawns
  nothing, and a run of more spans on a degraded pool or a host without
  shared memory runs the same loop as a counted fallback
  (``pool.degraded_calls``, ``n_procs == 1``).

Both close cleanly; :meth:`Dispatcher.warmup` lets the service pay
worker spawn and YET staging outside any request's SLO window.  A pooled
warm-up also forks each worker with one first call: worker ``i``,
pinned, attaches the staged YET and builds the event index of span
``i + 1`` while the caller goes on (merges, the kernel build), so the
worker's first block task — the one a cold aggregate waits on — finds
its index built.  What that costs: a run with no by-event row leaves the
worker's index (4 B per occurrence of its span plus 8 B per event)
unread, and a request sent before the build ends waits for it inside
its SLO window (a pricing service's same-book quotes take the profile
route and are such runs).

Failure semantics
-----------------
Pooled batches run under the supervised :class:`~repro.hpc.pool.WorkPool`
contract (see its module docstring): a worker death or deadline miss
resubmits only the dead or wedged worker's trial blocks, to its
replacement on the same CPU — idempotent pure functions, so the final
matrix is bit-identical to a fault-free run; the caller's span 0 is
swept once, and what it raises is raised once every worker's reply is
read — and a terminal
failure surfaces as a typed :class:`~repro.errors.ExecutionError`
carrying the whole failure chain.  A caller names only a per-run
deadline, ``Dispatcher.run(kernel, yet, deadline_seconds=)`` (the
pricing service passes its SLO so request deadlines reach the workers);
retries, backoff and what a task may raise and be retried are the
pool's module constants.  Once the pool degrades
(``pool.health.degraded``, after consecutive terminal failures) the
pooled dispatcher executes batches inline on the calling thread — same
answers, worse wall time — and reports ``n_procs == 1`` so admission
control and the planner stop modelling parallelism that no longer
exists.  :attr:`Dispatcher.health`
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
priced its rows (:data:`~repro.core.kernels.ROUTING_COUNTERS`), what
the YET keeps or read for them (``yet.cache_levels()``) and what the
interned books hold (``layer.books.*``, :func:`~repro.core.layer.book_levels`) — inline,
degraded, on a one-worker dispatcher, or span 0 of a pooled run.  Pool
workers count on their own
copies; those counts do not come back yet (ROADMAP item 8: a pooled
block task returns nothing, so its counts would be all it returns), and
this is where they will arrive.
"""

from __future__ import annotations

import functools
import pickle
import threading
import time

import numpy as np

from repro.core.kernels import ROUTING_COUNTERS, PortfolioKernel
from repro.core.layer import book_levels
from repro.core.tables import StoredYet, YetHandles, YetTable, trial_spans
from repro.errors import ConfigurationError
from repro.hpc import shm
from repro.hpc.cost_model import ThroughputEstimate
from repro.hpc.pool import PoolHealth, WorkPool, available_parallelism
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
        #: Cache-level and ``layer.books.*`` gauges, resolved once a name.
        self._m_level = functools.cache(self.telemetry.gauge)

    @property
    def transport_active(self) -> str:
        """Transport the next batch will ride (diagnostic surface)."""
        return "inline"

    @property
    def degraded(self) -> bool:
        """Whether runs take a counted in-process fallback (never, for a
        substrate that runs in process by design)."""
        return False

    @property
    def health(self) -> PoolHealth | None:
        """The substrate's :class:`~repro.hpc.pool.PoolHealth` (``None``
        for in-process substrates, which have no workers to lose)."""
        return None

    def spans(self, yet: YetTable | StoredYet) -> tuple[tuple[int, int], ...]:
        """The trial-block decomposition a run over ``yet`` executes:
        ``(t0, t1)`` trial spans — in process, the whole trial set."""
        return ((0, yet.n_trials),)

    def run(self, kernel: PortfolioKernel, yet: YetTable | StoredYet,
            deadline_seconds: float | None = None) -> np.ndarray:
        """The final ``(L, n_trials)`` matrix (aggregate terms applied).

        ``deadline_seconds`` bounds each supervised attempt of a pooled
        run; a run in process has no workers to wait on and ignores it.
        """
        before = dict(kernel.routed)
        n_procs = self.n_procs
        t0 = time.perf_counter()
        final = self._run(kernel, yet, deadline_seconds)
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
            for name, level in (*yet.cache_levels().items(),
                                *book_levels().items()):
                self._m_level(name).set(level)
        return final

    def _run(self, kernel: PortfolioKernel, yet: YetTable | StoredYet,
             deadline_seconds: float | None) -> np.ndarray:
        """The substrate's execution of :meth:`run`; here, every span
        on the calling thread.  Each row's answer is a function of the
        trial alone, so the blocks give bit-identical answers in
        process, in a worker, or as one whole-YET span."""
        partials = [_sweep_trials(yet, kernel, t0, t1)
                    for t0, t1 in self.spans(yet)]
        return (partials[0] if len(partials) == 1
                else np.concatenate(partials, axis=1))

    def warmup(self, yet: YetTable) -> None:
        """Pay one-off setup costs now: a pooled substrate stages the YET
        and forks its workers, each indexing its span before its first
        task; in process there is nothing to pay."""

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
    ``YetTable`` yields one block, the span it keeps for the range,
    returned as is; a ``StoredYet`` yields a fresh span per chunk, each
    filling its own trial columns.  The answer is written to
    ``out`` (an ``(L, t1 - t0)`` array) when one is given."""
    swept = [kernel.sweep_segments(block) for block in yet.trial_blocks(t0, t1)]
    annual = swept[0] if len(swept) == 1 else np.concatenate(swept, axis=1)
    del swept       # held, the terms' output would be a third copy
    return kernel.apply_aggregate(annual, out=out)


#: A pool worker's payloads, one per role a block task names (the YET,
#: the kernel, the output): ``{role: (key, handles, payload)}``.
_held: dict[str, tuple] = {}

#: A pool worker's last block-task payload: ``(bytes, what they unpickle
#: to)``.
_last_payload: tuple = (None, None)


def _hold(role: str, key, handles: tuple, attach):
    """Worker: the ``role`` payload a task names by ``key``, built by
    ``attach()`` over the shared arrays ``handles`` once and kept,
    derived caches and all, until a task names another key.  The one it
    replaces is dropped first, then its segments the new handles do not
    name are detached (an owner may have unlinked them already)."""
    held = _held.get(role)
    if held is None or held[0] != key:
        if held is not None:
            named = {handle.segment for handle in handles}
            stale = [h for h in held[1] if h.segment not in named]
            del _held[role], held   # the views go before the mapping
            shm.detach(*stale)
        _held[role] = (key, handles, attach())
    return _held[role][2]


def _attach_yet(handles: YetHandles) -> YetTable:
    """Worker: the YET ``handles`` name, held by its staging (the arena
    segment its arrays live in: one per staging)."""
    named = tuple(handles.arrays.values())
    return _hold("yet", named, named, lambda: YetTable.from_handles(handles))


def _index_span(handles: YetHandles, t0: int, t1: int) -> None:
    """Worker, first call (:meth:`PooledDispatcher.warmup`): the event
    index of trials ``[t0, t1)`` of the YET ``handles`` name — what the
    span's first block task derives first — built on the held YET, so
    the task finds it built."""
    _attach_yet(handles).trial_block(t0, t1).event_index()


def _sweep_trials_handles(payload: bytes, t0: int, t1: int) -> None:
    """Worker: :func:`_sweep_trials` over trials ``[t0, t1)`` of the
    YET and the kernel that ``payload`` — the pickled ``(YET, kernel,
    output)`` handles — names, each held as zero-copy views (the YET by
    its staging, the kernel by stamp), written straight into those
    columns of the output, held by the handle itself; nothing comes
    back but completion (picklable task).  The bytes are unpickled only
    when they differ from the last task's."""
    global _last_payload
    if payload != _last_payload[0]:
        _last_payload = (payload, pickle.loads(payload))
    yet_handles, kernel_handles, output = _last_payload[1]
    kernel = _hold("kernel", kernel_handles.stamp,
                   tuple(kernel_handles.arrays.values()),
                   lambda: PortfolioKernel.from_handles(kernel_handles))
    out = _hold("output", output, (output,), output.attach)
    _sweep_trials(_attach_yet(yet_handles), kernel, t0, t1,
                  out=out[:, t0:t1])


class PooledDispatcher(Dispatcher):
    """Trial-block decomposition over the calling thread and a
    persistent pool of ``n_workers - 1`` workers.

    ``n_workers`` is the processors a run uses (``None``: the host's
    available parallelism): the caller sweeps span 0 itself while the
    pool's workers sweep spans 1 to ``n_workers - 1``.  The YET is staged
    in a shared arena on first use — its trial offsets and event ids —
    and rides every block task as handles, which the workers attach
    zero-copy and keep.  The staged YET is held by object: another
    ``YetTable`` is compared by :meth:`YetTable.fingerprint`, so only a
    trial set with *different content* is staged again (counted by
    :attr:`payload_ships`), into a fresh arena, the old one freed at
    once — swapping in an equal re-simulated YET costs one hash each and
    ships nothing.  The kernel travels as slab handles, packed once per
    kernel and attached once per worker, and the answer returns through
    an output slab the workers and the caller write.  A run of one span,
    a degraded pool and a host without shared memory sweep in process
    instead; see the module docstring.

    ``transport`` accepts ``"shm"`` only, its default, and selects
    nothing: the keyword stays for callers that still pass it.
    """

    name = "pooled"

    def __init__(self, n_workers: int | None = None,
                 transport: str = "shm",
                 telemetry: Telemetry | bool | None = None) -> None:
        if transport != "shm":
            raise ConfigurationError(
                f"unknown transport {transport!r}; the one transport is "
                "'shm'")
        super().__init__(telemetry)
        #: Processors a pooled run uses: the caller and the pool's workers.
        self.n_workers = max(1, n_workers if n_workers is not None
                             else available_parallelism())
        #: The pool shares the dispatcher's telemetry plane; a one-worker
        #: dispatcher never starts it.
        self.pool = WorkPool(max(1, self.n_workers - 1),
                             telemetry=self.telemetry)
        #: The staged YET, its arena and its handles.  One arena: a run
        #: holds the lock from staging through its last task, so no task
        #: outlives the YET it names but one abandoned past a deadline,
        #: whose answer nobody reads.
        self._yet: YetTable | None = None
        self._yet_arena: shm.SharedArena | None = None
        self._yet_handles: YetHandles | None = None
        self._m_payload_ships = self.telemetry.counter("pool.payload_ships")
        self._slab: shm.ShmSlab | None = None
        #: ``(kernel, handles)`` of the kernel the slab holds.
        self._staged: tuple | None = None
        #: Where the workers write the ``(L, n_trials)`` answer.
        self._output: shm.ShmSlab | None = None
        #: ``((yet, kernel, output handles), their pickle)``: the bytes
        #: every block task sends until one of the three changes.
        self._payload: tuple | None = None
        self._m_slab_generations = self.telemetry.gauge(
            "dispatch.slab.generations")
        self._m_slab_packs = self.telemetry.counter("dispatch.slab.packs")
        self._m_output_generations = self.telemetry.gauge(
            "dispatch.output_slab.generations")
        #: Guards the staged YET and the slabs: the YET's arena is
        #: check-then-mutate, the kernel slab is single-writer with the
        #: in-flight batch as its readers, and the output slab is the
        #: in-flight batch's to write until copied out — concurrent
        #: callers (the batcher executes outside its queue lock)
        #: serialise here.
        self._lock = threading.Lock()

    @property
    def payload_ships(self) -> int:
        """Times a YET was staged for the workers (the
        ``pool.payload_ships`` counter): once per distinct content, so a
        caller holding one trial set across runs sees 1."""
        return int(self._m_payload_ships.value)

    @property
    def degraded(self) -> bool:
        """Whether runs take the counted in-process fallback: the pool
        has degraded, or the host has no shared memory to stage on."""
        return self.pool.health.degraded or not shm.shm_available()

    @property
    def n_procs(self) -> int:  # type: ignore[override]
        # A degraded pool executes inline: admission control and the
        # planner must model serial throughput, not phantom workers.
        return 1 if self.degraded else self.n_workers

    @property
    def health(self) -> PoolHealth:
        """The shared pool's failure/recovery record."""
        return self.pool.health

    @property
    def transport_active(self) -> str:
        """``"shm"`` when the data plane will carry the next batch;
        ``"inline"`` when its spans run in process — a one-worker
        dispatcher, a degraded pool, or a host without shared memory."""
        return "inline" if self.n_procs <= 1 else "shm"

    def _in_process(self, yet: YetTable | StoredYet) -> bool:
        """Whether a run over ``yet`` sweeps on the calling thread alone:
        one span (one worker or one trial), a degraded pool, or a host
        without shared memory.  Any other run stages ``yet`` in shared
        memory, which only a ``YetTable`` can be: a stored YET is
        refused there, typed (its pooled splits are ROADMAP item
        9(b))."""
        if self.n_procs <= 1 or len(self.spans(yet)) <= 1:
            return True
        if not isinstance(yet, YetTable):
            raise ConfigurationError(
                f"a pooled run stages a YetTable, not a "
                f"{type(yet).__name__}: pooled splits of a stored YET are "
                f"ROADMAP item 9(b)")
        return False

    def _stage(self, yet: YetTable) -> YetHandles:
        """The handles of ``yet`` staged in shared memory, staging it
        (and freeing the YET staged before) unless it, or a table of
        equal content, is what is staged: the first staging hashes
        nothing, and a fingerprint is computed only to compare another
        table with the staged one.  The caller holds the lock."""
        if self._yet is not yet:
            if (self._yet is None
                    or self._yet.fingerprint() != yet.fingerprint()):
                self._yet = self._yet_handles = None
                if self._yet_arena is not None:
                    self._yet_arena.close()
                self._yet_arena = shm.SharedArena()
                self._yet_handles = yet.to_shared(self._yet_arena)
                self._m_payload_ships.inc()
            self._yet = yet
        return self._yet_handles

    def warmup(self, yet: YetTable | StoredYet) -> None:
        """Stage ``yet`` and fork the workers, each with one first call:
        worker ``i``, pinned to its CPU, attaches the staged YET and
        builds the event index of span ``i + 1`` — what its first block
        task would derive first — while the caller goes on (merges, the
        kernel build), so a cold run's block task finds it built.  The
        cost: a run with no by-event row leaves that index (4 B per
        occurrence of the span plus 8 B per event) unread in the
        worker, and a task sent before the call ends waits for it with
        its deadline running.  Workers already live are left as they are.  A run of
        one span, a degraded pool and a host without shared memory stage
        and fork nothing, and a ``StoredYet`` is refused (see
        :meth:`_in_process`)."""
        if self._in_process(yet):
            return          # nothing to spawn or stage
        with self._lock:
            handles = self._stage(yet)
            self.pool.ensure_started(first=[
                (_index_span, (handles, t0, t1))
                for t0, t1 in self.spans(yet)[1:]])

    def spans(self, yet: YetTable | StoredYet) -> tuple[tuple[int, int], ...]:
        """One span per processor (capped by trial count), pooled or
        degraded: span 0 runs on the caller, span ``i`` on worker
        ``i - 1``."""
        return trial_spans(yet.n_trials, self.n_workers)

    def run(self, kernel: PortfolioKernel, yet: YetTable | StoredYet,
            deadline_seconds: float | None = None) -> np.ndarray:
        transport = "inline" if self._in_process(yet) else "shm"
        with self.telemetry.span("dispatch.pooled", transport=transport):
            return super().run(kernel, yet, deadline_seconds)

    def _run(self, kernel: PortfolioKernel, yet: YetTable | StoredYet,
             deadline_seconds: float | None) -> np.ndarray:
        spans = self.spans(yet)
        if len(spans) > 1 and self.degraded:
            # Graceful degradation: a run the workers would have split
            # stays on the calling thread — the pool has failed
            # terminally too many consecutive times, or the host has no
            # shared memory to stage on — over the same trial blocks.
            # No slab packing, no handle ships, nothing left to break.
            self.pool.health.count("degraded_calls")
        if self._in_process(yet):
            return super()._run(kernel, yet, deadline_seconds)
        # One lock from staging through the last task: the staged YET
        # and both slabs belong to the in-flight batch (its readers',
        # its writers'), and a concurrent staging would free the YET
        # its tasks name.
        with self._lock:
            yet_handles = self._stage(yet)
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
            # output slab and returns nothing, the caller writes span
            # 0's, and the answer is copied out once every block is in.
            if self._output is None:
                self._output = shm.ShmSlab()
            output = self._output.reserve((kernel.n_layers, yet.n_trials))
            named = (yet_handles, self._staged[1], output)
            if self._payload is None or self._payload[0] != named:
                self._payload = (named, pickle.dumps(named))
            payload = self._payload[1]
            answer = output.attach()
            (t0, t1), rest = spans[0], spans[1:]
            timeouts = self.pool.health.totals["timeouts"]
            try:
                self.pool.starmap(
                    _sweep_trials_handles,
                    [(payload, a, b) for a, b in rest],
                    deadline_seconds=deadline_seconds,
                    meanwhile=lambda: _sweep_trials(
                        yet, kernel, t0, t1, out=answer[:, t0:t1]))
                return answer.copy()
            finally:
                if self.pool.health.totals["timeouts"] != timeouts:
                    # A worker wedged past its deadline was killed where
                    # it stood: the next run writes a fresh generation.
                    self._output.roll()
                self._m_output_generations.set(self._output.generations)

    def close(self) -> None:
        self.pool.close()
        with self._lock:
            self._staged = self._yet_handles = self._yet = None
            self._payload = None
            for owner in (self._slab, self._output, self._yet_arena):
                if owner is not None:
                    owner.close()
            self._slab = self._output = self._yet_arena = None
