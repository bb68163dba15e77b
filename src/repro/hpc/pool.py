"""Supervised work pool: every task it is given runs on its workers.

The pooled dispatcher (hence the multicore engine and serving) executes
tasks through this wrapper; MapReduce map tasks run on the engine's
inline dispatcher and never touch it.  The pool only supervises: which
runs go to workers at all is the dispatcher's decision
(:mod:`repro.serve.dispatch`), which sweeps a run of one span, a run on
a degraded pool and a run on a host without shared memory in process —
parallelism in this library never changes answers, only wall time.

Placement
---------
The pool is ``n_workers`` forked processes, started lazily on first use
and reused across calls; :meth:`WorkPool.close` (or the context
manager) is the shutdown path.  Worker ``i`` owns a duplex pipe of its
own and is pinned (``os.sched_setaffinity``) to CPU ``(i + 1) mod k`` of
the ``k`` CPUs the parent may run on: the first is left to the calling
thread, which is never pinned and, in a pooled dispatcher's run, sweeps
span 0 itself (:meth:`WorkPool.starmap`'s ``meanwhile``) while worker
``i`` sweeps span ``i + 1`` — ``n`` processors, ``n - 1`` forks.  Where
the host has no affinity call the workers run unpinned.
:meth:`WorkPool.starmap` sends task ``i`` to worker ``i mod n_workers``,
one task in flight per worker, so a dispatcher's spans run one per
processor every call — no shared queue can hand two spans to one worker
— and, with no more processors than CPUs, no two share a CPU.  The
calling thread sends each worker its task, runs its own share, and then
waits, on every busy worker's pipe and process sentinel at once, for the
replies, which carry their task's index.

A task names its whole input: a large payload rides each task as
shared-memory handles (:mod:`repro.hpc.shm`), a few hundred bytes, which
the worker attaches and keeps (see :mod:`repro.serve.dispatch`), so any
worker, a fresh one after a death too, runs any task as it was
submitted.  A forked worker closes its copies of every worker pipe's
parent end (its own included), so the one process holding the parent
end of a pipe is the parent, and a worker whose parent closed its pipe
or died sees the end of it.

Failure semantics
-----------------
Tasks submitted through :meth:`WorkPool.starmap` are **supervised**.  A
call names only its deadline; the rest is decided here, as the module
constants :data:`MAX_RETRIES`, :data:`BACKOFF_SECONDS`,
:data:`BACKOFF_JITTER`, :data:`RETRYABLE` and :data:`DEGRADE_AFTER`.
Each attempt sends the tasks still pending and waits once, under the
call's ``deadline_seconds``:

- A worker death loses only that worker's unfinished tasks: the worker
  is replaced in its own slot, on its own CPU, and its lost tasks,
  which name their inputs, are resubmitted to the replacement as they
  are after a jittered exponential backoff; the other workers' answers
  are kept.  Tasks must therefore be idempotent — every task in this
  library is a pure function of its arguments, so re-execution is the
  MapReduce recovery story applied to the in-node pool.
- A worker still busy when the deadline passes is wedged: it is killed
  and replaced the same way, and only its unfinished tasks are
  resubmitted.
- Exceptions *raised by a task* are retried only when they are
  :data:`RETRYABLE` (transient-by-nature failures such as an injected
  :class:`~repro.hpc.faults.PoisonedPayloadError`); anything else is a
  genuine error and propagates unchanged, once every task in flight has
  replied (or been killed at the deadline), so no reply is left in a
  pipe for the next call to read.  So does whatever the caller's own
  share (``meanwhile``) raises; that share runs once, in the first
  attempt, and is never resubmitted — only worker tasks are supervised,
  and only they count as the task ordinals a fault plan names.
- When one task exhausts :data:`MAX_RETRIES` the call fails terminally
  with a typed :class:`~repro.errors.ExecutionError` carrying the whole
  failure chain — a death is a ``BrokenProcessPool`` there, a wedge a
  ``TimeoutError``.
- After :data:`DEGRADE_AFTER` *consecutive* terminal call failures the
  pool flips :attr:`PoolHealth.degraded`, and the pooled dispatcher
  sweeps every later run in process: answers stay bit-identical, wall
  time gets worse, and the session planner stops charging this
  substrate as warm.  :meth:`WorkPool.reset_health` is the operator's
  path back to pooled execution.

:attr:`WorkPool.health` (a :class:`PoolHealth`) records deaths, retries,
timeouts, replacements, and the degraded flag for callers up the stack.
Deterministic fault injection for all of the above lives in
:mod:`repro.hpc.faults` and is consulted only when a plan is installed.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import multiprocessing
import os
import random
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import wait
from typing import Callable, Iterable

from repro.errors import ConfigurationError, ExecutionError
from repro.hpc import faults
from repro.obs import Telemetry

__all__ = ["PoolHealth", "WorkPool", "available_parallelism"]

#: Resubmissions allowed **per task** beyond its first attempt.
MAX_RETRIES = 2
#: Base of the exponential backoff between retry cycles (capped at 1 s).
BACKOFF_SECONDS = 0.05
#: Uniform jitter fraction added to each backoff sleep (decorrelates
#: thundering-herd resubmission; drawn from the pool's own RNG, seeded,
#: so a run's sleeps repeat).
BACKOFF_JITTER = 0.25
#: Exception classes raised *by tasks* that supervision retries.  A
#: worker death and a missed deadline are always retried.
RETRYABLE = (faults.PoisonedPayloadError,)
#: Consecutive terminal call failures before the pool degrades.
DEGRADE_AFTER = 3

#: Seconds :meth:`WorkPool.close` waits for a stopped worker to exit
#: before killing it.
_JOIN_SECONDS = 1.0

_FORK = multiprocessing.get_context("fork")

#: The parent end of every live worker's pipe, of every pool in this
#: process: a forked worker closes its copies of them all (:func:`_serve`).
_PARENT_ENDS: set = set()


def available_parallelism() -> int:
    """Usable worker count on this host."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def _worker_cpus(n_workers: int) -> list:
    """The CPU each worker slot is pinned to: ``(i + 1) mod k`` of the
    ``k`` CPUs this process may run on — the first is the caller's — or
    ``None`` (unpinned) where the host has no affinity call."""
    if not hasattr(os, "sched_setaffinity"):  # pragma: no cover - non-Linux
        return [None] * n_workers
    cpus = sorted(os.sched_getaffinity(0))
    return [cpus[(i + 1) % len(cpus)] for i in range(n_workers)]


class PoolHealth:
    """Observable record of one pool's failures and recoveries.

    Exposed as :attr:`WorkPool.health` and surfaced upward by the pooled
    dispatcher, the multicore engine, and the session — the "operational
    failure data as a first-class signal" the ML-for-ODA codesign paper
    argues for.

    The failure counts live in :attr:`totals`: supervision adds to them
    through :meth:`count`, they stay monotone for the life of the pool,
    and each is mirrored to the ``pool.<name>`` counter of the owning
    pool's :class:`~repro.obs.Telemetry` plane, the one place a caller
    reads them.  The *state* (``degraded``, ``consecutive_failures``,
    ``last_error``) lives here as plain attributes; the degraded flag
    mirrors a ``pool.degraded`` gauge plus ``pool.degraded`` /
    ``pool.recovered`` events on transitions, and :meth:`reset` clears
    the state only.
    """

    #: Registry counters, exported as ``pool.<name>``
    #: (``executor_cycles`` counts the attempts that replaced a worker).
    _COUNTER_FIELDS = ("worker_deaths", "timeouts", "retries",
                       "task_faults", "executor_cycles", "calls",
                       "call_failures", "degraded_calls")

    def __init__(self, telemetry: Telemetry | None = None) -> None:
        self._tel = telemetry if telemetry is not None else Telemetry()
        self._counters = {name: self._tel.counter(f"pool.{name}")
                          for name in self._COUNTER_FIELDS}
        #: The same counts as plain ints, kept on a disabled plane too:
        #: supervision's callers act on them (a pooled dispatcher rolls
        #: its output slab when ``timeouts`` moved).
        self.totals = dict.fromkeys(self._COUNTER_FIELDS, 0)
        self._degraded_gauge = self._tel.gauge("pool.degraded")
        self._degraded = False
        self.consecutive_failures = 0
        self.last_error: str | None = None

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the ``pool.<name>`` counter."""
        self.totals[name] += n
        self._counters[name].inc(n)

    @property
    def degraded(self) -> bool:
        return self._degraded

    @degraded.setter
    def degraded(self, value: bool) -> None:
        value = bool(value)
        if value and not self._degraded:
            self._tel.event("pool.degraded", last_error=self.last_error,
                            consecutive_failures=self.consecutive_failures)
        elif self._degraded and not value:
            self._tel.event("pool.recovered")
        self._degraded = value
        self._degraded_gauge.set(1.0 if value else 0.0)

    def record_success(self) -> None:
        self.consecutive_failures = 0

    def record_call_failure(self, error: BaseException) -> None:
        self.count("call_failures")
        self.consecutive_failures += 1
        self.last_error = f"{type(error).__name__}: {error}"
        if self.consecutive_failures >= DEGRADE_AFTER:
            self.degraded = True

    def reset(self) -> None:
        """Forget the failure streak and leave degraded mode (the
        counters are history and keep counting)."""
        self.consecutive_failures = 0
        self.degraded = False
        self.last_error = None




def _serve(conn, cpu: int | None) -> None:
    """A worker's life: close the inherited parent ends, pin to ``cpu``,
    then run each ``(index, fn, args)`` the pipe brings and reply
    ``(index, True, result)`` or ``(index, False, exception)``, until
    ``None`` or the end of the pipe."""
    for end in _PARENT_ENDS:
        end.close()
    _PARENT_ENDS.clear()
    if cpu is not None:
        with contextlib.suppress(OSError):   # a CPU taken away since
            os.sched_setaffinity(0, (cpu,))
    while True:
        try:
            task = conn.recv()
        except EOFError:
            return
        if task is None:
            return
        index, fn, args = task
        try:
            reply = (index, True, fn(*args))
        except Exception as exc:
            reply = (index, False, exc)
        try:
            conn.send(reply)
        except Exception as exc:    # a result or an error that won't pickle
            conn.send((index, False, RuntimeError(
                f"task {index}'s reply did not pickle: {exc!r}")))


class _Worker:
    """One slot's forked process and the parent end of its pipe."""

    __slots__ = ("process", "conn")

    def __init__(self, cpu: int | None) -> None:
        self.conn, child = _FORK.Pipe()
        _PARENT_ENDS.add(self.conn)
        try:
            self.process = _FORK.Process(target=_serve, args=(child, cpu),
                                         daemon=True)
            self.process.start()
        except BaseException:
            self.retire()
            raise
        finally:
            child.close()

    def retire(self) -> None:
        """Close the pipe and reap the process, killing it first if it
        still runs (a worker wedged past a deadline, or one that would
        not stop)."""
        _PARENT_ENDS.discard(self.conn)
        self.conn.close()
        process = getattr(self, "process", None)
        if process is not None and process.pid is not None:
            if process.is_alive():
                process.kill()
            process.join()


class WorkPool:
    """Run tasks on pinned worker processes, supervised.

    Parameters
    ----------
    n_workers:
        Desired workers; ``None`` means the host's available parallelism.
    telemetry:
        The plane the ``pool.*`` metrics land on; a session passes its
        own so one scrape covers the whole stack, a standalone pool gets
        a private enabled plane.

    Notes
    -----
    Tasks must be picklable top-level callables, and idempotent:
    supervision re-executes lost tasks (see the module docstring's
    failure semantics).  The workers are forked on the first call and
    reused until :meth:`close`; ``with WorkPool(...) as pool:`` closes
    them on exit.  Calls from several threads take turns.
    """

    def __init__(self, n_workers: int | None = None, *,
                 telemetry: Telemetry | None = None) -> None:
        self.n_workers = max(1, n_workers if n_workers is not None
                             else available_parallelism())
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.health = PoolHealth(self.telemetry)
        self._m_faults_injected = self.telemetry.counter(
            "pool.faults_injected")
        self._m_call_seconds = self.telemetry.histogram("pool.call.seconds")
        #: Slot ``i``'s CPU, fixed for the pool's life: a replacement
        #: runs where the worker it replaces ran.
        self._cpus = _worker_cpus(self.n_workers)
        #: One :class:`_Worker` per slot (``None``: to be forked), or
        #: ``None`` until the pool starts.
        self._workers: list | None = None
        self._lock = threading.Lock()
        #: Global task ordinal (fault plans key injections off this).
        self._task_seq = itertools.count()
        self._rng = random.Random(0)

    # -- lifecycle ---------------------------------------------------------

    @property
    def started(self) -> bool:
        """Whether worker processes are currently live.

        Planners read this to decide whether a pooled substrate still
        owes its spawn cost or is warm and effectively free to enter.
        """
        return self._workers is not None

    def _start(self) -> list:
        """The workers, forking any slot that has none (every slot on
        first use, a dead or wedged worker's slot after it)."""
        if self._workers is None:
            self._workers = [None] * self.n_workers
        for slot, worker in enumerate(self._workers):
            if worker is None:
                self._workers[slot] = _Worker(self._cpus[slot])
        return self._workers

    def ensure_started(self) -> None:
        """Fork the worker processes now (idempotent warm-up).

        A latency-sensitive caller (the serving layer's pooled
        dispatcher) pays the fork here, outside any request's SLO
        window, instead of inside the first batch.
        """
        with self._lock:
            self._start()

    def reset_health(self) -> None:
        """Forget failure history and leave degraded mode (operator path
        back to pooled execution).  The ``pool.*`` counters are history
        and are left as they are."""
        self.health.reset()

    def close(self) -> None:
        """Stop and reap the worker processes (idempotent).

        Every worker is told to stop at once, then each is joined; one
        that has not exited within a second is killed.
        """
        with self._lock:
            workers = [w for w in self._workers or () if w is not None]
            self._workers = None
            for worker in workers:
                with contextlib.suppress(OSError):
                    worker.conn.send(None)
            for worker in workers:
                worker.process.join(_JOIN_SECONDS)
                worker.retire()

    def __enter__(self) -> "WorkPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- supervised execution ----------------------------------------------

    def starmap(self, fn: Callable, arg_tuples: Iterable[tuple],
                deadline_seconds: float | None = None,
                meanwhile: Callable[[], None] | None = None) -> list:
        """``[fn(*args) for args in arg_tuples]``, task ``i`` on worker
        ``i mod n_workers``.

        ``deadline_seconds`` bounds each attempt, from its first send
        (``None`` = no deadline): a missed deadline keeps the finished
        results, replaces the wedged workers and resubmits their tasks —
        a retry, not a terminal failure, until a task's
        :data:`MAX_RETRIES` run out.  A death likewise costs one
        re-execution of the dead worker's unfinished tasks, never the
        whole batch.  ``meanwhile`` is the caller's own share: called
        once on the calling thread as soon as the first attempt's tasks
        are sent, before any reply is awaited; what it raises is raised
        once every reply in flight is read.
        """
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise ConfigurationError(
                "deadline_seconds must be positive (or None)")
        tuples = list(arg_tuples)
        results: list = [None] * len(tuples)
        pending = list(range(len(tuples)))
        attempts = [0] * len(tuples)
        failures: list[BaseException] = []
        self.health.count("calls")
        call_start = time.perf_counter()
        try:
            with self._lock:
                for cycle in itertools.count():
                    for i in pending:
                        attempts[i] += 1
                    pending = self._attempt(fn, tuples, pending, results,
                                            failures, deadline_seconds,
                                            meanwhile)
                    meanwhile = None
                    if not pending:
                        self.health.record_success()
                        return results
                    exhausted = [i for i in pending
                                 if attempts[i] > MAX_RETRIES]
                    if exhausted:
                        error = ExecutionError(
                            f"{len(exhausted)} task(s) failed terminally "
                            f"after {MAX_RETRIES} retr"
                            f"{'y' if MAX_RETRIES == 1 else 'ies'} (chain: "
                            f"{[type(f).__name__ for f in failures]})",
                            attempts=max(attempts[i] for i in exhausted),
                            failures=tuple(failures),
                        )
                        self.health.record_call_failure(error)
                        raise error
                    self.health.count("retries", len(pending))
                    time.sleep(min(BACKOFF_SECONDS * 2 ** cycle, 1.0)
                               * (1.0 + BACKOFF_JITTER * self._rng.random()))
        finally:
            self._m_call_seconds.observe(time.perf_counter() - call_start)

    def _attempt(self, fn: Callable, tuples: list, pending: list,
                 results: list, failures: list,
                 deadline_seconds: float | None,
                 meanwhile: Callable[[], None] | None) -> list:
        """One attempt at the ``pending`` tasks: each worker is sent its
        tasks one at a time, ``meanwhile`` (if any) runs on the calling
        thread, and one wait on every busy worker's pipe and sentinel
        collects the replies until all are in or the deadline passes.
        Fills ``results``, appends to ``failures`` what was lost and
        why, and returns the lost task indices, sorted: those of a dead
        or wedged worker (which is replaced) and the tasks that raised a
        :data:`RETRYABLE` error.  A task's other error is raised
        once nothing is left in flight."""
        workers = self._start()
        n = len(workers)
        queues = [collections.deque() for _ in range(n)]
        plan = faults.active_plan()
        for i in pending:
            task = (i, fn, tuples[i])
            spec = None if plan is None else plan.take(next(self._task_seq))
            if spec is not None:
                self._m_faults_injected.inc()
                self.telemetry.event("fault.injected", kind=spec.kind,
                                     task_seq=spec.task_seq)
                task = (i, faults.apply_fault, (spec, fn, *tuples[i]))
            queues[i % n].append(task)
        lost: list[int] = []
        error: BaseException | None = None
        busy: dict[int, int] = {}        # slot -> the index it is running
        replaced = 0

        def lose(slot: int) -> None:
            # The worker goes; the next attempt forks its replacement,
            # in its slot and so on its CPU.
            nonlocal replaced
            lost.append(busy.pop(slot))
            lost.extend(task[0] for task in queues[slot])
            queues[slot].clear()
            workers[slot].retire()
            workers[slot] = None
            replaced += 1

        def feed(slot: int) -> None:
            # Once a task has raised, nothing more is sent.
            if queues[slot] and error is None:
                task = queues[slot].popleft()
                busy[slot] = task[0]
                try:
                    workers[slot].conn.send(task)
                except OSError as exc:   # the worker died between calls
                    self.health.count("worker_deaths")
                    failures.append(BrokenProcessPool(
                        f"worker {slot} is gone: {exc}"))
                    lose(slot)

        end = (None if deadline_seconds is None
               else time.monotonic() + deadline_seconds)
        try:
            for slot in range(n):
                feed(slot)
            if meanwhile is not None:
                try:
                    meanwhile()
                except Exception as exc:
                    # Raised below, once no reply is left in a pipe.
                    error = exc
            while busy:
                ready = set(wait(
                    [w for slot in busy
                     for w in (workers[slot].conn,
                               workers[slot].process.sentinel)],
                    None if end is None else max(0.0, end - time.monotonic())))
                if not ready:
                    break
                for slot in list(busy):
                    worker = workers[slot]
                    if worker.conn in ready:
                        try:
                            index, ok, value = worker.conn.recv()
                        except (EOFError, OSError):
                            pass        # died: its sentinel is ready too
                        else:
                            del busy[slot]
                            if ok:
                                results[index] = value
                            elif isinstance(value, RETRYABLE):
                                self.health.count("task_faults")
                                failures.append(value)
                                lost.append(index)
                            elif error is None:
                                # Not supervision's to eat: raised
                                # below, once every pipe is drained.
                                error = value
                            feed(slot)
                            continue
                    if worker.process.sentinel in ready or worker.conn in ready:
                        lose(slot)
                        self.health.count("worker_deaths")
                        failures.append(BrokenProcessPool(
                            f"worker {slot} (pid {worker.process.pid}) died "
                            f"with exit code {worker.process.exitcode}"))
        except BaseException:
            # A task that would not pickle, or an interrupt: no busy
            # worker's reply may reach the next call.
            for slot in list(busy):
                lose(slot)
            raise
        if busy:
            # Past the deadline: every worker still busy is wedged.
            self.health.count("timeouts")
            failures.append(TimeoutError(
                f"batch deadline of {deadline_seconds}s exceeded with "
                f"{len(busy)} worker(s) busy"))
            for slot in list(busy):
                lose(slot)
        if replaced:
            self.health.count("executor_cycles")
        if error is not None:
            raise error
        return sorted(lost)
