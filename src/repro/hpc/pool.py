"""Supervised work pool: every task it is given runs on its workers.

The pooled dispatcher (hence the multicore engine and serving) executes
tasks through this wrapper; MapReduce map tasks run on the engine's
inline dispatcher and never touch it.  The pool only supervises: which
runs go to workers at all is the dispatcher's decision
(:mod:`repro.serve.dispatch`), which sweeps a run of one span, a run on
a degraded pool and a run on a host without shared memory in process —
parallelism in this library never changes answers, only wall time.

Worker processes are spawned lazily on first use and reused across
calls; :meth:`WorkPool.close` (or the context manager) is the shutdown
path.  A task names its whole input: a large payload rides each task as
shared-memory handles (:mod:`repro.hpc.shm`), a few hundred bytes, which
the worker attaches and keeps (see :mod:`repro.serve.dispatch`), so any
worker, a fresh one after a death too, runs any task as it was
submitted.

Failure semantics
-----------------
Tasks submitted through :meth:`WorkPool.starmap` are **supervised**.  A
call names only its deadline; the rest is decided here, as the module
constants :data:`MAX_RETRIES`, :data:`BACKOFF_SECONDS`,
:data:`BACKOFF_JITTER`, :data:`RETRYABLE` and :data:`DEGRADE_AFTER`:

- A worker death (``BrokenProcessPool``) loses only the tasks that had
  not finished: the executor is cycled and the lost tasks, which name
  their inputs, are resubmitted as they are after a jittered
  exponential backoff.  Tasks must therefore be idempotent — every task
  in this library is a pure function of its arguments, so re-execution
  is the MapReduce recovery story applied to the in-node pool.
- A batch that misses the call's ``deadline_seconds`` is treated as a
  wedged pool: already-finished results are kept, the executor is shut
  down without waiting, and only the unfinished tasks are resubmitted.
- Exceptions *raised by a task* are retried only when they are
  :data:`RETRYABLE` (transient-by-nature failures such as an injected
  :class:`~repro.hpc.faults.PoisonedPayloadError`); anything else is a
  genuine error and propagates unchanged.
- When one task exhausts :data:`MAX_RETRIES` the call fails terminally
  with a typed :class:`~repro.errors.ExecutionError` carrying the whole
  failure chain — never a bare executor traceback.
- After :data:`DEGRADE_AFTER` *consecutive* terminal call failures the
  pool flips :attr:`PoolHealth.degraded`, and the pooled dispatcher
  sweeps every later run in process: answers stay bit-identical, wall
  time gets worse, and the session planner stops charging this
  substrate as warm.  :meth:`WorkPool.reset_health` is the operator's
  path back to pooled execution.

:attr:`WorkPool.health` (a :class:`PoolHealth`) records deaths, retries,
timeouts, cycles, and the degraded flag for callers up the stack.
Deterministic fault injection for all of the above lives in
:mod:`repro.hpc.faults` and is consulted only when a plan is installed.
"""

from __future__ import annotations

import itertools
import os
import random
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, wait
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


def available_parallelism() -> int:
    """Usable worker count on this host."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


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

    #: Registry counters, exported as ``pool.<name>``.
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


def _noop(_i: int) -> None:
    """Warm-up barrier task (see :meth:`WorkPool.ensure_started`)."""


class WorkPool:
    """Run tasks on worker processes, supervised.

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
    failure semantics).  The process pool is created lazily on the
    first call and reused until :meth:`close`;
    ``with WorkPool(...) as pool:`` closes it on exit.
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
        self._executor: ProcessPoolExecutor | None = None
        #: Global task ordinal (fault plans key injections off this).
        self._task_seq = itertools.count()
        self._rng = random.Random(0)

    # -- lifecycle ---------------------------------------------------------

    def _executor_handle(self) -> ProcessPoolExecutor:
        """The persistent executor, (re)built lazily.

        A broken executor (a worker died mid-task) is cycled, so a lost
        worker costs one call, not the pool's lifetime.
        """
        if self._executor is not None and getattr(self._executor, "_broken",
                                                  False):
            self.close()
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.n_workers)
        return self._executor

    @property
    def started(self) -> bool:
        """Whether worker processes are currently live.

        Planners read this to decide whether a pooled substrate still
        owes its spawn cost or is warm and effectively free to enter.
        """
        return self._executor is not None

    def ensure_started(self) -> None:
        """Pre-spawn the worker processes (idempotent warm-up).

        Worker spawn costs tens to hundreds of milliseconds — a
        latency-sensitive caller (the serving layer's pooled dispatcher)
        pays it here, outside any request's SLO window, instead of
        inside the first batch.  The executor alone is not enough —
        ``ProcessPoolExecutor`` forks lazily on submission — so a round
        of no-op barrier tasks forces the processes to actually start
        now.
        """
        list(self._executor_handle().map(_noop, range(self.n_workers)))

    def reset_health(self) -> None:
        """Forget failure history and leave degraded mode (operator path
        back to pooled execution).  The ``pool.*`` counters are history
        and are left as they are."""
        self.health.reset()

    def close(self) -> None:
        """Shut down worker processes (idempotent).

        A *broken* executor is shut down with ``wait=False`` and its
        pending futures cancelled: there are no live workers left to
        wait on, and joining a dead pool's manager thread while it still
        holds queued work is how a session ``close()`` used to hang.
        """
        if self._executor is not None:
            broken = bool(getattr(self._executor, "_broken", False))
            self._executor.shutdown(wait=not broken, cancel_futures=broken)
            self._executor = None

    def _abandon_executor(self) -> None:
        """Drop the executor without waiting (supervision's cycle path).

        Used when the pool is broken *or wedged past a deadline*: a
        worker stuck in a slow task must not be joined — the fresh
        executor takes over and the stragglers exit when their queue
        drains.
        """
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "WorkPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- supervised execution ----------------------------------------------

    def _submit_one(self, executor, fn, args):
        """Submit one task attempt, applying any scheduled fault."""
        spec = None
        plan = faults.active_plan()
        if plan is not None:
            spec = plan.take(next(self._task_seq))
        if spec is not None:
            self._m_faults_injected.inc()
            self.telemetry.event("fault.injected", kind=spec.kind,
                                 task_seq=spec.task_seq)
            return executor.submit(faults.apply_fault, spec, fn, *args)
        return executor.submit(fn, *args)

    def starmap(self, fn: Callable, arg_tuples: Iterable[tuple],
                deadline_seconds: float | None = None) -> list:
        """``[fn(*args) for args in arg_tuples]``, each task on a worker.

        ``deadline_seconds`` bounds each attempt's wait (``None`` = no
        deadline): a missed deadline keeps the finished results, cycles
        the executor and resubmits the rest — a retry, not a terminal
        failure, until a task's :data:`MAX_RETRIES` run out.  A cycle
        resubmits only the unfinished tasks, so a lost worker costs one
        re-execution of its in-flight tasks, never the whole batch.
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
            for cycle in itertools.count():
                executor = self._executor_handle()
                submitted = []
                infra: BaseException | None = None
                for i in pending:
                    attempts[i] += 1
                    try:
                        submitted.append(
                            (i, self._submit_one(executor, fn, tuples[i])))
                    except BrokenExecutor as exc:
                        # Workers died during submission (e.g. killed at
                        # init): everything unsubmitted is lost this
                        # cycle, and only what is done already is kept.
                        infra = exc
                        break
                done = wait([f for _, f in submitted],
                            timeout=0.0 if infra else deadline_seconds).done
                lost = pending[len(submitted):]
                unfinished = 0
                for i, future in submitted:
                    if future not in done:
                        future.cancel()
                        unfinished += 1
                        lost.append(i)
                        continue
                    try:
                        results[i] = future.result()
                    except BrokenExecutor as exc:
                        infra = infra or exc
                        lost.append(i)
                    except RETRYABLE as exc:
                        self.health.count("task_faults")
                        failures.append(exc)
                        lost.append(i)
                    # any other exception is a genuine task error and
                    # propagates as is: not supervision's to eat
                if infra is not None:
                    self.health.count("worker_deaths")
                elif unfinished:
                    self.health.count("timeouts")
                    infra = TimeoutError(
                        f"batch deadline of {deadline_seconds}s exceeded "
                        f"with {unfinished} tasks unfinished")
                if infra is not None:
                    failures.append(infra)
                pending = lost
                if not pending:
                    self.health.record_success()
                    return results
                exhausted = [i for i in pending if attempts[i] > MAX_RETRIES]
                if exhausted:
                    error = ExecutionError(
                        f"{len(exhausted)} task(s) failed terminally after "
                        f"{MAX_RETRIES} retr"
                        f"{'y' if MAX_RETRIES == 1 else 'ies'} "
                        f"(chain: {[type(f).__name__ for f in failures]})",
                        attempts=max(attempts[i] for i in exhausted),
                        failures=tuple(failures),
                    )
                    self.health.record_call_failure(error)
                    if infra is not None:
                        self._abandon_executor()
                    raise error
                self.health.count("retries", len(pending))
                if infra is not None:
                    # Worker death or wedged batch: cycle the executor.
                    self.health.count("executor_cycles")
                    self._abandon_executor()
                time.sleep(min(BACKOFF_SECONDS * 2 ** cycle, 1.0)
                           * (1.0 + BACKOFF_JITTER * self._rng.random()))
        finally:
            self._m_call_seconds.observe(time.perf_counter() - call_start)
