"""Supervised work-pool wrapper (real processes when available, serial otherwise).

The pooled dispatcher (hence the multicore engine and serving) executes
tasks through this wrapper; MapReduce map tasks run on the engine's
inline dispatcher and never touch it.  On single-core or
fork-restricted hosts the pool degrades to serial execution with
identical results — parallelism in this library never changes answers,
only wall time.

Worker processes are spawned lazily on first parallel use and reused
across calls; :meth:`WorkPool.close` (or the context manager) is the
shutdown path.  A task names its whole input: a large payload rides
each task as shared-memory handles (:mod:`repro.hpc.shm`), a few
hundred bytes, which the worker attaches and keeps (see
:mod:`repro.serve.dispatch`), so any worker, a fresh one after a death
too, runs any task as it was submitted.

Failure semantics
-----------------
Tasks submitted through :meth:`map` / :meth:`starmap` are
**supervised** under a per-call :class:`TaskPolicy`:

- A worker death (``BrokenProcessPool``) loses only the tasks that had
  not finished: the executor is cycled and the lost tasks, which name
  their inputs, are resubmitted as they are after a jittered
  exponential backoff.  Tasks must therefore be idempotent — every task
  in this library is a pure function of its arguments, so re-execution
  is the MapReduce recovery story applied to the in-node pool.
- A batch that misses the policy's ``deadline_seconds`` is treated as a
  wedged pool: already-finished results are kept, the executor is shut
  down without waiting, and only the unfinished tasks are resubmitted.
- Exceptions *raised by a task* are retried only when they match the
  policy's ``retryable`` classes (transient-by-nature failures such as
  an injected :class:`~repro.hpc.faults.PoisonedPayloadError`);
  anything else is a genuine error and propagates unchanged.
- When one task exhausts ``max_retries`` the call fails terminally with
  a typed :class:`~repro.errors.ExecutionError` carrying the whole
  failure chain — never a bare executor traceback.
- After ``degrade_after`` *consecutive* terminal call failures the pool
  flips :attr:`PoolHealth.degraded` and every later call runs inline and
  serial: answers stay bit-identical, wall time gets worse, and the
  session planner stops charging this substrate as warm.
  :meth:`reset_health` is the operator's path back to pooled execution.

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
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.errors import ConfigurationError, ExecutionError
from repro.hpc import faults
from repro.obs import Telemetry

__all__ = ["PoolHealth", "TaskPolicy", "WorkPool", "available_parallelism"]


def available_parallelism() -> int:
    """Usable worker count on this host."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class TaskPolicy:
    """Per-call supervision contract for pooled task execution.

    Attributes
    ----------
    deadline_seconds:
        Wall-clock budget for one dispatch attempt of the call's batch
        (``None`` = no deadline).  A missed deadline keeps finished
        results, cycles the executor, and resubmits the rest — it is a
        *retry* trigger, not a terminal failure, until ``max_retries``
        runs out.
    max_retries:
        Resubmissions allowed **per task** beyond its first attempt.
    backoff_seconds:
        Base of the exponential backoff between retry cycles.
    backoff_jitter:
        Uniform jitter fraction added to each backoff sleep (decorrelates
        thundering-herd resubmission; drawn from the pool's seeded RNG so
        tests stay deterministic).
    retryable:
        Extra exception classes raised *by tasks* that supervision may
        retry.  Infrastructure failures (worker death, deadline) are
        always retryable and need not be listed.
    """

    deadline_seconds: float | None = None
    max_retries: int = 2
    backoff_seconds: float = 0.05
    backoff_jitter: float = 0.25
    retryable: tuple = (faults.PoisonedPayloadError,)

    def __post_init__(self) -> None:
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ConfigurationError(
                "deadline_seconds must be positive (or None)"
            )
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be non-negative")
        if self.backoff_seconds < 0 or self.backoff_jitter < 0:
            raise ConfigurationError("backoff must be non-negative")


class PoolHealth:
    """Observable record of one pool's failures and recoveries.

    Exposed as :attr:`WorkPool.health` and surfaced upward by the pooled
    dispatcher, the multicore engine, and the session — the "operational
    failure data as a first-class signal" the ML-for-ODA codesign paper
    argues for.

    The failure counts live in :attr:`totals`: supervision adds to them
    through :meth:`count`, they stay monotone for the life of the pool,
    and each is mirrored to the ``pool.<name>`` counter of the owning
    pool's :class:`~repro.obs.Telemetry` plane.  :meth:`snapshot` reads
    :attr:`totals`, so it holds on a disabled plane too.  The *state*
    (``degraded``, ``consecutive_failures``, ``last_error``) lives here
    as plain attributes; the degraded flag mirrors a ``pool.degraded``
    gauge plus ``pool.degraded`` / ``pool.recovered`` events on
    transitions, and :meth:`reset` clears the state only.
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

    def record_call_failure(self, error: BaseException,
                            degrade_after: int) -> None:
        self.count("call_failures")
        self.consecutive_failures += 1
        self.last_error = f"{type(error).__name__}: {error}"
        if self.consecutive_failures >= degrade_after:
            self.degraded = True

    def reset(self) -> None:
        """Forget the failure streak and leave degraded mode (the
        counters are history and keep counting)."""
        self.consecutive_failures = 0
        self.degraded = False
        self.last_error = None

    def snapshot(self) -> dict:
        """JSON-ready flat dict in the ``pool.*`` dot-key convention of
        :mod:`repro.obs` (benches and ops endpoints embed this)."""
        out = {f"pool.{name}": n for name, n in self.totals.items()}
        out["pool.consecutive_failures"] = self.consecutive_failures
        out["pool.degraded"] = self.degraded
        out["pool.last_error"] = self.last_error
        return out


def _noop(_i: int) -> None:
    """Warm-up barrier task (see :meth:`WorkPool.ensure_started`)."""


class WorkPool:
    """Map tasks over workers; serial when ``n_workers <= 1``.

    Parameters
    ----------
    n_workers:
        Desired workers; ``None`` means the host's available parallelism.
    policy:
        Default :class:`TaskPolicy` for calls that do not pass their own.
    degrade_after:
        Consecutive terminal call failures before the pool flips to
        degraded (inline serial) execution.
    seed:
        Seed for the backoff-jitter RNG (determinism for tests/benches).

    Notes
    -----
    Tasks must be picklable top-level callables when ``n_workers > 1``,
    and idempotent: supervision re-executes lost tasks (see the module
    docstring's failure semantics).  The process pool is created lazily
    on the first parallel call and reused until :meth:`close`;
    ``with WorkPool(...) as pool:`` closes it on exit.
    """

    def __init__(self, n_workers: int | None = None, *,
                 policy: TaskPolicy | None = None,
                 degrade_after: int = 3,
                 seed: int = 0,
                 telemetry: Telemetry | None = None) -> None:
        self.n_workers = n_workers if n_workers is not None else available_parallelism()
        if self.n_workers < 1:
            self.n_workers = 1
        if degrade_after < 1:
            raise ConfigurationError("degrade_after must be >= 1")
        self.policy = policy if policy is not None else TaskPolicy()
        self.degrade_after = degrade_after
        #: The pool's telemetry plane; a session passes its own so one
        #: scrape covers the whole stack, a standalone pool gets a
        #: private enabled plane.
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.health = PoolHealth(self.telemetry)
        self._m_faults_injected = self.telemetry.counter(
            "pool.faults_injected")
        self._m_call_seconds = self.telemetry.histogram("pool.call.seconds")
        self._executor: ProcessPoolExecutor | None = None
        #: Global task ordinal (fault plans key injections off this).
        self._task_seq = itertools.count()
        self._rng = random.Random(seed)

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
        now.  Serial pools (``n_workers == 1``) and degraded pools have
        nothing to start.
        """
        if self.n_workers > 1 and not self.health.degraded:
            list(self._executor_handle().map(_noop, range(self.n_workers)))

    def reset_health(self) -> None:
        """Forget failure history and leave degraded mode (operator path
        back to pooled execution once the underlying cause is fixed).
        The ``pool.*`` counters are history and are left as they are."""
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

    # -- mapping -----------------------------------------------------------

    def map(self, fn: Callable, items: Sequence,
            policy: TaskPolicy | None = None) -> list:
        """Apply ``fn`` to each item, preserving order (supervised)."""
        return self.starmap(fn, [(item,) for item in items], policy=policy)

    def starmap(self, fn: Callable, arg_tuples: Iterable[tuple],
                policy: TaskPolicy | None = None) -> list:
        """Apply ``fn(*args)`` per tuple, preserving order (supervised)."""
        tuples = list(arg_tuples)
        if self.n_workers == 1 or len(tuples) <= 1:
            return [fn(*args) for args in tuples]
        if self.health.degraded:
            self.health.count("degraded_calls")
            return [fn(*args) for args in tuples]
        return self._supervised(fn, tuples,
                                policy if policy is not None else self.policy)

    # -- supervision -------------------------------------------------------

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

    def _backoff(self, policy: TaskPolicy, cycle: int) -> None:
        if policy.backoff_seconds <= 0:
            return
        delay = min(policy.backoff_seconds * (2 ** cycle), 1.0)
        delay *= 1.0 + policy.backoff_jitter * self._rng.random()
        time.sleep(delay)

    def _supervised(self, fn, tuples, policy: TaskPolicy) -> list:
        """Run one batch under the supervision contract.

        Results are collected in submission order; a cycle keeps
        whatever finished and resubmits only the unfinished tasks, so a
        lost worker costs one re-execution of its in-flight tasks, never
        the whole sweep.
        """
        n = len(tuples)
        results: list = [None] * n
        pending = list(range(n))
        attempts = [0] * n
        failures: list[BaseException] = []
        cycle = 0
        self.health.count("calls")
        call_start = time.perf_counter()
        try:
            return self._supervised_loop(fn, tuples, policy, results,
                                         pending, attempts, failures, cycle)
        finally:
            self._m_call_seconds.observe(time.perf_counter() - call_start)

    def _supervised_loop(self, fn, tuples, policy, results, pending,
                         attempts, failures, cycle) -> list:
        while True:
            executor = self._executor_handle()
            futures = {}
            infra: BaseException | None = None
            for i in pending:
                attempts[i] += 1
                try:
                    futures[i] = self._submit_one(executor, fn, tuples[i])
                except BrokenExecutor as exc:
                    # Workers died during submission (e.g. killed at
                    # init): everything unsubmitted is lost this cycle.
                    self.health.count("worker_deaths")
                    failures.append(exc)
                    infra = exc
                    break
            start = time.perf_counter()
            still: list[int] = [i for i in pending if i not in futures]
            for i in pending:
                if i not in futures:
                    continue
                try:
                    if infra is not None:
                        # The executor is being abandoned; only harvest
                        # results that are already done.
                        timeout = 0.0
                    elif policy.deadline_seconds is None:
                        timeout = None
                    else:
                        timeout = max(
                            policy.deadline_seconds
                            - (time.perf_counter() - start), 0.0,
                        )
                    results[i] = futures[i].result(timeout=timeout)
                except (BrokenExecutor, _FuturesTimeout, TimeoutError) as exc:
                    if infra is None:
                        if isinstance(exc, BrokenExecutor):
                            self.health.count("worker_deaths")
                            infra = exc
                        else:
                            self.health.count("timeouts")
                            infra = TimeoutError(
                                f"batch deadline of "
                                f"{policy.deadline_seconds}s exceeded with "
                                f"{len(pending) - len(still)} tasks unfinished"
                            )
                        failures.append(infra)
                    futures[i].cancel()
                    still.append(i)
                except Exception as exc:
                    if not isinstance(exc, policy.retryable):
                        raise  # genuine task error: not supervision's to eat
                    self.health.count("task_faults")
                    failures.append(exc)
                    still.append(i)
            pending = still
            if not pending:
                self.health.record_success()
                return results
            exhausted = [i for i in pending
                         if attempts[i] > policy.max_retries]
            if exhausted:
                error = ExecutionError(
                    f"{len(exhausted)} task(s) failed terminally after "
                    f"{policy.max_retries} retr"
                    f"{'y' if policy.max_retries == 1 else 'ies'} "
                    f"(chain: {[type(f).__name__ for f in failures]})",
                    attempts=max(attempts[i] for i in exhausted),
                    failures=tuple(failures),
                )
                self.health.record_call_failure(error, self.degrade_after)
                if infra is not None:
                    self._abandon_executor()
                raise error
            self.health.count("retries", len(pending))
            if infra is not None:
                # Worker death or wedged batch: cycle the executor.
                self.health.count("executor_cycles")
                self._abandon_executor()
            self._backoff(policy, cycle)
            cycle += 1
