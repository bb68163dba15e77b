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
The pool is ``n_workers`` processes, started lazily on first use and
reused across calls; :meth:`WorkPool.close` (or the context manager) is
the shutdown path.  Worker ``i`` owns a duplex pipe of its own and is
pinned (``os.sched_setaffinity``) to CPU ``(i + 1) mod k`` of the ``k``
CPUs the parent may run on: the first is left to the calling thread,
which is never pinned and, in a pooled dispatcher's run, sweeps span 0
itself (:meth:`WorkPool.starmap`'s ``meanwhile``) while worker ``i``
sweeps span ``i + 1`` — ``n`` processors, ``n - 1`` workers.  Where the
host has no affinity call the workers run unpinned.
:meth:`WorkPool.starmap` sends task ``i`` to worker ``i mod n_workers``,
one task in flight per worker, so a dispatcher's spans run one per
processor every call — no shared queue can hand two spans to one worker
— and, with no more processors than CPUs, no two share a CPU.  The
calling thread sends each worker its task, runs its own share, and then
waits, on every busy worker's pipe and pidfd at once, for the
replies.

Where workers come from
-----------------------
No worker is forked by the caller.  ``import repro`` ends by forking
one small *template* process (:func:`fork_template`), after
:mod:`repro.serve.dispatch` and the rest of the library are imported
and before any YET, portfolio or shared-memory segment exists; every
worker, a replacement too, is forked by the template, which sends the
caller the parent end of the worker's pipe and a pidfd of the worker
over a Unix socket (``socket.send_fds``).  So no worker shares the
caller's heap, and the caller's writes after the forks (merges, the
kernel build, its cold sweep of span 0) pay no copy-on-write.  Forking
the template costs ``import repro`` ≈ 3.5 ms: on a 2-vCPU container
``python -c "import repro"`` read 0.462 s before it and 0.478 s after
(medians of 40 interleaved runs, inside their quartiles' spread).  A
worker is the template's child: ``os.getppid()`` in a task is the
template's pid, ``multiprocessing.active_children()`` lists no worker,
and a worker's pid is read off the pool (``pool._workers[i].pid``).

A worker may be forked with one *first call*
(:meth:`WorkPool.ensure_started`'s ``first``): a pickled ``(fn, args)``
that the caller sends the template beside the CPUs, that the template
forwards as those bytes (it never unpickles one, so it maps nothing a
call names), and that the worker makes, pinned, before it reads its
pipe — while the caller goes on.  The pooled dispatcher's warm-up sends
each worker the event index of its span to build this way, so the
worker's first block task finds it built (see
:meth:`repro.serve.dispatch.PooledDispatcher.warmup`).  A first call
answers no one: what it returns is dropped, and what it raises is
swallowed and not counted yet (ROADMAP item 8(a)) — the worker serves on
and its first task does the work itself.  A task sent meanwhile waits in
the pipe for the call to end.  A replacement makes no first call.

The template exits at the end of its socket — when its caller exits,
however — and a worker at the end of its pipe, of which it holds the
only copy of its end (the caller holds the only copy of the other), so
no process outlives its caller.  A process that inherits a template it
did not fork (a user's ``fork``, or a worker whose task opens a pool)
leaves the inherited socket alone, the owner being checked by pid, and
forks a template of its own on first use; so does a process whose
template is gone, or one that imported the library while other threads
ran (the fork is put off until a pool first starts).

A worker finds a task's function as the caller would: it takes the
caller's ``sys.path`` and working directory when it is forked, and a
module half-imported when the template was forked (the one whose
import of ``repro`` forked it: a test module, ``conftest``, a benchmark
harness) is imported afresh in the worker when a task names it.  A
worker sees each module as imported, not as the caller changed it since
(a patched attribute).  A task defined in a script's ``__main__`` after
that script's ``import repro`` cannot be found by a worker: the call
raises the worker's ``AttributeError``; define such a task in an
importable module.

A task names its whole input: a large payload rides each task as
shared-memory handles (:mod:`repro.hpc.shm`), a few hundred bytes, which
the worker attaches and keeps (see :mod:`repro.serve.dispatch`), so any
worker, a fresh one after a death too, runs any task as it was
submitted.

Failure semantics
-----------------
Tasks submitted through :meth:`WorkPool.starmap` are **supervised**.  A
call names only its deadline; the rest is decided here, as the module
constants :data:`MAX_RETRIES` and :data:`DEGRADE_AFTER`.  Each attempt
sends the tasks still pending and waits once, under the call's
``deadline_seconds``; the next attempt follows at once:

- A worker death loses only that worker's unfinished tasks: the worker
  is replaced in its own slot, on its own CPU, by the template, and its
  lost tasks, which name their inputs, are resubmitted to the
  replacement as they are; the other workers' answers are kept.  Tasks
  must therefore be idempotent — every task in this library is a pure
  function of its arguments, so re-execution is the MapReduce recovery
  story applied to the in-node pool.
- A worker still busy when the deadline passes is wedged: it is killed
  and replaced the same way, and only its unfinished tasks are
  resubmitted.
- An exception *raised by a task* is a genuine error, never retried:
  it propagates unchanged, once every task in flight has replied (or
  been killed at the deadline), so no reply is left in a pipe for the
  next call to read.  So does whatever the caller's own
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
import os
import pickle
import signal
import socket
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import Connection, wait
from typing import Callable, Iterable

from repro.errors import ConfigurationError, ExecutionError
from repro.hpc import faults
from repro.obs import Telemetry

__all__ = ["PoolHealth", "WorkPool", "available_parallelism"]

#: Resubmissions allowed **per task** beyond its first attempt: a task
#: is resubmitted when its worker died or missed the deadline.
MAX_RETRIES = 2
#: Consecutive terminal call failures before the pool degrades.
DEGRADE_AFTER = 3

#: Seconds :meth:`WorkPool.close` waits for a stopped worker to exit
#: before killing it.
_JOIN_SECONDS = 1.0
#: Bytes a request to the template may take (``sys.path`` rides it).
_REQUEST_BYTES = 1 << 20
#: Descriptors received from the template are not inherited by ``exec``.
_CLOEXEC = getattr(socket, "MSG_CMSG_CLOEXEC", 0)


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
                       "executor_cycles", "calls", "call_failures",
                       "degraded_calls")

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


def _serve(conn: Connection, cpu: int | None, first: bytes | None) -> None:
    """A worker's life: pin to ``cpu``, make the ``first`` call (pickled
    ``(fn, args)``, if any), then run each ``(fn, args)`` the pipe
    brings and reply ``(True, result)`` or ``(False, exception)``, until
    ``None`` or the end of the pipe.  A task that will not unpickle here
    (a function this process cannot find) is answered with the error it
    raised, like a task that raised it.  The first call has no caller to
    answer: what it returns is dropped, and what it raises is
    swallowed."""
    if cpu is not None:
        with contextlib.suppress(OSError):   # a CPU taken away since
            os.sched_setaffinity(0, (cpu,))
    if first is not None:
        with contextlib.suppress(Exception):
            fn, args = pickle.loads(first)
            fn(*args)
    while True:
        try:
            message = conn.recv_bytes()
        except EOFError:
            return
        try:
            task = pickle.loads(message)
        except Exception as exc:
            reply = (False, exc)
        else:
            if task is None:
                return
            fn, args = task
            try:
                reply = (True, fn(*args))
            except Exception as exc:
                reply = (False, exc)
        try:
            conn.send(reply)
        except Exception as exc:    # a result or an error that won't pickle
            conn.send((False, RuntimeError(
                f"a task's reply did not pickle: {exc!r}")))


def _live_forked(main: Callable, *args) -> None:
    """Run ``main(*args)`` as the whole life of a process just forked:
    it exits when ``main`` returns or raises, and never returns into
    the frames it was forked in."""
    code = 1
    try:
        main(*args)
        code = 0
    finally:
        for stream in (sys.stdout, sys.stderr):
            with contextlib.suppress(Exception):
                stream.flush()
        os._exit(code)


def _worker_main(end: socket.socket, cpu: int | None, first: bytes | None,
                 path: list, cwd: str) -> None:
    """A worker just forked by the template: restore the default
    ``SIGCHLD`` (a task may wait on processes of its own), take the
    caller's ``sys.path`` and working directory, and serve ``end``,
    making the ``first`` call before it reads a task."""
    signal.signal(signal.SIGCHLD, signal.SIG_DFL)
    sys.path[:] = path
    with contextlib.suppress(OSError):
        os.chdir(cwd)
    _serve(Connection(end.detach()), cpu, first)


def _pidfd(pid: int) -> int | None:
    """A pidfd of process ``pid``, or ``None``: the host has no pidfds,
    or the process is gone already (the end of its pipe says so)."""
    try:
        return os.pidfd_open(pid)
    except (AttributeError, OSError):
        return None


def _template_main(sock: socket.socket) -> None:
    """The template's life: for each request on ``sock`` — the CPUs of
    the workers to fork, each one's first call (pickled, or ``None``),
    and the caller's ``sys.path`` and working directory — fork one
    worker per CPU and send the caller its pid, the parent end of its
    pipe and a pidfd of it, one message each, until the end of the
    socket.  A first call reaches its worker as the bytes it came in:
    the template never unpickles one, so it maps nothing a call names.
    The template holds no pipe end once it is sent, so a worker inherits
    none but its own; the kernel reaps the workers, and ``SIGINT`` is
    the caller's to act on."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    while True:
        request = sock.recv(_REQUEST_BYTES)
        if not request:
            return
        cpus, firsts, path, cwd = pickle.loads(request)
        for cpu, first in zip(cpus, firsts):
            ours, theirs = socket.socketpair()
            pid = os.fork()
            if pid == 0:
                sock.close()
                ours.close()
                _live_forked(_worker_main, theirs, cpu, first, path, cwd)
            theirs.close()
            pidfd = _pidfd(pid)
            fds = [ours.fileno()] + ([] if pidfd is None else [pidfd])
            socket.send_fds(sock, [str(pid).encode()], fds)
            ours.close()
            if pidfd is not None:
                os.close(pidfd)


def _half_imported() -> list:
    """The modules whose code is running on this thread's stack, but for
    ``__main__`` (a main module cannot be imported afresh) and
    :mod:`repro` itself (its import is the one that forks the template)."""
    names, frame = [], sys._getframe()
    while frame is not None:
        if frame.f_code.co_name == "<module>":
            names.append(frame.f_globals.get("__name__"))
        frame = frame.f_back
    return [name for name in names if name != "__main__"
            and name != "repro" and not str(name).startswith("repro.")]


class _Template:
    """A process's template: forked while the process held the imported
    library only, and asked over a Unix socket to fork workers.  Forked
    from frames that may be importing modules, it forgets those modules
    first, so a worker imports one afresh when a task names it."""

    def __init__(self) -> None:
        global _TEMPLATE_LOCK
        for stream in (sys.stdout, sys.stderr):   # or the child writes it too
            with contextlib.suppress(Exception):
                stream.flush()
        self.owner = os.getpid()
        self.sock, theirs = socket.socketpair(socket.AF_UNIX,
                                              socket.SOCK_SEQPACKET)
        half_imported = _half_imported()
        self.pid = os.fork()
        if self.pid == 0:
            _TEMPLATE_LOCK = threading.Lock()   # forked holding it, maybe
            self.sock.close()
            for name in half_imported:
                sys.modules.pop(name, None)
            _live_forked(_template_main, theirs)
        theirs.close()

    def fork_workers(self, cpus: list, firsts: list) -> list:
        """One :class:`_Worker` per entry of ``cpus`` (a CPU, or
        ``None`` for unpinned), forked by the template, each making the
        first call of its entry of ``firsts``.  A failure closes the
        socket: its replies could no longer be matched to requests."""
        workers = []
        try:
            self.sock.send(pickle.dumps((cpus, firsts, sys.path,
                                         os.getcwd())))
            for _ in cpus:
                pid, fds, _, _ = socket.recv_fds(self.sock, 32, 2, _CLOEXEC)
                if not pid:
                    raise ConnectionError("the worker template exited")
                workers.append(_Worker(int(pid), Connection(fds[0]),
                                       fds[1] if len(fds) > 1 else None))
        except BaseException:
            self.sock.close()
            for worker in workers:
                worker.retire()
            raise
        return workers


#: This process's template (``None`` until forked); one it inherited is
#: not its own (:attr:`_Template.owner`).
_TEMPLATE: _Template | None = None
_TEMPLATE_LOCK = threading.Lock()


def fork_template() -> None:
    """Fork this process's template now, unless another thread runs (a
    fork is then put off until a pool first starts).  ``import repro``
    calls this once, last, so the template holds the imported library
    and nothing else."""
    global _TEMPLATE
    if threading.active_count() == 1:
        with _TEMPLATE_LOCK, contextlib.suppress(OSError):
            _TEMPLATE = _Template()


def _fork_workers(cpus: list, firsts: list) -> list:
    """Workers for ``cpus``, forked by this process's template, each
    making the first call of its entry of ``firsts``; a fresh template
    is forked first where the process has none of its own, or once,
    where its template is gone."""
    global _TEMPLATE
    with _TEMPLATE_LOCK:
        for retry in (False, True):
            if (_TEMPLATE is None or _TEMPLATE.owner != os.getpid()
                    or _TEMPLATE.sock.fileno() < 0):
                _TEMPLATE = _Template()
            try:
                return _TEMPLATE.fork_workers(cpus, firsts)
            except OSError:
                if retry:
                    raise
                with contextlib.suppress(ChildProcessError):
                    os.waitpid(_TEMPLATE.pid, os.WNOHANG)


class _Worker:
    """One slot's worker, as the template forked it: its pid, the parent
    end of its pipe, and a pidfd of it (``None`` where the host has
    none)."""

    __slots__ = ("pid", "conn", "pidfd")

    def __init__(self, pid: int, conn: Connection, pidfd: int | None) -> None:
        self.pid, self.conn, self.pidfd = pid, conn, pidfd

    @property
    def sentinel(self):
        """Ready once the worker has exited: its pidfd, or, where there
        is none, the end of its pipe."""
        return self.conn if self.pidfd is None else self.pidfd

    def retire(self) -> None:
        """Kill the worker unless it has exited (one wedged past a
        deadline, or one that would not stop), wait for its exit, and
        close its pipe and pidfd."""
        if not wait([self.sentinel], 0):
            with contextlib.suppress(ProcessLookupError):
                if self.pidfd is None:
                    os.kill(self.pid, signal.SIGKILL)
                else:
                    signal.pidfd_send_signal(self.pidfd, signal.SIGKILL)
            wait([self.sentinel])
        self.conn.close()
        if self.pidfd is not None:
            os.close(self.pidfd)


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
    failure semantics).  The workers are forked on the first call, or
    by :meth:`ensure_started` — by the process's template, not by the
    caller — and reused until :meth:`close`; ``with WorkPool(...) as
    pool:`` closes them on exit.  :meth:`ensure_started` can give each
    worker it forks one first call, made before the worker's first task
    (the pooled dispatcher's warm-up indexes each worker's span so).
    Calls from several threads take turns.  A task defined in a script's
    ``__main__`` after its ``import repro`` cannot run: the workers'
    template was forked before it existed, and the call raises the
    worker's ``AttributeError`` (see the module docstring).
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

    # -- lifecycle ---------------------------------------------------------

    @property
    def started(self) -> bool:
        """Whether worker processes are currently live.

        Planners read this to decide whether a pooled substrate still
        owes its spawn cost or is warm and effectively free to enter.
        """
        return self._workers is not None

    def _start(self, firsts: list | tuple = ()) -> list:
        """The workers, forking any slot that has none (every slot on
        first use, a dead or wedged worker's slot after it); a slot
        forked here makes ``firsts[slot]`` (a pickled call), where there
        is one, before its first task."""
        if self._workers is None:
            self._workers = [None] * self.n_workers
        missing = [slot for slot, worker in enumerate(self._workers)
                   if worker is None]
        if missing:
            forked = _fork_workers(
                [self._cpus[slot] for slot in missing],
                [firsts[slot] if slot < len(firsts) else None
                 for slot in missing])
            for slot, worker in zip(missing, forked):
                self._workers[slot] = worker
        return self._workers

    def ensure_started(self, first: Iterable[tuple] = ()) -> None:
        """Start the worker processes now (idempotent warm-up).

        A latency-sensitive caller (the serving layer's pooled
        dispatcher) pays the fork here, outside any request's SLO
        window, instead of inside the first batch.

        ``first`` gives each worker forked now one first call: worker
        ``i`` makes the ``i``-th ``(fn, args)``, pinned, before it reads
        its pipe, so its first task finds done what the call did.  A
        worker already live makes none, and so does a replacement forked
        later; what a call raises is swallowed and not counted until
        ROADMAP item 8(a) (see the module docstring).
        """
        firsts = [pickle.dumps(call) for call in first]
        with self._lock:
            self._start(firsts)

    def reset_health(self) -> None:
        """Forget failure history and leave degraded mode (operator path
        back to pooled execution).  The ``pool.*`` counters are history
        and are left as they are."""
        self.health.reset()

    def close(self) -> None:
        """Stop the worker processes (idempotent).

        Every worker is told to stop at once, then each exit is waited
        for; one that has not exited within a second is killed.  When
        this returns, every worker has exited.
        """
        with self._lock:
            workers = [w for w in self._workers or () if w is not None]
            self._workers = None
            for worker in workers:
                with contextlib.suppress(OSError):
                    worker.conn.send(None)
            for worker in workers:
                wait([worker.sentinel], _JOIN_SECONDS)
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
                while True:
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
        or wedged worker (which is replaced).  A task's error is raised
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
                    workers[slot].conn.send(task[1:])
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
                     for w in (workers[slot].conn, workers[slot].sentinel)],
                    None if end is None else max(0.0, end - time.monotonic())))
                if not ready:
                    break
                for slot in list(busy):
                    worker = workers[slot]
                    if worker.conn in ready:
                        try:
                            ok, value = worker.conn.recv()
                        except (EOFError, OSError):
                            pass        # died: its sentinel is ready too
                        else:
                            index = busy.pop(slot)
                            if ok:
                                results[index] = value
                            elif error is None:
                                # Not supervision's to eat: raised
                                # below, once every pipe is drained.
                                error = value
                            feed(slot)
                            continue
                    if worker.sentinel in ready or worker.conn in ready:
                        lose(slot)
                        self.health.count("worker_deaths")
                        failures.append(BrokenProcessPool(
                            f"worker {slot} (pid {worker.pid}) died"))
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
