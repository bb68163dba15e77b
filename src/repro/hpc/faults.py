"""Deterministic fault injection for the supervised execution stack.

Recovery code that is never exercised is recovery code that does not
work.  The MapReduce sibling of the source paper leans on task
re-execution as its whole fault-tolerance story; this module is the
harness that lets the chaos suite (``tests/test_faults.py``) *prove* the
equivalent story here — worker deaths, deadline overruns and leaked
shared-memory segments are injected on demand, deterministically, and
the suite asserts the answers come back bit-identical anyway, and what
recovery cost in counts (deaths, worker replacements, retries, YET
stagings, kernel packs).

A :class:`FaultPlan` is a seeded list of :class:`FaultSpec` injections
keyed by the pool's global task sequence number: *"kill the worker
running task 3"*, *"delay task 7 by 50 ms"*.  Injections are consumed
**parent-side** at submission time (:meth:`FaultPlan.take`), so a
resubmitted task — which draws a fresh sequence number — runs clean
unless the plan says otherwise: one ``kill`` means exactly one death,
which is what makes recovery latency measurable.

Wiring: :class:`~repro.hpc.pool.WorkPool` consults :func:`active_plan`
per submitted task.  Nothing is consulted (one attribute read) unless a
plan is installed (:func:`install` / :func:`inject`).  Every task the
pool runs is on a worker, and the ordinals count those tasks only: a
pooled run of ``n`` processors sends ``n - 1``, for spans 1 to
``n - 1``, while the caller sweeps span 0 itself.  The caller's share
and a run the pooled dispatcher sweeps in process (one span, or the
degraded fallback) never reach a plan — a ``kill`` there would take the
caller down with it.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "active_plan",
    "apply_fault",
    "clear",
    "inject",
    "install",
]

#: Injection kinds a plan understands.
FAULT_KINDS = ("kill", "delay", "orphan")

#: Exit code of a fault-killed worker (distinctive in core-dump triage).
KILL_EXIT_CODE = 23


@dataclass(frozen=True)
class FaultSpec:
    """One injection: do ``kind`` to global task number ``task_seq``.

    ``delay_seconds`` applies to ``"delay"``; ``nbytes`` sizes the
    segment an ``"orphan"`` injection leaks.  Specs are tiny and
    picklable — the worker receives the spec, never the plan.
    """

    kind: str
    task_seq: int
    delay_seconds: float = 0.0
    nbytes: int = 1 << 12

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if self.task_seq < 0:
            raise ConfigurationError("task_seq must be non-negative")
        if self.delay_seconds < 0:
            raise ConfigurationError("delay_seconds must be non-negative")


@dataclass
class FaultEvent:
    """Parent-side record of one consumed injection (observability)."""

    kind: str
    task_seq: int
    at_seconds: float


class FaultPlan:
    """A deterministic, consumable schedule of fault injections.

    Parameters
    ----------
    specs:
        The :class:`FaultSpec` injections, keyed by global task sequence
        number.  Two specs on the same sequence number are rejected —
        a plan must read unambiguously.
    seed:
        Recorded for provenance (benches stamp it into their JSON);
        the plan itself is fully explicit, nothing is drawn at random.

    Each spec fires **at most once** (:meth:`take` consumes it); a plan
    can therefore be asserted drained (:attr:`exhausted`) at the end of
    a test, proving every scheduled fault actually happened.
    """

    def __init__(self, specs, seed: int = 0) -> None:
        specs = tuple(specs)
        by_seq: dict[int, FaultSpec] = {}
        for spec in specs:
            if spec.task_seq in by_seq:
                raise ConfigurationError(
                    f"duplicate fault at task_seq={spec.task_seq}"
                )
            by_seq[spec.task_seq] = spec
        self.seed = seed
        self._pending = by_seq
        #: Consumed injections, in firing order.
        self.events: list[FaultEvent] = []
        #: Segment names leaked by ``orphan`` injections (reclaimable).
        self.orphaned: list[str] = []
        self._lock = threading.Lock()
        self._t0 = time.perf_counter()

    # -- construction helpers ----------------------------------------------

    @classmethod
    def kill_task(cls, task_seq: int, **kwargs) -> "FaultPlan":
        """Plan with a single worker kill at ``task_seq``."""
        return cls([FaultSpec("kill", task_seq)], **kwargs)

    @classmethod
    def delay_task(cls, task_seq: int, delay_seconds: float,
                   **kwargs) -> "FaultPlan":
        """Plan delaying ``task_seq`` by ``delay_seconds``."""
        return cls([FaultSpec("delay", task_seq,
                              delay_seconds=delay_seconds)], **kwargs)

    # -- consumption (parent-side) -----------------------------------------

    @property
    def exhausted(self) -> bool:
        """Whether every scheduled injection has fired."""
        with self._lock:
            return not self._pending

    @property
    def n_pending(self) -> int:
        with self._lock:
            return len(self._pending)

    def take(self, task_seq: int) -> FaultSpec | None:
        """Consume and return the injection for ``task_seq`` (or None).

        ``orphan`` injections are applied here, in the parent — the leak
        being simulated is an *owner* forgetting a segment — and return
        ``None`` so the task itself runs clean.
        """
        with self._lock:
            spec = self._pending.pop(task_seq, None)
            if spec is None:
                return None
            self.events.append(FaultEvent(
                spec.kind, task_seq, time.perf_counter() - self._t0
            ))
        if spec.kind == "orphan":
            self._orphan_segment(spec.nbytes)
            return None
        return spec

    def _orphan_segment(self, nbytes: int) -> None:
        """Leak one owned segment, as a crashed owner would.

        The segment lands in the owner registry with no arena tracking
        it, so :func:`repro.hpc.shm.active_segment_names` reports it and
        the ``atexit`` safety net (or :meth:`reclaim_orphans`) is what
        stands between it and a stranded ``/dev/shm`` entry.
        """
        from repro.hpc import shm

        if not shm.shm_available():  # pragma: no cover - shm-less host
            return
        segment = shm._shared_memory.SharedMemory(create=True, size=nbytes)
        shm._register_owned(segment)
        with self._lock:
            self.orphaned.append(segment.name)

    def reclaim_orphans(self) -> int:
        """Unlink every segment this plan orphaned; returns the count."""
        from repro.hpc import shm

        with self._lock:
            names, self.orphaned = self.orphaned[:], []
        for name in names:
            shm._unlink_owned(name)
        return len(names)

    def report(self) -> dict:
        """JSON-ready account of what fired (benches embed this)."""
        with self._lock:
            return {
                "seed": self.seed,
                "events": [
                    {"kind": e.kind, "task_seq": e.task_seq,
                     "at_seconds": e.at_seconds}
                    for e in self.events
                ],
                "pending": len(self._pending),
                "orphaned": list(self.orphaned),
            }


# ---------------------------------------------------------------------------
# the process-wide switch
# ---------------------------------------------------------------------------

_ACTIVE: FaultPlan | None = None


def install(plan: FaultPlan) -> FaultPlan:
    """Make ``plan`` the process-wide active plan (replacing any)."""
    global _ACTIVE
    _ACTIVE = plan
    return plan


def clear() -> None:
    """Remove the active plan."""
    global _ACTIVE
    _ACTIVE = None


def active_plan() -> FaultPlan | None:
    """The installed plan, or ``None``."""
    return _ACTIVE


@contextmanager
def inject(plan: FaultPlan):
    """Scope a plan to a ``with`` block (tests and benches use this)."""
    install(plan)
    try:
        yield plan
    finally:
        clear()


# ---------------------------------------------------------------------------
# worker-side application
# ---------------------------------------------------------------------------

def apply_fault(spec: FaultSpec, fn, *args):
    """Run ``fn(*args)`` under one injection (picklable task wrapper).

    ``kill`` exits the worker process hard (no cleanup, no exception —
    the pool sees a vanished worker exactly as it would a SIGKILL'd
    one); ``delay`` sleeps first, which is how deadline
    overruns are manufactured.
    """
    if spec.kind == "kill":
        os._exit(KILL_EXIT_CODE)
    if spec.kind == "delay":
        time.sleep(spec.delay_seconds)
    return fn(*args)
