"""Zero-copy shared-memory data plane for the multiprocess paths.

The paper's finding is that risk analytics is data-movement bound: the
YET is the dominant payload and every redundant copy of it erases the
gains of parallel aggregation.  This module is the transport that moves
it without copies:

- :class:`SharedArena` owns ``multiprocessing.shared_memory`` segments
  and *places* NumPy arrays into them (one packed segment per ``place``
  call).  The arena is the owner: closing it unlinks every segment it
  created, and a module-level registry plus an ``atexit`` safety net
  track what is still live so tests can assert nothing leaked.
- :class:`ShmArrayHandle` is the wire format: a tiny picklable
  descriptor (segment name + dtype + shape + byte offset) that
  re-attaches as a read-only NumPy *view* in any process (writable for
  an output only).  Shipping a gigabyte array costs ~100 bytes of
  pickle plus one page-table mapping in each worker, paid once per
  (worker, segment).
- :class:`ShmSlab` is a *reusable* segment for transient arrays — a
  pooled dispatcher writes each kernel it runs into one slab, so a new
  batch costs one ``memcpy`` instead of a pickle per task, and its
  workers write their answer blocks into another, so a block returns
  without a pickle either.  The slab grows geometrically (fresh
  segment, old one unlinked) when an array outgrows it.

Attach side: a process maps a segment it did not create one way, by
attaching a handle, and lets it go one way, :func:`detach`.  A forked
child owns nothing: the mappings it inherits of its parent's segments
are closed at fork, so every mapping a pool worker holds was attached
by a task's handles.  Each process caches its mappings, so N handles
into one segment map it once, and attached segments are *untracked*
from the ``resource_tracker`` (ownership stays with the creating
process; the tracker would otherwise unlink segments still in use when
the first worker exits).  A pool worker detaches a payload's segments
when a task names another payload in its place
(:mod:`repro.serve.dispatch`), so a segment its owner has unlinked
frees its pages then, not at worker exit.

Availability is probed once (:func:`shm_available`): hosts without a
usable ``/dev/shm`` (or a ``shared_memory``-less Python) report
``False``, and there is no second transport to fall back to — a pooled
dispatcher there runs its spans in process, counted as a degraded call
(:mod:`repro.serve.dispatch`), with identical results.
"""

from __future__ import annotations

import atexit
import os
import secrets
import threading
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

try:  # pragma: no cover - import guard for exotic builds
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

__all__ = [
    "SharedArena",
    "ShmArrayHandle",
    "ShmSlab",
    "active_segment_names",
    "detach",
    "shm_available",
]

#: Byte alignment of packed arrays (cache-line sized).
_ALIGN = 64

_AVAILABLE: bool | None = None


def shm_available() -> bool:
    """Whether this host can create shared-memory segments (probed once)."""
    global _AVAILABLE
    if _AVAILABLE is None:
        if _shared_memory is None:
            _AVAILABLE = False
        else:
            try:
                probe = _shared_memory.SharedMemory(create=True, size=8)
                probe.close()
                probe.unlink()
                _AVAILABLE = True
            except Exception:
                _AVAILABLE = False
    return _AVAILABLE


# ---------------------------------------------------------------------------
# owner-side registry (leak tracking) and attach-side cache
# ---------------------------------------------------------------------------

#: Segments created *by this process* that have not been unlinked yet.
_OWNED: dict[str, "_shared_memory.SharedMemory"] = {}
_OWNED_LOCK = threading.Lock()

#: Segments this process attached to (worker-side), mapped once each.
_ATTACHED: dict[str, "_shared_memory.SharedMemory"] = {}
_ATTACHED_LOCK = threading.Lock()


def active_segment_names() -> frozenset[str]:
    """Names of segments this process created and has not yet unlinked.

    The test suite's leak fixture asserts this is empty after the run:
    every arena and slab must have been closed by whoever owned it.
    """
    with _OWNED_LOCK:
        return frozenset(_OWNED)


def _register_owned(segment) -> None:
    with _OWNED_LOCK:
        _OWNED[segment.name] = segment


def _unlink_owned(name: str) -> None:
    with _OWNED_LOCK:
        segment = _OWNED.pop(name, None)
    if segment is not None:
        try:
            segment.close()
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


@atexit.register
def _cleanup_leaked_segments() -> None:  # pragma: no cover - process teardown
    """Safety net: unlink anything an owner forgot (crash paths)."""
    for name in list(active_segment_names()):
        _unlink_owned(name)


def _attach_untracked(name: str):
    """Attach without resource-tracker registration.

    Ownership (and unlink) stays with the creating process.  Attachers
    must not register: the tracker would tear the segment down when the
    first worker exits, and — its cache being a name-keyed set shared by
    every forked child — even register-then-unregister pairs from two
    workers collide and spam ``KeyError`` warnings.  Python 3.13 has
    ``track=False`` for exactly this; earlier interpreters get the
    registration suppressed for the duration of the attach (we hold
    ``_ATTACHED_LOCK``, so the window is ours).
    """
    try:
        return _shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track= parameter
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        try:
            resource_tracker.register = lambda *a, **k: None
            return _shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def _unmap(name: str) -> None:
    """Close this process's cached mapping of ``name``, unless a live
    view still pins it.  Caller holds ``_ATTACHED_LOCK``."""
    try:
        _ATTACHED[name].close()
    except BufferError:  # pragma: no cover - view still live
        return
    del _ATTACHED[name]


def _attach_segment(name: str):
    """This process's mapping of segment ``name`` (created once, cached).

    The owner's own mapping is reused directly — re-attaching in the
    creating process would double-map and confuse tracker bookkeeping.
    """
    with _OWNED_LOCK:
        owned = _OWNED.get(name)
    if owned is not None:
        return owned
    with _ATTACHED_LOCK:
        segment = _ATTACHED.get(name)
        if segment is None:
            segment = _attach_untracked(name)
            _ATTACHED[name] = segment
    return segment


def detach(*handles: "ShmArrayHandle") -> None:
    """Unmap this process's cached mappings of the segments ``handles``
    point into: a worker letting go of a payload it will not read again.

    Only attached mappings go; a segment this process owns stays with
    its owner, and a mapping a live view still pins (``BufferError``)
    is kept.
    """
    with _ATTACHED_LOCK:
        for name in {handle.segment for handle in handles} & set(_ATTACHED):
            _unmap(name)


def _own_nothing_after_fork() -> None:
    """In a forked child: close the inherited mappings of the parent's
    segments, keeping (as attached) any a live view pins, and start on
    fresh locks.  The child owns nothing, so every other mapping it
    holds is one a task's handles attached."""
    global _OWNED_LOCK, _ATTACHED_LOCK
    _OWNED_LOCK, _ATTACHED_LOCK = threading.Lock(), threading.Lock()
    _ATTACHED.update(_OWNED)
    _OWNED.clear()
    for name in list(_ATTACHED):
        _unmap(name)


if hasattr(os, "register_at_fork"):  # POSIX; nothing forks elsewhere
    os.register_at_fork(after_in_child=_own_nothing_after_fork)


# ---------------------------------------------------------------------------
# the wire format
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShmArrayHandle:
    """Picklable descriptor of one array living in a shared segment.

    Pickles as (segment name, dtype string, shape, byte offset, whether
    writable) — a few hundred bytes regardless of payload size — and
    :meth:`attach`\\ es as a NumPy view in any process that can see the
    segment.  Only :meth:`ShmSlab.reserve` hands out a ``writable``
    handle.
    """

    segment: str
    dtype: str
    shape: tuple[int, ...]
    offset: int
    writable: bool = False

    @property
    def nbytes(self) -> int:
        """Payload bytes the handle points at."""
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize

    def attach(self) -> np.ndarray:
        """Map the segment (cached per process) and return the view.

        A payload's view is read-only: payloads are single-writer (the
        owner) / many-reader (the workers), and a worker scribbling on a
        shared lookup would corrupt every sibling's answers.  An
        *output* handle (:meth:`ShmSlab.reserve`) attaches writable: the
        workers write disjoint parts of it and the owner reads it once
        they are all done.

        Views live exactly as long as their owner: once the creating
        arena/slab is closed, reading an in-process view is undefined
        (the pages are unmapped under it — the same contract as a NumPy
        view over a closed ``mmap``).  Worker-side views survive an
        owner *unlink* — their own mapping pins the pages — which is
        what lets an unlinked segment drain in-flight readers safely.
        """
        segment = _attach_segment(self.segment)
        view = np.ndarray(
            self.shape, dtype=np.dtype(self.dtype),
            buffer=segment.buf, offset=self.offset,
        )
        view.flags.writeable = self.writable
        return view


def _aligned(nbytes: int) -> int:
    return (nbytes + _ALIGN - 1) // _ALIGN * _ALIGN


def _pack_into(segment, arrays) -> tuple[ShmArrayHandle, ...]:
    """Copy ``arrays`` into ``segment`` at aligned offsets; return handles."""
    handles = []
    offset = 0
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        dest = np.ndarray(arr.shape, dtype=arr.dtype,
                          buffer=segment.buf, offset=offset)
        np.copyto(dest, arr)
        handles.append(ShmArrayHandle(
            segment=segment.name, dtype=arr.dtype.str,
            shape=tuple(arr.shape), offset=offset,
        ))
        offset += _aligned(arr.nbytes)
    return tuple(handles)


def _total_packed(arrays) -> int:
    # nbytes is stride-independent — no contiguity copy just to size.
    return sum(_aligned(np.asarray(a).nbytes) for a in arrays) or _ALIGN


# ---------------------------------------------------------------------------
# owners
# ---------------------------------------------------------------------------

class SharedArena:
    """Owner of shared-memory segments holding immutable array payloads.

    Each :meth:`place` call packs its arrays into one fresh segment and
    returns their handles; the arena tracks every segment it created and
    :meth:`close` (or the context manager, or the ``atexit`` safety net)
    unlinks them all.  Arenas are cheap — one per long-lived payload
    (a pooled dispatcher's staged YET) keeps ownership obvious.
    """

    def __init__(self) -> None:
        if not shm_available():
            raise ConfigurationError(
                "shared memory is unavailable on this host; gate arena "
                "construction on shm_available()"
            )
        self._segments: list[str] = []
        self._closed = False

    # -- placement ---------------------------------------------------------

    def place(self, *arrays: np.ndarray) -> tuple[ShmArrayHandle, ...]:
        """Copy arrays into one new packed segment; returns their handles."""
        if self._closed:
            raise ConfigurationError("arena is closed")
        if not arrays:
            raise ConfigurationError("place() needs at least one array")
        segment = _shared_memory.SharedMemory(
            create=True, size=_total_packed(arrays)
        )
        _register_owned(segment)
        self._segments.append(segment.name)
        return _pack_into(segment, arrays)

    # -- introspection -----------------------------------------------------

    @property
    def n_segments(self) -> int:
        return len(self._segments)

    @property
    def nbytes(self) -> int:
        """Bytes of shared memory currently owned by this arena."""
        total = 0
        with _OWNED_LOCK:
            for name in self._segments:
                segment = _OWNED.get(name)
                if segment is not None:
                    total += segment.size
        return total

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Unlink every owned segment (idempotent).

        Any still-live view handed out by this arena's handles becomes
        invalid in this process (see :meth:`ShmArrayHandle.attach`);
        close only after the payload's consumers are done with it.
        """
        if self._closed:
            return
        self._closed = True
        for name in self._segments:
            _unlink_owned(name)
        self._segments.clear()

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


class ShmSlab:
    """A reusable shared segment for transient arrays, in or out.

    **In:** a pooled dispatcher's kernel changes with every serving
    batch but its *size class* does not: :meth:`place` writes the
    batch's arrays into the same segment batch after batch,
    so workers re-attach nothing (their cached mapping still covers it)
    and the steady-state ship cost is one owner-side ``memcpy``.
    **Out:** :meth:`reserve` hands out one writable array at the slab's
    start that workers write their parts of and the owner reads back —
    a block returns through shared pages instead of a pickle.

    A payload that outgrows the slab rolls it to a fresh, geometrically
    larger segment; :meth:`roll` moves it to a fresh one of the same
    size (an output whose writers can no longer be trusted to have
    stopped).  The old segment is unlinked: a worker mapping it keeps
    its pages until a task names another payload in its place, so
    in-flight readers are never yanked and a late writer writes where
    nobody reads.
    """

    def __init__(self, capacity_bytes: int = 1 << 20) -> None:
        if not shm_available():
            raise ConfigurationError(
                "shared memory is unavailable on this host; gate slab "
                "construction on shm_available()"
            )
        if capacity_bytes <= 0:
            raise ConfigurationError("slab capacity must be positive")
        self._capacity = int(capacity_bytes)
        self._segment = None
        self._closed = False
        #: Segment rolls since construction (observability for benches).
        self.generations = 0

    @property
    def nbytes(self) -> int:
        """Current segment capacity (0 before the first place)."""
        return self._segment.size if self._segment is not None else 0

    @property
    def n_segments(self) -> int:
        return 1 if self._segment is not None else 0

    @property
    def segment_name(self) -> str | None:
        return self._segment.name if self._segment is not None else None

    def place(self, *arrays: np.ndarray) -> tuple[ShmArrayHandle, ...]:
        """Write arrays into the slab (reusing the segment when they
        fit), as :meth:`SharedArena.place` does into a fresh one.

        The caller must not place while readers are mid-flight over the
        previous payload — the dispatch paths satisfy this because a
        batch is fully collected before the next one is staged.
        """
        if not arrays:
            raise ConfigurationError("place() needs at least one array")
        self._fit(_total_packed(arrays))
        return _pack_into(self._segment, arrays)

    def reserve(self, shape: tuple[int, ...]) -> ShmArrayHandle:
        """A writable float64 array of ``shape`` at the slab's start.

        The output counterpart of :meth:`place`, under the same rule: the
        caller reserves only once every reader and writer of the last
        reservation is done, and reads its array before the next.
        """
        dtype = np.dtype(np.float64)
        shape = tuple(int(n) for n in shape)
        self._fit(int(np.prod(shape)) * dtype.itemsize)
        return ShmArrayHandle(segment=self._segment.name, dtype=dtype.str,
                              shape=shape, offset=0, writable=True)

    def roll(self) -> None:
        """Move to a fresh segment of the same capacity."""
        if self._closed:
            raise ConfigurationError("slab is closed")
        self._roll(max(self._capacity, self.nbytes))

    def _fit(self, need: int) -> None:
        """Roll to a large enough segment unless the current one fits."""
        if self._closed:
            raise ConfigurationError("slab is closed")
        if self._segment is None or need > self._segment.size:
            capacity = max(self._capacity, self.nbytes)
            while capacity < need:
                capacity *= 2
            self._roll(capacity)

    def _roll(self, capacity: int) -> None:
        if self._segment is not None:
            _unlink_owned(self._segment.name)
        self._segment = _shared_memory.SharedMemory(
            create=True, size=capacity,
            name=f"repro-slab-{secrets.token_hex(8)}")
        _register_owned(self._segment)
        self.generations += 1

    def close(self) -> None:
        """Unlink the current segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._segment is not None:
            _unlink_owned(self._segment.name)
            self._segment = None

    def __enter__(self) -> "ShmSlab":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
