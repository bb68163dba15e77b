"""Zero-copy shared-memory data plane for the multiprocess paths.

The paper's finding is that risk analytics is data-movement bound: the
YET is the dominant payload and every redundant copy of it erases the
gains of parallel aggregation.  Before this module the multicore and
serving paths moved that payload the slowest way Python offers —
pickling it through pool initializers and per-task argument tuples.

This module provides the transport that removes those copies:

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
  segment, old one unlinked) when an array outgrows it, and its
  segments carry generation-tagged names so worker-side caches evict
  an outgrown generation's mapping the moment they attach its
  successor.

Attach-side bookkeeping: each process caches its segment mappings, so N
handles into one segment map it once, and attached segments are
*untracked* from the ``resource_tracker`` (ownership stays with the
creating process; the tracker would otherwise unlink segments still in
use when the first worker exits).

Availability is probed once (:func:`shm_available`): hosts without a
usable ``/dev/shm`` (or a ``shared_memory``-less Python) report
``False`` and every caller falls back to the pickle transport with
identical results.
"""

from __future__ import annotations

import atexit
import os
import re
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
    "TRANSPORTS",
    "HandleShipment",
    "SharedArena",
    "ShmArrayHandle",
    "ShmSlab",
    "active_segment_names",
    "resolve_transport",
    "shm_available",
    "validate_transport",
]

#: Transport choices shared by every shm consumer (engines, dispatchers).
TRANSPORTS = ("auto", "shm", "pickle")

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


def validate_transport(transport: str) -> None:
    """Reject unknown transport names at construction time."""
    if transport not in TRANSPORTS:
        raise ConfigurationError(
            f"unknown transport {transport!r}; expected one of {TRANSPORTS}"
        )


def resolve_transport(transport: str) -> bool:
    """Whether a consumer configured with ``transport`` should use shm.

    ``"pickle"`` is an explicit opt-out; ``"shm"`` demands the plane and
    raises :class:`~repro.errors.ConfigurationError` on hosts without
    it; ``"auto"`` takes whatever the availability probe reports.  One
    rule for the pooled dispatcher and the session's planner label.
    """
    validate_transport(transport)
    if transport == "pickle":
        return False
    available = shm_available()
    if transport == "shm" and not available:
        raise ConfigurationError(
            "transport='shm' requested but shared memory is unavailable "
            "on this host"
        )
    return available


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


#: Slab segment names are generation-tagged (``repro-slab-<uid>-g<N>``)
#: so the *attach* side can recognise two generations of the same slab
#: and evict the stale mapping the moment the newer one arrives.
_SLAB_NAME_RE = re.compile(r"^repro-slab-(?P<uid>[0-9a-f]+)-g(?P<gen>\d+)$")


def _evict_stale_slab_mappings(name: str) -> None:
    """Unmap older generations of the slab ``name`` belongs to.

    Caller holds ``_ATTACHED_LOCK``.  Without this, a worker that
    attached generation N of a slab kept that mapping cached until
    process exit after the slab rolled to generation N+1 — one stale
    mapping (and its pinned pages) leaked per outgrown generation.  A
    mapping still pinned by a live view (``BufferError``) is kept and
    retried at the next generation roll: in-flight readers are never
    yanked.
    """
    match = _SLAB_NAME_RE.match(name)
    if match is None:
        return
    uid, gen = match.group("uid"), int(match.group("gen"))
    for other in list(_ATTACHED):
        other_match = _SLAB_NAME_RE.match(other)
        if (other_match is None or other_match.group("uid") != uid
                or int(other_match.group("gen")) >= gen):
            continue
        try:
            _ATTACHED[other].close()
        except BufferError:  # pragma: no cover - view still live
            continue
        del _ATTACHED[other]


def _attach_segment(name: str):
    """This process's mapping of segment ``name`` (created once, cached).

    The owner's own mapping is reused directly — re-attaching in the
    creating process would double-map and confuse tracker bookkeeping.
    Attaching a newer slab generation evicts the cached mapping of its
    predecessors (see :func:`_evict_stale_slab_mappings`).
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
            _evict_stale_slab_mappings(name)
    return segment


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
        what lets a retired segment drain in-flight readers safely.
        """
        segment = _attach_segment(self.segment)
        view = np.ndarray(
            self.shape, dtype=np.dtype(self.dtype),
            buffer=segment.buf, offset=self.offset,
        )
        view.flags.writeable = self.writable
        return view


class HandleShipment:
    """Base for handle-backed pool payloads (see ``WorkPool``'s
    ``__shm_resolve__`` protocol).

    Pickles as its handles alone; each receiving process materialises
    the payload once, on first touch.  The owning process pre-binds its
    ``local`` payload so serial fallback paths resolve for free.
    Subclasses implement :meth:`_materialise`.
    """

    __slots__ = ("handles", "_local")

    def __init__(self, handles, local=None) -> None:
        self.handles = handles
        self._local = local

    def __getstate__(self):
        return self.handles

    def __setstate__(self, state) -> None:
        self.handles = state
        self._local = None

    def __shm_resolve__(self):
        if self._local is None:
            self._local = self._materialise(self.handles)
        return self._local

    def _materialise(self, handles):
        raise NotImplementedError


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
    generation (an engine's staged kernel + YET, a dispatcher's shared
    trial set) keeps ownership obvious.
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

    def share(self, array: np.ndarray) -> ShmArrayHandle:
        """Place a single array (segment-per-array convenience)."""
        return self.place(array)[0]

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
    batch but its *size class* does not: :meth:`pack` writes the
    batch's arrays into the same segment generation after generation,
    so workers re-attach nothing (their cached mapping still covers it)
    and the steady-state ship cost is one owner-side ``memcpy``.
    **Out:** :meth:`reserve` hands out one writable array at the slab's
    start that workers write their parts of and the owner reads back —
    a block returns through shared pages instead of a pickle.

    A payload that outgrows the slab rolls it to a fresh, geometrically
    larger segment; :meth:`roll` moves it to a fresh one of the same
    size (an output whose writers can no longer be trusted to have
    stopped).  The old segment is unlinked: workers holding a stale
    mapping keep it alive until they next attach, so in-flight readers
    are never yanked and a late writer writes where nobody reads.

    Segments are named ``repro-slab-<uid>-g<generation>``: the attach
    side (see :func:`_evict_stale_slab_mappings`) recognises two
    generations of one slab and unmaps the older the moment a worker
    touches the newer, so outgrown generations stop leaking one cached
    mapping each until worker exit.
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
        self._uid = f"{os.getpid():x}{secrets.token_hex(3)}"
        #: Segment rolls since construction (observability for benches).
        self.generations = 0

    @property
    def nbytes(self) -> int:
        """Current segment capacity (0 before first pack)."""
        return self._segment.size if self._segment is not None else 0

    @property
    def n_segments(self) -> int:
        return 1 if self._segment is not None else 0

    @property
    def segment_name(self) -> str | None:
        return self._segment.name if self._segment is not None else None

    def pack(self, *arrays: np.ndarray) -> tuple[ShmArrayHandle, ...]:
        """Write arrays into the slab (reusing the segment when they fit).

        The caller must not pack while readers are mid-flight over the
        previous payload — the dispatch paths satisfy this because a
        batch is fully collected before the next one is staged.
        """
        if not arrays:
            raise ConfigurationError("pack() needs at least one array")
        self._fit(_total_packed(arrays))
        return _pack_into(self._segment, arrays)

    # ``place`` aliases ``pack`` so exporters can target an arena or a
    # slab interchangeably.
    def place(self, *arrays: np.ndarray) -> tuple[ShmArrayHandle, ...]:
        return self.pack(*arrays)

    def reserve(self, shape: tuple[int, ...]) -> ShmArrayHandle:
        """A writable float64 array of ``shape`` at the slab's start.

        The output counterpart of :meth:`pack`, under the same rule: the
        caller reserves only once every reader and writer of the last
        reservation is done, and reads its array before the next.
        """
        dtype = np.dtype(np.float64)
        shape = tuple(int(n) for n in shape)
        self._fit(int(np.prod(shape)) * dtype.itemsize)
        return ShmArrayHandle(segment=self._segment.name, dtype=dtype.str,
                              shape=shape, offset=0, writable=True)

    def roll(self) -> None:
        """Move to a fresh segment generation of the same capacity."""
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
        name = f"repro-slab-{self._uid}-g{self.generations + 1}"
        try:
            self._segment = _shared_memory.SharedMemory(
                create=True, size=capacity, name=name
            )
        except FileExistsError:  # pragma: no cover - uid collision
            self._uid = f"{os.getpid():x}{secrets.token_hex(3)}"
            self._segment = _shared_memory.SharedMemory(
                create=True, size=capacity,
                name=f"repro-slab-{self._uid}-g{self.generations + 1}",
            )
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
