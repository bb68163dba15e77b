"""The pipeline's table types: ELT, YET, YELT, YLT, and the YELLT model.

These are the "small number of very large tables" (§II) the whole paper
is about.  Each type wraps a :class:`~repro.data.columnar.ColumnTable`
with its schema, validation, and the accessors the engines need:

- **ELT** (event-loss table): per-contract ``event_id → (mean_loss,
  sigma)``; the output of stage 1 and the lookup input of stage 2.
- **YET** (year-event table): the pre-simulated sequence of event
  occurrences per trial year — "a consistent lens through which to view
  results" (§II); in memory, or on disk and streamed (:class:`StoredYet`).
- **YELT** (year-event-loss table): the stage-2 intermediate at event
  granularity.
- **YLT** (year-loss table): one annual loss per trial, the stage-2
  output and stage-3 input.  Stored dense (length ``n_trials``).
- **YELLT**: the location-granularity table that §II argues is too large
  to materialise (>5×10¹⁶ entries at paper scale); represented here as an
  analytic size model plus a small-scale materialiser for validation.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.data.columnar import ColumnTable
from repro.data.schema import Schema
from repro.data.store import ChunkStore
from repro.errors import ConfigurationError, EngineError

__all__ = [
    "ELT_SCHEMA",
    "YET_SCHEMA",
    "YELT_SCHEMA",
    "YLT_SCHEMA",
    "EltTable",
    "EventIndex",
    "BookProfile",
    "BookProfiles",
    "MAX_BOOK_PROFILES",
    "TrialSegments",
    "YetHandles",
    "YetTable",
    "StoredYet",
    "YeltTable",
    "YltTable",
    "YelltModel",
    "trial_spans",
]

ELT_SCHEMA = Schema([
    ("event_id", np.int64),
    ("mean_loss", np.float64),
    ("sigma", np.float64),  # secondary-uncertainty std-dev of the loss
])

YET_SCHEMA = Schema([
    ("trial", np.int64),
    ("seq", np.int32),       # occurrence order within the trial year
    ("event_id", np.int64),
])

YELT_SCHEMA = Schema([
    ("trial", np.int64),
    ("event_id", np.int64),
    ("loss", np.float64),
])

YLT_SCHEMA = Schema([
    ("trial", np.int64),
    ("loss", np.float64),
])


# ---------------------------------------------------------------------------
# ELT
# ---------------------------------------------------------------------------

class EltTable:
    """Event-loss table for one reinsurance contract.

    Parameters
    ----------
    table:
        Backing table with :data:`ELT_SCHEMA`; event ids must be unique
        and non-negative, losses non-negative, sigmas non-negative.
    contract_id:
        Id of the contract this ELT prices.
    """

    __slots__ = ("table", "contract_id")

    def __init__(self, table: ColumnTable, contract_id: int = 0) -> None:
        if table.schema != ELT_SCHEMA:
            raise ConfigurationError("ELT table must match ELT_SCHEMA")
        ids = table["event_id"]
        if ids.size == 0:
            raise ConfigurationError("an ELT must contain at least one event")
        if (ids < 0).any():
            raise ConfigurationError("ELT event ids must be non-negative")
        if np.unique(ids).size != ids.size:
            raise ConfigurationError("ELT event ids must be unique")
        if (table["mean_loss"] < 0).any():
            raise ConfigurationError("ELT losses must be non-negative")
        if (table["sigma"] < 0).any():
            raise ConfigurationError("ELT sigmas must be non-negative")
        self.table = table
        self.contract_id = int(contract_id)

    @classmethod
    def from_arrays(cls, event_id, mean_loss, sigma=None, contract_id: int = 0) -> "EltTable":
        """Build from parallel arrays (sigma defaults to zero)."""
        event_id = np.asarray(event_id, dtype=np.int64)
        mean_loss = np.asarray(mean_loss, dtype=np.float64)
        if sigma is None:
            sigma = np.zeros_like(mean_loss)
        table = ColumnTable.from_arrays(
            ELT_SCHEMA, event_id=event_id, mean_loss=mean_loss, sigma=sigma
        )
        return cls(table, contract_id)

    @property
    def n_events(self) -> int:
        return self.table.n_rows

    @property
    def event_ids(self) -> np.ndarray:
        return self.table["event_id"]

    @property
    def mean_losses(self) -> np.ndarray:
        return self.table["mean_loss"]

    @property
    def sigmas(self) -> np.ndarray:
        return self.table["sigma"]

    @property
    def max_event_id(self) -> int:
        return int(self.event_ids.max())

    @property
    def nbytes(self) -> int:
        return self.table.nbytes

    def expected_annual_loss(self, rates: dict[int, float] | None = None) -> float:
        """Pure expectation ``Σ rate·loss`` if per-event rates are known."""
        if rates is None:
            return float(self.mean_losses.sum())
        lookup = np.array([rates.get(int(e), 0.0) for e in self.event_ids])
        return float((lookup * self.mean_losses).sum())


# ---------------------------------------------------------------------------
# YET
# ---------------------------------------------------------------------------

class BookProfile:
    """One stored book's positive losses over a trial-sorted stream,
    sorted within each trial, with a per-trial-restarting running sum.

    Everything a same-book row needs from the stream: with ``k`` positive
    losses in a trial, ``i`` of them ``<= lo`` and ``j`` of them ``< hi``,

        ``sum(clip(g - lo, 0, hi - lo)) = (S[j] - S[i]) - lo*(j - i)
        + (hi - lo)*(k - j)``

    — two counts per (row, trial), no gather of losses, no pass over the
    stream.  Zero losses (and unknown events) are not stored: they price
    to 0 under every retention ``>= 0``.  Each occurrence is held as its
    ``rank`` (int32: the position of its loss among the book's sorted
    positive stored values, from 1), ascending within its trial; trial
    ``t`` is ``ranks[offsets[t]:offsets[t + 1]]``, so a profile costs
    12 B per positive occurrence (rank + running sum).  A threshold
    becomes a rank, and every (trial, threshold) count of a batch is one
    counting pass over the ranks (:meth:`resolve`).  Trial ``t``'s
    running sums sit at ``prefix[offsets[t] + t:]``, led by their own
    0.0 and summed by one ``cumsum`` over that trial alone — so an answer
    is a function of the trial and the row, whatever the trial range
    (:meth:`trial_range` is a view) or the other rows.
    """

    __slots__ = ("ranks", "prefix", "offsets", "thresholds")

    def __init__(self, ranks, prefix, offsets, thresholds) -> None:
        self.ranks = ranks
        self.prefix = prefix
        self.offsets = offsets
        self.thresholds = thresholds

    @classmethod
    def build(cls, segments: "TrialSegments", event_ids: np.ndarray,
              values: np.ndarray, gather) -> "BookProfile":
        """Profile of the book storing ``values`` over one whole stream.

        ``gather(event_ids, out, values=v)`` looks the stream up in any
        array ``v`` laid out like the book's ``values`` (misses read 0).
        The stored values are ranked once and the stream gathers those
        *ranks*, so the per-trial sort is one integer sort of
        ``trial * stride + rank`` keys.
        """
        order = np.argsort(values, kind="stable")
        order = order[np.searchsorted(values[order], 0.0, side="right"):]
        thresholds = values[order]
        stride = thresholds.size + 1
        rank = np.zeros(values.size)
        rank[order] = np.arange(1, stride)
        ranks = gather(event_ids, np.empty(event_ids.size), values=rank)
        positive = np.flatnonzero(ranks)
        keys = segments.trial_column()[positive]
        keys *= stride
        keys += ranks[positive].astype(np.int64)
        keys.sort()
        n_trials = segments.n_trials
        offsets = np.searchsorted(
            keys, np.arange(n_trials + 1, dtype=np.int64) * stride)
        ranks = (keys % stride).astype(np.int32)
        del keys
        losses = thresholds[ranks - 1]
        prefix = np.zeros(ranks.size + n_trials)
        bounds = offsets.tolist()
        for t in np.flatnonzero(np.diff(offsets)).tolist():
            a, b = bounds[t], bounds[t + 1]
            np.add.accumulate(losses[a:b], out=prefix[a + t + 1:b + t + 1])
        return cls(ranks, prefix, offsets, thresholds)

    @property
    def n_trials(self) -> int:
        return self.offsets.size - 1

    @property
    def nbytes(self) -> int:
        return (self.ranks.nbytes + self.prefix.nbytes + self.offsets.nbytes
                + self.thresholds.nbytes)

    def trial_range(self, t0: int, t1: int) -> "BookProfile":
        """The profile of trials ``[t0, t1)``, renumbered from 0 (views)."""
        if t0 == 0 and t1 == self.n_trials:
            return self
        a, b = int(self.offsets[t0]), int(self.offsets[t1])
        return BookProfile(self.ranks[a:b], self.prefix[a + t0:b + t1],
                           self.offsets[t0:t1 + 1] - a, self.thresholds)

    def _counts(self, ranks: np.ndarray) -> np.ndarray:
        """``(ranks.size, n_trials)``: how many of each trial's positive
        occurrences rank ``<= ranks[c]``, for ascending ``ranks``.

        One counting pass for every (trial, threshold): a stored rank
        ``g`` is ``<= ranks[c]`` exactly when its bucket — how many query
        ranks lie below ``g`` — is ``<= c``.  Bucket the stored ranks (one
        table entry per stored value), count them per (trial, bucket)
        with one ``bincount``, and a running count along each trial gives
        every count at once.
        """
        n_trials, width = self.n_trials, ranks.size + 1
        bins = np.repeat(np.arange(0, n_trials * width, width),
                         np.diff(self.offsets))
        bins += np.searchsorted(
            ranks, np.arange(self.thresholds.size + 1)).take(self.ranks)
        counts = np.bincount(bins, minlength=n_trials * width).reshape(
            n_trials, width)
        return np.cumsum(counts, axis=1, out=counts)[:, :-1].T.copy()

    def resolve(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """``(rows, n_trials)`` sums of ``clip(g - lo, 0, hi - lo)`` for
        windows ``0 <= lo <= hi`` (``lo`` finite).

        A loss equal to ``lo`` counts below the window and one equal to
        ``hi`` above it, so both contribute exactly; ``lo == hi`` rows
        are exactly 0.  An infinite ``hi`` has nothing above it, which
        is what keeps ``inf * 0`` out of the last term.  The difference
        of running sums can leave a -ulp residue on a trial priced
        entirely below the window, hence the clamp (the error budget
        the kernel's shift mask admits rows by).
        """
        below = np.searchsorted(self.thresholds, lo, side="right")
        inside = np.maximum(
            np.searchsorted(self.thresholds, hi, side="left"), below)
        ranks, column = np.unique(np.concatenate((below, inside)),
                                  return_inverse=True)
        # Positions into ``prefix``, rank-major, so that a row's ``i``
        # and ``j`` are whole-row copies and the answer is born
        # ``(rows, n_trials)``.  The last two terms subtract the exact
        # negations of ``lo·(j - i)`` and ``cap·(k - j)``.
        shift = np.arange(self.n_trials)
        pos = self._counts(ranks)
        pos += self.offsets[:-1] + shift
        i = pos.take(column[:lo.size], axis=0)
        j = pos.take(column[lo.size:], axis=0)
        res = self.prefix.take(j)
        res -= self.prefix.take(i)
        i -= j
        res += lo[:, None] * i
        j -= self.offsets[1:] + shift
        cap = hi - lo
        res -= np.where(np.isinf(cap), 0.0, cap)[:, None] * j
        return np.maximum(res, 0.0, out=res)


#: Book profiles one YET keeps (least recently used beyond that is
#: dropped): a serving YET quotes a handful of books at a time, and a
#: profile is ~12 bytes per positive occurrence.
MAX_BOOK_PROFILES = 8


class BookProfiles:
    """The bounded per-book :class:`BookProfile` cache of one YET.

    Keyed by the stored book's *content* (every batch stacks a fresh
    kernel over equal-but-distinct lookup objects).  Owned by — and
    dropped with — its :class:`YetTable`, so a re-simulated YET starts
    empty; pickles as a fresh empty cache, so profiles are never
    shipped and an attached copy builds its own once per worker.
    Builds run under the lock: concurrent same-book batches (the
    batcher's broker thread beside callers) share one build.
    """

    __slots__ = ("_lock", "_profiles", "builds", "hits", "evictions")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._profiles: OrderedDict = OrderedDict()
        self.builds = self.hits = self.evictions = 0

    def __reduce__(self):
        return (BookProfiles, ())

    def get(self, key: bytes, build) -> BookProfile:
        """The profile under ``key``, built by ``build()`` on a miss."""
        with self._lock:
            profile = self._profiles.get(key)
            if profile is not None:
                self._profiles.move_to_end(key)
                self.hits += 1
                return profile
            profile = self._profiles[key] = build()
            self.builds += 1
            while len(self._profiles) > MAX_BOOK_PROFILES:
                self._profiles.popitem(last=False)
                self.evictions += 1
            return profile

    def snapshot(self) -> dict:
        """Flat ``yet.profile.*`` levels (the :mod:`repro.obs` schema):
        ``bytes`` is every resident profile's arrays, off ``.nbytes``."""
        with self._lock:
            resident = tuple(self._profiles.values())
        return {"yet.profile.builds": self.builds,
                "yet.profile.hits": self.hits,
                "yet.profile.evictions": self.evictions,
                "yet.profile.resident": len(resident),
                "yet.profile.bytes": sum(p.nbytes for p in resident)}


class EventIndex:
    """The occurrence stream of one trial-sorted table, event-major.

    Two arrays: :attr:`keys`, the stream's trial column ordered by
    (event, trial) — equal entries are interchangeable (same event,
    same trial, hence the same loss under any row) — and an offset
    table, ``ends``, one offset per event: event ``r``'s occurrences are
    ``keys[ends[r - 1]:ends[r]]`` (from 0 for ``r == 0``), their trials
    ascending.  The occurrences of an event are therefore read, not
    searched for: two offsets give its whole run, and two offsets of a
    *boundary* give its part in a trial block (:meth:`occurrences`).
    That is what lets a kernel row visit only the occurrences of the
    events that pierce its retention, and a pool worker only those in
    its own trials.

    **Boundaries.**  Where event ``r``'s run reaches trial ``t`` is its
    run start plus its occurrences in the stream before trial ``t`` —
    one ``bincount`` of the event ranks in that prefix.  Trials 0 and
    ``n_trials`` are the run starts and ``ends`` themselves; any other
    boundary a block is cut at is built once, under the lock, and kept
    (8 bytes per offset entry): a table's dispatchers cut it at the
    same few trials sweep after sweep.

    **Sizing rule.**  ``ends`` is indexed by event id when the id space
    is no wider than the stream (``max_id + 1 <= n_occurrences``), and
    otherwise by the event's *rank* among the stream's distinct ids,
    which the index then holds sorted (one ``searchsorted`` per looked-up
    event).  A table indexed by id over CSR-scale ids would cost 8 bytes
    per *id*; ranked, it costs 8 per distinct id, plus 8 for the id.

    Built lazily, under a lock, on the first lookup: one array takes the
    key ``event << b | trial`` (``b`` bits hold any trial; the event's
    rank from one ``np.unique`` when ranked), is sorted in place and
    masked in place down to its trial, so the only occurrence-sized
    array is the one kept — 8 bytes per occurrence.  The offsets are
    one ``bincount`` (or ``np.unique``'s counts) and a ``cumsum``.  A
    :class:`YetTable` owns one over its own columns (``yet.event_index``:
    it dies with the table, and pickles as an unbuilt index over the
    pickled columns, so it is never shipped and an attached copy builds
    its own once per worker).
    """

    __slots__ = ("_lock", "_trials", "_event_ids", "n_trials", "_keys",
                 "_ends", "_events", "_bounds", "builds")

    def __init__(self, trials: np.ndarray, event_ids: np.ndarray,
                 n_trials: int) -> None:
        self._lock = threading.Lock()
        self._trials = trials
        self._event_ids = event_ids
        self.n_trials = int(n_trials)
        self._keys: np.ndarray | None = None
        self._ends: np.ndarray | None = None
        self._events: np.ndarray | None = None
        #: Interior trial boundary → where each run reaches it.
        self._bounds: dict[int, np.ndarray] = {}
        #: Times the stream was sorted into keys — stays at 1 however
        #: many sweeps (or workers' tasks) look events up.
        self.builds = 0

    def __reduce__(self):
        return (EventIndex, (self._trials, self._event_ids, self.n_trials))

    @property
    def keys(self) -> np.ndarray:
        """The event-major trial column (built on first use)."""
        with self._lock:
            if self._keys is None:
                self._build()
            return self._keys

    def _build(self) -> None:
        event_ids = self._event_ids
        # The trial takes the key's low bits, so reducing a sorted key
        # to its trial is a mask, not an integer division.
        shift = (self.n_trials - 1).bit_length()
        if int(event_ids.max(initial=-1)) < event_ids.size:
            # ``minlength=1``: an empty stream still has one (empty) run
            # for an unheld id to be clamped onto.
            counts = np.bincount(event_ids, minlength=1)
            keys = event_ids << shift
        else:
            self._events, keys, counts = np.unique(
                event_ids, return_inverse=True, return_counts=True)
            keys <<= shift
        keys |= self._trials
        keys.sort()
        keys &= (1 << shift) - 1
        self._ends = np.cumsum(counts, out=counts)
        self._keys = keys
        self.builds += 1

    def _at(self, t: int, rank: np.ndarray) -> np.ndarray:
        """Where the runs of ``rank`` reach trial ``t`` (a new array)."""
        if t == self.n_trials:
            return self._ends[rank]
        if t == 0:
            at = self._ends[rank - 1]
            at[rank == 0] = 0
            return at
        bound = self._bounds.get(t)
        if bound is None:
            with self._lock:
                bound = self._bounds.get(t)
                if bound is None:
                    ids = self._event_ids[:np.searchsorted(self._trials, t)]
                    if self._events is not None:
                        ids = np.searchsorted(self._events, ids)
                    bound = np.bincount(ids, minlength=self._ends.size)
                    bound[1:] += self._ends[:-1]
                    self._bounds[t] = bound
        return bound[rank]

    def occurrences(self, events: np.ndarray, t0: int,
                    t1: int) -> tuple[np.ndarray, np.ndarray]:
        """The occurrences of ``events`` (non-negative ids, repeats
        allowed) in trials ``[t0, t1)``: ``(counts, trial)`` — how many
        occurrences each entry of ``events`` has there, and their trials
        renumbered from ``t0``, in (position in ``events``, trial) order.
        ``np.repeat(v, counts)`` lays any per-event array ``v`` beside
        ``trial``; one read serves any number of rows' events at once."""
        keys = self.keys
        last = self._ends.size - 1
        if self._events is None:
            rank = np.minimum(events, last)
            held = events <= last
        else:
            rank = np.minimum(np.searchsorted(self._events, events), last)
            held = self._events[rank] == events
        lo = self._at(t0, rank)
        counts = self._at(t1, rank) - lo
        counts[~held] = 0
        # Run r's k-th occurrence sits at lo[r] + k, and is entry
        # (cumsum - counts)[r] + k of the result.
        lo -= np.cumsum(counts) - counts
        at = np.repeat(lo, counts)
        at += np.arange(at.size)
        trial = keys[at]
        if t0:
            trial -= t0
        return counts, trial

    def snapshot(self) -> dict:
        """Flat ``yet.event_index.*`` levels (the :mod:`repro.obs`
        schema): every array the index holds, boundaries included."""
        held = (self._keys, self._ends, self._events, *self._bounds.values())
        return {"yet.event_index.builds": self.builds,
                "yet.event_index.bytes": sum(
                    a.nbytes for a in held if a is not None)}


class TrialSegments:
    """Whole-trial segments of a trial-sorted occurrence stream.

    Everything a kernel sweep needs from the trial column, so a sweep
    handed one never reads the column: the ``k``-th non-empty trial (id
    ``trial_ids[k]``) occupies stream rows ``[bounds[k], bounds[k+1])``.
    Empty trials have no segment: ``np.add.reduceat`` returns ``a[i]``
    (not 0) for an empty segment and raises on a start index == n, so
    it is only ever fed these non-empty starts and its sums scattered to
    ``trial_ids``.  ``max_count`` is the longest segment (the exact
    bound the kernel's shifted-clip gate needs).

    Built from trial offsets (trial ``t`` occupies rows ``[offsets[t],
    offsets[t+1])``, any base), so a trial range of a YET is the same
    constructor over a slice of :attr:`YetTable.trial_offsets`.

    Segments handed out by :meth:`YetTable.trial_block` also carry the
    way to what the YET keeps about its whole stream — its
    :class:`BookProfiles` (``profiles``) and its :class:`EventIndex`
    (``events``), and for a trial range ``within`` = the whole table's
    ``(segments, event_ids, t_start)`` — so :meth:`book_profile` serves
    a slice of the cached whole-YET profile and :meth:`event_index` the
    whole-YET index with the block's first trial, off which a by-event
    row reads just the block's span of each run.  Segments of a raw
    stream carry neither: each call builds its own.
    """

    __slots__ = ("bounds", "trial_ids", "n_trials", "max_count",
                 "_profiles", "_events", "_within")

    def __init__(self, offsets: np.ndarray,
                 profiles: BookProfiles | None = None,
                 events: EventIndex | None = None,
                 within: tuple | None = None) -> None:
        counts = np.diff(offsets)
        self.trial_ids = np.flatnonzero(counts)
        self.bounds = np.append(offsets[self.trial_ids], offsets[-1])
        self.bounds -= offsets[0]
        self.n_trials = counts.size
        self.max_count = int(counts.max(initial=0))
        self._profiles = profiles
        self._events = events
        self._within = within

    @classmethod
    def from_sorted_trials(cls, trials: np.ndarray,
                           n_trials: int) -> "TrialSegments":
        """Segments of a raw trial column sorted ascending."""
        if trials.size and (trials[0] < 0 or trials[-1] >= n_trials):
            raise ConfigurationError(f"trial indices outside [0, {n_trials})")
        return cls(np.searchsorted(trials, np.arange(n_trials + 1)))

    @property
    def n_occurrences(self) -> int:
        return int(self.bounds[-1])

    def trial_column(self) -> np.ndarray:
        """The trial column these segments describe, re-expanded."""
        return np.repeat(self.trial_ids, np.diff(self.bounds))

    def book_profile(self, key: bytes, event_ids: np.ndarray,
                     build) -> BookProfile:
        """The profile of the book ``key`` over this stream.

        ``build(segments, event_ids)`` is :meth:`BookProfile.build` with
        the book bound; it runs at most once per (YET, book) when the
        segments came from a ``YetTable``, and once per call otherwise.
        """
        if self._profiles is None:
            return build(self, event_ids)
        whole, whole_ids, t0 = self._within or (self, event_ids, 0)
        profile = self._profiles.get(key, lambda: build(whole, whole_ids))
        return profile.trial_range(t0, t0 + self.n_trials)

    def event_index(self, event_ids: np.ndarray) -> tuple[EventIndex, int]:
        """``(index, t0)``: the event-major index this stream is part of
        and the index's trial that trial 0 here is — the owning YET's
        whole-table index, whose runs the caller reads from ``t0`` for
        ``n_trials`` trials (:meth:`EventIndex.occurrences`), or one
        over this stream alone (built for the call)."""
        if self._events is None:
            return EventIndex(self.trial_column(), event_ids,
                              self.n_trials), 0
        return self._events, self._within[2] if self._within else 0


def _check_trial_range(t_start: int, t_stop: int, n_trials: int) -> None:
    if not (0 <= t_start < t_stop <= n_trials):
        raise ConfigurationError(
            f"invalid trial range [{t_start}, {t_stop}) for {n_trials} trials")


def trial_spans(n_trials: int, n_blocks: int) -> list[tuple[int, int]]:
    """``(t0, t1)`` spans cutting ``n_trials`` into ``min(n_blocks,
    n_trials)`` contiguous, near-equal, non-empty blocks of whole trials:
    the pooled dispatcher's spans and the MapReduce engine's splits."""
    bounds = np.linspace(0, n_trials, min(n_blocks, n_trials) + 1).astype(int)
    return [(int(b0), int(b1))
            for b0, b1 in zip(bounds[:-1], bounds[1:]) if b1 > b0]


@dataclass(frozen=True)
class YetHandles:
    """Shared-memory descriptor of one YET (the zero-copy wire format).

    Produced by :meth:`YetTable.to_shared`; pickles as three
    :class:`~repro.hpc.shm.ShmArrayHandle` column descriptors plus the
    trial count — a few hundred bytes for a table of any size.
    :meth:`YetTable.from_handles` re-attaches it as views in a worker.
    ``fingerprint`` rides along when the source table had already
    computed it, so attached copies skip the content hash too.
    """

    trial: object
    seq: object
    event_id: object
    n_trials: int
    fingerprint: str | None = None


class YetTable:
    """Pre-simulated year-event table.

    Rows are sorted by ``(trial, seq)`` and event ids are non-negative;
    ``n_trials`` is explicit because trial years with zero occurrences
    are legal and must survive round-trips (their annual loss is zero,
    which matters for quantiles).

    Beyond its columns a table keeps three things about its stream,
    each derived lazily, once per table (once per worker for a
    :meth:`from_handles` copy), never pickled or shipped, and dropped
    with it: the trial index (:attr:`trial_offsets` and the whole-table
    :class:`TrialSegments`), the book profiles of same-book quote groups
    (:attr:`profiles`), and the event-major index that high-attaching
    lane rows price by (:attr:`event_index`).  :meth:`trial_block` hands
    a sweep all three; :meth:`cache_levels` reports them.
    """

    __slots__ = ("table", "n_trials", "_offsets", "_segments",
                 "_fingerprint", "index_builds", "profiles", "event_index")

    def __init__(self, table: ColumnTable, n_trials: int) -> None:
        if table.schema != YET_SCHEMA:
            raise ConfigurationError("YET table must match YET_SCHEMA")
        if n_trials <= 0:
            raise ConfigurationError(f"n_trials must be positive, got {n_trials}")
        trials = table["trial"]
        if trials.size:
            if (trials < 0).any() or trials.max() >= n_trials:
                raise ConfigurationError("YET trial indices out of range")
            if (np.diff(trials) < 0).any():
                raise ConfigurationError("YET rows must be sorted by trial")
            # Every dense gather clips ids into the table, which would
            # price a negative id as event 0; the event index keys on it.
            if table["event_id"].min() < 0:
                raise ConfigurationError("YET event ids must be non-negative")
        self.table = table
        self.n_trials = int(n_trials)
        self._init_caches()

    def _init_caches(self, fingerprint: str | None = None) -> None:
        self._offsets: np.ndarray | None = None
        self._segments: TrialSegments | None = None
        self._fingerprint = fingerprint
        #: Times the trial column was read to derive the trial index —
        #: stays at 1 however many sweeps (or workers' tasks) use it.
        self.index_builds = 0
        #: Book profiles of same-book quote groups (see
        #: :class:`BookProfiles`): live and die with this table.
        self.profiles = BookProfiles()
        #: The stream event-major, for lane rows priced by events (see
        #: :class:`EventIndex`): built on first use, dies with this table.
        self.event_index = EventIndex(self.table["trial"],
                                      self.table["event_id"], self.n_trials)

    @classmethod
    def simulate(
        cls,
        event_ids: np.ndarray,
        rates: np.ndarray,
        n_trials: int,
        rng: np.random.Generator,
        mean_events_per_trial: float | None = None,
    ) -> "YetTable":
        """Monte-Carlo simulate the YET from catalogue occurrence rates.

        Each trial year draws ``Poisson(Σ rates)`` occurrences; each
        occurrence is an event sampled with probability proportional to
        its rate.  ``mean_events_per_trial`` rescales the total rate,
        which is how benches hit the companion study's ~1000
        events/trial without a million-event catalogue.
        """
        event_ids = np.asarray(event_ids, dtype=np.int64)
        rates = np.asarray(rates, dtype=np.float64)
        if event_ids.size == 0 or event_ids.shape != rates.shape:
            raise ConfigurationError("event_ids and rates must be equal-length, non-empty")
        if (rates <= 0).any():
            raise ConfigurationError("rates must be positive")
        if n_trials <= 0:
            raise ConfigurationError(f"n_trials must be positive, got {n_trials}")
        total_rate = float(rates.sum())
        lam = mean_events_per_trial if mean_events_per_trial is not None else total_rate
        if lam <= 0:
            raise ConfigurationError("mean_events_per_trial must be positive")
        counts = rng.poisson(lam=lam, size=n_trials)
        total = int(counts.sum())
        # Inverse-CDF event sampling (faster than rng.choice with p=).
        cdf = np.cumsum(rates)
        cdf /= cdf[-1]
        picks = np.searchsorted(cdf, rng.random(total), side="right")
        trial = np.repeat(np.arange(n_trials, dtype=np.int64), counts)
        # Sequence number within each trial: position minus trial start.
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        seq = (np.arange(total) - np.repeat(starts, counts)).astype(np.int32)
        table = ColumnTable.from_arrays(
            YET_SCHEMA, trial=trial, seq=seq, event_id=event_ids[picks]
        )
        return cls(table, n_trials)

    @property
    def n_occurrences(self) -> int:
        return self.table.n_rows

    @property
    def trials(self) -> np.ndarray:
        return self.table["trial"]

    @property
    def event_ids(self) -> np.ndarray:
        return self.table["event_id"]

    @property
    def nbytes(self) -> int:
        return self.table.nbytes

    @property
    def trial_offsets(self) -> np.ndarray:
        """Offsets such that trial ``t`` occupies rows ``[o[t], o[t+1])``."""
        if self._offsets is None:
            self._offsets = np.searchsorted(
                self.table["trial"], np.arange(self.n_trials + 1)
            )
            self.index_builds += 1
        return self._offsets

    def trial_block(self, t_start: int = 0, t_stop: int | None = None
                    ) -> tuple[TrialSegments, np.ndarray]:
        """``(segments, event_ids)`` of trials ``[t_start, t_stop)``,
        renumbered block-local: the arguments of
        :meth:`PortfolioKernel.sweep_segments`.

        The trial index (offsets, whole-table segments) is derived once
        per table — once per worker for a :meth:`from_handles` copy —
        and a sub-range is offset arithmetic over it, so no sweep
        re-scans the trial column.  The segments lead back to
        :attr:`profiles` and :attr:`event_index`, so same-book groups
        and by-event rows of any trial range price off one whole-table
        profile per book and one whole-table index.
        """
        offsets = self.trial_offsets
        if t_stop is None:
            t_stop = self.n_trials
        _check_trial_range(t_start, t_stop, self.n_trials)
        if self._segments is None:
            self._segments = TrialSegments(offsets, self.profiles,
                                           self.event_index)
        if t_start == 0 and t_stop == self.n_trials:
            return self._segments, self.event_ids
        within = (self._segments, self.event_ids, t_start)
        return (TrialSegments(offsets[t_start:t_stop + 1], self.profiles,
                              self.event_index, within),
                self.event_ids[int(offsets[t_start]):int(offsets[t_stop])])

    def trial_blocks(self, t_start: int, t_stop: int) -> tuple:
        """:meth:`trial_block` as the one block (see :class:`StoredYet`)."""
        return (self.trial_block(t_start, t_stop),)

    def fingerprint(self) -> str:
        """Content hash of the trial set (hex), computed once and cached.

        Two YETs with the same occurrence stream and trial count share a
        fingerprint regardless of identity — this is the first component
        of the serving layer's content-addressed cache key, and what lets
        a re-simulated YET invalidate exactly the stale entries.
        """
        if self._fingerprint is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(np.int64(self.n_trials).tobytes())
            # Feed the columns through the buffer protocol — a paper-
            # scale YET is gigabytes, and ``tobytes`` would copy it all.
            h.update(np.ascontiguousarray(self.table["trial"]).data)
            h.update(np.ascontiguousarray(self.table["event_id"]).data)
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def mean_events_per_trial(self) -> float:
        return self.n_occurrences / self.n_trials

    def cache_levels(self) -> dict:
        """Flat ``yet.profile.*`` / ``yet.event_index.*`` levels: what
        this table keeps about its stream beyond the columns."""
        return {**self.profiles.snapshot(), **self.event_index.snapshot()}

    # -- shared-memory transport -------------------------------------------

    def to_shared(self, arena) -> YetHandles:
        """Place the table's columns in shared memory; returns the handles.

        ``arena`` is a :class:`~repro.hpc.shm.SharedArena` (or anything
        with its ``place`` signature) that *owns* the resulting segment —
        this table is copied into it once, and every worker that calls
        :meth:`from_handles` on the result sees the same physical pages
        instead of a pickled replica.

        All three columns travel, although the sweep paths read only
        ``trial``/``event_id``: the handles are the YET's wire format
        (the multi-node sharding axis will ship whole sub-YETs), so a
        faithful round-trip is worth ``seq``'s ~20% of one staging copy.
        """
        h_trial, h_seq, h_event = arena.place(
            self.table["trial"], self.table["seq"], self.table["event_id"]
        )
        return YetHandles(
            trial=h_trial, seq=h_seq, event_id=h_event,
            n_trials=self.n_trials, fingerprint=self._fingerprint,
        )

    @classmethod
    def from_handles(cls, handles: YetHandles) -> "YetTable":
        """Re-attach a shared YET as zero-copy (read-only) column views.

        Validation is skipped: the owning process validated the table
        when it was built, and the attach path runs in workers where an
        extra O(n) sortedness pass per process would tax exactly the
        hot path this transport exists to thin.
        """
        table = ColumnTable(YET_SCHEMA, {
            "trial": handles.trial.attach(),
            "seq": handles.seq.attach(),
            "event_id": handles.event_id.attach(),
        })
        yet = cls.__new__(cls)
        yet.table = table
        yet.n_trials = int(handles.n_trials)
        yet._init_caches(handles.fingerprint)
        return yet

    def slice_trials(self, t_start: int, t_stop: int) -> "YetTable":
        """Sub-YET covering trials ``[t_start, t_stop)`` (renumbered to 0)."""
        _check_trial_range(t_start, t_stop, self.n_trials)
        o = self.trial_offsets
        sub = self.table.slice(int(o[t_start]), int(o[t_stop]))
        renumbered = ColumnTable.from_arrays(
            YET_SCHEMA,
            trial=sub["trial"] - t_start,
            seq=sub["seq"],
            event_id=sub["event_id"],
        )
        return YetTable(renumbered, t_stop - t_start)


class StoredYet:
    """A YET on disk, read as whole-trial blocks (§II: at paper scale it
    does not fit memory).

    A :class:`~repro.data.store.ChunkStore` table with integer ``trial``
    and ``event_id`` columns, rows in trial order, chunks cut anywhere.
    :meth:`trial_blocks` holds back each chunk's last, possibly partial,
    trial for the next, so blocks are whole trials and an answer is
    ``np.array_equal`` to the in-memory table's at any chunk size.
    Resident: one chunk plus the longest trial.  A bad row raises
    :class:`~repro.errors.EngineError` naming the table and the chunk.

    A chunk is seen once, so rows priced by events (or a book profile)
    build their index (profile) per block: against pricing every row on
    the stream, one by-event row over a 500 k-occurrence store pays
    ≈ +4 to +8 ms, 8 rows break even and 32 gain ≈ 10 ms (a whole run on
    a 2-vCPU host, ≈ 20 ms of it read + unpack); by-stream rows are
    unchanged.  Every pass re-reads the store; :meth:`cache_levels` and
    ``n_occurrences`` count the last one.
    """

    def __init__(self, store: ChunkStore, table_name: str, n_trials: int) -> None:
        if n_trials <= 0:
            raise EngineError(f"n_trials must be positive, got {n_trials}")
        self.store = store
        self.table_name = table_name
        self.n_trials = int(n_trials)
        self.chunks_read = self.n_occurrences = self.blocks = 0

    def cache_levels(self) -> dict:
        """Flat ``yet.store.*`` levels of the last pass."""
        return {"yet.store.chunks_read": self.chunks_read,
                "yet.store.rows_read": self.n_occurrences,
                "yet.store.blocks": self.blocks}

    def trial_blocks(self, t_start: int, t_stop: int):
        """Whole-trial ``(segments, event_ids)`` blocks tiling ``[t_start,
        t_stop)``, each renumbered from where the one before ended, so
        empty trials between or after rows are zero-length segments."""
        _check_trial_range(t_start, t_stop, self.n_trials)
        self.chunks_read = self.n_occurrences = self.blocks = 0
        start, last = t_start, None
        # The trial held back from the chunks read so far.
        held_trials = held_events = np.empty(0, dtype=np.int64)
        for ordinal, chunk in enumerate(self.store.iter_chunks(self.table_name)):
            trials, events = self._checked(ordinal, chunk, last)
            self.chunks_read += 1
            self.n_occurrences += trials.size
            last = trials[-1] if trials.size else last
            keep = slice(*np.searchsorted(trials, (t_start, t_stop)))
            trials = np.concatenate((held_trials, trials[keep]))
            events = np.concatenate((held_events, events[keep]))
            cut = int(np.searchsorted(trials, trials[-1])) if trials.size else 0
            if cut:
                end = int(trials[cut - 1]) + 1
                yield self._block(trials[:cut], events[:cut], start, end)
                start = end
                # Copied: a view would keep the chunk's whole columns alive.
                trials, events = trials[cut:].copy(), events[cut:].copy()
            held_trials, held_events = trials, events
        yield self._block(held_trials, held_events, start, t_stop)

    def _block(self, trials, events, start, stop):
        self.blocks += 1
        return TrialSegments(np.searchsorted(trials, np.arange(start, stop + 1))), events

    def _checked(self, ordinal: int, chunk: ColumnTable, last):
        """One chunk's columns, checked (``last``: the trial before)."""
        where = f"stored table {self.table_name!r}"
        if "trial" not in chunk.schema or "event_id" not in chunk.schema:
            raise EngineError(f"{where} lacks YET columns")
        where += f", chunk {ordinal}"
        for column in ("trial", "event_id"):
            # A cast would price event 1.5 as event 1.
            if not np.issubdtype(chunk[column].dtype, np.integer):
                raise EngineError(f"{where}: {column} column is "
                                  f"{chunk[column].dtype}, not integer")
        trials = np.asarray(chunk["trial"], dtype=np.int64)
        events = np.asarray(chunk["event_id"], dtype=np.int64)
        if not trials.size:
            return trials, events
        if ((last is not None and trials[0] < last)
                or np.any(trials[1:] < trials[:-1])):
            raise EngineError(f"{where}: rows step back in trial order")
        if trials[0] < 0 or trials[-1] >= self.n_trials:
            raise EngineError(f"{where}: trial indices outside [0, {self.n_trials})")
        if events.min() < 0:
            raise EngineError(f"{where}: negative event id")
        return trials, events


# ---------------------------------------------------------------------------
# YELT
# ---------------------------------------------------------------------------

class YeltTable:
    """Year-event-loss table (stage-2 intermediate)."""

    __slots__ = ("table", "n_trials")

    def __init__(self, table: ColumnTable, n_trials: int) -> None:
        if table.schema != YELT_SCHEMA:
            raise ConfigurationError("YELT table must match YELT_SCHEMA")
        if n_trials <= 0:
            raise ConfigurationError(f"n_trials must be positive, got {n_trials}")
        trials = table["trial"]
        if trials.size and ((trials < 0).any() or trials.max() >= n_trials):
            raise ConfigurationError("YELT trial indices out of range")
        self.table = table
        self.n_trials = int(n_trials)

    @property
    def n_rows(self) -> int:
        return self.table.n_rows

    @property
    def nbytes(self) -> int:
        return self.table.nbytes

    def total_loss(self) -> float:
        return float(self.table["loss"].sum())

    def to_ylt(self) -> "YltTable":
        """Aggregate to a dense YLT (the ``groupby_sum`` of the pipeline).

        Note this is the *pre-aggregate-terms* annual loss; engines apply
        layer aggregate terms on top of this.
        """
        losses = np.zeros(self.n_trials, dtype=np.float64)
        if self.table.n_rows:
            np.add.at(losses, self.table["trial"], self.table["loss"])
        return YltTable(losses)


# ---------------------------------------------------------------------------
# YLT
# ---------------------------------------------------------------------------

def _check_losses(losses: np.ndarray) -> None:
    if not np.isfinite(losses).all():
        raise ConfigurationError("YLT losses must be finite")
    if (losses < 0).any():
        raise ConfigurationError("YLT losses must be non-negative")


class YltTable:
    """Dense year-loss table: ``losses[t]`` is trial ``t``'s annual loss."""

    __slots__ = ("losses",)

    def __init__(self, losses: np.ndarray) -> None:
        losses = np.asarray(losses, dtype=np.float64)
        if losses.ndim != 1 or losses.size == 0:
            raise ConfigurationError("YLT losses must be a non-empty 1-D array")
        _check_losses(losses)
        self.losses = losses

    @classmethod
    def rows(cls, matrix: np.ndarray) -> list["YltTable"]:
        """One YLT per row of a ``(rows, n_trials)`` matrix — views of
        its rows, checked as one array rather than row by row."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.size == 0:
            raise ConfigurationError("YLT rows must be a non-empty 2-D array")
        _check_losses(matrix)
        ylts = [cls.__new__(cls) for _ in range(matrix.shape[0])]
        for ylt, row in zip(ylts, matrix):
            ylt.losses = row
        return ylts

    @property
    def n_trials(self) -> int:
        return self.losses.size

    @property
    def nbytes(self) -> int:
        return self.losses.nbytes

    def mean(self) -> float:
        """Expected annual loss (the pure premium)."""
        return float(self.losses.mean())

    def add(self, other: "YltTable") -> "YltTable":
        """Trial-aligned (comonotonic-by-trial) combination."""
        if other.n_trials != self.n_trials:
            raise ConfigurationError(
                f"cannot add YLTs with {self.n_trials} and {other.n_trials} trials"
            )
        return YltTable(self.losses + other.losses)

    @classmethod
    def zeros(cls, n_trials: int) -> "YltTable":
        if n_trials <= 0:
            raise ConfigurationError(f"n_trials must be positive, got {n_trials}")
        return cls(np.zeros(n_trials, dtype=np.float64))

    @classmethod
    def sum(cls, ylts: list["YltTable"]) -> "YltTable":
        if not ylts:
            raise ConfigurationError("cannot sum an empty list of YLTs")
        acc = ylts[0]
        for y in ylts[1:]:
            acc = acc.add(y)
        return acc

    def to_table(self) -> ColumnTable:
        """Export as a (trial, loss) column table."""
        return ColumnTable.from_arrays(
            YLT_SCHEMA,
            trial=np.arange(self.n_trials, dtype=np.int64),
            loss=self.losses,
        )

    @classmethod
    def from_table(cls, table: ColumnTable, n_trials: int) -> "YltTable":
        """Import from a sparse (trial, loss) table (missing trials = 0)."""
        if table.schema != YLT_SCHEMA:
            raise ConfigurationError("YLT table must match YLT_SCHEMA")
        losses = np.zeros(n_trials, dtype=np.float64)
        trials = table["trial"]
        if trials.size:
            if (trials < 0).any() or trials.max() >= n_trials:
                raise ConfigurationError("YLT trial indices out of range")
            np.add.at(losses, trials, table["loss"])
        return cls(losses)

    def allclose(self, other: "YltTable", rtol: float = 1e-9, atol: float = 1e-6) -> bool:
        return (
            self.n_trials == other.n_trials
            and bool(np.allclose(self.losses, other.losses, rtol=rtol, atol=atol))
        )


# ---------------------------------------------------------------------------
# YELLT size model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class YelltModel:
    """Analytic size model for the location-level loss table (E1/E2).

    §II: "if an analysis of 10,000 contracts for 100,000 events in 1,000
    locations with 50,000 trial years is considered, the Year-Event-
    Location-Loss Table (YELLT) has over 5×10¹⁶ entries" — i.e. the paper
    accounts the YELLT as the full cross product.  The model exposes both
    that accounting and the occurrence-based one (rows that would actually
    materialise given a mean events-per-trial), plus the derived
    YELT/YLT sizes whose ~1000× ratios §II quotes.
    """

    n_contracts: int
    n_events: int
    n_locations: int
    n_trials: int
    mean_events_per_trial: float = 1000.0

    def __post_init__(self):
        for name in ("n_contracts", "n_events", "n_locations", "n_trials"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.mean_events_per_trial <= 0:
            raise ConfigurationError("mean_events_per_trial must be positive")

    @classmethod
    def paper_scale(cls) -> "YelltModel":
        """The exact parameters quoted in §II."""
        return cls(n_contracts=10_000, n_events=100_000, n_locations=1_000,
                   n_trials=50_000)

    # -- the paper's cross-product accounting ------------------------------

    def yellt_entries(self) -> float:
        """Entries by the paper's accounting (contracts×events×locations×trials)."""
        return (
            float(self.n_contracts) * self.n_events * self.n_locations * self.n_trials
        )

    def yelt_entries(self) -> float:
        """YELT = YELLT marginalised over locations (÷ n_locations)."""
        return self.yellt_entries() / self.n_locations

    def ylt_entries(self) -> float:
        """YLT = YELT aggregated over the year's events.

        The §II rule of thumb ("1000 times smaller") corresponds to the
        mean number of event occurrences per trial year.
        """
        return self.yelt_entries() / self.mean_events_per_trial

    # -- occurrence-based accounting ----------------------------------------

    def yellt_rows_materialised(self) -> float:
        """Rows a YELLT materialisation would actually hold: one row per
        (trial, occurrence, location, contract) with non-zero loss bound."""
        return (
            float(self.n_trials) * self.mean_events_per_trial
            * self.n_locations * self.n_contracts
        )

    def bytes_at(self, entries: float, row_bytes: int = 8) -> float:
        """Size in bytes at ``row_bytes`` per entry (8 = one f8 loss)."""
        if row_bytes <= 0:
            raise ConfigurationError("row_bytes must be positive")
        return entries * row_bytes

    def ratios(self) -> dict[str, float]:
        """The two §II size ratios."""
        return {
            "yellt_over_yelt": self.yellt_entries() / self.yelt_entries(),
            "yelt_over_ylt": self.yelt_entries() / self.ylt_entries(),
        }
