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

import functools
import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.core.lookup import reader
from repro.data.columnar import ColumnTable, cast_lossless
from repro.data.schema import Schema
from repro.data.store import ChunkStore
from repro.errors import ConfigurationError, EngineError, SchemaError
from repro.util.validation import check_unique_ids

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
    "whole_trial_cuts",
]

ELT_SCHEMA = Schema([
    ("event_id", np.int64),
    ("mean_loss", np.float64),
    ("sigma", np.float64),  # secondary-uncertainty std-dev of the loss
])

# 12 B per occurrence.  Trials and event ids are below 2**31 (so is
# ``n_trials``): ``ColumnTable.from_arrays`` refuses a wider value rather
# than wrap it, and an ELT id at or above 2**31 matches no occurrence.
YET_SCHEMA = Schema([
    ("trial", np.int32),
    ("seq", np.int32),       # occurrence order within the trial year
    ("event_id", np.int32),
])

#: The YET's id dtype (``trial`` and ``event_id``).
_ID = YET_SCHEMA["event_id"].dtype
#: ``n_trials`` bound: every trial, and the trial offsets' last needle
#: ``n_trials``, must fit :data:`_ID`.
_MAX_TRIALS = int(np.iinfo(_ID).max)


def _check_n_trials(n_trials: int, error=ConfigurationError) -> None:
    if not 0 < n_trials <= _MAX_TRIALS:
        raise error(f"n_trials must be in [1, {_MAX_TRIALS}], got {n_trials}")


def _cuts(trials: np.ndarray, needles) -> np.ndarray:
    """``np.searchsorted(trials, needles)`` with the needles in the
    column's dtype: searchsorted casts both sides to a common dtype, so
    an int64 needle would copy an int32 column whole."""
    return np.searchsorted(trials, np.asarray(needles, dtype=trials.dtype))


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
        if table.n_rows == 0:
            raise ConfigurationError("an ELT must contain at least one event")
        check_unique_ids("ELT", table["event_id"])
        for column, what in (("mean_loss", "losses"), ("sigma", "sigmas")):
            # NaN fails both bounds, so it cannot reach a merged lookup.
            if not ((table[column] >= 0) & (table[column] < np.inf)).all():
                raise ConfigurationError(
                    f"ELT {what} must be finite and non-negative")
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
    0.0 and added in order over that trial alone, as
    ``np.add.accumulate`` of the trial would add them — so an answer is
    a function of the trial and the row, whatever span of trials the
    profile was built over, the other rows, or the blocks the stream was
    read in (:meth:`build`).  A profile covers exactly one
    :class:`TrialSegments` span, which builds and keeps it
    (:meth:`TrialSegments.book_profile`).
    """

    __slots__ = ("ranks", "prefix", "offsets", "thresholds")

    def __init__(self, ranks, prefix, offsets, thresholds) -> None:
        self.ranks = ranks
        self.prefix = prefix
        self.offsets = offsets
        self.thresholds = thresholds

    @classmethod
    def build(cls, segments: "TrialSegments", ids: np.ndarray,
              values: np.ndarray) -> "BookProfile":
        """Profile of the book ``(ids, values)`` (its sorted entries) over
        the span ``segments``, in flat integer passes.

        The book's positive values are ranked once.  The stream is read
        in whole-trial blocks (:meth:`TrialSegments.blocks`; the answer
        does not depend on their size): a block reads its events' int32 ranks off one
        :func:`~repro.core.lookup.reader` of the book's ranks (a direct
        table while its ids fit one), keeps the non-zero ones and sorts
        their keys ``trial << b | rank``, which a mask reduces to the
        ranks.  A positive's trial is its block's trial ids repeated by
        each trial's count of positives, so the trial column is never
        expanded.  What a build holds beyond the profile is one block's
        arrays and 4 B per positive occurrence (the blocks' ranks until
        they are joined); the running sums are one step per position in
        a trial (:func:`_running_sums`).
        """
        order = np.argsort(values, kind="stable")
        order = order[np.searchsorted(values[order], 0.0, side="right"):]
        thresholds = values[order]
        rank = np.zeros(values.size, dtype=np.int32)
        rank[order] = np.arange(1, thresholds.size + 1)
        look = reader(ids, rank)
        n_trials, trial_ids = segments.n_trials, segments.trial_ids
        event_ids = segments.event_ids
        shift = thresholds.size.bit_length()
        key_type = _key_dtype(n_trials, shift)
        counts = np.zeros(n_trials, dtype=np.int64)
        parts = [np.empty(0, dtype=np.int32)]
        for rows, trials, starts in segments.blocks():
            ranks = look(event_ids[rows])
            hits = np.flatnonzero(ranks != 0)
            found = np.diff(np.searchsorted(hits, starts), append=hits.size)
            counts[trial_ids[trials]] = found
            keys = np.repeat((trial_ids[trials] << shift).astype(key_type),
                             found)
            keys |= ranks.take(hits)
            keys.sort()
            keys &= (1 << shift) - 1
            parts.append(keys.astype(np.int32, copy=False))
        ranks = np.concatenate(parts)
        del parts
        offsets = np.zeros(n_trials + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        prefix = _running_sums(ranks, offsets,
                               np.concatenate(([0.0], thresholds)))
        return cls(ranks, prefix, offsets, thresholds)

    @property
    def n_trials(self) -> int:
        return self.offsets.size - 1

    @property
    def nbytes(self) -> int:
        return (self.ranks.nbytes + self.prefix.nbytes + self.offsets.nbytes
                + self.thresholds.nbytes)

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


def _running_sums(ranks: np.ndarray, offsets: np.ndarray,
                  levels: np.ndarray) -> np.ndarray:
    """:attr:`BookProfile.prefix`: per trial ``t`` a 0.0, then the running
    sum of ``levels[ranks[offsets[t]:offsets[t + 1]]]``, added one value
    at a time in order — as ``np.add.accumulate`` over the trial alone
    adds, so every sum is that call's bit for bit.

    One step per position in a trial, each adding the position's value
    into every trial that long at once (longest trials first, so a step's
    trials are a prefix): as many steps as the longest trial.
    """
    n_trials = offsets.size - 1
    counts = np.diff(offsets)
    prefix = np.zeros(ranks.size + n_trials)
    busy = np.flatnonzero(counts)
    longest = int(counts.max(initial=0))
    busy = busy[np.argsort(-counts[busy], kind="stable")]
    # Trials longer than k, for every step k.
    live = np.searchsorted(-counts[busy], -np.arange(longest), side="left")
    at = offsets[busy]          # each trial's k-th rank at step k ...
    to = busy + 1               # ... and its k-th running sum, ``at + to``
    run = np.zeros(busy.size)
    for n in live.tolist():
        run = run[:n]
        run += levels.take(ranks.take(at[:n]))
        prefix[at[:n] + to[:n]] = run
        at += 1
    return prefix


#: Book profiles one trial span keeps (least recently used beyond that
#: is dropped): a serving YET quotes a handful of books at a time, and a
#: profile is ~12 bytes per positive occurrence.
MAX_BOOK_PROFILES = 8


class BookProfiles:
    """The bounded per-book :class:`BookProfile` cache of one
    :class:`TrialSegments` span.

    Keyed by the stored book's *content*
    (:attr:`~repro.core.lookup.LossLookup.key`: every batch stacks a
    fresh kernel, and equal books behind distinct lookup objects share a
    profile).  Owned by — and dropped with — its span, so a re-simulated
    YET starts empty, and an attached copy in a pool worker builds the
    profiles of the spans it sweeps, never of the whole YET.  Builds run
    under the lock: concurrent same-book batches (the batcher's broker
    thread beside callers) share one build.
    """

    __slots__ = ("_lock", "_profiles", "builds", "hits", "evictions")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._profiles: OrderedDict = OrderedDict()
        self.builds = self.hits = self.evictions = 0

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


def _position_dtype(n: int) -> type:
    """The narrowest signed type of every position in ``n`` entries."""
    return np.int32 if n <= 2**31 else np.int64


def _key_dtype(entries: int, shift: int) -> type:
    """The narrowest signed type of every key ``high << shift | low``
    with ``high < entries`` and ``low < 2**shift``."""
    return np.int32 if entries << shift <= 2**31 else np.int64


class EventIndex:
    """The occurrence stream of one trial span, event-major.

    Two arrays: :attr:`keys`, the span's trial column (numbered from
    the span's first trial) ordered by (event, trial) — equal entries
    are interchangeable (same event, same trial, hence the same loss
    under any row) — and an offset table, ``ends``, one int64 offset per
    event: event ``r``'s occurrences are ``keys[ends[r - 1]:ends[r]]``
    (from 0 for ``r == 0``), their trials ascending.  The occurrences of
    an event are therefore read, not searched for: two offsets give its
    whole run (:meth:`occurrences`).  That is what lets a kernel row
    visit only the occurrences of the events that pierce its retention.
    An index covers exactly one :class:`TrialSegments` span, built from
    the span alone — its event ids and its segments, never a trial
    column — on its first by-event sweep and kept by it
    (:meth:`TrialSegments.event_index`), so no read stops inside a run
    and a pool worker indexes only the rows of its own span.

    **Sizing rule.**  ``ends`` is indexed by event id when the id space
    is no wider than the stream (``max_id + 1 <= n_occurrences``), and
    otherwise by the event's *rank* among the stream's distinct ids,
    which the index then holds sorted (one ``searchsorted`` per looked-up
    event).  A table indexed by id over ids near 10⁹ would cost 8 bytes
    per *id*; ranked, it costs 8 per distinct id, plus the id in the
    stream's dtype (4 for a YET's int32 ids).

    **Key dtype.**  Built at construction: one array takes the key
    ``event << b | trial`` (``b`` bits hold any trial of the span; the
    event's rank from one ``np.unique`` when ranked) in the narrowest
    signed type that holds it — int32 while ``len(ends) << b <= 2**31``,
    else int64 — is sorted and masked in place down to its trial, and
    is narrowed to int32 if it was wider, so the array kept is 4 bytes
    per occurrence.  The trials are re-expanded into the keys one block
    of :meth:`TrialSegments.blocks` at a time, so no whole trial column
    is held beside them.  The offsets are one ``bincount`` (or
    ``np.unique``'s counts) and a ``cumsum``.
    """

    __slots__ = ("keys", "_ends", "_events")

    def __init__(self, segments: "TrialSegments") -> None:
        event_ids = segments.event_ids
        self._events: np.ndarray | None = None
        if int(event_ids.max(initial=-1)) < event_ids.size:
            ranks = event_ids
            # ``minlength=1``: an empty stream still has one (empty) run
            # for an unheld id to be clamped onto.
            counts = np.bincount(ranks, minlength=1)
        else:
            self._events, ranks, counts = np.unique(
                event_ids, return_inverse=True, return_counts=True)
        # The trial takes the key's low bits, so reducing a sorted key
        # to its trial is a mask, not an integer division.
        shift = (segments.n_trials - 1).bit_length()
        keys = ranks.astype(_key_dtype(counts.size, shift),
                            copy=ranks is event_ids)
        keys <<= shift
        trial_ids = segments.trial_ids.astype(_ID)
        for rows, trials, starts in segments.blocks():
            keys[rows] += np.repeat(trial_ids[trials], np.diff(
                starts, append=rows.stop - rows.start))
        keys.sort()
        keys &= (1 << shift) - 1
        self._ends = np.cumsum(counts, out=counts)
        #: The event-major trial column, int32.
        self.keys = keys.astype(_ID, copy=False)

    @property
    def nbytes(self) -> int:
        """Every array the index holds."""
        held = (self.keys, self._ends, self._events)
        return sum(a.nbytes for a in held if a is not None)

    def occurrences(self, events: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
        """The occurrences of ``events`` (non-negative ids, repeats
        allowed): ``(counts, trial)`` — how many occurrences each entry
        of ``events`` has, and their trials (int32, numbered from the
        span's first trial), in (position in ``events``, trial) order.
        ``np.repeat(v, counts)`` lays any per-event array ``v`` beside
        ``trial``; one read serves any number of rows' events at once."""
        keys, ends = self.keys, self._ends
        last = ends.size - 1
        if self._events is None:
            rank = np.minimum(events, last)
            held = events <= last
        else:
            rank = np.minimum(np.searchsorted(self._events, events), last)
            held = self._events[rank] == events
        lo = ends[rank - 1]
        lo[rank == 0] = 0
        counts = ends[rank] - lo
        counts[~held] = 0
        # Run r's k-th occurrence sits at lo[r] + k, and is entry
        # (cumsum - counts)[r] + k of the result.  Positions are int32
        # while the index has fewer than 2**31 entries: half the bytes
        # to repeat and to add.
        lo -= np.cumsum(counts) - counts
        at = np.repeat(lo.astype(_position_dtype(keys.size), copy=False),
                       counts)
        at += np.arange(at.size, dtype=at.dtype)
        return counts, keys.take(at)


def whole_trial_cuts(offsets: np.ndarray, bound: int) -> list[int]:
    """Cut points ``0 = c[0] < … < c[-1] = offsets.size - 1`` of the
    trials whose rows ``offsets`` delimits (trial ``t`` occupies rows
    ``[offsets[t], offsets[t + 1])``): each piece ``[c[i], c[i + 1])``
    is as many whole trials as fit ``bound`` rows, and at least one, so
    a longer trial is a piece alone.  The one way a stream is cut into
    whole trials: a span's blocks (:meth:`TrialSegments.blocks`), the
    device engine's chunk plan (it counts them, and sweeps once) and a
    stored YET's chunks (:meth:`StoredYet.write`)."""
    cuts, a, last = [0], 0, offsets.size - 1
    while a < last:
        a = max(int(np.searchsorted(offsets, offsets[a] + bound,
                                    side="right")) - 1, a + 1)
        cuts.append(a)
    return cuts


#: The levels :meth:`TrialSegments.cache_levels` reports.
_SPAN_LEVELS = ("yet.profile.builds", "yet.profile.hits",
                "yet.profile.evictions", "yet.profile.resident",
                "yet.profile.bytes", "yet.event_index.builds",
                "yet.event_index.bytes")


class TrialSegments:
    """One span of whole trials of a trial-sorted occurrence stream: its
    occurrences' event ids, where each trial's rows lie, and what sweeps
    derive from them.

    Everything a kernel sweep needs from the span, so a sweep handed one
    never reads a trial column: the ``k``-th non-empty trial (id
    ``trial_ids[k]``, numbered from the span's first trial) occupies
    rows ``[bounds[k], bounds[k+1])`` of :attr:`event_ids`.  Empty
    trials have no segment: ``np.add.reduceat`` returns ``a[i]`` (not 0)
    for an empty segment and raises on a start index == n, so it is only
    ever fed these non-empty starts and its sums scattered to
    ``trial_ids``.  ``max_count`` bounds the longest segment (the
    bound the kernel's shifted-clip gate reads): the longest trial of
    the YET the span is cut from (:meth:`YetTable.trial_block`; a
    MapReduce split's is set by its engine, a stored chunk's from the
    stored trial offsets, :class:`StoredYet`).  Built from the span's
    trial offsets (trial ``t`` occupies rows ``[offsets[t],
    offsets[t+1])``, any base) and its event ids, so a trial range of a
    YET is the same constructor over slices of
    :attr:`YetTable.trial_offsets` and of the event ids.

    A span derives two things on itself, lazily, and keeps them as long
    as it lives — both over its own rows and nothing more: its
    :class:`EventIndex` (:meth:`event_index`, built on the first
    by-event sweep) and its bounded
    :class:`BookProfiles` (:meth:`book_profile`, at most
    :data:`MAX_BOOK_PROFILES` books).  A :class:`YetTable` keeps one
    span per trial range it is swept over (:meth:`YetTable.trial_block`),
    so those live with the table; a raw sweep's span and a stored
    block's are built for the call and dropped with it.
    :meth:`cache_levels` reports both.
    """

    __slots__ = ("bounds", "trial_ids", "n_trials", "max_count",
                 "event_ids", "_lock", "_index", "_profiles")

    #: Bound on a block of :meth:`blocks`, in occurrences (whole trials,
    #: so one longer trial exceeds it).  Sized so the lane sweep's row
    #: buffer (256 KiB), its id slice and one net-table row stay
    #: cache-resident together; smaller chunks lose to per-call overhead
    #: — the CPU analogue of the paper's "chunk to fit the fast memory"
    #: rule.
    block_occurrences = 32_768

    def __init__(self, offsets: np.ndarray, event_ids: np.ndarray) -> None:
        counts = np.diff(offsets)
        self.trial_ids = np.flatnonzero(counts)
        self.bounds = np.append(offsets[self.trial_ids], offsets[-1])
        self.bounds -= offsets[0]
        self.n_trials = counts.size
        self.max_count = int(counts.max(initial=0))
        if event_ids.shape != (self.n_occurrences,):
            raise ConfigurationError(
                f"segments describe {self.n_occurrences} occurrences, "
                f"got event ids of shape {event_ids.shape}")
        self.event_ids = event_ids
        self._lock = threading.Lock()
        self._index: EventIndex | None = None
        self._profiles = BookProfiles()

    @classmethod
    def from_sorted_trials(cls, trials: np.ndarray, event_ids: np.ndarray,
                           n_trials: int) -> "TrialSegments":
        """The span of a raw stream whose trial column is sorted
        ascending."""
        _check_n_trials(n_trials)
        if trials.size and (trials[0] < 0 or trials[-1] >= n_trials):
            raise ConfigurationError(f"trial indices outside [0, {n_trials})")
        return cls(_cuts(trials, np.arange(n_trials + 1)), event_ids)

    @property
    def n_occurrences(self) -> int:
        return int(self.bounds[-1])

    def blocks(self) -> list[tuple[slice, slice, np.ndarray]]:
        """The span cut into blocks of whole trials, as many as fit
        :attr:`block_occurrences` (:func:`whole_trial_cuts`): per block
        its stream rows, its segments (a slice of :attr:`trial_ids`) and
        their starts counted from the block's first row.  A kernel's
        lane sweep, a book profile's build and an event index's build
        all read the span so: no trial is split, so a per-trial
        ``reduceat`` over a block sums each trial whole."""
        bounds = self.bounds
        cuts = whole_trial_cuts(bounds, self.block_occurrences)
        return [(slice(int(bounds[a]), int(bounds[b])), slice(a, b),
                 bounds[a:b] - bounds[a]) for a, b in zip(cuts, cuts[1:])]

    def event_index(self) -> EventIndex:
        """The span's event-major index, built on first use and kept."""
        with self._lock:
            if self._index is None:
                self._index = EventIndex(self)
            return self._index

    def book_profile(self, book) -> BookProfile:
        """The :class:`BookProfile` of ``book`` (a
        :class:`~repro.core.lookup.LossLookup`) over the span: built on
        first use and kept under the book's content key, so equal books
        share it."""
        return self._profiles.get(
            book.key, lambda: BookProfile.build(self, book.ids, book.values))

    def cache_levels(self) -> dict:
        """Flat ``yet.profile.*`` / ``yet.event_index.*`` levels (the
        :mod:`repro.obs` schema): what the span derived and holds."""
        index = self._index
        return {**self._profiles.snapshot(),
                "yet.event_index.builds": int(index is not None),
                "yet.event_index.bytes": 0 if index is None else index.nbytes}


def _check_span(t_start: int, t_stop: int, n_trials: int) -> None:
    if not (0 <= t_start < t_stop <= n_trials):
        raise ConfigurationError(
            f"invalid trial range [{t_start}, {t_stop}) for {n_trials} trials")


@functools.lru_cache(maxsize=64)
def trial_spans(n_trials: int, n_blocks: int) -> tuple[tuple[int, int], ...]:
    """``(t0, t1)`` spans cutting ``n_trials`` into ``min(n_blocks,
    n_trials)`` contiguous, near-equal, non-empty blocks of whole trials:
    the pooled dispatcher's spans and the MapReduce engine's splits.
    Cut once per ``(n_trials, n_blocks)``: every later run over the same
    trial count reads the cut it made."""
    bounds = np.linspace(0, n_trials, min(n_blocks, n_trials) + 1).astype(int)
    return tuple((int(b0), int(b1))
                 for b0, b1 in zip(bounds[:-1], bounds[1:]) if b1 > b0)


@dataclass(frozen=True)
class YetHandles:
    """Shared-memory descriptor of one YET (the zero-copy wire format).

    Produced by :meth:`YetTable.to_shared`; pickles as two
    :class:`~repro.hpc.shm.ShmArrayHandle`\\ s (``arrays``): the int64
    ``trial_offsets`` and the int32 ``event_id`` column, the layout a
    :class:`StoredYet` keeps on disk — plus the trial count.  A few
    hundred bytes for a table of any size, whose staged arrays are 4 B
    per occurrence plus 8 B per trial.  :meth:`YetTable.from_handles`
    re-attaches it as views in a worker.
    """

    arrays: dict
    n_trials: int


class YetTable:
    """Pre-simulated year-event table.

    Rows are sorted by ``(trial, seq)`` and event ids are non-negative;
    ``n_trials`` is explicit because trial years with zero occurrences
    are legal and must survive round-trips (their annual loss is zero,
    which matters for quantiles).  The columns are 12 B per occurrence
    (:data:`YET_SCHEMA`: int32 ``trial``, ``seq`` and ``event_id``).  A
    :meth:`from_handles` copy holds the staged trial offsets and event
    ids instead, and derives its trials, or its whole :attr:`table`, only
    when they are read.

    Beyond its columns a table keeps, each derived lazily, never pickled
    or shipped, and dropped with it: the trial index
    (:attr:`trial_offsets`, staged with a :meth:`from_handles` copy) and
    one :class:`TrialSegments` per trial span it is swept over
    (:meth:`trial_block`), each with what its sweeps derived — the
    span's event index and book profiles, over the span's rows alone.
    :meth:`cache_levels` reports them, summed over the spans.
    """

    __slots__ = ("_table", "_trials", "_event_ids", "n_trials", "_offsets",
                 "_fingerprint", "index_builds", "_spans")

    def __init__(self, table: ColumnTable, n_trials: int) -> None:
        if table.schema != YET_SCHEMA:
            raise ConfigurationError("YET table must match YET_SCHEMA")
        _check_n_trials(n_trials)
        trials = table["trial"]
        if trials.size:
            # One pass for the order; sorted, the range is its two ends.
            if (trials[1:] < trials[:-1]).any():
                raise ConfigurationError("YET rows must be sorted by trial")
            if trials[0] < 0 or trials[-1] >= n_trials:
                raise ConfigurationError("YET trial indices out of range")
            # Every dense gather clips ids into the table, which would
            # price a negative id as event 0; the event index keys on it.
            if table["event_id"].min() < 0:
                raise ConfigurationError("YET event ids must be non-negative")
        self._table = table
        self._trials = trials
        self._event_ids = table["event_id"]
        self.n_trials = int(n_trials)
        self._init_caches()

    def _init_caches(self) -> None:
        self._offsets: np.ndarray | None = None
        self._fingerprint: str | None = None
        #: Times the trial column was read to derive the trial index —
        #: stays at 1 however many sweeps use it, and at 0 for a
        #: :meth:`from_handles` copy, which reads the staged offsets.
        self.index_builds = 0
        #: ``(t0, t1)`` → the :class:`TrialSegments` of trials ``[t0, t1)``.
        self._spans: dict[tuple[int, int], TrialSegments] = {}

    def __reduce__(self):
        # The columns alone: no cache is shipped.
        return YetTable, (self.table, self.n_trials)

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
        # Narrowed (checked) once over the catalogue, so the picked
        # stream is born in the YET's dtype.
        event_ids = cast_lossless(event_ids, _ID, "event_id")
        rates = np.asarray(rates, dtype=np.float64)
        if event_ids.size == 0 or event_ids.shape != rates.shape:
            raise ConfigurationError("event_ids and rates must be equal-length, non-empty")
        if (rates <= 0).any():
            raise ConfigurationError("rates must be positive")
        _check_n_trials(n_trials)
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
        trial = np.repeat(np.arange(n_trials, dtype=_ID), counts)
        # Sequence number within each trial: position minus trial start.
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        seq = (np.arange(total) - np.repeat(starts, counts)).astype(np.int32)
        table = ColumnTable.from_arrays(
            YET_SCHEMA, trial=trial, seq=seq, event_id=event_ids[picks]
        )
        return cls(table, n_trials)

    @property
    def table(self) -> ColumnTable:
        """The columns.  A :meth:`from_handles` copy derives them on
        first read: its trials from the offsets, and ``seq`` as each
        occurrence's position in its trial (rows are sorted by
        ``(trial, seq)``, so that is the order ``seq`` gave)."""
        if self._table is None:
            starts = np.repeat(self._offsets[:-1], np.diff(self._offsets))
            seq = np.arange(starts.size, dtype=np.int64) - starts
            self._table = ColumnTable(YET_SCHEMA, {
                "trial": self.trials, "seq": seq.astype(np.int32),
                "event_id": self._event_ids})
        return self._table

    @property
    def n_occurrences(self) -> int:
        return self._event_ids.size

    @property
    def trials(self) -> np.ndarray:
        if self._trials is None:    # a from_handles copy: derived on first read
            self._trials = np.repeat(np.arange(self.n_trials, dtype=_ID),
                                     np.diff(self._offsets))
        return self._trials

    @property
    def event_ids(self) -> np.ndarray:
        return self._event_ids

    @property
    def nbytes(self) -> int:
        return self.table.nbytes

    @property
    def trial_offsets(self) -> np.ndarray:
        """Offsets such that trial ``t`` occupies rows ``[o[t], o[t+1])``
        (int64)."""
        if self._offsets is None:
            self._offsets = _cuts(self._trials, np.arange(
                self.n_trials + 1)).astype(np.int64, copy=False)
            self.index_builds += 1
        return self._offsets

    def trial_block(self, t_start: int = 0, t_stop: int | None = None
                    ) -> TrialSegments:
        """The span of trials ``[t_start, t_stop)``, renumbered from 0:
        the argument of :meth:`PortfolioKernel.sweep_segments`.

        The trial offsets are derived once per table — a
        :meth:`from_handles` copy reads the staged ones — and a span is
        offset arithmetic over them, so no sweep re-scans the trial
        column.
        The span is built once per range and kept, with the event index
        and book profiles its sweeps derive over its rows alone — so a
        pool worker indexes and profiles only its own span.  Its
        ``max_count`` is the table's longest trial, not the span's, so
        every span of one table routes a row alike and an answer does
        not depend on how the table was cut.
        """
        if t_stop is None:
            t_stop = self.n_trials
        span = self._spans.get((t_start, t_stop))
        if span is None:
            _check_span(t_start, t_stop, self.n_trials)
            offsets = self.trial_offsets[t_start:t_stop + 1]
            span = TrialSegments(
                offsets, self.event_ids[int(offsets[0]):int(offsets[-1])])
            span.max_count = int(np.diff(self.trial_offsets).max(initial=0))
            span = self._spans.setdefault((t_start, t_stop), span)
        return span

    def trial_blocks(self, t_start: int, t_stop: int) -> tuple:
        """:meth:`trial_block` as the one block (see :class:`StoredYet`)."""
        return (self.trial_block(t_start, t_stop),)

    def fingerprint(self) -> str:
        """Content hash of the trial set (hex), computed once and cached.

        Two YETs with the same occurrence stream and trial count share a
        fingerprint regardless of identity — this is the first component
        of the serving layer's content-addressed cache key, and what lets
        a re-simulated YET invalidate exactly the stale entries.

        It hashes ``n_trials``, :attr:`trial_offsets` and the event ids.
        Rows are sorted by trial, so the offsets and the trial column
        determine each other (trial ``t`` is the ``offsets[t + 1] -
        offsets[t]`` rows from ``offsets[t]``): hashing the offsets is
        hashing the column, at 8 B per trial instead of 4 B per
        occurrence.  The same event ids cut into other trials hash apart.
        """
        if self._fingerprint is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(np.int64(self.n_trials).tobytes())
            h.update(self.trial_offsets.data)
            # Through the buffer protocol — a paper-scale YET is
            # gigabytes, and ``tobytes`` would copy it all.
            h.update(np.ascontiguousarray(self._event_ids).data)
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def mean_events_per_trial(self) -> float:
        return self.n_occurrences / self.n_trials

    def cache_levels(self) -> dict:
        """Flat ``yet.profile.*`` / ``yet.event_index.*`` levels, summed
        over the kept spans: what the table keeps beyond its columns."""
        levels = dict.fromkeys(_SPAN_LEVELS, 0)
        for span in list(self._spans.values()):
            for name, level in span.cache_levels().items():
                levels[name] += level
        return levels

    # -- shared-memory transport -------------------------------------------

    def to_shared(self, arena) -> YetHandles:
        """Place the table's trial offsets and event ids in shared
        memory; returns the handles.

        ``arena`` is a :class:`~repro.hpc.shm.SharedArena` (or anything
        with its ``place`` signature) that *owns* the resulting segment —
        the arrays are copied into it once, and every worker that calls
        :meth:`from_handles` on the result sees the same physical pages
        instead of a pickled replica.

        Two arrays travel, the layout a :class:`StoredYet` keeps: the
        int64 :attr:`trial_offsets` (8 B per trial) and the int32 event
        ids (4 B per occurrence).  A sweep reads nothing else, so neither
        ``seq`` nor the trial column is staged: a :meth:`from_handles`
        copy derives its trials from the offsets if they are read.
        """
        offsets, event_ids = arena.place(self.trial_offsets, self._event_ids)
        return YetHandles(arrays={"trial_offsets": offsets,
                                  "event_id": event_ids},
                          n_trials=self.n_trials)

    @classmethod
    def from_handles(cls, handles: YetHandles) -> "YetTable":
        """Re-attach a shared YET as zero-copy (read-only) views of its
        trial offsets and event ids.

        Validation is skipped: the owning process validated the table
        when it was built, and the attach path runs in workers where an
        extra O(n) sortedness pass per process would tax exactly the
        hot path this transport exists to thin.  The staged offsets are
        the copy's trial index, so it derives none (``index_builds``
        stays 0).
        """
        yet = cls.__new__(cls)
        yet._table = yet._trials = None
        yet._event_ids = handles.arrays["event_id"].attach()
        yet.n_trials = int(handles.n_trials)
        yet._init_caches()
        yet._offsets = handles.arrays["trial_offsets"].attach()
        return yet

    def slice_trials(self, t_start: int, t_stop: int) -> "YetTable":
        """Sub-YET covering trials ``[t_start, t_stop)`` (renumbered to 0)."""
        _check_span(t_start, t_stop, self.n_trials)
        o = self.trial_offsets
        sub = self.table.slice(int(o[t_start]), int(o[t_stop]))
        renumbered = ColumnTable.from_arrays(
            YET_SCHEMA,
            trial=sub["trial"] - t_start,
            seq=sub["seq"],
            event_id=sub["event_id"],
        )
        return YetTable(renumbered, t_stop - t_start)


def _stored_column(table: ColumnTable, name: str, dtype, where: str):
    """Column ``name`` of a stored table in ``dtype``, integers narrowed
    only where every value fits: a cast would price event 1.5 as event
    1, and a narrowing one event 2**32 + 1 as event 1."""
    try:
        column = table[name]
        if column.dtype.kind not in "iu":
            raise SchemaError(f"{name} column is {column.dtype}, not integer")
        return cast_lossless(column, dtype, name)
    except SchemaError as exc:
        raise EngineError(f"{where}: {exc}") from None


class StoredYet:
    """A YET on disk, read as whole-trial blocks (§II: at paper scale it
    does not fit memory).

    Two :class:`~repro.data.store.ChunkStore` tables (:meth:`write`):
    the trial offsets (int64) as ``<table_name>.trial_offsets``, and
    the event ids (int32) as ``table_name``, in chunks of whole trials —
    4 B per occurrence plus 8 B per trial, besides the chunk headers.
    The offsets, read on opening, give ``n_trials`` and the YET's
    longest trial; each chunk is then one fresh block bounded by that
    trial, as every span of a :class:`YetTable` is, so an answer is
    ``np.array_equal`` to the in-memory table's at any chunk size.
    Resident: the offsets plus one chunk.  Bad offsets, a chunk ending
    inside a trial, or event ids that are not non-negative int32 raise
    :class:`~repro.errors.EngineError` naming the table and the chunk.
    :meth:`cache_levels` counts the chunks and rows of the last pass:
    one run, whatever its spans.
    """

    def __init__(self, store: ChunkStore, table_name: str) -> None:
        where = f"stored table {table_name!r}, trial offsets"
        name = f"{table_name}.trial_offsets"
        if name not in store.list_tables():
            raise EngineError(f"{where}: not stored")
        offsets = _stored_column(store.read_table(name), "trial_offset",
                                 np.int64, where)
        _check_n_trials(offsets.size - 1, EngineError)
        if offsets[0] != 0 or (offsets[1:] < offsets[:-1]).any():
            raise EngineError(f"{where}: must start at 0 and never step back")
        self.store = store
        self.table_name = table_name
        self.trial_offsets = offsets
        self.n_trials = offsets.size - 1
        self.n_occurrences = int(offsets[-1])
        self.max_count = int(np.diff(offsets).max())
        self.chunks_read = self.rows_read = 0

    @classmethod
    def write(cls, store: ChunkStore, table_name: str, yet: YetTable,
              rows_per_chunk: int) -> "StoredYet":
        """Store ``yet``, as many whole trials per chunk as fit
        ``rows_per_chunk`` rows (one at least), and open it."""
        offsets = yet.trial_offsets
        rows = offsets[whole_trial_cuts(offsets, rows_per_chunk)]
        schema = Schema([("event_id", _ID)])
        store.write_chunks(table_name, (
            ColumnTable.from_arrays(schema, event_id=yet.event_ids[a:b])
            for a, b in zip(rows, rows[1:])))
        schema = Schema([("trial_offset", np.int64)])
        store.write_chunks(f"{table_name}.trial_offsets", [
            ColumnTable.from_arrays(schema, trial_offset=offsets)])
        return cls(store, table_name)

    def cache_levels(self) -> dict:
        """Flat ``yet.store.*`` levels of the last pass: every chunk (and
        its rows) read since a span from trial 0 began one."""
        return {"yet.store.chunks_read": self.chunks_read,
                "yet.store.rows_read": self.rows_read}

    def trial_blocks(self, t_start: int, t_stop: int):
        """Per chunk, the block of its trials in ``[t_start, t_stop)``,
        renumbered from the first (a chunk takes the empty trials after
        its rows, so one of no rows may hold none, and yields nothing).

        A span ending before the last trial stops at the chunk holding
        its last trial; one ending at the last trial reads every chunk,
        and checks that the offsets end where the chunks do.  A span
        from trial 0 starts a pass: :meth:`cache_levels` counts every
        chunk read since, so a run's count covers all its spans."""
        _check_span(t_start, t_stop, self.n_trials)
        offsets, where = self.trial_offsets, f"stored table {self.table_name!r}"
        if t_start == 0:
            self.chunks_read = self.rows_read = 0
        first = rows = 0
        for ordinal, chunk in enumerate(self.store.iter_chunks(self.table_name)):
            at = f"{where}, chunk {ordinal}"
            events = _stored_column(chunk, "event_id", _ID, at)
            if events.size and events.min() < 0:
                raise EngineError(f"{at}: negative event id")
            self.chunks_read += 1
            self.rows_read += events.size
            rows += events.size
            last = int(np.searchsorted(offsets, rows, "right")) - 1
            if offsets[last] != rows:
                raise EngineError(f"{at}: ends at row {rows}, "
                                  f"inside a trial or past the last")
            a, b = max(first, t_start), min(last, t_stop)
            if a < b:
                row = offsets[first]
                block = TrialSegments(offsets[a:b + 1], events[
                    offsets[a] - row:offsets[b] - row])
                block.max_count = self.max_count
                yield block
            first = last
            if t_stop < self.n_trials and first >= t_stop:
                return
        if first != self.n_trials:
            raise EngineError(f"{where}, trial offsets: end at row "
                              f"{self.n_occurrences}, past the rows stored")


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
