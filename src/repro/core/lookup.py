"""Event-loss lookup: one book's sorted ``(event, loss)`` entries.

The inner operation of aggregate analysis is "given an event id, what
loss does this layer's ELT set assign it?" executed ~10⁹ times per run.
A book is stored one way, whatever its ids: its event ids ascending
(int64) and each id's loss (float64), 16 B per entry.  How a stream is
looked up in it is decided per call, by the book's id range alone
(:func:`fits_direct`):

- while a direct-index table over the ids stays within
  :data:`DENSE_MAX_ENTRIES` slots, :func:`reader` builds one
  (``ids[-1] + 2`` slots, missing events 0) and every read is one
  ``take`` from it — O(1) per probe;
- past that, a read binary-searches the ids — O(log n) per probe, and
  no table is ever built over the wide range.

A :class:`LossLookup` builds its reader on its first read and keeps
it, so every read of a book goes through one table; a caller that reads
derived values over a book's ids (a net table, a book profile's ranks)
builds its own reader once.

The companion study's key GPU optimisation is *where* a lookup table
lives (constant memory when small, global when large): a placement, not
a second format, which the device engine's model draws from the same id
range.
"""

from __future__ import annotations

import hashlib
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError

if TYPE_CHECKING:   # for annotations only: repro.core.tables imports this module
    from repro.core.tables import EltTable

__all__ = ["DENSE_MAX_ENTRIES", "LossLookup", "effective_width",
           "fits_direct", "merge_by_id", "reader"]

#: Slots a direct-index table over a book's ids (``ids[-1] + 1``) may
#: hold: a 32 MB cap on one table, past which a stream is looked up by
#: ``searchsorted`` instead.  A book's id range decides it; nothing
#: else does.
DENSE_MAX_ENTRIES = 4_000_000


def fits_direct(ids: np.ndarray) -> bool:
    """Whether a direct-index table over the sorted, non-empty ``ids``
    fits :data:`DENSE_MAX_ENTRIES`: the one decision a book's id range
    makes."""
    return int(ids[-1]) + 1 <= DENSE_MAX_ENTRIES


def effective_width(ids: np.ndarray, values: np.ndarray) -> int:
    """Slots of a direct-index table over the pair up to its last
    non-zero loss (at least one): trailing zero losses read as unknown
    events, so a table trimmed there is the same lookup."""
    nonzero = ids[values != 0.0]
    return int(nonzero[-1]) + 1 if nonzero.size else 1


def merge_by_id(ids: np.ndarray, values: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """``(unique ids ascending, each id's values summed)`` by one stable
    ``argsort`` and one ``bincount``, which adds each id's values from
    0.0 in input order — as ``np.add.at`` over ``np.unique``'s inverse
    does, so the sums are that merge's bit for bit, minus its hashing."""
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    first = np.diff(ids, prepend=ids[:1] - 1) != 0
    return ids[first], np.bincount(np.cumsum(first) - 1,
                                   weights=values[order])


def reader(ids: np.ndarray, values: np.ndarray):
    """``read(event_ids, out=None)``: ``values`` of ``event_ids`` in the
    sorted pair ``(ids, values)``, 0 for an unknown event (non-negative
    ids), built once for any number of reads.

    While the ids :func:`fits_direct`, one ``take`` from a direct-index
    table in the values' dtype, ``ids[-1] + 2`` slots whose zero last
    slot is where ``mode="clip"`` lands every id past the book; else a
    ``searchsorted`` per read.
    """
    if fits_direct(ids):
        table = np.zeros(int(ids[-1]) + 2, dtype=values.dtype)
        table[ids] = values
        return partial(np.take, table, mode="clip")

    def search(event_ids: np.ndarray, out: np.ndarray | None = None
               ) -> np.ndarray:
        pos = np.searchsorted(ids, event_ids)
        np.minimum(pos, ids.size - 1, out=pos)
        out = np.take(values, pos, out=out)
        return np.multiply(out, ids[pos] == event_ids, out=out)
    return search


class LossLookup:
    """Vectorised ``event_id → loss`` map over one book's sorted
    ``(ids, values)`` entries (read-only; built by :meth:`from_arrays`).

    Two things are derived from the entries on first use and kept: the
    :func:`reader` every read goes through (:meth:`gather_into`) and the
    content :attr:`key`.  Both are pure functions of the entries, so two
    threads racing to the first use build equal ones, and either is
    kept.
    """

    __slots__ = ("_ids", "_values", "_read", "_key")

    def __init__(self, ids: np.ndarray, values: np.ndarray) -> None:
        self._ids = ids
        self._values = values
        self._read = None
        self._key: bytes | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_arrays(cls, event_ids: np.ndarray, values: np.ndarray
                    ) -> "LossLookup":
        """The book over ``(event_ids, values)``, sorted by id."""
        # Copies: the arrays kept are made read-only below.
        ids_sorted = np.array(event_ids, dtype=np.int64)
        vals_sorted = np.array(values, dtype=np.float64)
        if ids_sorted.size == 0 or ids_sorted.shape != vals_sorted.shape:
            raise ConfigurationError("event_ids and values must be equal-length, non-empty")
        # A merge's ids arrive strictly ascending: one pass, no sort.
        if not (ids_sorted[1:] > ids_sorted[:-1]).all():
            order = np.argsort(ids_sorted)
            ids_sorted, vals_sorted = ids_sorted[order], vals_sorted[order]
            if (ids_sorted[1:] == ids_sorted[:-1]).any():
                raise ConfigurationError("duplicate event ids in lookup")
        if ids_sorted[0] < 0:
            raise ConfigurationError("event ids must be non-negative")
        # Built books are read-only: many layers and kernels may read
        # one lookup, so no caller may write into it.
        ids_sorted.flags.writeable = False
        vals_sorted.flags.writeable = False
        return cls(ids_sorted, vals_sorted)

    @classmethod
    def from_elt(cls, elt: EltTable) -> "LossLookup":
        """Lookup over one ELT's mean losses."""
        return cls.from_arrays(elt.event_ids, elt.mean_losses)

    @classmethod
    def from_elts(cls, elts, weights=None) -> "LossLookup":
        """Merged lookup over several ELTs (losses summed per event).

        A layer over multiple ELTs sees, for each event, the sum of the
        (optionally weighted) ELT losses — the merge is precomputed here
        once instead of per-occurrence in the engines.
        """
        elts = list(elts)
        if not elts:
            raise ConfigurationError("need at least one ELT")
        if weights is None:
            weights = [1.0] * len(elts)
        if len(weights) != len(elts):
            raise ConfigurationError("one weight per ELT required")
        return cls.from_arrays(*merge_by_id(
            np.concatenate([e.event_ids for e in elts]),
            np.concatenate([w * e.mean_losses for w, e in zip(weights, elts)])))

    # -- access ----------------------------------------------------------------

    def __call__(self, event_ids: np.ndarray) -> np.ndarray:
        """Vectorised lookup; unknown ids map to loss 0.

        Allocates the result; see :meth:`gather_into` for the variant
        over a caller-owned buffer.
        """
        event_ids = np.asarray(event_ids, dtype=np.int64)
        out = np.empty(event_ids.shape, dtype=np.float64)
        return self.gather_into(event_ids, out)

    def gather_into(self, event_ids: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Gather losses for ``event_ids`` into the preallocated ``out``.

        ``out`` must be float64 with the ids' shape (a row view of a
        larger block matrix included); it is returned.  Every read goes
        through the book's one :func:`reader`, built on the first read.
        """
        read = self._read
        if read is None:
            read = self._read = reader(self._ids, self._values)
        return read(np.asarray(event_ids, dtype=np.int64), out=out)

    @property
    def key(self) -> bytes:
        """Content hash of the entries (16 B), computed on first use:
        equal books behind distinct lookup objects share it."""
        if self._key is None:
            digest = hashlib.blake2b(np.ascontiguousarray(self._ids).data,
                                     digest_size=16)
            digest.update(np.ascontiguousarray(self._values).data)
            self._key = digest.digest()
        return self._key

    def get_scalar(self, event_id: int) -> float:
        """Scalar lookup (sequential-engine oracle path)."""
        return float(self(np.array([event_id], dtype=np.int64))[0])

    def as_dict(self) -> dict[int, float]:
        """Materialise as a Python dict (pure-Python engine input)."""
        return {int(i): float(v) for i, v in zip(self._ids, self._values)}

    @property
    def resident_bytes(self) -> int:
        """Bytes this lookup holds: its sorted ids and values."""
        return self._ids.nbytes + self._values.nbytes

    @property
    def n_entries(self) -> int:
        return self._ids.size

    @property
    def ids(self) -> np.ndarray:
        return self._ids

    @property
    def values(self) -> np.ndarray:
        return self._values
