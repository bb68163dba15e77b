"""Event-loss lookup structures.

The inner operation of aggregate analysis is "given an event id, what
loss does this layer's ELT set assign it?" executed ~10⁹ times per run.
The companion study's key GPU optimisation is *where* this lookup table
lives: a small dense table fits constant memory (broadcast-cached, fast);
a large one must live in global memory (chunked).  :class:`LossLookup`
abstracts the structure, and the id range decides it
(:data:`DENSE_MAX_ENTRIES`):

- ``dense``: a direct-indexed array of length ``max_event_id + 1``
  (missing events are 0) — O(1) gather, constant-memory candidate;
- ``sparse``: sorted ids + ``searchsorted`` — O(log n) per probe, the
  layout when the dense table would pass that cap.
"""

from __future__ import annotations

import numpy as np

from repro.core.tables import EltTable
from repro.errors import ConfigurationError

__all__ = ["DENSE_MAX_ENTRIES", "LossLookup", "dense_gather_into",
           "merge_by_id", "sparse_gather_into"]

#: A lookup is dense when its direct-index table holds at most this many
#: slots (``max_event_id + 1``): a 32 MB cap on one table, past which
#: the sorted ids + ``searchsorted`` layout is used instead.  A book's
#: shape decides its layout; nothing else does.
DENSE_MAX_ENTRIES = 4_000_000


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


def dense_gather_into(table: np.ndarray, event_ids: np.ndarray,
                      out: np.ndarray) -> np.ndarray:
    """Gather ``table[event_ids]`` into ``out`` with no float temporaries.

    Ids at or beyond the table end are unknown events and gather 0; the
    only intermediate is the boolean in-bounds mask.  ``out`` may be any
    float64 buffer of the ids' shape (including a row view of a larger
    block matrix), which is what lets the fused portfolio sweep reuse one
    preallocated block buffer across the whole run.
    """
    np.take(table, event_ids, mode="clip", out=out)
    np.multiply(out, event_ids < table.size, out=out)
    return out


def sparse_gather_into(ids: np.ndarray, values: np.ndarray,
                       event_ids: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Gather from a sorted (ids, values) pair into ``out``; misses are 0."""
    pos = np.searchsorted(ids, event_ids)
    np.minimum(pos, ids.size - 1, out=pos)
    np.take(values, pos, out=out)
    np.multiply(out, ids[pos] == event_ids, out=out)
    return out


class LossLookup:
    """Vectorised ``event_id → loss`` map with dense and sparse layouts."""

    __slots__ = ("kind", "_dense", "_ids", "_values")

    def __init__(self, kind: str, dense: np.ndarray | None,
                 ids: np.ndarray | None, values: np.ndarray | None) -> None:
        if kind not in ("dense", "sparse"):
            raise ConfigurationError(f"unknown lookup kind {kind!r}")
        self.kind = kind
        self._dense = dense
        self._ids = ids
        self._values = values

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_arrays(cls, event_ids: np.ndarray, values: np.ndarray
                    ) -> "LossLookup":
        """Build the best layout for the given id set.

        A dense table is used when ``max_event_id`` is small enough that
        the direct-index array stays within :data:`DENSE_MAX_ENTRIES`
        slots.
        """
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
        max_id = int(ids_sorted[-1])
        dense = None
        if max_id + 1 <= DENSE_MAX_ENTRIES:
            dense = np.zeros(max_id + 1, dtype=np.float64)
            dense[ids_sorted] = vals_sorted
        # Built tables are read-only: many layers and kernels may read
        # one lookup, so no caller may write into it.
        for array in (dense, ids_sorted, vals_sorted):
            if array is not None:
                array.flags.writeable = False
        return cls("sparse" if dense is None else "dense", dense,
                   ids_sorted, vals_sorted)

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

        Allocates exactly one array (the result); see :meth:`gather_into`
        for the zero-allocation variant over a caller-owned buffer.
        """
        event_ids = np.asarray(event_ids, dtype=np.int64)
        out = np.empty(event_ids.shape, dtype=np.float64)
        return self.gather_into(event_ids, out)

    def gather_into(self, event_ids: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Gather losses for ``event_ids`` into the preallocated ``out``.

        ``out`` must be float64 with the ids' shape; it is returned.  The
        fused portfolio sweep calls this once per occurrence block per
        sparse layer, reusing one block buffer for the whole run.
        """
        event_ids = np.asarray(event_ids, dtype=np.int64)
        if self.kind == "dense":
            return dense_gather_into(self._dense, event_ids, out)
        return sparse_gather_into(self._ids, self._values, event_ids, out)

    def get_scalar(self, event_id: int) -> float:
        """Scalar lookup (sequential-engine oracle path)."""
        return float(self(np.array([event_id], dtype=np.int64))[0])

    def as_dict(self) -> dict[int, float]:
        """Materialise as a Python dict (pure-Python engine input)."""
        return {int(i): float(v) for i, v in zip(self._ids, self._values)}

    # -- placement metadata ---------------------------------------------------

    @property
    def table_array(self) -> np.ndarray:
        """The array an engine would place in device memory."""
        return self._dense if self.kind == "dense" else self._values

    @property
    def nbytes(self) -> int:
        """Device bytes needed for this lookup's arrays."""
        if self.kind == "dense":
            return self._dense.nbytes
        return self._ids.nbytes + self._values.nbytes

    @property
    def resident_bytes(self) -> int:
        """Host bytes this lookup holds: every array, not only the one
        an engine would place (the sorted ids and values stay beside a
        dense table)."""
        return sum(a.nbytes for a in (self._dense, self._ids, self._values)
                   if a is not None)

    @property
    def n_entries(self) -> int:
        return self._ids.size

    @property
    def ids(self) -> np.ndarray:
        return self._ids

    @property
    def values(self) -> np.ndarray:
        return self._values
