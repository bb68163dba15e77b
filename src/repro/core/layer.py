"""Reinsurance layers: ELT sets under financial terms.

A layer is the unit of aggregate analysis in the companion study [7]: a
set of ELTs (the contracts ceded into the layer) priced together under
occurrence/aggregate terms.

What a layer reads is its *book* — its ELT objects and their weights —
and the terms only shape what is done with it.  Layers over the same
ELT objects and weights therefore share one interned book, which builds
the merged event-loss lookup (its sorted ``(event, loss)`` entries, the
one way a book is stored) and the content digest of the ELT arrays
once, under a lock, for all of them.  A burst of 512 term variations of one book holds one merged
table, not 512, and hashes the ELT arrays once.  The registry holds
books weakly, so a book dies with its last layer; :func:`book_levels`
reports how many are resident and the bytes of the merges they hold.
"""

from __future__ import annotations

import hashlib
import struct
import threading
import weakref

import numpy as np

from repro.core.lookup import LossLookup
from repro.core.tables import EltTable
from repro.core.terms import LayerTerms
from repro.errors import ConfigurationError

__all__ = ["Layer", "book_levels"]

#: Interned books by ``(ids of the ELT objects, weights)``.  A book holds
#: its ELTs, so an id in a live key cannot be reused by another object.
_BOOKS: "weakref.WeakValueDictionary[tuple, _Book]" = (
    weakref.WeakValueDictionary())
_BOOKS_LOCK = threading.Lock()
#: Bytes of the merged lookups resident books hold.  Re-entrant: a
#: book's ``__del__`` can run while this thread already holds it.
_LEDGER_LOCK = threading.RLock()
_book_bytes = 0


def _ledger_add(nbytes: int) -> None:
    global _book_bytes
    with _LEDGER_LOCK:
        _book_bytes += nbytes


def book_levels() -> dict:
    """``layer.books.*`` levels: interned books alive, and the bytes of
    the merged lookups they hold (the ELTs they read are the caller's)."""
    with _LEDGER_LOCK:
        return {"layer.books.resident": len(_BOOKS),
                "layer.books.bytes": _book_bytes}


class _Book:
    """One ELT set and its weights: the merge and digest of every layer
    over it, each built once under the book's lock.  ``generation``
    counts invalidations, so a layer knows when its cached digest is
    stale."""

    __slots__ = ("elts", "weights", "generation", "_lookup", "_digest",
                 "_lock", "__weakref__")

    def __init__(self, elts: tuple, weights: tuple | None) -> None:
        self.elts = elts
        self.weights = weights
        self.generation = 0
        self._lookup: LossLookup | None = None
        self._digest: bytes | None = None
        self._lock = threading.Lock()

    @property
    def _bytes(self) -> int:
        return 0 if self._lookup is None else self._lookup.resident_bytes

    def lookup(self) -> LossLookup:
        lk = self._lookup
        if lk is None:
            with self._lock:
                lk = self._lookup
                if lk is None:
                    lk = self._lookup = LossLookup.from_elts(
                        self.elts, weights=self.weights)
                    _ledger_add(lk.resident_bytes)
        return lk

    def digest(self) -> tuple[bytes, int]:
        """The ELT arrays' and weights' content hash, with the generation
        it belongs to."""
        with self._lock:
            if self._digest is None:
                h = hashlib.blake2b(digest_size=16)
                weights = self.weights or (1.0,) * len(self.elts)
                # Length framing: without the ELT count and per-ELT row
                # counts, two different partitions of overlapping bytes
                # could hash identically.
                h.update(struct.pack("<Q", len(self.elts)))
                for elt, w in zip(self.elts, weights):
                    h.update(struct.pack("<Qd", elt.n_events, w))
                    h.update(np.ascontiguousarray(elt.event_ids).data)
                    h.update(np.ascontiguousarray(elt.mean_losses).data)
                self._digest = h.digest()
            return self._digest, self.generation

    def invalidate(self) -> None:
        with self._lock:
            _ledger_add(-self._bytes)
            self._lookup = None
            self._digest = None
            self.generation += 1

    def __del__(self) -> None:
        _ledger_add(-self._bytes)


def _intern(elts: tuple, weights: tuple | None) -> _Book:
    key = (tuple(id(e) for e in elts), weights)
    with _BOOKS_LOCK:
        book = _BOOKS.get(key)
        if book is None:
            book = _BOOKS[key] = _Book(elts, weights)
    return book


class Layer:
    """One reinsurance layer.

    The merged lookup and the ELT-content digest belong to the layer's
    book (its ELT objects and weights), which every layer over the same
    ones shares; the layer adds its terms.

    Parameters
    ----------
    layer_id:
        Stable id; YLT outputs are keyed by it.
    elts:
        The ELTs ceded into this layer (at least one).
    terms:
        The layer's financial terms.
    weights:
        Optional per-ELT participation weights in the merged lookup.
    """

    __slots__ = ("layer_id", "elts", "terms", "weights", "_book",
                 "_digest", "_digest_generation")

    def __init__(self, layer_id: int, elts, terms: LayerTerms,
                 weights=None) -> None:
        elts = tuple(elts)
        if not elts:
            raise ConfigurationError("a layer needs at least one ELT")
        for e in elts:
            if not isinstance(e, EltTable):
                raise ConfigurationError(f"expected EltTable, got {type(e).__name__}")
        if layer_id < 0:
            raise ConfigurationError("layer_id must be non-negative")
        if weights is not None:
            weights = tuple(float(w) for w in weights)
            if len(weights) != len(elts):
                raise ConfigurationError("one weight per ELT required")
            if any(w <= 0 for w in weights):
                raise ConfigurationError("ELT weights must be positive")
        self.layer_id = int(layer_id)
        self.elts = elts
        self.terms = terms
        self.weights = weights
        self._book = _intern(elts, weights)
        self._digest: str | None = None
        self._digest_generation = -1

    def __reduce__(self):
        # An unpickled layer re-interns its book in the receiving process.
        return (Layer, (self.layer_id, self.elts, self.terms, self.weights))

    @property
    def n_elts(self) -> int:
        return len(self.elts)

    @property
    def n_events(self) -> int:
        """Total ELT rows across the layer (with multiplicity)."""
        return sum(e.n_events for e in self.elts)

    def lookup(self) -> LossLookup:
        """The book's merged event-loss lookup.

        Built once for every layer over the same ELT objects and weights
        — they all return the same read-only object: the book's sorted
        ``(event, loss)`` entries, whatever its id range.
        """
        return self._book.lookup()

    def content_digest(self) -> str:
        """Content hash of the layer: H(terms ‖ book digest), cached.

        This is the identity the serving layer's result cache keys on.
        It reads content only — the book digest hashes the ELT arrays and
        weights — so two ``Layer`` objects built from the same contract
        data and terms digest identically, and a quote computed for one
        serves the other.  The cache is re-derived when the book was
        invalidated (:meth:`invalidate_lookup`) since it was taken.
        """
        book = self._book
        if self._digest_generation != book.generation:
            book_digest, generation = book.digest()
            h = hashlib.blake2b(digest_size=16)
            t = self.terms
            h.update(struct.pack(
                "<5d", t.occ_retention, t.occ_limit, t.agg_retention,
                t.agg_limit, t.participation,
            ))
            h.update(book_digest)
            self._digest = h.hexdigest()
            self._digest_generation = generation
        return self._digest

    def invalidate_lookup(self) -> None:
        """Drop cached lookups and digests after mutating an ELT in place.

        Every book holding one of this layer's ELTs is invalidated, so
        every layer reading a mutated ELT — over this book or another —
        re-derives its merge and digest on next use.
        """
        mine = {id(e) for e in self.elts}
        with _BOOKS_LOCK:
            books = list(_BOOKS.values())
        for book in books:
            if any(id(e) in mine for e in book.elts):
                book.invalidate()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Layer(id={self.layer_id}, n_elts={self.n_elts}, "
            f"terms={self.terms!r})"
        )
