"""Content-addressed result cache for the serving layer.

Once the YET is pre-simulated and shared, a pricing result is a pure
function of three things: *which trial set* (the YET's content
fingerprint), *which contract* (a digest of the layer's ELT content,
weights, and financial terms), and *which metric* was asked for.  The
cache keys on exactly that triple, so:

- two users submitting the same candidate structure hit the same entry
  even though they built distinct ``Layer`` objects;
- a cache shared between services over different trial sets (one
  session each) never serves one set's entry to the other: the YET
  fingerprint is the first key component;
- quotes, YLT rows, and EP curves for one layer are separate entries —
  a curve is ~``n_trials`` floats, a quote is five.

Eviction is LRU by entry count.  The cache stores latency-free payloads
(metric values, not :class:`~repro.dfa.quote.PricingQuote` objects);
the service re-stamps per-request latency on every hit so the quote
latency fields stay honest.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.core.layer import Layer
from repro.errors import ConfigurationError

__all__ = ["CachePolicy", "ResultCache", "layer_digest", "payload_nbytes"]


def payload_nbytes(payload) -> int:
    """Approximate payload footprint (``nbytes`` when exposed — YLTs and
    EP curves — else a small flat charge per entry).  Public so the
    service's telemetry can account cache hit/miss bytes with the same
    sizing rule the cache's byte budget uses."""
    return int(getattr(payload, "nbytes", 64))


def layer_digest(layer: Layer) -> str:
    """Content digest of a layer: ELT arrays, weights, and terms (hex).

    Delegates to :meth:`Layer.content_digest`, which hashes the *inputs*
    of the merged lookup (event ids and mean losses per ELT,
    participation weights) plus the terms — never forcing a lookup build.
    The ELT part is hashed once per book, for every layer over it, and
    the result is cached on the layer until its book is invalidated, so
    repeat submissions of a hot layer skip the hash entirely.
    """
    return layer.content_digest()


@dataclass(frozen=True)
class CachePolicy:
    """Sizing policy for a :class:`ResultCache`.

    ``max_entries == 0`` disables caching entirely (every request prices
    fresh) — the configuration benchmarks use to measure raw sweep
    throughput.  ``max_bytes`` bounds the payload footprint: a quote is
    a handful of floats but a cached YLT or EP curve is ``~8·n_trials``
    bytes, so entry count alone would let curve traffic pin gigabytes at
    paper scale.  ``None`` disables the byte bound.
    """

    max_entries: int = 4096
    max_bytes: int | None = 256 * 2**20

    def __post_init__(self):
        if self.max_entries < 0:
            raise ConfigurationError("max_entries must be non-negative")
        if self.max_bytes is not None and self.max_bytes < 0:
            raise ConfigurationError("max_bytes must be non-negative (or None)")


class ResultCache:
    """LRU cache over ``(yet_fingerprint, layer_digest, metric)`` keys.

    Thread-safe: submitters and the batcher's broker thread hit the
    cache concurrently, so every operation holds one internal lock (the
    critical sections are dict operations, never pricing work).  It
    keeps no tally of its own: each service that uses it counts its hits
    and evictions on its telemetry plane (``serve.cache.*``).
    """

    def __init__(self, policy: CachePolicy | None = None) -> None:
        self.policy = policy or CachePolicy()
        self._entries: OrderedDict[tuple[str, str, str], object] = OrderedDict()
        self._lock = threading.Lock()
        self._bytes = 0

    _payload_nbytes = staticmethod(payload_nbytes)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Accounted payload bytes currently held."""
        with self._lock:
            return self._bytes

    def get(self, key: tuple[str, str, str]):
        """The cached payload for ``key``, or ``None``."""
        return self.get_many((key,))[0]

    def get_many(self, keys) -> list:
        """The cached payload for each key, in order (``None`` for a
        miss), read under one lock; every hit becomes most recent in
        key order, as that many :meth:`get` calls would leave it."""
        entries = self._entries
        out = []
        with self._lock:
            for key in keys:
                payload = entries.get(key)
                if payload is not None:
                    entries.move_to_end(key)
                out.append(payload)
        return out

    def put(self, key: tuple[str, str, str], payload) -> int:
        """Insert (or refresh) an entry; see :meth:`put_many`."""
        return self.put_many(((key, payload),))

    def put_many(self, items) -> int:
        """Insert (or refresh) each ``(key, payload)`` in order, under
        one lock, evicting LRU entries over either budget (entry count
        or payload bytes) after each insert, as that many single puts
        would.  Returns how many entries this call evicted: services
        sharing the cache each report their own."""
        max_entries, max_bytes = self.policy.max_entries, self.policy.max_bytes
        if max_entries == 0:
            return 0
        entries, nbytes = self._entries, self._payload_nbytes
        evicted = 0
        with self._lock:
            for key, payload in items:
                size = nbytes(payload)
                if max_bytes is not None and size > max_bytes:
                    continue  # would evict the whole cache for one entry
                old = entries.pop(key, None)
                if old is not None:
                    self._bytes -= nbytes(old)
                entries[key] = payload
                self._bytes += size
                while len(entries) > max_entries or (
                    max_bytes is not None and self._bytes > max_bytes
                ):
                    _, dropped = entries.popitem(last=False)
                    self._bytes -= nbytes(dropped)
                    evicted += 1
        return evicted

    def clear(self) -> int:
        """Drop everything; returns how many entries were dropped."""
        with self._lock:
            n = len(self._entries)
            self._entries.clear()
            self._bytes = 0
            return n
