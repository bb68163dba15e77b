"""The fused multi-layer portfolio kernel.

Every engine used to price a portfolio layer-by-layer: for L layers that
is L full passes over the same ``trials``/``event_ids`` arrays, L
separate gathers, and L separate ``bincount`` reductions — linear in
redundant memory traffic, which is exactly the data-movement cost §II
says dominates the ~10⁹ event-loss lookups of one aggregate run.

:class:`PortfolioKernel` fuses those passes.  It precomputes, once per
(portfolio, ``dense_max_entries``):

- a **stacked dense lookup**: all dense layers as one ``(D, width)``
  matrix (rows zero-padded to the widest table, so padding reads as
  "unknown event → 0");
- a **unified CSR sparse lookup**: the sparse layers' sorted ids/values
  concatenated with an offsets vector;
- ``(L,)`` **term vectors** (``occ_retention``, ``occ_limit``,
  ``agg_retention``, ``agg_limit``, ``participation``).

**The lane path** moves the occurrence terms from the occurrence stream
to the lookup.  Every row has its own ``(retention, limit)`` and reads
one stored table, so ``clip(table[e] - r, 0, c)`` is a function of the
*table entry* — and for a row that attaches high, most entries are 0
and most of the stream cannot matter.  A lane row therefore prices one
of two ways, **by a rule that reads the row alone** (its own stored
book and terms; :meth:`PortfolioKernel._pierced_entries`):

- **by events** — a dense row whose entries above its retention are at
  most :data:`BY_EVENT_MAX_FILL` (1/16) of its own table width, and
  every CSR row.  The row keeps just those entries, ``(events,
  clip(loss - r, 0, c))``, taken from the stored lookup.  A sweep
  prices all its by-event rows together: their entries, concatenated
  in row order (kept on the kernel), take **one** read of the stream's
  :class:`~repro.core.tables.EventIndex` (the trial column event-major,
  with a per-event offset table), which finds each event's occurrences
  in the trial block off two offsets — no search, no mask: a block
  narrower than the table reads its span of each run off the index's
  cached boundaries — and **one** ``bincount`` into ``row · n_trials +
  trial`` bins is every row — work proportional to the block's
  occurrences that pierce the rows' retentions, not to the stream, and
  a fixed cost paid once per sweep, not once per row.
- **on the stream** — every other row.  A per-row **net table** is
  built once per kernel (:meth:`PortfolioKernel._net_gathers`) and a
  sweep is one gather from it into a single reused row buffer plus one
  ``np.add.reduceat`` over whole-trial segment starts — no ``(L,
  block)`` lane matrix, no clip pass over the stream.  The kernel's
  ``block_occurrences`` (:data:`DEFAULT_BLOCK_OCCURRENCES`, set at
  construction, carried in :class:`KernelHandles`) bounds the row
  buffer: the stream is chunked at trial boundaries, as many whole
  trials as fit the bound (at least one).

What a sweep needs from the trial column is a
:class:`~repro.core.tables.TrialSegments`, derived once per ``YetTable``
and handed over by :meth:`YetTable.trial_block` together with the way
to the table's event index (built on the first by-event row, once per
table — once per worker for an attached copy).  The raw-array
:meth:`sweep` derives the segments per call (after one stable sort if
the stream is unsorted), builds an index *for the call* if a row
routes to it, and runs the same core — so does any sweep over
segments that did not come from a ``YetTable``.  Every row's path is
counted in :attr:`PortfolioKernel.routed` (``kernel.lane_rows.*``).

**Bit-identity rule:** a lane row's answer is a function of the trial
and the row.  A stream row sums every trial whole, in stream order, by
one ``reduceat``, whatever the chunking or trial-block decomposition; a
by-event row sums a trial's piercing occurrences in (event, stream
position) order, which no decomposition changes either.  The two orders
differ by ulps, so every entry point must route a row the same way —
which is why routing reads nothing but the row: not the stream, the
block, the kernel's other rows, nor an option.  Sharing a read and a
``bincount`` with other rows changes no sum: ``bincount`` adds in input
order, and each ``(row, trial)`` bin receives the row's occurrences in
(event, stream position) order, as it would alone.  A sweep takes a block
of whole trials and nothing else, so lane rows of whole-YET, blocked,
pooled, degraded-serial, out-of-core and raw-``sweep()`` pricing are
``np.array_equal``.

Kernel rows are ordered dense-first; :attr:`layer_ids` maps row → layer.
The kernel holds only plain arrays: a pooled dispatcher packs them into
a shared-memory slab once (:meth:`export_handles`) and each worker
attaches them as views (:meth:`from_handles`); no pooled path pickles a
kernel.

**Sublinear tail groups.**  Batches of tail-attaching layers over one
shared book — the serving layer's many-quotes-one-book shape — do not
need the occurrence stream at all.  Rows that (a) share a stored lookup
and (b) price through the one-clip window ``clip(g, lo, hi) - lo``
within the error bound of :meth:`PortfolioKernel._shift_mask` form a
*tail group*, and a group is priced off its book's
:class:`~repro.core.tables.BookProfile`: per trial, the book's positive
losses in sorted order with their running sum, built once per (YET,
book) and kept by the ``YetTable`` (it reaches the sweep through the
``TrialSegments``; a raw-array :meth:`PortfolioKernel.sweep` builds one
for the call).  A row is then two counts per trial and
``(S[j] - S[i]) - lo·(j - i) + cap·(k - j)``; a group's counts are one
``bincount`` over the book's positive occurrences, whatever its row
count — ``O(positive occurrences + trials · rows)`` per group against
the lane path's ``O(pierced occurrences)`` per row, no gather of
losses, no pass over the stream.  **Routing:** structural groups of at
least :data:`MIN_TAIL_GROUP` rows whose rows pass the error bound take
the profile; everything else — rows outside groups, rows attaching at
extreme retention scales (and what is left of their group when fewer
than :data:`MIN_TAIL_GROUP` remain), and ``sublinear=False`` — takes
the exact lane path in the same sweep, and
every structural-group row that does is counted by reason in
:attr:`PortfolioKernel.routed`.  **Invariance:** a profile answer is a
function of the trial and the row alone, so tail rows, like lane rows,
are ``np.array_equal`` across whole-YET, blocked, pooled,
degraded-serial and out-of-core sweeps and whatever other rows share
the group.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core.lookup import sparse_gather_into
from repro.core.tables import BookProfile, TrialSegments
from repro.errors import ConfigurationError

__all__ = ["KernelHandles", "PortfolioKernel", "DEFAULT_BLOCK_OCCURRENCES",
           "MIN_TAIL_GROUP", "BY_EVENT_MAX_FILL", "ROUTING_COUNTERS"]

#: Kernel array attributes that travel through the shared-memory plane,
#: in the positional order of :meth:`PortfolioKernel.__init__`'s vector
#: arguments.  ``occ_floor``/``occ_ceiling`` are derived, not shipped.
_HANDLE_FIELDS = (
    "occ_retention", "occ_limit", "agg_retention", "agg_limit",
    "participation", "dense_stack", "sparse_ids", "sparse_values",
    "sparse_offsets", "dense_source", "sparse_source",
)

#: Export ordinal of this process (the second half of a handles stamp).
_EXPORTS = itertools.count()


@dataclass(frozen=True)
class KernelHandles:
    """Shared-memory descriptor of one stacked kernel.

    Produced by :meth:`PortfolioKernel.export_handles`: the eleven array
    buffers as :class:`~repro.hpc.shm.ShmArrayHandle`\\ s plus the two
    scalar fields.  Pickles to ~1 KB regardless of how wide the dense
    stack is, so a dispatcher ships a staged kernel with every task for
    the cost of a dict of descriptors.

    ``stamp`` names this export — the first segment written and a
    per-process export ordinal — and no other: a reused slab holds a
    different kernel under the same segment names after every pack, so
    a worker that keeps the kernel it attached (and the caches derived
    from it) keys it by the stamp, never by the handles' names.
    """

    arrays: dict
    layer_ids: tuple[int, ...]
    block_occurrences: int
    stamp: tuple[str, int]

    @property
    def nbytes(self) -> int:
        """Payload bytes the handles point at."""
        return sum(h.nbytes for h in self.arrays.values())

#: Bound on the lane path's row buffer, in occurrences (whole trials, so
#: one longer trial exceeds it).  Sized so the buffer (256 KiB), its id
#: slice and one net-table row stay cache-resident together; smaller
#: chunks lose to per-call overhead — the CPU analogue of the paper's
#: "chunk to fit the fast memory" rule.
DEFAULT_BLOCK_OCCURRENCES = 32_768

#: Minimum rows sharing one stored lookup before a group prices off its
#: book profile.  Chosen to amortise one profile build inside the sweep
#: that triggers it, against the stream lane path.  Against the by-event
#: lane path it no longer pays for itself at the benchmark's base shape
#: (2-vCPU x86-64 container, the burst's candidates, the two paths
#: alternated 200 times in one process): a profile sweep takes ≈ 1.3×
#: the lane sweep's time at 16 rows, ≈ 1.05× at 32 and ≈ 0.7× at 64
#: (≈ 3.1 / 3.6 / 6.6 ms against ≈ 2.3 / 3.4 / 9.3 ms), and the first
#: sweep pays ≈ 20 ms for the build.  Kept because moving it re-routes
#: rows, and a re-routed row's answer moves in the last ulp (the
#: bit-identity rule in the module docstring).
MIN_TAIL_GROUP = 16

#: A dense lane row is priced by events when the table entries above
#: its retention are at most this share of its own table width (the
#: stored book up to its last non-zero loss); a CSR row always is.  The
#: share of *occurrences* that pierce follows the share of entries, and
#: the by-event path (≈ 8–10 ns per piercing occurrence for a row swept
#: alone) stays below the stream's flat ≈ 1.7 ns per occurrence up to
#: the densest share the benchmark's base shape has (measured on a
#: 2-vCPU x86-64 container, one row of book 0, the two paths alternated
#: 300 times in one process; by-event time over stream time: 0.12 at
#: 1.4 %, 0.35 at 6.2 %, 0.49 at 10 %, 0.71 at 15 %, 0.81 at 19 %, so
#: the crossover lies past 19 %).  The share stays well below that
#: crossover because moving it re-routes rows, and a re-routed row's
#: answer moves in the last ulp.  A constant of the rule of record, not
#: an option: see the bit-identity rule in the module docstring.
BY_EVENT_MAX_FILL = 1 / 16

#: :attr:`PortfolioKernel.routed` keys, in the :mod:`repro.obs` naming
#: convention: structural tail-group rows priced off a profile, the ones
#: sent to lanes instead, by reason, and every lane row by the path
#: that priced it.
ROUTING_COUNTERS = ("kernel.profile_rows", "kernel.fallback.error_bound",
                    "kernel.fallback.sublinear_off",
                    "kernel.lane_rows.by_event", "kernel.lane_rows.by_stream")

#: State derived or counted per instance — never pickled or shipped
#: through shared memory (workers rebuild caches on first use).
_CACHE_SLOTS = ("_mask_cache", "_tail_index", "_net", "_pierced", "_stack",
                "routed")


class PortfolioKernel:
    """Stacked lookups + term vectors for one portfolio, swept fused.

    Build with :meth:`from_portfolio` (or fetch the cached instance via
    :meth:`Portfolio.kernel`).  All state is plain NumPy, so instances
    are picklable and safe to ship to worker processes.
    """

    __slots__ = (
        "layer_ids", "occ_retention", "occ_limit", "agg_retention",
        "agg_limit", "participation", "dense_stack", "sparse_ids",
        "sparse_values", "sparse_offsets", "dense_source", "sparse_source",
        "occ_floor", "occ_ceiling", "block_occurrences",
        *_CACHE_SLOTS,
    )

    def __init__(
        self,
        *,
        layer_ids: tuple[int, ...],
        occ_retention: np.ndarray,
        occ_limit: np.ndarray,
        agg_retention: np.ndarray,
        agg_limit: np.ndarray,
        participation: np.ndarray,
        dense_stack: np.ndarray,
        sparse_ids: np.ndarray,
        sparse_values: np.ndarray,
        sparse_offsets: np.ndarray,
        dense_source: np.ndarray | None = None,
        sparse_source: np.ndarray | None = None,
        block_occurrences: int = DEFAULT_BLOCK_OCCURRENCES,
    ) -> None:
        n_layers = len(layer_ids)
        if n_layers == 0:
            raise ConfigurationError("a portfolio kernel needs at least one layer")
        for name, vec in (("occ_retention", occ_retention),
                          ("occ_limit", occ_limit),
                          ("agg_retention", agg_retention),
                          ("agg_limit", agg_limit),
                          ("participation", participation)):
            if vec.shape != (n_layers,):
                raise ConfigurationError(
                    f"{name} must have shape ({n_layers},), got {vec.shape}"
                )
        if dense_stack.ndim != 2:
            raise ConfigurationError("dense_stack must be a 2-D matrix")
        # Row → stored-table indirection: several layers may share one
        # dense table (or CSR segment) when they price the same merged
        # book under different terms — the serving layer's common case.
        if dense_source is None:
            dense_source = np.arange(dense_stack.shape[0], dtype=np.int64)
        else:
            dense_source = np.asarray(dense_source, dtype=np.int64)
        if sparse_source is None:
            sparse_source = np.arange(sparse_offsets.size - 1, dtype=np.int64)
        else:
            sparse_source = np.asarray(sparse_source, dtype=np.int64)
        if dense_source.size + sparse_source.size != n_layers:
            raise ConfigurationError(
                "dense rows + sparse segments must cover every layer"
            )
        if dense_source.size and not (
            (dense_source >= 0).all()
            and (dense_source < dense_stack.shape[0]).all()
        ):
            raise ConfigurationError("dense_source indexes outside dense_stack")
        if sparse_source.size and not (
            (sparse_source >= 0).all()
            and (sparse_source < sparse_offsets.size - 1).all()
        ):
            raise ConfigurationError("sparse_source indexes outside segments")
        if block_occurrences <= 0:
            raise ConfigurationError("block_occurrences must be positive")
        self.layer_ids = tuple(int(i) for i in layer_ids)
        self.occ_retention = occ_retention
        self.occ_limit = occ_limit
        self.agg_retention = agg_retention
        self.agg_limit = agg_limit
        self.participation = participation
        self.dense_stack = dense_stack
        self.sparse_ids = sparse_ids
        self.sparse_values = sparse_values
        self.sparse_offsets = sparse_offsets
        self.dense_source = dense_source
        self.sparse_source = sparse_source
        # Tail groups price through the one-clip window of the identity
        #   clip(g - r, 0, c)  ==  clip(g, r, r + c) - r.
        # An *infinite* retention would turn the "- r" into inf - inf =
        # NaN, so such rows (result identically zero) get a degenerate
        # [0, 0] window instead.
        infinite_ret = np.isinf(occ_retention)
        self.occ_floor = np.where(infinite_ret, 0.0, occ_retention)
        self.occ_ceiling = np.where(
            infinite_ret, 0.0, occ_retention + occ_limit
        )
        self.block_occurrences = int(block_occurrences)
        self._init_caches()

    def _init_caches(self) -> None:
        self._mask_cache: dict[int, np.ndarray] = {}
        self._tail_index = None
        self._net: list = [None] * len(self.layer_ids)
        self._pierced: list = [None] * len(self.layer_ids)
        self._stack = None
        #: Rows by the path that priced them, summed over this
        #: instance's sweeps (plain counts; see ROUTING_COUNTERS).
        self.routed = dict.fromkeys(ROUTING_COUNTERS, 0)

    def __getstate__(self):
        # Derived caches stay host-local: a pickled kernel (no pooled
        # path ships one — workers attach slab handles) carries only the
        # stacked arrays and rebuilds masks/net tables lazily on first
        # use.
        return {name: getattr(self, name) for name in self.__slots__
                if name not in _CACHE_SLOTS}

    def __setstate__(self, state) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._init_caches()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_portfolio(
        cls,
        portfolio,
        dense_max_entries: int = 4_000_000,
        block_occurrences: int = DEFAULT_BLOCK_OCCURRENCES,
    ) -> "PortfolioKernel":
        """Stack a portfolio's per-layer lookups and terms into one kernel.

        Per-layer lookups come from :meth:`Layer.lookup`, so the merge
        work is shared with every other engine via the layer cache.
        """
        return cls.from_layers(
            list(portfolio),
            dense_max_entries=dense_max_entries,
            block_occurrences=block_occurrences,
        )

    @classmethod
    def from_layers(
        cls,
        layers,
        *,
        layer_ids=None,
        dense_max_entries: int = 4_000_000,
        block_occurrences: int = DEFAULT_BLOCK_OCCURRENCES,
    ) -> "PortfolioKernel":
        """Stack loose layers into an ephemeral kernel — no Portfolio needed.

        This is the serving-layer construction path: a micro-batch of
        ad-hoc quote requests (each an arbitrary ``Layer``) is stacked
        into one kernel and priced in a single sweep.  ``layer_ids``
        overrides the row identities — batched requests may carry
        colliding ``layer.layer_id`` values, so the caller can key rows
        by request position instead.  Per-layer lookups still come from
        :meth:`Layer.lookup`, so repeat requests against the same layer
        objects reuse the cached merges.

        Layers over the *same ELT set and weights* — the what-if burst:
        many term variations of one book — share a single merged lookup:
        the merge is built once, stored once, and gathered once per
        occurrence block, with the other rows fanned out from it (see
        ``dense_source``/``sparse_source``).
        """
        layers = list(layers)
        if not layers:
            raise ConfigurationError("a portfolio kernel needs at least one layer")
        if layer_ids is None:
            layer_ids = [layer.layer_id for layer in layers]
        else:
            layer_ids = [int(i) for i in layer_ids]
            if len(layer_ids) != len(layers):
                raise ConfigurationError(
                    f"got {len(layer_ids)} layer_ids for {len(layers)} layers"
                )
        # One merged lookup per distinct (ELT set, weights): layers that
        # price the same book under different terms reuse the first
        # layer's merge instead of rebuilding it.  Object identity is
        # stable here — every layer in `layers` is alive for the call.
        lookup_by_book: dict = {}
        lookups = []
        for layer in layers:
            book = (tuple(id(e) for e in layer.elts), layer.weights)
            lk = lookup_by_book.get(book)
            if lk is None:
                lk = layer.lookup(dense_max_entries=dense_max_entries)
                lookup_by_book[book] = lk
            lookups.append(lk)
        triples = list(zip(layers, lookups, layer_ids))
        dense = [t for t in triples if t[1].kind == "dense"]
        sparse = [t for t in triples if t[1].kind == "sparse"]
        ordered = dense + sparse

        # Stack each unique table/segment once; rows point into the
        # store via the source vectors.
        def dedupe(entries):
            store, index, source = [], {}, []
            for _, lk, _ in entries:
                pos = index.get(id(lk))
                if pos is None:
                    pos = len(store)
                    index[id(lk)] = pos
                    store.append(lk)
                source.append(pos)
            return store, np.asarray(source, dtype=np.int64)

        dense_store, dense_source = dedupe(dense)
        sparse_store, sparse_source = dedupe(sparse)

        width = max((lk.table_array.size for lk in dense_store), default=0)
        dense_stack = np.zeros((len(dense_store), width), dtype=np.float64)
        for row, lk in enumerate(dense_store):
            table = lk.table_array
            dense_stack[row, :table.size] = table

        if sparse_store:
            sparse_ids = np.concatenate([lk.ids for lk in sparse_store])
            sparse_values = np.concatenate([lk.values for lk in sparse_store])
            lengths = [lk.ids.size for lk in sparse_store]
        else:
            sparse_ids = np.empty(0, dtype=np.int64)
            sparse_values = np.empty(0, dtype=np.float64)
            lengths = []
        sparse_offsets = np.concatenate(
            ([0], np.cumsum(lengths, dtype=np.int64))
        ).astype(np.int64)

        def term_vec(attr: str) -> np.ndarray:
            return np.array(
                [getattr(l.terms, attr) for l, _, _ in ordered], dtype=np.float64
            )

        return cls(
            layer_ids=tuple(lid for _, _, lid in ordered),
            occ_retention=term_vec("occ_retention"),
            occ_limit=term_vec("occ_limit"),
            agg_retention=term_vec("agg_retention"),
            agg_limit=term_vec("agg_limit"),
            participation=term_vec("participation"),
            dense_stack=dense_stack,
            sparse_ids=sparse_ids,
            sparse_values=sparse_values,
            sparse_offsets=sparse_offsets,
            dense_source=dense_source,
            sparse_source=sparse_source,
            block_occurrences=block_occurrences,
        )

    # -- shared-memory transport -------------------------------------------

    def export_handles(self, arena) -> KernelHandles:
        """Place every array buffer in shared memory; returns the handles.

        ``arena`` may be a :class:`~repro.hpc.shm.SharedArena` (one
        fresh segment) or a :class:`~repro.hpc.shm.ShmSlab` (a pooled
        dispatcher's reusable slab, packed once per kernel it runs).
        Either way the kernel's payload is copied into
        shared pages once and :meth:`from_handles` re-attaches it as
        views — the pickled task argument shrinks from the full stacked
        lookup to ~1 KB of descriptors.
        """
        handles = arena.place(*(getattr(self, f) for f in _HANDLE_FIELDS))
        return KernelHandles(
            arrays=dict(zip(_HANDLE_FIELDS, handles)),
            layer_ids=self.layer_ids,
            block_occurrences=self.block_occurrences,
            stamp=(handles[0].segment, next(_EXPORTS)),
        )

    @classmethod
    def from_handles(cls, handles: KernelHandles) -> "PortfolioKernel":
        """Rebuild a kernel over attached (read-only, zero-copy) views.

        Sweeps never write into the lookup buffers, so a handle-built
        kernel computes bit-identical results to the original; only the
        tiny derived vectors (``occ_floor``/``occ_ceiling``) are
        materialised locally by ``__init__``.
        """
        arrays = {name: h.attach() for name, h in handles.arrays.items()}
        return cls(
            layer_ids=handles.layer_ids,
            block_occurrences=handles.block_occurrences,
            **arrays,
        )

    # -- shape metadata ----------------------------------------------------

    @property
    def n_layers(self) -> int:
        return len(self.layer_ids)

    @property
    def n_dense(self) -> int:
        """Dense *rows* (several may share one stored table)."""
        return self.dense_source.size

    @property
    def n_sparse(self) -> int:
        """Sparse *rows* (several may share one stored CSR segment)."""
        return self.sparse_source.size

    @property
    def n_unique_lookups(self) -> int:
        """Distinct stored lookups (tables + segments) behind the rows."""
        return self.dense_stack.shape[0] + (self.sparse_offsets.size - 1)

    @property
    def nbytes(self) -> int:
        """Bytes of lookup state (what a device placement would ship)."""
        return (self.dense_stack.nbytes + self.sparse_ids.nbytes
                + self.sparse_values.nbytes)

    def row_of(self, layer_id: int) -> int:
        """Kernel row holding ``layer_id`` (rows are dense-first)."""
        try:
            return self.layer_ids.index(layer_id)
        except ValueError:
            raise ConfigurationError(f"no layer {layer_id} in kernel") from None

    # -- gathers -----------------------------------------------------------

    def gather_block(self, event_ids: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
        """Ground-up losses for one occurrence block, all layers:
        ``(L, block)``.

        Each *stored* lookup is gathered exactly once per block; rows
        sharing a lookup (same book, different terms) receive a plain
        copy of the first row's gather — a sequential write instead of a
        second random-access pass.
        """
        event_ids = np.asarray(event_ids, dtype=np.int64)
        if out is None:
            out = np.empty((self.n_layers, event_ids.size), dtype=np.float64)
        stores = ([("dense", int(u)) for u in self.dense_source]
                  + [("sparse", int(s)) for s in self.sparse_source])
        first_row: dict = {}
        for row, store in enumerate(stores):
            held = first_row.setdefault(store, row)
            if held == row:
                self._gather_store(*store, event_ids, out[row])
            else:
                np.copyto(out[row], out[held])
        return out

    def _shift_mask(self, max_trial_count: int) -> np.ndarray:
        """Rows safe for the shifted-clip identity (tail groups only).

        A profile's ``(S[j] - S[i]) - lo·(j - i)`` is a difference of
        ``~count·r``-magnitude sums, so its absolute rounding error is
        roughly ``count · r · 2⁻⁵²``.  ``max_trial_count`` is the exact
        maximum occurrences of any trial in this sweep (not a mean-based
        estimate — clustered trial sets would blow through one): rows
        whose worst case stays under the library's cross-engine
        tolerance (1e-6, with 2x margin for the partial-sum ulps) may
        join a tail group; rows attaching at extreme retention scales
        stay on the exact lane path (as would a negative retention,
        under which the zero losses a profile leaves out would price).

        Memoised per ``max_trial_count``: fixed-shape serving batches
        (same YET, fresh quote stacks) hit the same count every sweep.
        """
        key = int(max_trial_count)
        mask = self._mask_cache.get(key)
        if mask is None:
            worst_err = self.occ_floor * float(key) * 2.0 ** -51
            mask = (worst_err >= 0.0) & (worst_err <= 1e-6)
            self._mask_cache[key] = mask
        return mask

    def gather_layer(self, row: int, event_ids: np.ndarray) -> np.ndarray:
        """Losses for one kernel row over an id array (YELT emission path)."""
        event_ids = np.asarray(event_ids, dtype=np.int64)
        out = np.empty(event_ids.size, dtype=np.float64)
        if row < self.n_dense:
            table = self.dense_stack[int(self.dense_source[row])]
            width = table.size
            safe = np.clip(event_ids, 0, width - 1)
            np.take(table, safe, out=out)
            np.multiply(out, event_ids < width, out=out)
            return out
        seg = int(self.sparse_source[row - self.n_dense])
        lo, hi = self.sparse_offsets[seg], self.sparse_offsets[seg + 1]
        return sparse_gather_into(
            self.sparse_ids[lo:hi], self.sparse_values[lo:hi], event_ids, out
        )

    # -- sublinear tail groups ---------------------------------------------

    def _store_values(self, kind: str, store: int) -> np.ndarray:
        """The loss values ONE stored lookup holds (table row, without
        its zero padding, or CSR values)."""
        if kind == "dense":
            table = self.dense_stack[store]
            return table[:np.flatnonzero(table != 0.0).max(initial=0) + 1]
        lo, hi = self.sparse_offsets[store], self.sparse_offsets[store + 1]
        return self.sparse_values[lo:hi]

    def _gather_store(self, kind: str, store: int, event_ids: np.ndarray,
                      out: np.ndarray, values: np.ndarray | None = None
                      ) -> np.ndarray:
        """Ground-up losses of ONE stored lookup (not a row) for a block
        — or, given ``values``, whatever that array (laid out like
        :meth:`_store_values`) holds in the losses' place."""
        if kind == "dense":
            table = self.dense_stack[store] if values is None else values
            np.take(table, event_ids, mode="clip", out=out)
            oob = event_ids >= table.size
            if oob.any():
                out[oob] = 0.0
            return out
        lo, hi = self.sparse_offsets[store], self.sparse_offsets[store + 1]
        if values is None:
            values = self.sparse_values[lo:hi]
        return sparse_gather_into(self.sparse_ids[lo:hi], values, event_ids,
                                  out)

    def _tail_group_index(self):
        """Structural tail groups: ``(kind, store, rows)`` triples.

        Rows sharing one stored lookup — same book, different terms —
        form a group when at least :data:`MIN_TAIL_GROUP` of them do;
        whether a given *sweep* actually prices a group off its profile
        is decided per call (error bound, ``sublinear``).
        Cached: the grouping is a pure function of the source vectors.
        """
        if self._tail_index is None:
            groups = []
            for kind, source, base in (("dense", self.dense_source, 0),
                                       ("sparse", self.sparse_source,
                                        self.n_dense)):
                if not source.size:
                    continue
                order = np.argsort(source, kind="stable")
                sorted_src = source[order]
                cuts = np.flatnonzero(sorted_src[1:] != sorted_src[:-1]) + 1
                for seg in np.split(order, cuts):
                    if seg.size >= MIN_TAIL_GROUP:
                        groups.append((kind, int(source[seg[0]]), seg + base))
            self._tail_index = groups
        return self._tail_index

    @property
    def tail_group_rows(self) -> int:
        """Rows structurally eligible for the book-profile path."""
        return sum(rows.size for _, _, rows in self._tail_group_index())

    def routed_since(self, before: dict) -> dict:
        """How far :attr:`routed` moved past ``before``, a ``dict(routed)``
        taken earlier: one run's routing on a kernel shared across runs."""
        return {name: rows - before[name]
                for name, rows in self.routed.items()}

    def _sweep_tail_groups(self, segments, event_ids, out, groups) -> None:
        """Price tail groups off their books' profiles (module docstring).

        A profile is keyed by the stored book's content, so equal books
        behind distinct lookup objects and kernels share one; an
        infinite-retention row arrives as the ``[0, 0]`` window and
        prices to exactly 0.
        """
        for kind, store, rows in groups:
            values = self._store_values(kind, store)
            digest = hashlib.blake2b(kind.encode(), digest_size=16)
            digest.update(np.ascontiguousarray(values).data)
            if kind == "sparse":
                a, b = self.sparse_offsets[store], self.sparse_offsets[store + 1]
                digest.update(np.ascontiguousarray(self.sparse_ids[a:b]).data)
            profile = segments.book_profile(
                digest.digest(), event_ids,
                partial(BookProfile.build, values=values,
                        gather=partial(self._gather_store, kind, store)))
            out[rows] = profile.resolve(self.occ_floor[rows],
                                        self.occ_ceiling[rows])

    # -- terms -------------------------------------------------------------

    def occurrence_row(self, row: int, losses: np.ndarray) -> np.ndarray:
        """Occurrence terms for one kernel row (returns a new array)."""
        out = losses - self.occ_retention[row]
        np.clip(out, 0.0, self.occ_limit[row], out=out)
        return out

    def apply_aggregate(self, annual: np.ndarray,
                        out: np.ndarray | None = None) -> np.ndarray:
        """Aggregate terms + participation over ``(L, n_trials)`` sums,
        into ``out`` when given (a new array otherwise)."""
        out = np.subtract(annual, self.agg_retention[:, None], out=out)
        np.clip(out, 0.0, self.agg_limit[:, None], out=out)
        out *= self.participation[:, None]
        return out

    def _net_gathers(self, rows) -> list:
        """``gather(event_ids, out=)`` over the **net table** of each of
        the dense ``rows``.

        ``clip(table[e] - r, 0, c)`` is a function of the table *entry*,
        so a row's occurrence terms are applied once to its stored
        lookup instead of once per occurrence.  A net table is
        ``width + 1`` long: the zero last entry is where ``mode="clip"``
        lands every id past the table (unknown event → 0, no fix-up
        pass).  Built per row on the first sweep that prices it on the
        stream — a tail group's rows and by-event rows (every CSR row
        among them) never pay for one; host-local like every cache
        slot, never shipped.
        """
        net = self._net
        for row in rows:
            if net[row] is not None:
                continue
            r, c = self.occ_retention[row], self.occ_limit[row]
            table = np.zeros(self.dense_stack.shape[1] + 1)
            np.subtract(self.dense_stack[self.dense_source[row]], r,
                        out=table[:-1])
            np.clip(table[:-1], 0.0, c, out=table[:-1])
            net[row] = partial(np.take, table, mode="clip")
        return [net[row] for row in rows]

    def _pierced_entries(self, row: int):
        """``(events, net)`` when the rule of record prices ``row`` by
        events, else ``None``: the stored entries above the row's
        retention — ascending event ids and their
        ``clip(loss - r, 0, c)`` — taken from the stored lookup, so a
        by-event row never builds a net table.  The decision reads the
        row's own book and terms only (:data:`BY_EVENT_MAX_FILL`; never
        the stacked width, which other rows set), cached per row.
        """
        entry = self._pierced[row]
        if entry is None:
            r, c = self.occ_retention[row], self.occ_limit[row]
            if row < self.n_dense:
                losses = self._store_values(
                    "dense", int(self.dense_source[row]))
                events = np.flatnonzero(losses > r)
                sparse = events.size <= BY_EVENT_MAX_FILL * losses.size
                losses = losses[events]
            else:
                seg = self.sparse_source[row - self.n_dense]
                lo, hi = self.sparse_offsets[seg], self.sparse_offsets[seg + 1]
                pierced = self.sparse_values[lo:hi] > r
                events = self.sparse_ids[lo:hi][pierced]
                losses = self.sparse_values[lo:hi][pierced]
                sparse = True
            entry = self._pierced[row] = (
                (events, np.clip(losses - r, 0.0, c)) if sparse else False)
        return entry or None

    # -- the fused sweep ---------------------------------------------------

    def sweep(
        self,
        trials: np.ndarray,
        event_ids: np.ndarray,
        n_trials: int,
        *,
        sublinear: bool | None = None,
    ) -> np.ndarray:
        """One fused pass over raw ``(trial, event)`` columns.

        Derives the stream's :class:`~repro.core.tables.TrialSegments` —
        after one stable sort when the trials arrive unsorted — and runs
        :meth:`sweep_segments`, which builds an event index (and a book
        profile) for this call alone if a row routes to one.  Callers
        holding a ``YetTable`` skip all three:
        ``sweep_segments(*yet.trial_block())``.
        """
        trials = np.asarray(trials, dtype=np.int64)
        event_ids = np.asarray(event_ids, dtype=np.int64)
        if trials.shape != event_ids.shape:
            raise ConfigurationError("trials and event_ids must be equal-length")
        if event_ids.size and event_ids.min() < 0:
            raise ConfigurationError("event ids must be non-negative")
        if np.any(trials[1:] < trials[:-1]):
            order = np.argsort(trials, kind="stable")
            trials, event_ids = trials[order], event_ids[order]
        segments = TrialSegments.from_sorted_trials(trials, n_trials)
        return self.sweep_segments(segments, event_ids, sublinear=sublinear)

    def sweep_segments(self, segments: TrialSegments, event_ids: np.ndarray,
                       *, sublinear: bool | None = None) -> np.ndarray:
        """Pre-aggregate ``(L, n_trials)`` annual matrix of one stream.

        ``segments`` describes the trial column of ``event_ids`` (see
        :meth:`YetTable.trial_block`), so the column itself is never
        read; the stream is a block of whole trials, and a caller that
        holds a longer one in pieces writes each block's answer to its
        own trial columns.  Aggregate terms are *not* applied; compose
        with :meth:`apply_aggregate`.

        ``sublinear`` controls the tail-group path (see the module
        docstring): the default (``None``/``True``) prices qualifying
        same-book row groups off their book profile and everything else
        through the lane path; ``False`` forces the lane path for every
        row.
        """
        n_layers, n_trials = self.n_layers, segments.n_trials
        out = np.zeros((n_layers, n_trials), dtype=np.float64)
        n = segments.n_occurrences
        if event_ids.shape != (n,):
            raise ConfigurationError(
                f"segments describe {n} occurrences, got {event_ids.shape}")
        if n == 0:
            return out
        # Routing happens per sweep: a structural group's rows take the
        # profile when they pass the error bound for this stream and
        # enough of them do; the rest are counted by why they did not.
        fallback = "sublinear_off" if sublinear is False else "error_bound"
        groups = []
        lane_mask = np.ones(n_layers, dtype=bool)
        for kind, store, rows in self._tail_group_index():
            ok = rows[:0]
            if fallback == "error_bound":
                ok = rows[self._shift_mask(segments.max_count)[rows]]
            if ok.size >= MIN_TAIL_GROUP:
                groups.append((kind, store, ok))
                lane_mask[ok] = False
                self.routed["kernel.profile_rows"] += ok.size
                rows = rows[lane_mask[rows]]
            self.routed["kernel.fallback." + fallback] += rows.size
        if groups:
            self._sweep_tail_groups(segments, event_ids, out, groups)
        # Lane rows: by events where the rule of record says so, the
        # rest on the stream.
        by_event, by_stream = [], []
        for row in np.flatnonzero(lane_mask).tolist():
            path = by_stream if self._pierced_entries(row) is None else by_event
            path.append(row)
        self.routed["kernel.lane_rows.by_event"] += len(by_event)
        self.routed["kernel.lane_rows.by_stream"] += len(by_stream)
        if by_event:
            sums = self._sweep_by_event(segments, event_ids, by_event)
            if len(by_event) == n_layers:
                out = sums
            else:
                out[by_event] = sums
        if by_stream:
            self._sweep_stream(segments, event_ids, out, by_stream)
        return out

    def _sweep_by_event(self, segments: TrialSegments, event_ids: np.ndarray,
                        rows: list) -> np.ndarray:
        """By-event ``rows`` as a ``(len(rows), n_trials)`` block: one
        index read over every row's pierced events at once and one
        ``bincount`` into ``row · n_trials + trial`` bins.

        ``bincount`` adds in input order, and a row's occurrences arrive
        in (event, trial) order, so each ``(row, trial)`` bin sums
        exactly as a sweep of that row alone would.
        """
        events, nets, ends = self._by_event_stack(tuple(rows))
        n_trials = segments.n_trials
        index, t0 = segments.event_index(event_ids)
        counts, bins = index.occurrences(events, t0, t0 + n_trials)
        if len(rows) > 1:
            # Row i's occurrences are one contiguous run of the read.
            occ_ends = np.zeros(counts.size + 1, dtype=np.int64)
            np.cumsum(counts, out=occ_ends[1:])
            bins += np.repeat(np.arange(0, len(rows) * n_trials, n_trials),
                              np.diff(occ_ends[ends], prepend=0))
        sums = np.bincount(bins, weights=np.repeat(nets, counts),
                           minlength=len(rows) * n_trials)
        return sums.reshape(len(rows), n_trials)

    def _by_event_stack(self, rows: tuple):
        """``(events, nets, ends)`` of by-event ``rows``: their pierced
        entries concatenated in row order, and where each row's ends.
        The last stack built is kept, like every cache slot host-local:
        a kernel's aggregate sweeps route the same rows every time."""
        stack = self._stack
        if stack is None or stack[0] != rows:
            events, nets = zip(*(self._pierced[row] for row in rows))
            stack = self._stack = (rows, np.concatenate(events),
                                   np.concatenate(nets),
                                   np.cumsum([e.size for e in events]))
        return stack[1:]

    def _sweep_stream(self, segments: TrialSegments, event_ids: np.ndarray,
                      out: np.ndarray, rows: list) -> None:
        """Lane ``rows`` on the stream: per row, one gather from its net
        table into a reused row buffer and one ``reduceat`` over
        whole-trial starts."""
        bounds, trial_ids = segments.bounds, segments.trial_ids
        block = self.block_occurrences
        # Chunk the row buffer by whole trials — as many as fit ``block``
        # occurrences, at least one — so each trial is summed by a single
        # reduceat however the stream is chunked or decomposed.
        chunks = []
        a = 0
        while a < trial_ids.size:
            s0 = int(bounds[a])
            b = max(int(np.searchsorted(bounds, s0 + block, side="right")) - 1,
                    a + 1)
            t_lo, t_hi = int(trial_ids[a]), int(trial_ids[b - 1]) + 1
            # Trial ids without a gap are a plain slice of the output row.
            cols = slice(t_lo, t_hi) if t_hi - t_lo == b - a else trial_ids[a:b]
            chunks.append((s0, int(bounds[b]), bounds[a:b] - s0, cols))
            a = b
        buf = np.empty(max(s1 - s0 for s0, s1, _, _ in chunks))
        for row, gather in zip(rows, self._net_gathers(rows)):
            out_row = out[row]
            for s0, s1, starts, cols in chunks:
                lane = gather(event_ids[s0:s1], out=buf[:s1 - s0])
                out_row[cols] = np.add.reduceat(lane, starts)

    def run(
        self,
        trials: np.ndarray,
        event_ids: np.ndarray,
        n_trials: int,
        *,
        sublinear: bool | None = None,
    ) -> np.ndarray:
        """Sweep + aggregate terms: the final ``(L, n_trials)`` YLT matrix."""
        return self.apply_aggregate(
            self.sweep(trials, event_ids, n_trials, sublinear=sublinear))
