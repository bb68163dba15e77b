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
*table entry*: a per-row **net table** is built once per kernel (see
:meth:`PortfolioKernel._net_gathers`) and a sweep is, per row, one
gather from it into a single reused row buffer plus one
``np.add.reduceat`` over whole-trial segment starts — no ``(L, block)``
lane matrix, no clip pass over the stream, no post-reduction
correction.  What a sweep needs from the trial column is a
:class:`~repro.core.tables.TrialSegments`, derived once per ``YetTable``
and handed over by :meth:`YetTable.trial_block`; the raw-array
:meth:`sweep` derives the same structure per call (after one stable
sort if the stream is unsorted) and runs the same core.
``block_occurrences`` bounds the row buffer: the stream is chunked at
trial boundaries, as many whole trials as fit the bound (at least one).
**Bit-identity rule:** every trial is therefore summed whole, by one
``reduceat``, whatever the chunking or trial-block decomposition — lane
rows of whole-YET, blocked, pooled and degraded-serial sweeps are
``np.array_equal`` (only chunk-*accumulating* ``out=`` sweeps, which
split trials across calls, add partials and differ by ulps).

Kernel rows are ordered dense-first; :attr:`layer_ids` maps row → layer.
The kernel holds only plain arrays, so it pickles whole — the multicore
engine ships it to each worker once per run instead of re-sending lookup
arrays per layer per block.

**Sublinear tail groups.**  Batches of tail-attaching layers over one
shared book — the serving layer's many-quotes-one-book shape — do not
even need one gather per row.  Rows that (a) share a stored lookup and
(b) price through the one-clip window ``clip(g, lo, hi) - lo`` (the
shifted-clip identity, which now applies on this path only: every row
whose error bound passes — see :meth:`_shift_mask`) form a *tail
group*: the group's block is priced by
bucketing each gathered loss against the sorted union of the group's
``lo``/``hi`` thresholds (one ``searchsorted`` over ≤ 2·Lg cut points),
building a per-trial histogram + weighted histogram with ``bincount``,
and resolving every layer from the two cumulative-sum arrays —
``sum(clip(g - lo, 0, cap))`` is two lookups into prefix sums instead of
a lane of width ``block``.  Work per block is ``O(block · log Lg +
trials_in_block · Lg)`` instead of ``O(block · Lg)``: sublinear in lanes
whenever trials hold more than a couple of occurrences.  Rows that don't
qualify (occurrence terms at extreme retention scales, accumulating
chunk sweeps, groups below :data:`MIN_TAIL_GROUP` lanes) take the exact
lane path via a :meth:`subset` kernel — answers stay within the
library's cross-engine tolerance either way, and ``sweep(...,
sublinear=False)`` forces the lane path outright.  A group's prefix
sums depend on its composition and on the trials it sees, so tail-group
answers are bit-stable only per (stack, decomposition).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core.lookup import sparse_gather_into
from repro.core.tables import TrialSegments
from repro.errors import ConfigurationError

__all__ = ["KernelHandles", "PortfolioKernel", "DEFAULT_BLOCK_OCCURRENCES",
           "MIN_TAIL_GROUP"]

#: Kernel array attributes that travel through the shared-memory plane,
#: in the positional order of :meth:`PortfolioKernel.__init__`'s vector
#: arguments.  ``occ_floor``/``occ_ceiling`` are derived, not shipped.
_HANDLE_FIELDS = (
    "occ_retention", "occ_limit", "agg_retention", "agg_limit",
    "participation", "dense_stack", "sparse_ids", "sparse_values",
    "sparse_offsets", "dense_source", "sparse_source",
)


@dataclass(frozen=True)
class KernelHandles:
    """Shared-memory descriptor of one stacked kernel.

    Produced by :meth:`PortfolioKernel.export_handles`: the eleven array
    buffers as :class:`~repro.hpc.shm.ShmArrayHandle`\\ s plus the two
    scalar fields.  Pickles to ~1 KB regardless of how wide the dense
    stack is, so the serving layer can ship a per-batch kernel with
    every task for the cost of a dict of descriptors.
    """

    arrays: dict
    layer_ids: tuple[int, ...]
    block_occurrences: int

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

#: Minimum lanes sharing one stored lookup before the sublinear group
#: path pays for its histogram: the measured crossover against the lane
#: path sits between 16 and 32 lanes on dense streams, so below this the
#: threshold bookkeeping would cost more than the lanes it replaces.
MIN_TAIL_GROUP = 16

#: Caches derived lazily per instance — never pickled or shipped through
#: shared memory (workers rebuild them on first use).
_CACHE_SLOTS = ("_mask_cache", "_subset_cache", "_tail_index", "_net")


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
        self._subset_cache: dict[bytes, "PortfolioKernel"] = {}
        self._tail_index = None
        self._net = None

    def __getstate__(self):
        # Derived caches stay host-local: a pickled kernel (the multicore
        # ship path) carries only the stacked arrays, and the receiving
        # worker rebuilds masks/subsets lazily on first use.
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
        fresh segment, for a kernel staged across many runs) or a
        :class:`~repro.hpc.shm.ShmSlab` (the serving layer's reusable
        per-batch slab).  Either way the kernel's payload is copied into
        shared pages once and :meth:`from_handles` re-attaches it as
        views — the pickled task argument shrinks from the full stacked
        lookup to ~1 KB of descriptors.
        """
        handles = arena.place(*(getattr(self, f) for f in _HANDLE_FIELDS))
        return KernelHandles(
            arrays=dict(zip(_HANDLE_FIELDS, handles)),
            layer_ids=self.layer_ids,
            block_occurrences=self.block_occurrences,
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

        A group's ``- lo × count`` term is a difference of
        ``~count·r``-magnitude sums, so its absolute rounding error is
        roughly ``count · r · 2⁻⁵²``.  ``max_trial_count`` is the exact
        maximum occurrences of any trial in this sweep (not a mean-based
        estimate — clustered trial sets would blow through one): rows
        whose worst case stays under the library's cross-engine
        tolerance (1e-6, with 2x margin for the partial-sum ulps) may
        join a tail group; rows attaching at extreme retention scales
        stay on the exact lane path.

        Memoised per ``max_trial_count``: fixed-shape serving batches
        (same YET, fresh quote stacks) hit the same count every sweep.
        """
        key = int(max_trial_count)
        mask = self._mask_cache.get(key)
        if mask is None:
            worst_err = self.occ_floor * float(key) * 2.0 ** -51
            mask = worst_err <= 1e-6
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

    def _gather_store(self, kind: str, store: int, event_ids: np.ndarray,
                      out: np.ndarray) -> np.ndarray:
        """Ground-up losses of ONE stored lookup (not a row) for a block."""
        if kind == "dense":
            table = self.dense_stack[store]
            np.take(table, event_ids, mode="clip", out=out)
            oob = event_ids >= table.size
            if oob.any():
                out[oob] = 0.0
            return out
        lo, hi = self.sparse_offsets[store], self.sparse_offsets[store + 1]
        return sparse_gather_into(
            self.sparse_ids[lo:hi], self.sparse_values[lo:hi], event_ids, out
        )

    def _tail_group_index(self):
        """Structural tail groups: ``(kind, store, rows)`` triples.

        Rows sharing one stored lookup — same book, different terms —
        form a group when at least :data:`MIN_TAIL_GROUP` of them do;
        whether a given *sweep* actually prices a group sublinearly is
        decided per call (error bound, sortedness, stream density).
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
        """Rows structurally eligible for the sublinear group path."""
        return sum(rows.size for _, _, rows in self._tail_group_index())

    def subset(self, rows: np.ndarray) -> "PortfolioKernel":
        """A compact kernel over a sorted subset of this kernel's rows.

        Used as the exact-lane fallback when a sweep prices most rows
        through the group path: the leftover rows re-enter
        :meth:`sweep_segments` as a small kernel of their own, whose net
        table covers only them.  Stored lookups are re-deduplicated.
        Cached per row set — serving batches ask for the same split
        every flush.
        """
        rows = np.asarray(rows, dtype=np.int64)
        key = rows.tobytes()
        cached = self._subset_cache.get(key)
        if cached is not None:
            return cached
        n_dense = self.n_dense
        dense_rows = rows[rows < n_dense]
        sparse_rows = rows[rows >= n_dense] - n_dense
        d_uniq, d_inv = np.unique(self.dense_source[dense_rows],
                                  return_inverse=True)
        dense_stack = (self.dense_stack[d_uniq] if d_uniq.size
                       else self.dense_stack[:0])
        s_uniq, s_inv = np.unique(self.sparse_source[sparse_rows],
                                  return_inverse=True)
        ids_parts, val_parts, lengths = [], [], []
        for seg in s_uniq:
            a, b = self.sparse_offsets[seg], self.sparse_offsets[seg + 1]
            ids_parts.append(self.sparse_ids[a:b])
            val_parts.append(self.sparse_values[a:b])
            lengths.append(int(b - a))
        sparse_ids = (np.concatenate(ids_parts) if ids_parts
                      else np.empty(0, dtype=np.int64))
        sparse_values = (np.concatenate(val_parts) if val_parts
                         else np.empty(0, dtype=np.float64))
        sparse_offsets = np.concatenate(
            ([0], np.cumsum(lengths, dtype=np.int64))
        ).astype(np.int64)
        sub = PortfolioKernel(
            layer_ids=tuple(self.layer_ids[int(r)] for r in rows),
            occ_retention=self.occ_retention[rows],
            occ_limit=self.occ_limit[rows],
            agg_retention=self.agg_retention[rows],
            agg_limit=self.agg_limit[rows],
            participation=self.participation[rows],
            dense_stack=dense_stack,
            sparse_ids=sparse_ids,
            sparse_values=sparse_values,
            sparse_offsets=sparse_offsets,
            dense_source=d_inv.astype(np.int64),
            sparse_source=s_inv.astype(np.int64),
            block_occurrences=self.block_occurrences,
        )
        self._subset_cache[key] = sub
        return sub

    def _sweep_tail_groups(self, segments, event_ids, out, groups) -> None:
        """Price tail groups via per-trial threshold histograms.

        For each group the sorted union of its ``[lo, hi)`` cut points is
        built once; per block, every gathered loss is bucketed with one
        ``searchsorted``, a per-(trial, bucket) count + weighted-sum
        histogram is accumulated with ``bincount``, and each layer's
        ``sum(clip(g - lo, 0, cap))`` falls out of the cumulative sums:

        ``mid  = (S[k_hi] - S[k_lo]) - lo · (C[k_hi] - C[k_lo])``
          (occurrences inside the window, measured from the attachment)
        ``top  = cap · (n_t - C[k_hi])``  (occurrences at/above the cap)

        with ``C[k] = #{g < T[k]}`` and ``S[k] = Σ{g : g < T[k]}``.
        ``lo == hi`` windows collapse to zero (k_lo == k_hi, cap 0) and
        an infinite ``hi`` never produces a ``top`` term (C[k_hi] == n_t
        for finite losses), so degenerate and uncapped rows need no
        special casing.  Each block partial is clamped at zero — the
        exact value of a partial sum of clipped losses is never negative,
        and the ``lo``-anchored subtraction can leave a −ulp residue on
        trials priced entirely below attachment (the budget
        :meth:`_shift_mask` gates rows into groups by).

        Two further tricks keep the constant small: dense stores
        pre-bucket their *table entries* once per sweep, so bucketing the
        stream is a gather instead of per-occurrence binary search; and
        chunking follows the histogram budget (active trials × cut
        points), not the lane path's cache-sized row buffer.
        """
        n = event_ids.size
        # `inv` ranks each occurrence's trial among trials-present, so
        # the histogram width is active trials, not trial-id span.
        starts, utr = segments.bounds, segments.trial_ids
        n_active = utr.size
        inv = np.repeat(np.arange(n_active, dtype=np.int64), np.diff(starts))
        for kind, store, rows in groups:
            lo_vec = self.occ_floor[rows]
            hi_vec = self.occ_ceiling[rows]
            cap = hi_vec - lo_vec
            thresholds = np.unique(np.concatenate((lo_vec, hi_vec)))
            m = thresholds.size
            k_lo = np.searchsorted(thresholds, lo_vec, side="left")
            k_hi = np.searchsorted(thresholds, hi_vec, side="left")
            # bucket(g) = #{thresholds ≤ g}: g < T[k]  ⟺  bucket ≤ k.
            # A dense store's gathered losses can only be table entries
            # (or 0 for unknown events), so bucket the table once and
            # bucket the stream by gather.
            table_buckets = None
            if kind == "dense":
                table = self.dense_stack[store]
                if table.size < n:
                    table_buckets = np.searchsorted(thresholds, table,
                                                    side="right")
                    zero_bucket = int(np.searchsorted(thresholds, 0.0,
                                                      side="right"))
            # Chunk by active trials so the (m + 1, span) histograms stay
            # within a fixed element budget however long the sweep is.
            max_span = max(1, 4_000_000 // (m + 1))
            for a in range(0, n_active, max_span):
                b = min(a + max_span, n_active)
                s, e = int(starts[a]), int(starts[b])
                span = b - a
                ev = event_ids[s:e]
                g = self._gather_store(kind, store, ev,
                                       np.empty(e - s, dtype=np.float64))
                if table_buckets is not None:
                    bucket = np.take(table_buckets, ev, mode="clip")
                    oob = ev >= table_buckets.size
                    if oob.any():
                        bucket[oob] = zero_bucket
                else:
                    bucket = np.searchsorted(thresholds, g, side="right")
                # (m + 1, span) layout: the cumulative sum runs down the
                # bucket axis in contiguous span-wide strides, and each
                # layer's resolution is a row gather, not a column one.
                key = bucket * span
                key += inv[s:e]
                key -= a
                size = (m + 1) * span
                ccum = np.bincount(key, minlength=size).reshape(m + 1, span)
                scum = np.bincount(key, weights=g,
                                   minlength=size).reshape(m + 1, span)
                # In-place running sums down the bucket axis: span-wide
                # contiguous adds beat np.cumsum's pairwise machinery.
                for row in range(1, m + 1):
                    ccum[row] += ccum[row - 1]
                    scum[row] += scum[row - 1]
                res = scum[k_hi]
                res -= scum[k_lo]
                c_hi = ccum[k_hi]
                res -= lo_vec[:, None] * (c_hi - ccum[k_lo])
                tail = ccum[-1][None, :] - c_hi
                with np.errstate(invalid="ignore"):
                    top = cap[:, None] * tail
                np.copyto(top, 0.0, where=tail == 0)
                res += top
                np.maximum(res, 0.0, out=res)
                out[rows[:, None], utr[a:b][None, :]] += res

    # -- terms -------------------------------------------------------------

    def occurrence_row(self, row: int, losses: np.ndarray) -> np.ndarray:
        """Occurrence terms for one kernel row (returns a new array)."""
        out = losses - self.occ_retention[row]
        np.clip(out, 0.0, self.occ_limit[row], out=out)
        return out

    def apply_aggregate(self, annual: np.ndarray) -> np.ndarray:
        """Aggregate terms + participation over ``(L, n_trials)`` sums."""
        out = annual - self.agg_retention[:, None]
        np.clip(out, 0.0, self.agg_limit[:, None], out=out)
        out *= self.participation[:, None]
        return out

    def _net_gathers(self) -> list:
        """Per-row ``gather(event_ids, out=)`` over the row's **net table**.

        ``clip(table[e] - r, 0, c)`` is a function of the table *entry*,
        so a row's occurrence terms are applied once to its stored
        lookup instead of once per occurrence.  Dense rows form an
        ``(n_dense, width + 1)`` matrix whose zero last column is where
        ``mode="clip"`` lands every id past the table (unknown event →
        0, no fix-up pass); sparse rows pre-clip their CSR values (a
        miss gathers 0, which the terms map to 0 anyway).  Built on the
        first lane sweep; host-local like every cache slot, never
        shipped.
        """
        if self._net is None:
            n_dense, width = self.n_dense, self.dense_stack.shape[1]
            net = np.zeros((n_dense, width + 1), dtype=np.float64)
            body = net[:, :width]
            for row in range(n_dense):
                np.subtract(self.dense_stack[self.dense_source[row]],
                            self.occ_retention[row], out=body[row])
            np.clip(body, 0.0, self.occ_limit[:n_dense, None], out=body)
            gathers = [partial(np.take, table, mode="clip") for table in net]
            for row, seg in enumerate(self.sparse_source, start=n_dense):
                lo, hi = self.sparse_offsets[seg], self.sparse_offsets[seg + 1]
                values = self.sparse_values[lo:hi] - self.occ_retention[row]
                np.clip(values, 0.0, self.occ_limit[row], out=values)
                gathers.append(partial(sparse_gather_into,
                                       self.sparse_ids[lo:hi], values))
            self._net = gathers
        return self._net

    # -- the fused sweep ---------------------------------------------------

    def sweep(
        self,
        trials: np.ndarray,
        event_ids: np.ndarray,
        n_trials: int,
        *,
        out: np.ndarray | None = None,
        block_occurrences: int | None = None,
        sublinear: bool | None = None,
    ) -> np.ndarray:
        """One fused pass over raw ``(trial, event)`` columns.

        Derives the stream's :class:`~repro.core.tables.TrialSegments` —
        after one stable sort when the trials arrive unsorted — and runs
        :meth:`sweep_segments`.  Callers holding a ``YetTable`` skip the
        derivation: ``sweep_segments(*yet.trial_block())``.
        """
        trials = np.asarray(trials, dtype=np.int64)
        event_ids = np.asarray(event_ids, dtype=np.int64)
        if trials.shape != event_ids.shape:
            raise ConfigurationError("trials and event_ids must be equal-length")
        if np.any(trials[1:] < trials[:-1]):
            order = np.argsort(trials, kind="stable")
            trials, event_ids = trials[order], event_ids[order]
        segments = TrialSegments.from_sorted_trials(trials, n_trials)
        return self.sweep_segments(segments, event_ids, out=out,
                                   block_occurrences=block_occurrences,
                                   sublinear=sublinear)

    def sweep_segments(self, segments: TrialSegments, event_ids: np.ndarray,
                       *, out: np.ndarray | None = None,
                       block_occurrences: int | None = None,
                       sublinear: bool | None = None) -> np.ndarray:
        """Pre-aggregate ``(L, n_trials)`` annual matrix of one stream.

        ``segments`` describes the trial column of ``event_ids`` (see
        :meth:`YetTable.trial_block`), so the column itself is never
        read.  ``out`` (C-contiguous, ``(L, n_trials)``, float64) is
        accumulated into when given — the out-of-core engine sweeps once
        per YET chunk against one running matrix.  Aggregate terms are
        *not* applied; compose with :meth:`apply_aggregate`.

        ``sublinear`` controls the tail-group fast path (see the module
        docstring): the default (``None``/``True``) prices qualifying
        same-book row groups via per-trial threshold histograms and
        everything else through the lane path; ``False`` forces the lane
        path for every row.  Accumulating (``out=``) sweeps always take
        the lane path: the groups' error budget is per whole trial, and
        such a call sees only a slice of each trial's occurrences.
        """
        n_layers, n_trials = self.n_layers, segments.n_trials
        accumulating = out is not None
        if out is None:
            out = np.zeros((n_layers, n_trials), dtype=np.float64)
        elif (out.shape != (n_layers, n_trials) or out.dtype != np.float64
              or not out.flags.c_contiguous):
            raise ConfigurationError(
                f"out must be C-contiguous float64 of shape ({n_layers}, {n_trials})"
            )
        n = segments.n_occurrences
        if event_ids.shape != (n,):
            raise ConfigurationError(
                f"segments describe {n} occurrences, got {event_ids.shape}")
        if n == 0:
            return out
        block = block_occurrences or self.block_occurrences
        # Tail-group selection happens per sweep: a row goes sublinear
        # only when its group survives the shifted-clip error bound AND
        # the stream is dense enough (≥ 2 occurrences per active trial
        # on average) for the histogram to beat the lanes it replaces.
        groups = []
        if sublinear is not False and not accumulating:
            shifted = self._shift_mask(segments.max_count)
            if n >= 2 * segments.trial_ids.size:
                lane_mask = np.ones(n_layers, dtype=bool)
                for kind, store, rows in self._tail_group_index():
                    ok = rows[shifted[rows]]
                    if ok.size >= MIN_TAIL_GROUP:
                        groups.append((kind, store, ok))
                        lane_mask[ok] = False
        if not groups:
            self._sweep_lanes(segments, event_ids, out, block)
            return out
        self._sweep_tail_groups(segments, event_ids, out, groups)
        lane_rows = np.flatnonzero(lane_mask)
        if lane_rows.size:
            # The leftover rows sweep as a compact kernel of their own.
            out[lane_rows, :] += self.subset(lane_rows).sweep_segments(
                segments, event_ids, block_occurrences=block, sublinear=False,
            )
        return out

    def _sweep_lanes(self, segments: TrialSegments, event_ids: np.ndarray,
                     out: np.ndarray, block: int) -> None:
        """The lane path: per row, one gather from its net table into a
        reused row buffer and one ``reduceat`` over whole-trial starts."""
        bounds, trial_ids = segments.bounds, segments.trial_ids
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
        for gather, out_row in zip(self._net_gathers(), out):
            for s0, s1, starts, cols in chunks:
                lane = gather(event_ids[s0:s1], out=buf[:s1 - s0])
                out_row[cols] += np.add.reduceat(lane, starts)

    def run(
        self,
        trials: np.ndarray,
        event_ids: np.ndarray,
        n_trials: int,
        *,
        block_occurrences: int | None = None,
        sublinear: bool | None = None,
    ) -> np.ndarray:
        """Sweep + aggregate terms: the final ``(L, n_trials)`` YLT matrix."""
        return self.apply_aggregate(self.sweep(
            trials, event_ids, n_trials, block_occurrences=block_occurrences,
            sublinear=sublinear,
        ))
