"""The fused multi-layer portfolio kernel.

Every engine used to price a portfolio layer-by-layer: for L layers that
is L full passes over the same ``trials``/``event_ids`` arrays, L
separate gathers, and L separate ``bincount`` reductions — linear in
redundant memory traffic, which is exactly the data-movement cost §II
says dominates the ~10⁹ event-loss lookups of one aggregate run.

:class:`PortfolioKernel` fuses those passes.  It precomputes, once per
portfolio:

- its **books**, each stored once however many rows read it: the
  unique books' sorted ``(event, loss)`` entries concatenated
  (``ids``/``values``, 16 B per entry) with an ``offsets`` vector, and
  one row → book ``source``;
- ``(L,)`` **term vectors** (``occ_retention``, ``occ_limit``,
  ``agg_retention``, ``agg_limit``, ``participation``).

**The lane path** moves the occurrence terms from the occurrence stream
to the lookup.  Every row has its own ``(retention, limit)`` and reads
one stored table, so ``clip(table[e] - r, 0, c)`` is a function of the
*table entry* — and for a row that attaches high, most entries are 0
and most of the stream cannot matter.  A lane row therefore prices one
of two ways, **by a rule that reads the row alone** (its own stored
book and terms; :meth:`PortfolioKernel._pierced_entries`):

- **by events** — a row whose book's entries above its retention are
  at most :data:`BY_EVENT_MAX_FILL` (1/16) of its book's width, and
  every row whose book's id range passes
  :data:`~repro.core.lookup.DENSE_MAX_ENTRIES` (no table is ever built
  over such a range).  The row keeps just those entries, ``(events,
  clip(loss - r, 0, c))``, taken from the stored lookup.  A sweep
  prices all its by-event rows together: their entries, concatenated
  in row order (kept on the kernel), take **one** read of the stream's
  :class:`~repro.core.tables.EventIndex` (the trial column event-major,
  with a per-event offset table), which finds each event's occurrences
  in the trial span off two offsets — no search, no mask: every span
  has an index over its own rows — and **one** ``bincount`` into ``row ·
  n_trials + trial`` bins is every row — work proportional to the
  block's occurrences that pierce the rows' retentions, not to the
  stream, and a fixed cost paid once per sweep, not once per row.
- **on the stream** — every other row.  A per-row **net table** is
  built once per kernel (:meth:`PortfolioKernel._net_gathers`) and a
  sweep is one gather from it into a single reused row buffer plus one
  ``np.add.reduceat`` over whole-trial segment starts — no ``(L,
  block)`` lane matrix, no clip pass over the stream.
  :attr:`~repro.core.tables.TrialSegments.block_occurrences`, a
  constant, bounds the row buffer: the stream is chunked at trial
  boundaries, as many whole trials as fit the bound (at least one) — the
  one blocking rule, :meth:`~repro.core.tables.TrialSegments.blocks`,
  which a book profile's build reads the stream by too.

A sweep takes one trial span, a
:class:`~repro.core.tables.TrialSegments`: the span's event ids and
where each trial's rows lie, so no sweep reads a trial column.  The span
derives on itself, on first use, what its rows price by — its event
index and its book profiles — and keeps them: a ``YetTable`` keeps one
span per trial range (:meth:`YetTable.trial_block`), so those are built
once per span per table (once per span per worker for an attached
copy).  The raw-array :meth:`sweep` builds a span per call (after one
stable sort if the stream is unsorted), as a stored source builds one
per block; what it derives goes with it.  Every row's path is
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

Kernel rows are in input order; :attr:`layer_ids` maps row → layer.
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
:class:`~repro.core.tables.BookProfile` over the span swept: per trial,
the book's positive losses in sorted order with their running sum,
built over the span's rows alone, once per (span, book), and kept by
the span (:meth:`~repro.core.tables.TrialSegments.book_profile`) under
the book's content key, hashed once per book
(:attr:`~repro.core.lookup.LossLookup.key`) — so a pool worker profiles
its own span, never the whole YET.  A row is then two counts per trial and
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
function of the trial and the row alone, and the error bound is read
at the span's ``max_count``, which every span of one ``YetTable``
takes from the whole table (:meth:`~repro.core.tables.YetTable.trial_block`):
so tail rows, like lane rows, route alike and are ``np.array_equal``
across whole-YET, blocked, pooled, degraded-serial, MapReduce and
stored sweeps (a split's span, and a stored chunk's block, take the
bound of the YET they were cut from) and whatever other rows share
the group.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.core.lookup import LossLookup, effective_width, fits_direct, reader
from repro.core.tables import TrialSegments
from repro.errors import ConfigurationError

__all__ = ["KernelHandles", "PortfolioKernel", "MIN_TAIL_GROUP",
           "BY_EVENT_MAX_FILL", "ROUTING_COUNTERS"]

#: Kernel array attributes that travel through the shared-memory plane,
#: in the positional order of :meth:`PortfolioKernel.__init__`'s vector
#: arguments.  ``occ_floor``/``occ_ceiling`` are derived, not shipped.
_HANDLE_FIELDS = (
    "occ_retention", "occ_limit", "agg_retention", "agg_limit",
    "participation", "ids", "values", "offsets", "source",
)

#: Export ordinal of this process (the second half of a handles stamp).
_EXPORTS = itertools.count()


@dataclass(frozen=True)
class KernelHandles:
    """Shared-memory descriptor of one stacked kernel.

    Produced by :meth:`PortfolioKernel.export_handles`: the nine array
    buffers as :class:`~repro.hpc.shm.ShmArrayHandle`\\ s plus the row
    identities.  Pickles to ~1 KB regardless of how many entries the
    books hold, so a dispatcher ships a staged kernel with every task
    for the cost of a dict of descriptors.

    ``stamp`` names this export — the first segment written and a
    per-process export ordinal — and no other: a reused slab holds a
    different kernel under the same segment names after every pack, so
    a worker that keeps the kernel it attached (and the caches derived
    from it) keys it by the stamp, never by the handles' names.
    """

    arrays: dict
    layer_ids: tuple[int, ...]
    stamp: tuple[str, int]

    @property
    def nbytes(self) -> int:
        """Payload bytes the handles point at."""
        return sum(h.nbytes for h in self.arrays.values())


#: Minimum rows sharing one stored lookup before a group prices off its
#: book profile.  Chosen to amortise one profile build inside the sweep
#: that triggers it, against the stream lane path.  Against the by-event
#: lane path it no longer pays for itself at the benchmark's base shape
#: (2-vCPU x86-64 container, the burst's candidates, the two paths
#: alternated 200 times in one process): a profile sweep takes ≈ 1.3×
#: the lane sweep's time at 16 rows, ≈ 1.05× at 32 and ≈ 0.7× at 64
#: (≈ 3.1 / 3.6 / 6.6 ms against ≈ 2.3 / 3.4 / 9.3 ms), and the first
#: sweep pays ≈ 4–5 ms for the build (≈ 17–21 ms before the build ran
#: in flat integer passes).  Kept because moving it re-routes
#: rows, and a re-routed row's answer moves in the last ulp (the
#: bit-identity rule in the module docstring).
MIN_TAIL_GROUP = 16

#: A lane row is priced by events when its book's entries above its
#: retention are at most this share of the book's width (its ids up to
#: its last non-zero loss, as a direct-index table); a row whose book's
#: id range passes ``DENSE_MAX_ENTRIES`` always is.  The
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
                "_lookups", "routed")


def _id_column(column) -> np.ndarray:
    """A raw trial or event-id column: as it is when int32 or int64 (a
    YET's int32 column is not copied), else as int64."""
    column = np.asarray(column)
    if column.dtype in (np.int32, np.int64):
        return column
    return column.astype(np.int64)


class PortfolioKernel:
    """Stacked lookups + term vectors for one portfolio, swept fused.

    Build with :meth:`from_layers` (or fetch a portfolio's cached
    instance via :meth:`Portfolio.kernel`).  All state is plain NumPy,
    so instances are picklable and safe to ship to worker processes.
    """

    __slots__ = (
        "layer_ids", "occ_retention", "occ_limit", "agg_retention",
        "agg_limit", "participation", "ids", "values", "offsets", "source",
        "occ_floor", "occ_ceiling", *_CACHE_SLOTS,
    )

    #: Bound on the lane path's row buffer, in occurrences: the stream's
    #: one blocking limit, :attr:`TrialSegments.block_occurrences`, which
    #: is what :meth:`TrialSegments.blocks` reads.
    block_occurrences = TrialSegments.block_occurrences

    def __init__(
        self,
        *,
        layer_ids: tuple[int, ...],
        occ_retention: np.ndarray,
        occ_limit: np.ndarray,
        agg_retention: np.ndarray,
        agg_limit: np.ndarray,
        participation: np.ndarray,
        ids: np.ndarray,
        values: np.ndarray,
        offsets: np.ndarray,
        source: np.ndarray,
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
        # Row → book indirection: several layers may share one book when
        # they price the same merge under different terms — the serving
        # layer's common case.
        source = np.asarray(source, dtype=np.int64)
        if source.shape != (n_layers,) or not (
                (source >= 0) & (source < offsets.size - 1)).all():
            raise ConfigurationError(
                "source must name one stored book per layer")
        self.layer_ids = tuple(int(i) for i in layer_ids)
        self.occ_retention = occ_retention
        self.occ_limit = occ_limit
        self.agg_retention = agg_retention
        self.agg_limit = agg_limit
        self.participation = participation
        self.ids = ids
        self.values = values
        self.offsets = offsets
        self.source = source
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
        self._init_caches()

    def _init_caches(self) -> None:
        self._mask_cache: dict[int, np.ndarray] = {}
        self._tail_index = None
        self._net: list = [None] * len(self.layer_ids)
        self._pierced: list = [None] * len(self.layer_ids)
        self._stack = None
        self._lookups: list = [None] * self.n_unique_lookups
        #: Rows by the path that priced them, summed over this
        #: instance's sweeps (plain counts; see ROUTING_COUNTERS).
        self.routed = dict.fromkeys(ROUTING_COUNTERS, 0)

    def __getstate__(self):
        # Derived caches stay host-local: a pickled kernel (no pooled
        # path ships one — workers attach slab handles) carries only the
        # stored arrays and rebuilds masks/net tables lazily on first
        # use.
        return {name: getattr(self, name) for name in self.__slots__
                if name not in _CACHE_SLOTS}

    def __setstate__(self, state) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._init_caches()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_layers(cls, layers, *, layer_ids=None) -> "PortfolioKernel":
        """Stack layers — a portfolio's, or loose ones — into one kernel.

        Loose layers are the serving-layer construction path: a
        micro-batch of ad-hoc quote requests (each an arbitrary
        ``Layer``) is stacked into one kernel and priced in a single
        sweep.  ``layer_ids`` overrides the row identities — batched
        requests may carry colliding ``layer.layer_id`` values, so the
        caller can key rows by request position instead.  Lookups come
        from :meth:`Layer.lookup`, which returns one object for every
        layer over the same ELT objects and weights — the what-if burst:
        many term variations of one book — so the merge is built once
        (by the book, not per call), stored once here, and gathered
        once per occurrence block, with the other rows fanned out from
        it (see ``source``).
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
        books, index, source = [], {}, []
        for layer in layers:
            lk = layer.lookup()
            source.append(index.setdefault(id(lk), len(books)))
            if source[-1] == len(books):
                books.append(lk)

        def term_vec(attr: str) -> np.ndarray:
            return np.array([getattr(layer.terms, attr) for layer in layers],
                            dtype=np.float64)

        kernel = cls(
            layer_ids=tuple(layer_ids),
            occ_retention=term_vec("occ_retention"),
            occ_limit=term_vec("occ_limit"),
            agg_retention=term_vec("agg_retention"),
            agg_limit=term_vec("agg_limit"),
            participation=term_vec("participation"),
            ids=np.concatenate([lk.ids for lk in books]),
            values=np.concatenate([lk.values for lk in books]),
            offsets=np.cumsum([0] + [lk.n_entries for lk in books],
                              dtype=np.int64),
            source=np.asarray(source, dtype=np.int64),
        )
        # The books themselves, so their reader and content key are
        # built once per book, not once per kernel stacked over it.
        kernel._lookups = books
        return kernel

    # -- shared-memory transport -------------------------------------------

    def export_handles(self, arena) -> KernelHandles:
        """Place every array buffer in shared memory; returns the handles.

        ``arena`` may be a :class:`~repro.hpc.shm.SharedArena` (one
        fresh segment) or a :class:`~repro.hpc.shm.ShmSlab` (a pooled
        dispatcher's reusable slab, packed once per kernel it runs).
        Either way the kernel's payload is copied into
        shared pages once and :meth:`from_handles` re-attaches it as
        views — the pickled task argument shrinks from the stored books
        to ~1 KB of descriptors.
        """
        handles = arena.place(*(getattr(self, f) for f in _HANDLE_FIELDS))
        return KernelHandles(
            arrays=dict(zip(_HANDLE_FIELDS, handles)),
            layer_ids=self.layer_ids,
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
        return cls(layer_ids=handles.layer_ids, **arrays)

    # -- shape metadata ----------------------------------------------------

    @property
    def n_layers(self) -> int:
        return len(self.layer_ids)

    @property
    def n_unique_lookups(self) -> int:
        """Distinct stored books behind the rows."""
        return self.offsets.size - 1

    @property
    def nbytes(self) -> int:
        """Bytes of the stored books: their sorted ids and values."""
        return self.ids.nbytes + self.values.nbytes

    def row_of(self, layer_id: int) -> int:
        """Kernel row holding ``layer_id`` (rows are in input order)."""
        try:
            return self.layer_ids.index(layer_id)
        except ValueError:
            raise ConfigurationError(f"no layer {layer_id} in kernel") from None

    def book(self, store: int) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, values)`` of stored book ``store``: views of its sorted
        entries."""
        lo, hi = self.offsets[store], self.offsets[store + 1]
        return self.ids[lo:hi], self.values[lo:hi]

    def _lookup(self, store: int) -> LossLookup:
        """Stored book ``store`` as a :class:`LossLookup`, which holds
        its reader and content key once built: the interned book itself
        for a :meth:`from_layers` kernel, else one over the stored views,
        made on first use — host-local like every cache slot."""
        lookup = self._lookups[store]
        if lookup is None:
            lookup = self._lookups[store] = LossLookup(*self.book(store))
        return lookup

    # -- gathers -----------------------------------------------------------

    def gather_block(self, event_ids: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
        """Ground-up losses for one occurrence block, all layers:
        ``(L, block)``.

        Each *stored* book is gathered exactly once per block, through
        its one reader (:meth:`_lookup`); rows sharing a book (different
        terms) receive a plain copy of the first row's gather — a
        sequential write instead of a second random-access pass.
        """
        event_ids = np.asarray(event_ids, dtype=np.int64)
        if out is None:
            out = np.empty((self.n_layers, event_ids.size), dtype=np.float64)
        first_row: dict = {}
        for row, store in enumerate(self.source.tolist()):
            held = first_row.setdefault(store, row)
            if held == row:
                self._lookup(store).gather_into(event_ids, out[row])
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
        return self._lookup(self.source[row])(event_ids)

    # -- sublinear tail groups ---------------------------------------------

    def _tail_group_index(self):
        """Structural tail groups: ``(store, rows)`` pairs.

        Rows sharing one stored book — different terms — form a group
        when at least :data:`MIN_TAIL_GROUP` of them do; whether a given
        *sweep* actually prices a group off its profile is decided per
        call (error bound, ``sublinear``).
        Cached: the grouping is a pure function of ``source``.
        """
        if self._tail_index is None:
            order = np.argsort(self.source, kind="stable")
            cuts = np.flatnonzero(np.diff(self.source[order])) + 1
            self._tail_index = [(int(self.source[seg[0]]), seg)
                                for seg in np.split(order, cuts)
                                if seg.size >= MIN_TAIL_GROUP]
        return self._tail_index

    @property
    def tail_group_rows(self) -> int:
        """Rows structurally eligible for the book-profile path."""
        return sum(rows.size for _, rows in self._tail_group_index())

    def routed_since(self, before: dict) -> dict:
        """How far :attr:`routed` moved past ``before``, a ``dict(routed)``
        taken earlier: one run's routing on a kernel shared across runs."""
        return {name: rows - before[name]
                for name, rows in self.routed.items()}

    def _sweep_tail_groups(self, segments, out, groups) -> None:
        """Price tail groups off their books' profiles over the span
        (module docstring).

        A profile is keyed by the stored book's content
        (:attr:`LossLookup.key`, hashed once per book), so equal books
        behind distinct lookup objects and kernels share one; an
        infinite-retention row arrives as the ``[0, 0]`` window and
        prices to exactly 0.
        """
        for store, rows in groups:
            profile = segments.book_profile(self._lookup(store))
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
        # ``np.clip``'s answer, one bound at a time: faster than
        # ``np.clip`` on the (L, n_trials) matrix.
        np.maximum(out, 0.0, out=out)
        np.minimum(out, self.agg_limit[:, None], out=out)
        out *= self.participation[:, None]
        return out

    def _net_gathers(self, rows) -> list:
        """``gather(event_ids, out=)`` over the **net table** of each of
        the stream ``rows``.

        ``clip(loss - r, 0, c)`` is a function of the book's *entry*,
        so a row's occurrence terms are applied once per entry instead
        of once per occurrence, into the direct-index table of a
        :func:`~repro.core.lookup.reader`, ``ids[-1] + 2`` long: an id
        the book does not hold nets 0 under
        every retention ``>= 0``, and the zero last entry is where
        ``mode="clip"`` lands every id past the book (unknown event → 0,
        no fix-up pass).  A stream row's book :func:`fits_direct`
        (:meth:`_pierced_entries` prices every other row by events), so
        no table passes ``DENSE_MAX_ENTRIES``.  Built per row on the
        first sweep that prices it on the stream — a tail group's rows
        and by-event rows never pay for one; host-local like every
        cache slot, never shipped.
        """
        net = self._net
        for row in rows:
            if net[row] is not None:
                continue
            ids, values = self.book(self.source[row])
            entries = values - self.occ_retention[row]
            np.clip(entries, 0.0, self.occ_limit[row], out=entries)
            net[row] = reader(ids, entries)
        return [net[row] for row in rows]

    def _pierced_entries(self, row: int):
        """``(events, net)`` when the rule of record prices ``row`` by
        events, else ``None``: the book's entries above the row's
        retention — ascending event ids and their
        ``clip(loss - r, 0, c)`` — so a by-event row never builds a net
        table.  The decision reads the row's own book and terms only
        (:data:`BY_EVENT_MAX_FILL` of the book's
        :func:`~repro.core.lookup.effective_width`, and every book that
        does not :func:`~repro.core.lookup.fits_direct`; never another
        row's book), cached per row.
        """
        entry = self._pierced[row]
        if entry is None:
            r, c = self.occ_retention[row], self.occ_limit[row]
            ids, values = self.book(self.source[row])
            pierced = values > r
            events, losses = ids[pierced], values[pierced]
            by_events = not fits_direct(ids) or (
                events.size <= BY_EVENT_MAX_FILL * effective_width(ids, values))
            entry = self._pierced[row] = (
                (events, np.clip(losses - r, 0.0, c)) if by_events else False)
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

        Builds the stream's span, a
        :class:`~repro.core.tables.TrialSegments` — after one stable sort
        when the trials arrive unsorted — and runs :meth:`sweep_segments`
        over it; whatever the span derives (an event index, a book
        profile) goes with it when the call returns.  Callers holding a
        ``YetTable`` sweep its kept span instead:
        ``sweep_segments(yet.trial_block())``.
        """
        trials, event_ids = _id_column(trials), _id_column(event_ids)
        if trials.shape != event_ids.shape:
            raise ConfigurationError("trials and event_ids must be equal-length")
        if event_ids.size and event_ids.min() < 0:
            raise ConfigurationError("event ids must be non-negative")
        if np.any(trials[1:] < trials[:-1]):
            order = np.argsort(trials, kind="stable")
            trials, event_ids = trials[order], event_ids[order]
        segments = TrialSegments.from_sorted_trials(trials, event_ids,
                                                    n_trials)
        return self.sweep_segments(segments, sublinear=sublinear)

    def sweep_segments(self, segments: TrialSegments, *,
                       sublinear: bool | None = None) -> np.ndarray:
        """Pre-aggregate ``(L, n_trials)`` annual matrix of one span.

        ``segments`` is a span of whole trials with its event ids (see
        :meth:`YetTable.trial_block`), so no trial column is read; a
        caller that holds a longer stream in pieces writes each span's
        answer to its own trial columns.  Aggregate terms are *not*
        applied; compose with :meth:`apply_aggregate`.

        ``sublinear`` controls the tail-group path (see the module
        docstring): the default (``None``/``True``) prices qualifying
        same-book row groups off their book profile and everything else
        through the lane path; ``False`` forces the lane path for every
        row.
        """
        n_layers, n_trials = self.n_layers, segments.n_trials
        out = np.zeros((n_layers, n_trials), dtype=np.float64)
        if segments.n_occurrences == 0:
            return out
        # Routing happens per sweep: a structural group's rows take the
        # profile when they pass the error bound for this stream and
        # enough of them do; the rest are counted by why they did not.
        fallback = "sublinear_off" if sublinear is False else "error_bound"
        groups = []
        lane_mask = np.ones(n_layers, dtype=bool)
        for store, rows in self._tail_group_index():
            ok = rows[:0]
            if fallback == "error_bound":
                ok = rows[self._shift_mask(segments.max_count)[rows]]
            if ok.size >= MIN_TAIL_GROUP:
                groups.append((store, ok))
                lane_mask[ok] = False
                self.routed["kernel.profile_rows"] += ok.size
                rows = rows[lane_mask[rows]]
            self.routed["kernel.fallback." + fallback] += rows.size
        if groups:
            self._sweep_tail_groups(segments, out, groups)
        # Lane rows: by events where the rule of record says so, the
        # rest on the stream.
        by_event, by_stream = [], []
        for row in np.flatnonzero(lane_mask).tolist():
            path = by_stream if self._pierced_entries(row) is None else by_event
            path.append(row)
        self.routed["kernel.lane_rows.by_event"] += len(by_event)
        self.routed["kernel.lane_rows.by_stream"] += len(by_stream)
        if by_event:
            sums = self._sweep_by_event(segments, by_event)
            if len(by_event) == n_layers:
                out = sums
            else:
                out[by_event] = sums
        if by_stream:
            self._sweep_stream(segments, out, by_stream)
        return out

    def _sweep_by_event(self, segments: TrialSegments,
                        rows: list) -> np.ndarray:
        """By-event ``rows`` as a ``(len(rows), n_trials)`` block: one
        index read over every row's pierced events at once, then one
        ``bincount`` per row over its run of the read's int32 trials.

        ``bincount`` adds in input order, and a row's occurrences arrive
        in (event, trial) order, so each ``(row, trial)`` bin sums
        exactly as a sweep of that row alone would.
        """
        events, nets, ends = self._by_event_stack(tuple(rows))
        n_trials = segments.n_trials
        counts, trial = segments.event_index().occurrences(events)
        weights = np.repeat(nets, counts)
        # Row i's occurrences are one contiguous run of the read, from
        # the zero-led running count of its events' occurrences.
        occ_ends = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=occ_ends[1:])
        bounds = occ_ends[np.concatenate(([0], ends))].tolist()
        sums = np.empty((len(rows), n_trials))
        for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
            sums[i] = np.bincount(trial[a:b], weights=weights[a:b],
                                  minlength=n_trials)
        return sums

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

    def _sweep_stream(self, segments: TrialSegments, out: np.ndarray,
                      rows: list) -> None:
        """Lane ``rows`` on the stream: per block of whole trials
        (:meth:`TrialSegments.blocks`), its ids widened once to intp
        (``np.take`` would cast an int32 slice again for every row),
        then per row one gather from its net table into a reused row
        buffer and one ``reduceat`` over whole-trial starts — each trial
        summed by a single ``reduceat`` however the stream is blocked or
        decomposed."""
        blocks = segments.blocks()
        width = max(span.stop - span.start for span, _, _ in blocks)
        buf, ids = np.empty(width), np.empty(width, dtype=np.intp)
        event_ids = segments.event_ids
        gathers = self._net_gathers(rows)
        for span, segs, starts in blocks:
            trials = segments.trial_ids[segs]
            t_lo, t_hi = int(trials[0]), int(trials[-1]) + 1
            # Trial ids without a gap are a plain slice of the output row.
            cols = slice(t_lo, t_hi) if t_hi - t_lo == trials.size else trials
            chunk = ids[:span.stop - span.start]
            np.copyto(chunk, event_ids[span])
            for row, gather in zip(rows, gathers):
                lane = gather(chunk, out=buf[:chunk.size])
                out[row, cols] = np.add.reduceat(lane, starts)

    def run(self, trials: np.ndarray, event_ids: np.ndarray,
            n_trials: int) -> np.ndarray:
        """Sweep + aggregate terms: the final ``(L, n_trials)`` YLT matrix."""
        return self.apply_aggregate(self.sweep(trials, event_ids, n_trials))
