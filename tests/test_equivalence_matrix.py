"""One equivalence matrix: route × source × dispatcher × batch.

The paper prices one aggregate analysis on several substrates, and the
YET is "a consistent lens through which to view results" (§II): an
answer must not depend on which substrate ran or how the trials were
cut.  This module states that property once.  The factors and their
levels are the tables below; every valid combination is one cell, one
parametrised test whose id names it (``route-source-dispatcher-batch``),
and every cell asserts three things:

- ``np.array_equal`` to the inline whole-YET sweep of the same kernel;
- the oracle tolerance to ``sequential``, through
  :func:`~repro.analytics.assert_engines_equivalent`;
- its route: the ``routed`` counts equal the rule of record
  (``core/kernels.py``) restated over the blocks the cell swept, and
  the route's own counter moved — a cell that passes with its fast path
  off fails.

Pool workers' counts do not reach the parent yet (ROADMAP item 8), so a
pooled cell proves its route through the degraded-serial dispatcher,
which sweeps the same spans in process and counts them.  A combination
that cannot run is a row of :data:`EXCLUDED`, with its reason; no cell
is skipped or expected to fail.  Hypothesis draws the seed of the books
and terms (``derandomize=True``, so a failing cell reproduces from its
id) and every cell runs on both :data:`SHAPES`.

Adding a level: a route is one :data:`ROUTES` row and its candidate
builder; a source is one :data:`SOURCES` row and a branch of
:func:`run_aggregate`.  :data:`EXCLUDED` says where it cannot go.
Run the matrix alone with ``pytest -m matrix``.
"""

import fnmatch
import functools
import itertools
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from conftest import make_yet
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analytics import assert_engines_equivalent
from repro.core import StoredYet
from repro.core.engines import (DeviceEngine, EngineResult, MapReduceEngine,
                                MulticoreEngine, SequentialEngine,
                                VectorizedEngine)
from repro.core.kernels import (MIN_TAIL_GROUP, ROUTING_COUNTERS,
                                PortfolioKernel)
from repro.core.layer import Layer
from repro.core.lookup import DENSE_MAX_ENTRIES
from repro.core.portfolio import Portfolio
from repro.core.tables import (EltTable, TrialSegments, YetTable, YltTable,
                               trial_spans)
from repro.core.terms import LayerTerms
from repro.data.store import ChunkStore
from repro.serve import CachePolicy
from repro.serve.dispatch import InlineDispatcher
from repro.session import RiskSession

pytestmark = pytest.mark.matrix

BY_EVENT, BY_STREAM = "kernel.lane_rows.by_event", "kernel.lane_rows.by_stream"
PROFILE, ERROR_BOUND = "kernel.profile_rows", "kernel.fallback.error_bound"

# ---------------------------------------------------------------------------
# the factors and their levels
# ---------------------------------------------------------------------------

#: route → (the counter that proves it, how the candidates force it).
ROUTES = {
    "events": (BY_EVENT, "compact books at most 1/16 of whose entries "
                         "pierce a row's retention"),
    "csr": (BY_EVENT, "books of a wide id range holding ids past 2**31 "
                      "whose int32 wraps (k + 2**32 -> k) a YET holds"),
    "stream": (BY_STREAM, "compact books more than 1/16 of whose entries "
                          "pierce"),
    "profile": (PROFILE, "one book (of a wide id range when drawn) under "
                         "every row, one row inside the shift-mask bound "
                         "of short blocks only"),
    "straddle": (PROFILE, "the profile route's book, every other event of "
                          "it losing more than BOUNDARY_RETENTION, and the "
                          "rows after an aggregate's first MIN_TAIL_GROUP "
                          "retaining that: inside the shift-mask bound of "
                          "short pieces only, non-zero on either route"),
}

#: source → what the cell's engine reads the trials from.
SOURCES = {
    "memory": "the YetTable (vectorized / multicore)",
    "buffer7": "the YetTable, with TrialSegments.block_occurrences "
               "patched to 7 (whole trials, at least one, per row buffer)",
    "raw": "raw sorted columns (PortfolioKernel.run)",
    "rawunsorted": "the same columns shuffled",
    "stored1": "StoredYet written at rows_per_chunk=1 (vectorized)",
    "stored97": "StoredYet written at rows_per_chunk=97",
    "storedall": "StoredYet, one chunk",
    "mapreduce1": "MapReduceEngine(n_splits=1)",
    "mapreduce4": "MapReduceEngine(n_splits=4)",
    "mapreduce13": "MapReduceEngine(n_splits=13)",
    "device": "DeviceEngine(), its planned chunking (one sweep)",
    "device1": "DeviceEngine(max_rows_per_chunk=1)",
    "device97": "DeviceEngine(max_rows_per_chunk=97)",
}

#: The substrate the source's sweeps run on: one whole-YET span on the
#: calling thread, a 2-worker pool, or that pool degraded to serial
#: (``pool.health.degraded``), sweeping the pool's spans in process.
DISPATCHERS = ("inline", "pooled", "degraded")

#: An aggregate over the route's portfolio, or its first ``n``
#: candidates quoted as one batch through a ``PricingService``.
BATCHES = ("aggregate", 1, 2, 16, 64)

#: ``(route, source, dispatcher, batch)`` patterns (``fnmatch``, ``|``
#: between alternatives) that generate no cell, and why.
EXCLUDED = (
    ("*", "stored*", "pooled", "*",
     "a pooled dispatcher stages a YetTable in shared memory; pooled "
     "splits of a stored YET are ROADMAP item 9(b)"),
    ("*", "raw*|buffer7", "pooled|degraded", "*",
     "the kernel's own sweep, on the calling thread: raw columns reach no "
     "dispatcher, and a row buffer chunks within a block"),
    ("*", "mapreduce*|device*", "pooled|degraded", "*",
     "map tasks and the device's one sweep (its chunks are its plan's) "
     "ride the engine's own inline dispatcher (pooled splits: item 9(b))"),
    ("*", "buffer7|raw*|stored*|mapreduce*|device*", "*", "1|2|16|64",
     "a quote prices through a RiskSession, whose YET is in memory "
     "(item 17) and whose dispatchers are inline and pooled"),
    ("stream", "rawunsorted", "*", "*",
     "a by-stream row sums each trial in stream order, which a shuffle "
     "changes: tolerance only (test_unsorted_trials_fall_back_to_block_sort)"),
)


def _excluded(combo, rows=EXCLUDED) -> bool:
    return any(all(any(fnmatch.fnmatchcase(str(level), p)
                       for p in pattern.split("|"))
                   for level, pattern in zip(combo, row))
               for row in rows)


@dataclass(frozen=True)
class Cell:
    route: str
    source: str
    dispatcher: str
    batch: object

    def __str__(self) -> str:
        return f"{self.route}-{self.source}-{self.dispatcher}-{self.batch}"

    @property
    def counters(self) -> tuple:
        """The counters one of which must move to prove the route: a
        batch below MIN_TAIL_GROUP rows forms no group, so the profile
        book's rows price as lane rows (item 7)."""
        small = self.batch != "aggregate" and self.batch < MIN_TAIL_GROUP
        if self.route in ("profile", "straddle") and small:
            return BY_EVENT, BY_STREAM
        return ROUTES[self.route][:1]


COMBOS = list(itertools.product(ROUTES, SOURCES, DISPATCHERS, BATCHES))
CELLS = [Cell(*combo) for combo in COMBOS if not _excluded(combo)]


def test_every_exclusion_is_the_only_reason_for_some_combination():
    for row in EXCLUDED:
        others = [other for other in EXCLUDED if other is not row]
        assert any(_excluded(combo, [row]) and not _excluded(combo, others)
                   for combo in COMBOS), row


# ---------------------------------------------------------------------------
# inputs: two seeded YET shapes, candidates from a seed Hypothesis draws
# ---------------------------------------------------------------------------

#: A compact book's ids are ``0 .. W - 1``; a YET draws ids up to
#: ``W + 3``, so some are unknown to every book, and wide books hold
#: ``WRAP + 2**32``, which an int32 cast would wrap onto ``WRAP``.
W = 64
WRAP = W + 1
#: The profile route's row inside the shift-mask bound of blocks whose
#: longest trial is at most 45 occurrences (``2**51 · 1e-6 / 5e7``),
#: outside it for the skewed shape's 60-occurrence trial; above every
#: stored loss, so it prices 0 on either route.
BOUNDARY_ROW, BOUNDARY_RETENTION = 17, 5e7
#: Rows in an aggregate cell's portfolio (the first candidates).
N_AGGREGATE = 20
#: The straddle route's rows at ``BOUNDARY_RETENTION``, after the first
#: MIN_TAIL_GROUP (a group inside every bound): they price off the
#: profile in a piece of short trials and on lanes in one holding the
#: skewed shape's long trial, and every other loss of their book is
#: above the retention, so both answers are non-zero.
STRADDLE_ROWS = range(MIN_TAIL_GROUP, N_AGGREGATE)


def _yet(counts, seed, zero_trial=None) -> YetTable:
    rng = np.random.default_rng(seed)
    trials = np.repeat(np.arange(len(counts)), counts)
    events = rng.integers(0, W + 4, trials.size)
    if zero_trial is not None:          # an all-zero trial: unknown ids
        events[trials == zero_trial] = W + 2
    return make_yet(trials, events, len(counts))


def _skewed():
    """61 trials: the first, middle and last empty, trial 7 sixty
    occurrences long, trial 45 all unknown ids; offsets by event id."""
    counts = np.random.default_rng(1).poisson(2, 61)
    counts[[0, 30, 60]] = 0
    counts[7] = 60
    return _yet(counts, 2, zero_trial=45)


#: name → YET.  ``tiny`` holds ids past its 11 occurrences, so its event
#: index is offset by rank, and has fewer trials than 13 splits.
SHAPES = {"skewed": _skewed(), "tiny": _yet([0, 3, 0, 5, 1, 0, 2, 0, 0], 3)}

#: How a candidate's retention and limit sit against its book's losses
#: ``ranked`` descending, ``p`` of them above the retention.
KINDS = ("exact", "open", "never", "between")


def _terms(rng, kind, ranked, p, i, never=np.inf) -> LayerTerms:
    """``exact``: retention and limit end on stored losses; ``open``:
    an infinite limit; ``never``: retention ``never``; ``between``:
    retention between two stored losses, a drawn limit."""
    retention, limit = float(ranked[p]), np.inf
    if kind == "exact" and p:
        limit = float(ranked[rng.integers(0, p)]) - retention
    elif kind == "never":
        retention = never
    elif kind == "between":
        retention = float(ranked[p] + ranked[p - 1]) / 2 if p else retention
        limit = float(rng.uniform(1e3, 1e6))
    agg_retention, agg_limit = rng.uniform(0, 1e5), rng.uniform(1e4, 1e8)
    return LayerTerms(
        occ_retention=retention, occ_limit=limit,
        agg_retention=agg_retention if rng.random() < 0.5 else 0.0,
        agg_limit=agg_limit if rng.random() < 0.5 else np.inf,
        participation=1.0 - i / 1000)       # no two candidates alike


def _book(rng, contract_id, ids=np.arange(W), extra=(), straddle=False):
    losses = np.minimum(rng.lognormal(10, 1.5, ids.size), 1e7)
    losses[rng.random(ids.size) < 0.2] = 0.0    # zero-loss events
    if straddle:                # every other event past BOUNDARY_RETENTION
        losses[::2] += 2 * BOUNDARY_RETENTION
    losses[-1] = 1e3                            # the compact book's width is W
    ids = np.append(ids, extra).astype(np.int64)
    losses = np.append(losses, rng.lognormal(12, 1.0, len(extra)))
    return EltTable.from_arrays(ids, losses, contract_id=contract_id)


def _candidates(route, seed, sparse) -> tuple:
    """64 candidate layers forcing ``route``: eight books of eight rows
    (a book needs MIN_TAIL_GROUP rows to form a group), or for the
    profile and straddle routes one book under all 64, ``sparse`` giving
    it a wide id range.  Terms rank the losses below
    ``BOUNDARY_RETENTION``."""
    rng = np.random.default_rng(seed)
    extra = {"csr": (WRAP + 2**32, 2**31 + 3),
             "profile": (2**31 + 5,) if sparse else ()}.get(route, ())
    one_book = route in ("profile", "straddle")
    books = [_book(rng, b, extra=extra, straddle=route == "straddle")
             for b in range(1 if one_book else 8)]
    ranked = [np.sort(book.mean_losses)[::-1] for book in books]
    ranked = [losses[losses < BOUNDARY_RETENTION] for losses in ranked]
    layers = []
    for i in range(64):
        book, losses = books[i % len(books)], ranked[i % len(books)]
        # how many stored losses lie above the retention
        p = {"events": (0, 4),                  # <= 4 of 64 pierce
             "stream": (8, 40)}.get(route, (0, np.count_nonzero(losses)))
        terms = _terms(rng, KINDS[rng.integers(len(KINDS))], losses,
                       rng.integers(*p), i,
                       never=0.0 if route == "stream" else np.inf)
        if route == "profile" and i == BOUNDARY_ROW:
            terms = LayerTerms(occ_retention=BOUNDARY_RETENTION)
        if route == "straddle" and i in STRADDLE_ROWS:
            terms = LayerTerms(occ_retention=BOUNDARY_RETENTION,
                               participation=1.0 - i / 1000)
        layers.append(Layer(i, [book], terms))
    return tuple(layers)


@dataclass(eq=False)
class Case:
    """One route's candidates over one shape, with what every cell of
    the route compares against (computed once)."""

    candidates: tuple
    yet: YetTable

    @functools.cached_property
    def portfolio(self) -> Portfolio:
        return Portfolio(list(self.candidates[:N_AGGREGATE]))

    @functools.lru_cache(maxsize=None)
    def oracle(self, n) -> EngineResult:
        """``sequential`` over the first ``n`` candidates."""
        return SequentialEngine().run(Portfolio(list(self.candidates[:n])),
                                      self.yet)

    @functools.lru_cache(maxsize=None)
    def reference(self, batch) -> tuple:
        """``(kernel, {layer: losses})``: the inline whole-YET sweep of
        the kernel an aggregate (or a quote batch) prices."""
        if batch == "aggregate":
            kernel = self.portfolio.kernel()
        else:
            kernel = PortfolioKernel.from_layers(self.candidates[:batch],
                                                 layer_ids=range(batch))
        final = InlineDispatcher().run(kernel, self.yet)
        ids = [layer.layer_id for layer in self.candidates]
        return kernel, {ids[lid]: final[row]
                        for row, lid in enumerate(kernel.layer_ids)}


@functools.lru_cache(maxsize=None)
def make_case(route, shape, seed, sparse) -> Case:
    return Case(_candidates(route, seed, sparse), SHAPES[shape])


#: ``(seed, sparse)``: the seed of the books' losses and of every
#: candidate's terms and their kind, and whether the profile route's
#: book spans a wide id range.  Few seeds, so the cells of a route share their cases
#: (and the oracle and reference runs each case needs).
DRAWS = st.tuples(st.integers(0, 7), st.booleans())


# ---------------------------------------------------------------------------
# the rule of record, restated
# ---------------------------------------------------------------------------

def blocks_of(yet, sizes) -> list:
    """``(occurrences, bound)`` of each block swept, from its size in
    occurrences: the bound is the longest trial of the whole YET,
    whatever piece of it the block is (a span of the table, a MapReduce
    split or a stored chunk)."""
    longest = int(np.diff(yet.trial_offsets).max(initial=0))
    return [(int(n), longest) for n in sizes]


def spans_of(yet, spans) -> list:
    """:func:`blocks_of` the trial spans ``(t0, t1)``."""
    offsets = yet.trial_offsets
    return blocks_of(yet, [offsets[t1] - offsets[t0] for t0, t1 in spans])


def expected_routes(kernel, blocks) -> dict:
    """Rows by route over the swept ``blocks``, by ``core/kernels.py``'s
    rule: rows sharing a stored book form a group when MIN_TAIL_GROUP
    do, and its rows inside the shift-mask bound at the block's bound
    (:func:`blocks_of`: the whole YET's longest trial) take the
    profile while at least MIN_TAIL_GROUP of them do;
    every other row is a lane row — by events when at most 1/16 of its
    book's width pierce its retention (every row of a book whose id
    range passes DENSE_MAX_ENTRIES), else on the stream.  An empty
    block routes nothing."""
    groups = [np.flatnonzero(kernel.source == store)
              for store in np.unique(kernel.source)]
    groups = [rows for rows in groups if rows.size >= MIN_TAIL_GROUP]
    by_event = np.ones(kernel.n_layers, dtype=bool)
    for row, store in enumerate(kernel.source.tolist()):
        ids, losses = kernel.book(store)
        if ids[-1] < DENSE_MAX_ENTRIES:
            nonzero = ids[losses != 0.0]
            width = int(nonzero[-1]) + 1 if nonzero.size else 1
            by_event[row] = 16 * np.count_nonzero(
                losses > kernel.occ_retention[row]) <= width
    routes = dict.fromkeys(ROUTING_COUNTERS, 0)
    for n, longest in blocks:
        if not n:
            continue
        lanes = np.ones(kernel.n_layers, dtype=bool)
        for rows in groups:
            err = kernel.occ_floor[rows] * float(longest) * 2.0 ** -51
            ok = rows[(err >= 0.0) & (err <= 1e-6)]
            if ok.size >= MIN_TAIL_GROUP:
                routes[PROFILE] += ok.size
                lanes[ok] = False
            routes[ERROR_BOUND] += rows.size - (
                ok.size if ok.size >= MIN_TAIL_GROUP else 0)
        routes[BY_EVENT] += int((lanes & by_event).sum())
        routes[BY_STREAM] += int((lanes & ~by_event).sum())
    return routes


# ---------------------------------------------------------------------------
# the substrates, one per shape for the module
# ---------------------------------------------------------------------------

class Substrates:
    """Per shape: a session on a live 2-worker pool (its inline and
    pooled dispatchers), one whose pool is degraded, their quote
    services (cache off), and the YET stored at each chunk size."""

    def __init__(self, root) -> None:
        self.root = root
        self._sessions, self._services, self._stores = {}, {}, {}

    def session(self, shape, dispatcher) -> RiskSession:
        live = dispatcher != "degraded"
        if (shape, live) not in self._sessions:
            session = RiskSession(SHAPES[shape], n_workers=2)
            if not live:
                session.dispatcher("pooled").pool.health.degraded = True
            self._sessions[shape, live] = session
        return self._sessions[shape, live]

    def dispatcher(self, shape, dispatcher):
        return self.session(shape, dispatcher).dispatcher(
            "inline" if dispatcher == "inline" else "pooled")

    def service(self, shape, dispatcher):
        if (shape, dispatcher) not in self._services:
            session = self.session(shape, dispatcher)
            self._services[shape, dispatcher] = session.pricing_service(
                engine="inline" if dispatcher == "inline" else "pooled",
                cache=CachePolicy(0))
        return self._services[shape, dispatcher]

    def stored(self, shape, source) -> StoredYet:
        yet = SHAPES[shape]
        if (shape, source) not in self._stores:
            store = ChunkStore(self.root / f"{shape}-{source}")
            rows = {"stored1": 1, "stored97": 97}.get(source,
                                                      yet.n_occurrences)
            StoredYet.write(store, "yet", yet, rows)
            self._stores[shape, source] = store
        return StoredYet(self._stores[shape, source], "yet")

    @functools.lru_cache(maxsize=None)
    def stored_blocks(self, shape, source, spans) -> list:
        """What a pass over each span of the stored YET sweeps."""
        stored = self.stored(shape, source)
        return blocks_of(SHAPES[shape], [
            seg.n_occurrences for t0, t1 in spans
            for seg in stored.trial_blocks(t0, t1)])

    def close(self) -> None:
        for session in self._sessions.values():
            session.close()


@pytest.fixture(scope="module")
def substrates(tmp_path_factory):
    subs = Substrates(tmp_path_factory.mktemp("matrix"))
    yield subs
    subs.close()


# ---------------------------------------------------------------------------
# running a cell: {layer: losses}, the routed counts, the blocks swept
# ---------------------------------------------------------------------------

def run_aggregate(cell, case, shape, subs):
    portfolio, yet = case.portfolio, case.yet
    source = cell.source
    if cell.dispatcher == "pooled":
        engine = MulticoreEngine.riding(subs.dispatcher(shape, "pooled"))
        result = engine.run(portfolio, yet)
        assert (result.details["transport"], result.details["n_blocks"]) == (
            "shm", 2), "the pool must have run the spans"
        twin = Cell(cell.route, source, "degraded", cell.batch)
        _, routed, blocks = run_aggregate(twin, case, shape, subs)
        return ylts_of(result), routed, blocks
    whole = spans_of(yet, [(0, yet.n_trials)])
    if source == "buffer7":
        kernel = PortfolioKernel.from_layers(portfolio)
        with mock.patch.object(TrialSegments, "block_occurrences", 7):
            final = InlineDispatcher().run(kernel, yet)
        return dict(zip(kernel.layer_ids, final)), kernel.routed, whole
    if source.startswith("raw"):
        kernel = portfolio.kernel()
        before = dict(kernel.routed)
        order = (np.random.default_rng(4).permutation(yet.n_occurrences)
                 if source == "rawunsorted" else slice(None))
        final = kernel.run(yet.trials[order], yet.event_ids[order],
                           yet.n_trials)
        return (dict(zip(kernel.layer_ids, final)),
                kernel.routed_since(before), whole)
    if source.startswith("stored"):
        stored = subs.stored(shape, source)
        engine = (VectorizedEngine() if cell.dispatcher == "inline" else
                  VectorizedEngine.riding(subs.dispatcher(shape, "degraded")))
        result = engine.run(portfolio, stored)
        blocks = subs.stored_blocks(shape, source,
                                    tuple(engine.dispatcher.spans(stored)))
    elif source.startswith("mapreduce"):
        splits = int(source[len("mapreduce"):])
        result = MapReduceEngine(n_splits=splits).run(portfolio, yet)
        blocks = spans_of(yet, trial_spans(yet.n_trials, splits))
    elif source.startswith("device"):
        rows = source[len("device"):]
        result = DeviceEngine(max_rows_per_chunk=int(rows) if rows else None
                              ).run(portfolio, yet)
        blocks = whole       # the chunks are the plan's; one sweep runs
    else:
        engine = (VectorizedEngine() if cell.dispatcher == "inline" else
                  MulticoreEngine.riding(subs.dispatcher(shape, "degraded")))
        result = engine.run(portfolio, yet)
        blocks = spans_of(yet, engine.dispatcher.spans(yet))
    return ylts_of(result), result.details["routed"], blocks


def ylts_of(result) -> dict:
    return {lid: ylt.losses for lid, ylt in result.ylt_by_layer.items()}


def run_quotes(cell, case, shape, subs):
    """The first ``batch`` candidates, quoted as one batch (``ylt``
    requests, so the answer is the whole row); the counts off the
    session's telemetry plane."""
    batch = case.candidates[:cell.batch]
    service = subs.service(shape, cell.dispatcher)
    telemetry = subs.session(shape, cell.dispatcher).telemetry

    def routed():
        return {name: telemetry.counter(name).value
                for name in ROUTING_COUNTERS}

    before = routed()
    tickets = [service.submit(layer, "ylt") for layer in batch]
    assert service.flush() == len(batch)
    ylts = {layer.layer_id: ticket.result().losses
            for layer, ticket in zip(batch, tickets)}
    if cell.dispatcher == "pooled":
        assert service.dispatcher.transport_active == "shm"
        twin = Cell(cell.route, cell.source, "degraded", cell.batch)
        _, routed, blocks = run_quotes(twin, case, shape, subs)
        return ylts, routed, blocks
    after = routed()
    moved = {name: after[name] - before[name] for name in ROUTING_COUNTERS}
    return ylts, moved, spans_of(case.yet, service.dispatcher.spans(case.yet))


# ---------------------------------------------------------------------------
# the cells
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cell", CELLS, ids=str)
@settings(max_examples=2, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(draws=DRAWS)
def test_cell(cell, draws, substrates):
    run = run_aggregate if cell.batch == "aggregate" else run_quotes
    seed, sparse = draws
    for shape in SHAPES:
        case = make_case(cell.route, shape, seed,
                         sparse and cell.route == "profile")
        kernel, reference = case.reference(cell.batch)
        ylts, routed, blocks = run(cell, case, shape, substrates)
        where = f"{cell} on {shape}, draws {draws}"
        assert set(ylts) == set(reference), where
        for lid, losses in ylts.items():
            np.testing.assert_array_equal(losses, reference[lid],
                                          err_msg=f"{where}: layer {lid}")
        assert sorted(ylts) == list(range(len(ylts))), where
        assert_engines_equivalent({"sequential": case.oracle(len(ylts)),
                                   str(cell): as_result(str(cell), ylts)})
        expected = expected_routes(kernel, blocks)
        assert routed == expected, where
        assert any(expected[name] for name in cell.counters), where


def as_result(name, ylts) -> EngineResult:
    return EngineResult(
        engine=name,
        ylt_by_layer={lid: YltTable(losses) for lid, losses in ylts.items()},
        portfolio_ylt=YltTable(np.sum(list(ylts.values()), axis=0)))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 7: a profile-book candidate prices on lanes in a batch "
    "below MIN_TAIL_GROUP rows and off the book profile in a larger one; "
    "the two differ in the last ulp"))
def test_a_quote_is_the_same_at_every_batch_size(substrates):
    """The bar item 7 flips: each of the first 16 profile-route
    candidates quoted alone, in pairs, in a batch of 16 and in one of
    64, ``==`` every time."""
    case = make_case("profile", "skewed", 0, False)
    service = substrates.service("skewed", "inline")
    answers = {}
    for size in (1, 2, 16, 64):
        for start in range(0, 16, size):
            batch = case.candidates[start:start + size]
            tickets = [service.submit(layer, "ylt") for layer in batch]
            service.flush()
            for layer, ticket in zip(batch, tickets):
                answers.setdefault(layer.layer_id, []).append(
                    ticket.result().losses)
    for lid in range(16):
        first, *others = answers[lid]
        for other in others:
            np.testing.assert_array_equal(other, first)
