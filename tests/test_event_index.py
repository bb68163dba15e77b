"""Lane rows priced by events off the YET's event-major index.

Five contracts:

- **the index, on the path**: hand-computed sweeps move the
  ``kernel.lane_rows.*`` counts by the rows the rule assigns (oracle
  parity over every source and dispatcher is
  ``tests/test_equivalence_matrix.py``); offsets by id and by rank read
  what a scan finds, and ids near 10⁹ over a short stream cost bytes
  per distinct id, not per id;
- **routing is a function of the row alone**: its own book and terms,
  never the rows sharing its kernel; a row just above the threshold
  stays on the stream;
- **invariance**: by-event rows are ``np.array_equal`` across whole /
  every trial cut / 1, 2, 3 and 7 trial blocks / blocked / pooled /
  degraded / no-shared-memory / raw-column sweeps, sorted or not;
- **one index per trial span per process**, built from the span's own
  rows (never the YET's trial column) only when a row routes to it,
  fresh after unpickling, released with its ``YetTable``;
- **counted**: lane routing and the index's levels reach the telemetry
  plane of a session and of a service.
"""

import gc
import pickle
import sys
import threading
import weakref

import numpy as np
import pytest
from conftest import make_yet, multicore, worker_probes

from repro.core.engines import SequentialEngine, VectorizedEngine
from repro.core.kernels import PortfolioKernel
from repro.core.layer import Layer
from repro.core.lookup import fits_direct
from repro.core.portfolio import Portfolio
from repro.core import tables
from repro.core.tables import EltTable, StoredYet, TrialSegments, YetTable
from repro.core.terms import LayerTerms
from repro.data.store import ChunkStore
from repro.errors import ConfigurationError
from repro.hpc import shm
from repro.serve import CachePolicy
from repro.serve.dispatch import InlineDispatcher, PooledDispatcher
from repro.session import RiskSession

RTOL, ATOL = 1e-9, 1e-6
BY_EVENT, BY_STREAM = "kernel.lane_rows.by_event", "kernel.lane_rows.by_stream"


def swept(kernel, sweep, by_event, by_stream):
    """Run ``sweep()``; assert the lane counts moved by exactly the rows
    expected on each path."""
    before = dict(kernel.routed)
    result = sweep()
    moved = {name: kernel.routed[name] - before[name]
             for name in (BY_EVENT, BY_STREAM)}
    assert moved == {BY_EVENT: by_event, BY_STREAM: by_stream}
    return result


def piercing_book(rng, width, contract_id=0):
    """A dense book over ids ``0..width-1`` and the retention that
    exactly ``k`` of its losses pierce."""
    losses = rng.lognormal(10, 1.5, width)
    elt = EltTable.from_arrays(np.arange(width), losses,
                               contract_id=contract_id)
    ranked = np.sort(losses)[::-1]
    return elt, lambda k: float(ranked[k]) if k < width else 0.0


# ---------------------------------------------------------------------------
# the index itself
# ---------------------------------------------------------------------------

def index_bytes(events):
    """The exact size of a built index over a stream of ``events``, by
    the sizing rule: 4 B per occurrence (an int32 trial) and an 8 B
    offset per entry — per id up to the largest when the ids fit the
    stream, else per distinct id, beside the distinct ids themselves."""
    top = int(events.max(initial=-1)) + 1
    if top <= events.size:
        return 4 * events.size + 8 * max(top, 1)
    distinct = np.unique(events)
    return 4 * events.size + 8 * distinct.size + distinct.nbytes


def stream_index(trials, events, n_trials):
    """The index of a raw stream sorted by trial: its span's."""
    return TrialSegments.from_sorted_trials(
        np.asarray(trials), np.asarray(events), n_trials).event_index()


def span_index(trials, events, t0, t1):
    """An index over the rows of trials ``[t0, t1)`` alone, their trials
    numbered from ``t0``."""
    rows = (trials >= t0) & (trials < t1)
    return stream_index(trials[rows] - t0, events[rows], t1 - t0)


class TestEventIndex:
    TRIALS = np.array([0, 0, 0, 2, 2, 3])
    EVENTS = np.array([5, 7, 5, 7, 5, 9])

    def test_hand_computed_occurrences(self):
        index = stream_index(self.TRIALS, self.EVENTS, 4)
        # event 5 occurs in trials 0, 0, 2; event 6 never; 9 in trial 3
        counts, trial = index.occurrences(np.array([5, 6, 9]))
        np.testing.assert_array_equal(counts, [3, 0, 1])
        np.testing.assert_array_equal(trial, [0, 0, 2, 3])
        # an event asked for twice (two rows' events in one read) is
        # read twice, in the order asked
        counts, trial = index.occurrences(np.array([9, 5, 9]))
        np.testing.assert_array_equal(counts, [1, 3, 1])
        np.testing.assert_array_equal(trial, [3, 0, 0, 2, 3])
        counts, trial = index.occurrences(np.array([], dtype=np.int64))
        assert counts.size == trial.size == 0
        # ids up to 9 over 6 occurrences: offsets by rank — 6 int32
        # trials, 3 offsets, 3 distinct (int64) ids
        assert index.keys.dtype == np.int32
        assert index.nbytes == 6 * 4 + (3 + 3) * 8
        # trials [2, 4) alone, renumbered from 2; an id past every
        # occurrence
        span = span_index(self.TRIALS, self.EVENTS, 2, 4)
        counts, trial = span.occurrences(np.array([5, 7, 10**12]))
        np.testing.assert_array_equal(counts, [1, 1, 0])
        np.testing.assert_array_equal(trial, [0, 0])
        assert span.nbytes == 3 * 4 + (3 + 3) * 8

    def test_rank_keys_order_the_stream_like_direct_keys(self):
        """Ids too large for ``event * n_trials`` key on their rank;
        every lookup answers as the direct keys would."""
        huge = 2**62
        for events, t0, t1 in (([5, 6, 9], 0, 4), ([5, 7], 2, 4),
                               ([0, 7, 8, 10], 0, 3)):
            direct = span_index(self.TRIALS, self.EVENTS, t0, t1)
            ranked = span_index(self.TRIALS, self.EVENTS + huge, t0, t1)
            assert ranked.keys.max() < t1 - t0 and ranked.keys.min() >= 0
            events = np.array(events)
            for got, want in zip(ranked.occurrences(events + huge),
                                 direct.occurrences(events)):
                np.testing.assert_array_equal(got, want)
        # ids the ranked stream does not hold, on both sides of it
        ranked = stream_index(self.TRIALS, self.EVENTS + huge, 4)
        counts, trial = ranked.occurrences(
            np.array([3, huge + 6, 2**63 - 1]))
        assert not counts.any() and trial.size == 0
        assert ranked.nbytes == 6 * 4 + (3 + 3) * 8

    def test_empty_stream(self):
        none = np.array([], dtype=np.int64)
        counts, trial = stream_index(none, none, 3).occurrences(
            np.array([0, 4]))
        np.testing.assert_array_equal(counts, [0, 0])
        assert trial.size == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_offsets_by_id_and_by_rank_read_what_a_scan_finds(self, seed):
        """Offsets indexed by id (the ids fit the stream) and by rank
        (the same stream past 2⁴⁰) answer every lookup — absent ids,
        ids past the stream, repeats, over every trial span ``[t0,
        t1)``, empty trials among them — as a scan of the stream does,
        in (position in ``events``, trial) order.  Each span's index is
        sized by its own rows: 4 B per occurrence, 8 B per offset entry
        (and per raw int64 id)."""
        rng = np.random.default_rng(seed)
        n_trials = 12
        trials = np.sort(rng.integers(0, n_trials, 40))
        events = rng.integers(0, 30, trials.size)
        n, top, d = trials.size, events.max() + 1, np.unique(events).size
        assert index_bytes(events) == 4 * n + 8 * top
        assert index_bytes(events + 2**40) == 4 * n + 16 * d
        for t0 in range(n_trials):
            for t1 in range(t0 + 1, n_trials + 1):
                wanted = rng.integers(0, 34, rng.integers(0, 8))
                scan = [(i, t - t0) for i, e in enumerate(wanted.tolist())
                        for t in trials[(events == e) & (trials >= t0)
                                        & (trials < t1)].tolist()]
                want = np.array(scan, dtype=np.int64).reshape(-1, 2).T
                rows = (trials >= t0) & (trials < t1)
                for shift in (0, 2**40):
                    index = span_index(trials, events + shift, t0, t1)
                    counts, trial = index.occurrences(wanted + shift)
                    which = np.repeat(np.arange(wanted.size), counts)
                    np.testing.assert_array_equal(np.stack((which, trial)),
                                                  want)
                    assert index.nbytes == index_bytes(events[rows] + shift)

    @pytest.mark.parametrize("ranked", [False, True])
    def test_keys_take_int64_only_where_the_key_needs_it(self, ranked,
                                                        monkeypatch):
        """A stream whose ``entries << bits`` crosses 2³¹ — 2,100 ids by
        id, or ≈ 2,600 distinct ids by rank, over 2²⁰ trials — keys in
        int64, and the base shape's stream in int32; on both routes the
        keys and offsets are a reference ``lexsort``'s, and the kept
        keys 4 B per occurrence."""
        chosen = []
        pick = tables._key_dtype
        monkeypatch.setattr(tables, "_key_dtype",
                            lambda *a: chosen.append(pick(*a)) or chosen[-1])
        rng = np.random.default_rng(5)
        for n_trials, width, n, wide in (
                (2**20, 10_000 if ranked else 2_100, 3_000, True),
                (2_000, 20_000, 500_000, False)):
            trials = np.sort(rng.integers(0, n_trials, n)).astype(np.int32)
            events = rng.integers(0, width, n) + (2**40 if ranked else 0)
            index = stream_index(trials, events, n_trials)
            keys = index.keys
            distinct, counts = np.unique(events, return_counts=True)
            assert (index._events is not None) == ranked
            if not ranked:
                counts = np.bincount(events)
            entries = counts.size
            assert (entries << (n_trials - 1).bit_length() > 2**31) == wide
            assert chosen[-1] == (np.int64 if wide else np.int32)
            np.testing.assert_array_equal(
                keys, trials[np.lexsort((trials, events))])
            np.testing.assert_array_equal(index._ends, np.cumsum(counts))
            assert keys.dtype == np.int32 and keys.nbytes == 4 * n


# ---------------------------------------------------------------------------
# hand-computed answers (oracle parity: tests/test_equivalence_matrix.py)
# ---------------------------------------------------------------------------

def test_hand_computed_by_event_sweep():
    """Known non-zero answers: one piercing entry of a 16-wide book."""
    ids = np.arange(1, 17)
    elt = EltTable.from_arrays(ids, np.where(ids == 3, 400.0, 10.0 * ids))
    pf = Portfolio([Layer(0, [elt], LayerTerms(occ_retention=200.0,
                                               occ_limit=150.0))])
    # net losses: event 3 -> 150 (capped), everything else 0
    yet = make_yet([1, 1, 1, 3, 3, 4], [3, 2, 99, 3, 3, 16], n_trials=6)
    kernel = pf.kernel()
    annual = swept(kernel, lambda: kernel.sweep_segments(yet.trial_block()),
                   1, 0)
    np.testing.assert_array_equal(annual, [[0.0, 150.0, 0.0, 300.0, 0.0, 0.0]])
    assert kernel._net == [None], "a by-event row builds no net table"


def test_ids_near_1e9_cost_bytes_per_distinct_id_not_per_id():
    """Ids around 10⁹ over a few thousand occurrences: ``event *
    n_trials`` fits an ``int64``, but offsets indexed by id would take
    8 GB.  Losses and terms are whole numbers, so every sum is exact and
    the by-event answer is ``==`` to the scalar oracle."""
    rng = np.random.default_rng(93)
    n_trials = 300
    ids = 10**9 + np.sort(rng.choice(10**6, 400, replace=False))
    book = EltTable.from_arrays(ids, 1e3 * rng.integers(1, 1000, ids.size))
    portfolio = Portfolio([
        Layer(li, [book], LayerTerms(occ_retention=r, occ_limit=1e5,
                                     agg_retention=2e5))
        for li, r in enumerate((0.0, 4e5, 9e5))])
    counts = rng.poisson(10, n_trials)
    unknown = 10**9 + 2 * 10**6 + np.arange(40)
    events = rng.choice(np.append(ids, unknown), counts.sum())
    yet = make_yet(np.repeat(np.arange(n_trials), counts), events, n_trials)
    kernel = portfolio.kernel()
    # every book spans a wide id range: every row by events
    assert not any(fits_direct(kernel.book(s)[0])
                   for s in range(kernel.n_unique_lookups))
    annual = swept(kernel, lambda: kernel.sweep_segments(yet.trial_block()),
                   3, 0)
    final = kernel.apply_aggregate(annual)
    assert final.any(axis=1).all()
    oracle = SequentialEngine().run(portfolio, yet).ylt_by_layer
    for row, lid in enumerate(kernel.layer_ids):
        np.testing.assert_array_equal(final[row], oracle[lid].losses)
    # 4 B per occurrence; per distinct id an 8 B offset and its 4 B id
    n, d = yet.n_occurrences, np.unique(yet.event_ids).size
    assert yet.cache_levels()["yet.event_index.bytes"] == 4 * n + 12 * d


# ---------------------------------------------------------------------------
# routing is a function of the row alone
# ---------------------------------------------------------------------------

class TestRouting:
    def setup_method(self):
        rng = np.random.default_rng(61)
        self.elt, self.retention = piercing_book(rng, width=64)
        counts = rng.poisson(10, 50)
        self.yet = make_yet(np.repeat(np.arange(50), counts),
                            rng.integers(0, 70, counts.sum()), 50)

    def layer(self, pierced, layer_id=0, elt=None):
        return Layer(layer_id, [elt or self.elt],
                     LayerTerms(occ_retention=self.retention(pierced),
                                occ_limit=3e5))

    def test_threshold_is_a_sixteenth_of_the_own_width(self):
        at, above = (Portfolio([self.layer(k)]).kernel() for k in (4, 5))
        block = self.yet.trial_block()
        swept(at, lambda: at.sweep_segments(block), 1, 0)
        swept(above, lambda: above.sweep_segments(block), 0, 1)
        assert self.yet.cache_levels()["yet.event_index.builds"] == 1

    def test_answer_and_path_do_not_depend_on_the_rows_beside(self):
        """Beside a far wider table (the stacked width grows 16x) and a
        stream row, the row routes and prices exactly as it does alone."""
        rng = np.random.default_rng(62)
        wide, _ = piercing_book(rng, width=1024, contract_id=1)
        other, _ = piercing_book(rng, width=64, contract_id=2)
        block = self.yet.trial_block()
        alone = Portfolio([self.layer(5)]).kernel()       # just above
        alone_at = Portfolio([self.layer(4)]).kernel()    # at the threshold
        stacked = PortfolioKernel.from_layers([
            Layer(7, [wide], LayerTerms(occ_retention=0.0)),
            self.layer(5, layer_id=1), self.layer(4, layer_id=2),
            Layer(9, [other], LayerTerms(occ_retention=0.0)),
        ])
        assert int(stacked.book(0)[0][-1]) + 1 == 1024    # the wide book
        assert stacked.tail_group_rows == 0
        annual = swept(stacked, lambda: stacked.sweep_segments(block), 1, 3)
        assert annual.any(axis=1).all()
        np.testing.assert_array_equal(
            annual[stacked.row_of(1)], alone.sweep_segments(block)[0])
        np.testing.assert_array_equal(
            annual[stacked.row_of(2)], alone_at.sweep_segments(block)[0])

    def test_sublinear_off_still_routes_lane_rows_by_the_rule(self):
        kernel = Portfolio([self.layer(2)]).kernel()
        swept(kernel, lambda: kernel.sweep_segments(
            self.yet.trial_block(), sublinear=False), 1, 0)


# ---------------------------------------------------------------------------
# decomposition invariance through the drivers
# ---------------------------------------------------------------------------

def by_event_workload(seed=71, n_trials=240):
    """Five distinct books: three high-attaching compact rows, one row
    of a wide id range, one ground-up row that stays on the stream."""
    rng = np.random.default_rng(seed)
    layers = []
    for li in range(5):
        elt, retention = piercing_book(rng, width=160, contract_id=li)
        if li == 3:
            elt = EltTable.from_arrays(
                np.append(elt.event_ids, 2**30 + li),
                np.append(elt.mean_losses, 5e5), contract_id=li)
        layers.append(Layer(li, [elt], LayerTerms(
            occ_retention=0.0 if li == 4 else retention(2 + 3 * li),
            occ_limit=2e5)))
    counts = rng.poisson(25, n_trials)
    events = rng.integers(0, 170, counts.sum())
    events[rng.random(events.size) < 0.05] = 2**30 + 3
    yet = make_yet(np.repeat(np.arange(n_trials), counts), events, n_trials)
    return Portfolio(layers), yet


def ranked_bytes(yet):
    """The exact size of a built whole-table index whose offsets are by
    rank (a :func:`by_event_workload` stream holds an id past 2³⁰): the
    event-major int32 trial column, one 8 B offset and one 4 B id per
    distinct id."""
    return 4 * yet.n_occurrences + 12 * np.unique(yet.event_ids).size


def span_bytes(yet, t0, t1):
    """The exact size of the built index of trials ``[t0, t1)``: sized
    by the span's own rows alone (:func:`index_bytes`)."""
    rows = slice(*yet.trial_offsets[[t0, t1]].tolist())
    return index_bytes(yet.event_ids[rows])


class TestDecompositionInvariance:
    # trial cuts into 1/2/3/7 blocks: single-trial blocks, blocks that
    # start past trial 0 and one that ends the table
    CUTS = ((0, 240), (0, 120, 240), (0, 1, 200, 240),
            (0, 1, 2, 37, 100, 101, 239, 240))

    @pytest.mark.parametrize("offsets", ["by_id", "by_rank"])
    def test_trial_blocks_match_the_whole_sweep(self, offsets):
        """By-event rows swept block by block are the whole-YET sweep,
        bit for bit, with every block's rows counted on the by-event
        path — whether the index's offsets are by id or by rank.  Each
        block read an index over its own span: one build per span, sized
        by the span's rows and nothing more."""
        portfolio, yet = by_event_workload(seed=79)
        if offsets == "by_id":
            ids = np.where(yet.event_ids >= 2**30, 165, yet.event_ids)
            yet = make_yet(yet.trials, ids, yet.n_trials)
        kernel = portfolio.kernel()
        whole = swept(kernel, lambda: kernel.sweep_segments(yet.trial_block()),
                      4, 1)
        entries = (int(yet.event_ids.max()) + 1 if offsets == "by_id"
                   else np.unique(yet.event_ids).size)
        whole_bytes = (4 * yet.n_occurrences + 8 * entries if offsets == "by_id"
                       else ranked_bytes(yet))
        assert yet.cache_levels()["yet.event_index.bytes"] == whole_bytes
        for cuts in self.CUTS:
            parts = [swept(kernel, lambda: kernel.sweep_segments(
                yet.trial_block(a, b)), 4, 1) for a, b in zip(cuts, cuts[1:])]
            np.testing.assert_array_equal(np.concatenate(parts, axis=1), whole)
        spans = {(a, b) for cuts in self.CUTS[1:]
                 for a, b in zip(cuts, cuts[1:])}
        assert len(spans) == 11
        levels = yet.cache_levels()
        assert levels["yet.event_index.builds"] == 1 + len(spans)
        assert levels["yet.event_index.bytes"] == whole_bytes + sum(
            span_bytes(yet, a, b) for a, b in spans)

    def test_engines_agree_bitwise(self, monkeypatch):
        portfolio, yet = by_event_workload(seed=72)
        whole = VectorizedEngine().run(portfolio, yet)
        assert whole.details["routed"][BY_EVENT] == 4
        with multicore(2) as engine:
            pooled = engine.run(portfolio, yet)
            assert pooled.details["n_blocks"] == 2
            engine.dispatcher.pool.health.degraded = True
            degraded = engine.run(portfolio, yet)
            assert degraded.details["degraded"] is True
        with monkeypatch.context() as m:
            m.setattr(shm, "_AVAILABLE", False)
            with multicore(2) as engine:
                in_process = engine.run(portfolio, yet)
        for other in (pooled, degraded, in_process):
            for lid, ylt in whole.ylt_by_layer.items():
                np.testing.assert_array_equal(other.ylt_by_layer[lid].losses,
                                              ylt.losses)


# ---------------------------------------------------------------------------
# one index per table per process; lazy; never shipped; dies with its YET
# ---------------------------------------------------------------------------

def _worker_event_indexes(yet):  # pragma: no cover - in a worker
    """``(builds, bytes)`` of the worker's YET copy's span indexes."""
    levels = yet.cache_levels()
    return levels["yet.event_index.builds"], levels["yet.event_index.bytes"]


#: A worker's weak references to the keys of the span indexes its first
#: :func:`_worker_index_kept` probe read.
_FIRST_READ: list = []


def _worker_index_kept(yet):  # pragma: no cover - in a worker
    """Whether the worker's YET copy holds the very span indexes (their
    keys the same arrays) this worker's first call of this probe read."""
    keys = [span._index.keys for span in yet._spans.values()]
    if not _FIRST_READ:
        _FIRST_READ.extend(map(weakref.ref, keys))
    return len(keys) == len(_FIRST_READ) and all(
        ref() is key for ref, key in zip(_FIRST_READ, keys))


class TestIndexLifetime:
    N_SWEEPS = 6

    def test_built_once_per_table_and_only_on_demand(self):
        portfolio, yet = by_event_workload(seed=73)
        stream_only = Portfolio([list(portfolio)[4]]).kernel()
        for _ in range(2):
            swept(stream_only, lambda: InlineDispatcher().run(stream_only, yet),
                  0, 1)
        assert yet.cache_levels()["yet.event_index.builds"] == 0
        assert yet.cache_levels()["yet.event_index.bytes"] == 0
        kernel = portfolio.kernel()
        for sweep in range(self.N_SWEEPS):
            InlineDispatcher().run(kernel, yet)
            PortfolioKernel.from_layers(portfolio).sweep_segments(
                yet.trial_block())
        # whole-table sweeps read the one whole-table index
        assert yet.cache_levels()["yet.event_index.builds"] == 1
        assert yet.cache_levels()["yet.event_index.bytes"] == ranked_bytes(yet)
        for sweep in range(self.N_SWEEPS):
            kernel.sweep_segments(yet.trial_block(sweep, 200 - sweep))
            kernel.sweep_segments(yet.trial_block(sweep, 200 - sweep))
        # spans [0, 200) .. [5, 195): each built once, by its own rows
        assert yet.cache_levels()["yet.event_index.builds"] == (
            1 + self.N_SWEEPS)
        assert yet.cache_levels()["yet.event_index.bytes"] == (
            ranked_bytes(yet) + sum(span_bytes(yet, sweep, 200 - sweep)
                                    for sweep in range(self.N_SWEEPS)))

    def test_pooled_workers_build_once_each(self):
        portfolio, yet = by_event_workload(seed=74)
        kernel = portfolio.kernel()
        with PooledDispatcher(n_workers=2) as d:
            for _ in range(self.N_SWEEPS):
                d.run(kernel, yet)
            assert d.transport_active == "shm"
            spans = d.spans(yet)
            seen = worker_probes(d, _worker_event_indexes)
        assert len(spans) == 2
        # span 0 runs on the caller and span 1 on the worker every time:
        # each side indexes its own span, once, by the span's rows alone
        # — never the other's, never the whole YET's
        sizes = [span_bytes(yet, *span) for span in spans]
        assert ranked_bytes(yet) not in sizes + [sum(sizes)]
        assert list(seen.values()) == [(1, sizes[1])]
        levels = yet.cache_levels()
        assert (levels["yet.event_index.builds"],
                levels["yet.event_index.bytes"]) == (1, sizes[0])

    def test_warmup_indexes_each_workers_span_before_any_run(self):
        """``warmup`` forks the worker with a first call that builds its
        span's index: the worker holds it before any run, and after ten
        runs holds the same index object — its block tasks found it
        built and built none of their own."""
        portfolio, yet = by_event_workload(seed=76)
        kernel = portfolio.kernel()
        with PooledDispatcher(n_workers=2) as d:
            d.warmup(yet)
            spans = d.spans(yet)
            first = worker_probes(d, _worker_event_indexes)
            assert list(first.values()) == [(1, span_bytes(yet, *spans[1]))]
            assert list(worker_probes(d, _worker_index_kept).values()) == [
                True]
            for _ in range(10):
                d.run(kernel, yet)
            assert worker_probes(d, _worker_event_indexes) == first
            assert list(worker_probes(d, _worker_index_kept).values()) == [
                True]
        # the caller indexed span 0 only, in its runs
        assert yet.cache_levels()["yet.event_index.bytes"] == span_bytes(
            yet, *spans[0])

    def test_warmup_stages_and_forks_nothing_for_a_run_in_process(
            self, tmp_path):
        """A one-worker dispatcher and a degraded pool sweep in process,
        and a ``StoredYet`` is refused: ``warmup`` stages, forks and
        indexes nothing for any of them."""
        _, yet = by_event_workload(seed=76)
        stored = StoredYet.write(ChunkStore(tmp_path), "yet", yet, 97)
        before = shm.active_segment_names()
        with PooledDispatcher(n_workers=1) as one, \
                PooledDispatcher(n_workers=2) as degraded, \
                PooledDispatcher(n_workers=2) as refusing:
            degraded.pool.health.degraded = True
            one.warmup(yet)
            degraded.warmup(yet)
            with pytest.raises(ConfigurationError, match=r"9\(b\)"):
                refusing.warmup(stored)
            for d in (one, degraded, refusing):
                assert not d.pool.started and d.payload_ships == 0
            assert shm.active_segment_names() == before
        assert yet.cache_levels()["yet.event_index.builds"] == 0

    def test_ten_pooled_runs_build_one_caller_index(self, monkeypatch):
        """The caller sweeps span 0 of every pooled run: over ten runs
        it builds one event index, of span 0's rows, and keeps it."""
        portfolio, yet = by_event_workload(seed=75)
        kernel = portfolio.kernel()
        built = []
        init = tables.EventIndex.__init__

        def counted(index, segments):
            built.append(segments.n_trials)
            init(index, segments)

        with PooledDispatcher(n_workers=2) as d:
            d.warmup(yet)       # the worker forks before the count starts
            monkeypatch.setattr(tables.EventIndex, "__init__", counted)
            for _ in range(10):
                d.run(kernel, yet)
            spans = d.spans(yet)
        (t0, t1), _ = spans
        assert built == [t1 - t0]
        assert list(yet._spans) == [(t0, t1)]
        assert yet.cache_levels()["yet.event_index.bytes"] == span_bytes(
            yet, t0, t1)

    def test_an_attached_copy_indexes_only_the_spans_it_sweeps(self):
        """In process, the worker's view: a ``from_handles`` copy swept
        over trial spans builds one index per span and never the whole
        table's, and its levels report the span indexes."""
        portfolio, yet = by_event_workload(seed=74)
        kernel = portfolio.kernel()
        whole = kernel.sweep_segments(yet.trial_block())
        spans = ((0, 120), (120, 240))
        with shm.SharedArena() as arena:
            copy = YetTable.from_handles(yet.to_shared(arena))
            for _ in range(2):
                parts = [kernel.sweep_segments(copy.trial_block(t0, t1))
                         for t0, t1 in spans]
                np.testing.assert_array_equal(
                    np.concatenate(parts, axis=1), whole)
            levels = copy.cache_levels()
            assert levels["yet.event_index.builds"] == len(spans)
            assert levels["yet.event_index.bytes"] == sum(
                span_bytes(yet, t0, t1) for t0, t1 in spans)
            del copy, parts

    def test_a_span_indexes_its_own_rows_not_the_trial_column(
            self, monkeypatch):
        """A span's index is built from the span alone, its trials
        re-expanded from its segments: no index build reads the YET's
        ``trials``, and the answers are the ones built off it before."""
        portfolio, yet = by_event_workload(seed=85)
        kernel = portfolio.kernel()
        spans = ((0, 240), (0, 100), (100, 240), (7, 8))
        want = [kernel.sweep_segments(yet.trial_block(*span))
                for span in spans]
        fresh = make_yet(yet.trials, yet.event_ids, yet.n_trials)

        def unread(_yet):
            raise AssertionError("a span index read the YET's trial column")

        monkeypatch.setattr(YetTable, "trials", property(unread))
        for span, answer in zip(spans, want):
            np.testing.assert_array_equal(
                kernel.sweep_segments(fresh.trial_block(*span)), answer)
        assert fresh.cache_levels() == yet.cache_levels()
        assert fresh.cache_levels()["yet.event_index.builds"] == len(spans)

    def test_concurrent_sweeps_share_one_span_and_one_index(self):
        """Threads racing to a span no one has swept yet get one span,
        and the span builds one index for all of them."""
        portfolio, yet = by_event_workload(seed=86)
        kernels = [PortfolioKernel.from_layers(portfolio) for _ in range(6)]
        answers, barrier = [None] * len(kernels), threading.Barrier(
            len(kernels))

        def sweep(i):
            barrier.wait(timeout=10)
            answers[i] = kernels[i].sweep_segments(yet.trial_block(0, 120))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=sweep, args=(i,))
                       for i in range(len(kernels))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert yet.cache_levels()["yet.event_index.builds"] == 1
        assert yet.cache_levels()["yet.event_index.bytes"] == span_bytes(
            yet, 0, 120)
        for answer in answers[1:]:
            np.testing.assert_array_equal(answer, answers[0])

    def test_unpickled_table_starts_unbuilt(self):
        portfolio, yet = by_event_workload(seed=75)
        kernel = portfolio.kernel()
        whole = kernel.sweep_segments(yet.trial_block())
        assert yet.cache_levels()["yet.event_index.builds"] == 1
        payload = pickle.dumps(yet)
        assert len(payload) < yet.nbytes + 2 * yet.n_occurrences, (
            "the index (or a second copy of the columns) was pickled")
        copy = pickle.loads(payload)
        assert copy.cache_levels()["yet.event_index.builds"] == 0
        assert copy.cache_levels()["yet.event_index.bytes"] == 0
        np.testing.assert_array_equal(
            kernel.sweep_segments(copy.trial_block()), whole)
        assert copy.cache_levels()["yet.event_index.builds"] == 1

    def test_released_with_its_yet(self):
        """Nothing but the table (and the segments it hands out) holds
        the index: no cycle, so it goes without the collector."""
        portfolio, yet = by_event_workload(seed=76)
        kernel = portfolio.kernel()
        gc.collect()
        gc.disable()
        try:
            kernel.sweep_segments(yet.trial_block())
            kernel.sweep_segments(yet.trial_block(3, 90))
            ref = weakref.ref(yet.trial_block(3, 90).event_index().keys)
            del yet
            assert ref() is None, "the YET's event index outlived it"
        finally:
            gc.enable()

    def test_no_growth_over_set_up_cycles(self):
        portfolio, _ = by_event_workload(seed=77)
        for cycle in range(3):
            _, yet = by_event_workload(seed=78 + cycle)
            session = RiskSession(yet, portfolio)
            session.aggregate(engine="vectorized")
            ref = weakref.ref(yet.trial_block().event_index().keys)
            session.close()
            del yet, session
            gc.collect()
            assert ref() is None, "a closed session's event index outlived it"


# ---------------------------------------------------------------------------
# the contract the key rests on: no negative event ids
# ---------------------------------------------------------------------------

class TestNegativeEventIds:
    def test_yet_construction_rejects_them(self):
        """They used to price as event 0 on the vectorized engines (every
        dense gather clips ids into the table) and as unknown on the
        ``sequential`` oracle: ``[300, 100]`` against ``[200, 0]`` here."""
        with pytest.raises(ConfigurationError, match="non-negative"):
            make_yet([0, 0, 1], [1, -1, -5], n_trials=2)
        make_yet([0, 0, 1], [1, 0, 2], n_trials=2)
        with pytest.raises(ConfigurationError, match="non-negative"):
            YetTable.simulate([-1, 2], [0.5, 0.5], 10,
                              np.random.default_rng(0))

    def test_raw_sweep_rejects_them(self):
        elt = EltTable.from_arrays([0, 1, 2], [100.0, 200.0, 300.0])
        kernel = Portfolio([Layer(0, [elt], LayerTerms())]).kernel()
        with pytest.raises(ConfigurationError, match="non-negative"):
            kernel.sweep(np.array([0, 0, 1]), np.array([1, -1, -5]), 2)


# ---------------------------------------------------------------------------
# counted, not silent
# ---------------------------------------------------------------------------

class TestCountsReachTheTelemetryPlane:
    def test_distinct_book_aggregate_exports_its_lane_routing(self):
        """No structural tail group anywhere — the export used to be
        gated on one."""
        portfolio, yet = by_event_workload(seed=81)
        with RiskSession(yet, portfolio) as session:
            for _ in range(3):
                result = session.aggregate(engine="vectorized")
            assert result.details["tail_group_rows"] == 0
            metrics = session.telemetry.snapshot()["metrics"]
        assert metrics[BY_EVENT] == 3 * 4
        assert metrics[BY_STREAM] == 3 * 1
        assert metrics["yet.event_index.builds"] == 1
        assert metrics["yet.event_index.bytes"] == ranked_bytes(yet)
        assert metrics["yet.profile.builds"] == 0

    def test_service_exports_the_same_names(self):
        portfolio, yet = by_event_workload(seed=82)
        layers = list(portfolio)
        with RiskSession(yet) as session:
            service = session.pricing_service(cache=CachePolicy(0))
            service.quote_many(layers)
            service.quote_many(layers[:2])
            metrics = session.telemetry.snapshot()["metrics"]
        assert metrics["serve.sublinear.rows"] == 0
        assert metrics[BY_EVENT] == 4 + 2
        assert metrics[BY_STREAM] == 1
        assert metrics["yet.event_index.builds"] == 1

    def test_a_degraded_pool_exports_the_rows_it_ran_once(self):
        """A pooled session whose pool has degraded sweeps in process:
        its dispatcher exports those counts — once, however many blocks
        ran, and not again from the session."""
        portfolio, yet = by_event_workload(seed=83)
        with RiskSession(yet, portfolio, n_workers=2) as session:
            session.dispatcher("pooled").pool.health.degraded = True
            result = session.aggregate(engine="multicore")
            metrics = session.telemetry.snapshot()["metrics"]
        assert result.details["n_blocks"] == 2
        # a row is counted per block it was swept in
        assert result.details["routed"][BY_EVENT] == 2 * 4
        assert metrics[BY_EVENT] == 2 * 4
        assert metrics[BY_STREAM] == 2 * 1
        # one index per block's span, none over the whole table
        assert metrics["yet.event_index.builds"] == 2
        assert metrics["yet.event_index.bytes"] == (
            span_bytes(yet, 0, 120) + span_bytes(yet, 120, 240))

    def test_an_inline_batch_exports_the_rows_it_ran_once(self):
        """The service no longer exports beside its dispatcher: one
        batch of five rows moves the plane by five."""
        portfolio, yet = by_event_workload(seed=84)
        with RiskSession(yet) as session:
            service = session.pricing_service(cache=CachePolicy(0))
            service.quote_many(list(portfolio))
            metrics = session.telemetry.snapshot()["metrics"]
        assert metrics["serve.batches"] == 1
        assert metrics[BY_EVENT] + metrics[BY_STREAM] == 5
        assert (metrics[BY_EVENT], metrics[BY_STREAM]) == (4, 1)
