"""Lane rows priced by events off the YET's event-major index.

Five contracts:

- **parity, on the path**: rows the rule of record prices by events
  reproduce the scalar ``sequential`` oracle over empty trials, ids
  beyond the dense width or absent from a CSR segment, events repeated
  inside a trial, infinite retentions, zero and infinite limits, rows
  nothing pierces and CSR ids past 2⁴⁰ (and past where ``event *
  n_trials`` fits an ``int64``) — and every sweep's
  ``kernel.lane_rows.*`` counts must move by the rows the rule assigns;
  offsets by id and by rank read what a scan finds, and ids near 10⁹
  over a short stream cost bytes per distinct id, not per id;
- **routing is a function of the row alone**: its own book and terms,
  never the rows sharing its kernel; a row just above the threshold
  stays on the stream;
- **invariance**: by-event rows are ``np.array_equal`` across whole /
  every trial cut / 1, 2, 3 and 7 trial blocks / blocked / pooled (shm
  and pickle) / degraded / raw-column sweeps, sorted or not;
- **one index per table per process**, built only when a row routes to
  it, fresh after unpickling, released with its ``YetTable``;
- **counted**: lane routing and the index's levels reach the telemetry
  plane of a session and of a service.
"""

import gc
import os
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engines import (
    MulticoreEngine,
    SequentialEngine,
    VectorizedEngine,
)
from repro.core.kernels import _HANDLE_FIELDS, PortfolioKernel
from repro.core.layer import Layer
from repro.core.portfolio import Portfolio
from repro.core.tables import YET_SCHEMA, EltTable, EventIndex, YetTable
from repro.core.terms import LayerTerms
from repro.data.columnar import ColumnTable
from repro.errors import ConfigurationError
from repro.serve import CachePolicy
from repro.serve.dispatch import InlineDispatcher, PooledDispatcher
from repro.session import RiskSession

RTOL, ATOL = 1e-9, 1e-6
BY_EVENT, BY_STREAM = "kernel.lane_rows.by_event", "kernel.lane_rows.by_stream"


def make_yet(trials, event_ids, n_trials):
    trials = np.asarray(trials, dtype=np.int64)
    table = ColumnTable.from_arrays(
        YET_SCHEMA, trial=trials, seq=np.zeros(trials.size, dtype=np.int32),
        event_id=np.asarray(event_ids, dtype=np.int64),
    )
    return YetTable(table, n_trials)


def rule_assigns_events(kernel: PortfolioKernel, row: int) -> bool:
    """The rule of record, restated: a CSR row always; a dense row when
    the entries above its retention are at most 1/16 of its own width."""
    if row >= kernel.n_dense:
        return True
    table = kernel.dense_stack[kernel.dense_source[row]]
    width = int(np.flatnonzero(table).max(initial=0)) + 1
    return 16 * np.count_nonzero(table > kernel.occ_retention[row]) <= width


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

class TestEventIndex:
    TRIALS = np.array([0, 0, 0, 2, 2, 3])
    EVENTS = np.array([5, 7, 5, 7, 5, 9])

    def test_hand_computed_occurrences(self):
        index = EventIndex(self.TRIALS, self.EVENTS, n_trials=4)
        assert index.builds == 0 and index.snapshot() == {
            "yet.event_index.builds": 0, "yet.event_index.bytes": 0}
        # event 5 occurs in trials 0, 0, 2; event 6 never; 9 in trial 3
        counts, trial = index.occurrences(np.array([5, 6, 9]), 0, 4)
        np.testing.assert_array_equal(counts, [3, 0, 1])
        np.testing.assert_array_equal(trial, [0, 0, 2, 3])
        # trials [2, 4), renumbered from 2; an id past every occurrence
        counts, trial = index.occurrences(np.array([5, 7, 10**12]), 2, 4)
        np.testing.assert_array_equal(counts, [1, 1, 0])
        np.testing.assert_array_equal(trial, [0, 0])
        # an event asked for twice (two rows' events in one read) is
        # read twice, in the order asked
        counts, trial = index.occurrences(np.array([9, 5, 9]), 0, 4)
        np.testing.assert_array_equal(counts, [1, 3, 1])
        np.testing.assert_array_equal(trial, [3, 0, 0, 2, 3])
        counts, trial = index.occurrences(np.array([], dtype=np.int64), 0, 4)
        assert counts.size == trial.size == 0
        # ids up to 9 over 6 occurrences: offsets by rank — 6 trials,
        # 3 offsets, 3 distinct ids — and the 3 offsets of boundary 2
        assert index.snapshot() == {"yet.event_index.builds": 1,
                                    "yet.event_index.bytes": (6 + 3 + 3 + 3) * 8}

    def test_rank_keys_order_the_stream_like_direct_keys(self):
        """Ids too large for ``event * n_trials`` key on their rank;
        every lookup answers as the direct keys would."""
        huge = 2**62
        direct = EventIndex(self.TRIALS, self.EVENTS, n_trials=4)
        ranked = EventIndex(self.TRIALS, self.EVENTS + huge, n_trials=4)
        assert ranked.keys.max() < 4 * 4 and ranked.keys.min() >= 0
        for events, t0, t1 in (([5, 6, 9], 0, 4), ([5, 7], 2, 4),
                               ([0, 7, 8, 10], 0, 3)):
            events = np.array(events)
            for got, want in zip(ranked.occurrences(events + huge, t0, t1),
                                 direct.occurrences(events, t0, t1)):
                np.testing.assert_array_equal(got, want)
        # ids the ranked stream does not hold, on both sides of it
        counts, trial = ranked.occurrences(
            np.array([3, huge + 6, 2**63 - 1]), 0, 4)
        assert not counts.any() and trial.size == 0
        # boundaries 2 and 3 were swept: 3 offsets each
        assert ranked.snapshot()["yet.event_index.bytes"] == (6 + 3 + 3 + 2 * 3) * 8

    def test_empty_stream(self):
        none = np.array([], dtype=np.int64)
        counts, trial = EventIndex(none, none, 3).occurrences(
            np.array([0, 4]), 0, 3)
        np.testing.assert_array_equal(counts, [0, 0])
        assert trial.size == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_offsets_by_id_and_by_rank_read_what_a_scan_finds(self, seed):
        """Offsets indexed by id (the ids fit the stream) and by rank
        (the same stream past 2⁴⁰) answer every lookup — absent ids,
        ids past the stream, repeats, every trial range ``[t0, t1)``,
        empty trials among them — as a scan of the stream does, in
        (position in ``events``, trial) order.  Each interior boundary
        read is one more offset table in the index's bytes."""
        rng = np.random.default_rng(seed)
        n_trials = 12
        trials = np.sort(rng.integers(0, n_trials, 40))
        events = rng.integers(0, 30, trials.size)
        by_id = EventIndex(trials, events, n_trials)
        by_rank = EventIndex(trials, events + 2**40, n_trials)
        n, top, d = trials.size, events.max() + 1, np.unique(events).size
        for index, shift in ((by_id, 0), (by_rank, 2**40)):
            index.occurrences(np.array([shift]), 0, n_trials)
        assert by_id.snapshot()["yet.event_index.bytes"] == 8 * (n + top)
        assert by_rank.snapshot()["yet.event_index.bytes"] == 8 * (n + 2 * d)
        for t0 in range(n_trials):
            for t1 in range(t0 + 1, n_trials + 1):
                wanted = rng.integers(0, 34, rng.integers(0, 8))
                scan = [(i, t - t0) for i, e in enumerate(wanted.tolist())
                        for t in trials[(events == e) & (trials >= t0)
                                        & (trials < t1)].tolist()]
                want = np.array(scan, dtype=np.int64).reshape(-1, 2).T
                for index, shift in ((by_id, 0), (by_rank, 2**40)):
                    counts, trial = index.occurrences(wanted + shift, t0, t1)
                    which = np.repeat(np.arange(wanted.size), counts)
                    np.testing.assert_array_equal(np.stack((which, trial)),
                                                  want)
        inner = n_trials - 1                 # boundaries 1 .. n_trials - 1
        assert by_id.snapshot()["yet.event_index.bytes"] == (
            8 * (n + top + inner * top))
        assert by_rank.snapshot()["yet.event_index.bytes"] == (
            8 * (n + 2 * d + inner * d))
        assert by_id.builds == by_rank.builds == 1


# ---------------------------------------------------------------------------
# parity against the scalar oracle, on the path, across decompositions
# ---------------------------------------------------------------------------

HUGE_IDS = (2**40, 2**62)


@st.composite
def event_case(draw):
    """Distinct-book layers whose retentions are drawn so that a known
    number of entries pierce (0 to just past the threshold), optionally
    made CSR by an id past 2⁴⁰ or 2⁶², with per-row ``limit == 0``
    overrides; a YET with forced empty trials, repeated events, ids past
    every table and CSR ids no segment holds."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    layers, huge_ids = [], []
    for li in range(draw(st.integers(1, 4))):
        width = draw(st.integers(16, 80))
        elt, retention = piercing_book(rng, width, contract_id=li)
        ids, losses = elt.event_ids, elt.mean_losses
        if draw(st.booleans()):                  # force this layer CSR
            huge = draw(st.sampled_from(HUGE_IDS)) + li
            huge_ids.append(huge)
            ids = np.append(ids, huge)
            losses = np.append(losses, float(rng.lognormal(12, 1.0)))
        pierced = draw(st.integers(0, width // 16 + 1))
        terms = LayerTerms(
            occ_retention=draw(st.one_of(st.just(np.inf),
                                         st.just(retention(pierced)))),
            occ_limit=draw(st.one_of(st.just(np.inf), st.floats(1e3, 1e6))),
            agg_retention=draw(st.one_of(st.just(0.0), st.floats(0.0, 1e5))),
            agg_limit=draw(st.one_of(st.just(np.inf), st.floats(1e3, 1e8))),
            participation=draw(st.floats(0.05, 1.0)),
        )
        layers.append(Layer(li, [EltTable.from_arrays(ids, losses,
                                                      contract_id=li)], terms))
    zero_limit = [draw(st.booleans()) for _ in layers]
    lead, trail = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    counts = rng.integers(0, 9, draw(st.integers(1, 16)))   # interior empties
    counts = np.concatenate((np.zeros(lead, int), counts, np.zeros(trail, int)))
    trials = np.repeat(np.arange(counts.size), counts)
    # the top-ranked (always piercing) ids are over-drawn, so events
    # repeat inside trials; ids >= 80 are past every dense table
    events = rng.integers(0, 84, trials.size)
    pool = np.array(huge_ids + [2**40 + 77], dtype=np.int64)   # one unknown
    swap = rng.random(trials.size) < 0.2
    events[swap] = rng.choice(pool, int(swap.sum()))
    return (Portfolio(layers), zero_limit, make_yet(trials, events, counts.size),
            rng.permutation(trials.size), draw(st.integers(1, 9)))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=event_case())
def test_by_event_rows_match_sequential_oracle(case):
    portfolio, zero_limit, yet, perm, block = case
    oracle = SequentialEngine().run(portfolio, yet).ylt_by_layer
    base = PortfolioKernel.from_portfolio(portfolio)
    # LayerTerms rejects limit == 0, the kernel must still price it: 0.
    zero = np.array([zero_limit[lid] for lid in base.layer_ids])
    arrays = {name: getattr(base, name) for name in _HANDLE_FIELDS}
    arrays["occ_limit"] = np.where(zero, 0.0, base.occ_limit)
    kernel = PortfolioKernel(layer_ids=base.layer_ids, **arrays)
    expected = np.array([
        np.zeros(yet.n_trials) if zero[row] else oracle[lid].losses
        for row, lid in enumerate(kernel.layer_ids)
    ])
    assert kernel.tail_group_rows == 0           # every row is a lane row
    n_rows, n_trials = kernel.n_layers, yet.n_trials
    by_event = [row for row in range(n_rows) if rule_assigns_events(kernel, row)]
    counts = (len(by_event), n_rows - len(by_event))

    def check(annual, exact_to=None, rows=slice(None)):
        final = kernel.apply_aggregate(annual)
        assert np.isfinite(final).all()
        np.testing.assert_allclose(final, expected, rtol=RTOL, atol=ATOL)
        if exact_to is not None:
            np.testing.assert_array_equal(annual[rows], exact_to[rows])

    if yet.n_occurrences == 0:
        check(kernel.sweep_segments(*yet.trial_block()))
        assert yet.event_index.builds == 0
        return
    whole = swept(kernel, lambda: kernel.sweep_segments(*yet.trial_block()),
                  *counts)
    check(whole)
    # a small row buffer and every two-way trial cut: bit-identical
    small = PortfolioKernel(layer_ids=base.layer_ids, block_occurrences=block,
                            **arrays)
    check(swept(small, lambda: small.sweep_segments(*yet.trial_block()),
                *counts), exact_to=whole)
    for cut in range(1, n_trials):
        parts = [kernel.sweep_segments(*yet.trial_block(t0, t1))
                 for t0, t1 in ((0, cut), (cut, n_trials))]
        check(np.concatenate(parts, axis=1), exact_to=whole)
    # built once for all of the above — and only if a row routed to it
    assert yet.event_index.builds == (1 if by_event else 0)
    # raw columns build an index for the call: the same sum order, and
    # for by-event rows the same whatever order the stream arrives in
    check(swept(kernel, lambda: kernel.sweep(
        yet.trials, yet.event_ids, n_trials), *counts), exact_to=whole)
    check(swept(kernel, lambda: kernel.sweep(
        yet.trials[perm], yet.event_ids[perm], n_trials), *counts),
        exact_to=whole, rows=by_event)
    assert yet.event_index.builds == (1 if by_event else 0)


def test_hand_computed_by_event_sweep():
    """Known non-zero answers: one piercing entry of a 16-wide book."""
    ids = np.arange(1, 17)
    elt = EltTable.from_arrays(ids, np.where(ids == 3, 400.0, 10.0 * ids))
    pf = Portfolio([Layer(0, [elt], LayerTerms(occ_retention=200.0,
                                               occ_limit=150.0))])
    # net losses: event 3 -> 150 (capped), everything else 0
    yet = make_yet([1, 1, 1, 3, 3, 4], [3, 2, 99, 3, 3, 16], n_trials=6)
    kernel = pf.kernel()
    annual = swept(kernel, lambda: kernel.sweep_segments(*yet.trial_block()),
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
    assert kernel.n_dense == 0                   # CSR: every row by events
    annual = swept(kernel, lambda: kernel.sweep_segments(*yet.trial_block()),
                   3, 0)
    final = kernel.apply_aggregate(annual)
    assert final.any(axis=1).all()
    oracle = SequentialEngine().run(portfolio, yet).ylt_by_layer
    for row, lid in enumerate(kernel.layer_ids):
        np.testing.assert_array_equal(final[row], oracle[lid].losses)
    n, d = yet.n_occurrences, np.unique(yet.event_ids).size
    assert yet.cache_levels()["yet.event_index.bytes"] <= 8 * n + 16 * d


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
        swept(at, lambda: at.sweep_segments(*block), 1, 0)
        swept(above, lambda: above.sweep_segments(*block), 0, 1)
        assert self.yet.event_index.builds == 1

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
        assert stacked.dense_stack.shape[1] == 1024
        assert stacked.tail_group_rows == 0
        annual = swept(stacked, lambda: stacked.sweep_segments(*block), 1, 3)
        assert annual.any(axis=1).all()
        np.testing.assert_array_equal(
            annual[stacked.row_of(1)], alone.sweep_segments(*block)[0])
        np.testing.assert_array_equal(
            annual[stacked.row_of(2)], alone_at.sweep_segments(*block)[0])

    def test_sublinear_off_still_routes_lane_rows_by_the_rule(self):
        kernel = Portfolio([self.layer(2)]).kernel()
        swept(kernel, lambda: kernel.sweep_segments(
            *self.yet.trial_block(), sublinear=False), 1, 0)


# ---------------------------------------------------------------------------
# decomposition invariance through the drivers
# ---------------------------------------------------------------------------

def by_event_workload(seed=71, n_trials=240):
    """Five distinct books: three high-attaching dense rows, one CSR
    row, one ground-up row that stays on the stream."""
    rng = np.random.default_rng(seed)
    layers = []
    for li in range(5):
        elt, retention = piercing_book(rng, width=160, contract_id=li)
        if li == 3:
            elt = EltTable.from_arrays(
                np.append(elt.event_ids, 2**40 + li),
                np.append(elt.mean_losses, 5e5), contract_id=li)
        layers.append(Layer(li, [elt], LayerTerms(
            occ_retention=0.0 if li == 4 else retention(2 + 3 * li),
            occ_limit=2e5)))
    counts = rng.poisson(25, n_trials)
    events = rng.integers(0, 170, counts.sum())
    events[rng.random(events.size) < 0.05] = 2**40 + 3
    yet = make_yet(np.repeat(np.arange(n_trials), counts), events, n_trials)
    return Portfolio(layers), yet


def ranked_bytes(yet, boundaries=0):
    """The exact size of a built index whose offsets are by rank (a
    :func:`by_event_workload` stream holds an id past 2⁴⁰): the
    event-major trial column, one offset and one id per distinct id —
    plus one offset per distinct id for each interior trial boundary a
    block was read at (a whole-table sweep reads none)."""
    return 8 * (yet.n_occurrences
                + (2 + boundaries) * np.unique(yet.event_ids).size)


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
        block read its own span: the index holds one offset table more
        per interior cut, and nothing more."""
        portfolio, yet = by_event_workload(seed=79)
        if offsets == "by_id":
            ids = np.where(yet.event_ids > 2**40, 165, yet.event_ids)
            yet = make_yet(yet.trials, ids, yet.n_trials)
        kernel = portfolio.kernel()
        whole = swept(kernel, lambda: kernel.sweep_segments(*yet.trial_block()),
                      4, 1)
        entries = (int(yet.event_ids.max()) + 1 if offsets == "by_id"
                   else np.unique(yet.event_ids).size)
        whole_bytes = (8 * (yet.n_occurrences + entries) if offsets == "by_id"
                       else ranked_bytes(yet))
        assert yet.cache_levels()["yet.event_index.bytes"] == whole_bytes
        for cuts in self.CUTS:
            parts = [swept(kernel, lambda: kernel.sweep_segments(
                *yet.trial_block(a, b)), 4, 1) for a, b in zip(cuts, cuts[1:])]
            np.testing.assert_array_equal(np.concatenate(parts, axis=1), whole)
        interior = {t for cuts in self.CUTS for t in cuts[1:-1]}
        assert len(interior) == 8
        levels = yet.cache_levels()
        assert levels["yet.event_index.builds"] == 1
        assert levels["yet.event_index.bytes"] == (
            whole_bytes + 8 * entries * len(interior))

    def test_dispatchers_agree_bitwise(self):
        """Whole-YET, dispatcher-blocked, 2-worker pooled (shm and
        pickle) and degraded serial: one answer, bit for bit."""
        portfolio, yet = by_event_workload()
        kernel = portfolio.kernel()
        assert kernel.tail_group_rows == 0
        whole = swept(kernel, lambda: InlineDispatcher().run(kernel, yet), 4, 1)
        assert whole.any(axis=1).all()
        small = PortfolioKernel.from_portfolio(portfolio,
                                               block_occurrences=257)
        blocked = InlineDispatcher().run(small, yet)
        np.testing.assert_array_equal(blocked, whole)
        for transport in ("shm", "pickle"):
            with PooledDispatcher(n_workers=2, transport=transport) as pooled:
                answer = pooled.run(kernel, yet)
                assert pooled.pool.started, "the batch must have been forked"
                np.testing.assert_array_equal(answer, whole)
                pooled.pool.health.degraded = True
                np.testing.assert_array_equal(pooled.run(kernel, yet), whole)
                assert pooled.health.snapshot()["pool.degraded_calls"] == 1
        oracle = SequentialEngine().run(portfolio, yet).ylt_by_layer
        for row, lid in enumerate(kernel.layer_ids):
            np.testing.assert_allclose(whole[row], oracle[lid].losses,
                                       rtol=RTOL, atol=ATOL)

    def test_engines_agree_bitwise(self):
        portfolio, yet = by_event_workload(seed=72)
        whole = VectorizedEngine().run(portfolio, yet)
        assert whole.details["routed"][BY_EVENT] == 4
        with MulticoreEngine(n_workers=2) as engine:
            pooled = engine.run(portfolio, yet)
            assert pooled.details["n_blocks"] == 2
            engine.pool.health.degraded = True
            degraded = engine.run(portfolio, yet)
            assert degraded.details["degraded"] is True
        # the pickle transport prices raw column slices: an index per call
        with MulticoreEngine(n_workers=2, transport="pickle") as engine:
            pickled = engine.run(portfolio, yet)
        for other in (pooled, degraded, pickled):
            for lid, ylt in whole.ylt_by_layer.items():
                np.testing.assert_array_equal(other.ylt_by_layer[lid].losses,
                                              ylt.losses)


# ---------------------------------------------------------------------------
# one index per table per process; lazy; never shipped; dies with its YET
# ---------------------------------------------------------------------------

def _worker_event_index_builds(shared, _i):  # pragma: no cover - in a worker
    yet = shared[1] if isinstance(shared, tuple) else shared
    return os.getpid(), yet.event_index.builds


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
            PortfolioKernel.from_portfolio(portfolio).sweep_segments(
                *yet.trial_block())
        # whole-table sweeps read no boundary
        assert yet.cache_levels()["yet.event_index.bytes"] == ranked_bytes(yet)
        for sweep in range(self.N_SWEEPS):
            kernel.sweep_segments(*yet.trial_block(sweep, 200 - sweep))
            kernel.sweep_segments(*yet.trial_block(sweep, 200 - sweep))
        assert yet.cache_levels()["yet.event_index.builds"] == 1
        # interior boundaries 1..5 and 195..200, each kept once
        assert yet.cache_levels()["yet.event_index.bytes"] == ranked_bytes(
            yet, boundaries=2 * self.N_SWEEPS - 1)

    def test_pooled_workers_build_once_each(self):
        portfolio, yet = by_event_workload(seed=74)
        kernel = portfolio.kernel()
        with PooledDispatcher(n_workers=2) as d:
            for _ in range(self.N_SWEEPS):
                d.run(kernel, yet)
            assert d.transport_active == "shm"
            seen = dict(d.pool.starmap_shared(
                _worker_event_index_builds, d._bundle(yet),
                [(i,) for i in range(8)]))
        assert os.getpid() not in seen, "probe must run in the workers"
        assert max(seen.values()) == 1
        assert yet.event_index.builds == 0           # never built, or shipped, here

    def test_unpickled_table_starts_unbuilt(self):
        portfolio, yet = by_event_workload(seed=75)
        kernel = portfolio.kernel()
        whole = kernel.sweep_segments(*yet.trial_block())
        assert yet.event_index.builds == 1
        payload = pickle.dumps(yet)
        assert len(payload) < yet.nbytes + 8 * yet.n_occurrences // 2, (
            "the index (or a second copy of the columns) was pickled")
        copy = pickle.loads(payload)
        assert copy.event_index.builds == 0
        assert copy.cache_levels()["yet.event_index.bytes"] == 0
        np.testing.assert_array_equal(
            kernel.sweep_segments(*copy.trial_block()), whole)
        assert copy.event_index.builds == 1

    def test_released_with_its_yet(self):
        """Nothing but the table (and the segments it hands out) holds
        the index: no cycle, so it goes without the collector."""
        portfolio, yet = by_event_workload(seed=76)
        kernel = portfolio.kernel()
        gc.collect()
        gc.disable()
        try:
            kernel.sweep_segments(*yet.trial_block())
            kernel.sweep_segments(*yet.trial_block(3, 90))
            ref = weakref.ref(yet.event_index.keys)
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
            ref = weakref.ref(yet.event_index.keys)
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
        assert metrics["yet.event_index.builds"] == 1

    def test_an_inline_batch_exports_the_rows_it_ran_once(self):
        """The service no longer exports beside its dispatcher: one
        batch of five rows moves the plane by five."""
        portfolio, yet = by_event_workload(seed=84)
        with RiskSession(yet) as session:
            service = session.pricing_service(cache=CachePolicy(0))
            service.quote_many(list(portfolio))
            metrics = session.telemetry.snapshot()["metrics"]
        assert service.stats.snapshot()["serve.batches"] == 1
        assert metrics[BY_EVENT] + metrics[BY_STREAM] == 5
        assert (metrics[BY_EVENT], metrics[BY_STREAM]) == (4, 1)
