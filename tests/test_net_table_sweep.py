"""The net-table lane sweep and the YET-carried trial index.

Three contracts:

- **parity**: every entry point of the lane path (YET-carried segments,
  raw columns, unsorted columns, small row buffers, trial-block
  decompositions) reproduces the scalar
  ``sequential`` oracle across empty trials, unknown event ids,
  infinite retentions and zero limits — and each row is *proved* to
  have priced by the path the rule of record assigns it (its net table
  on the stream, or the event index), so a silent fallback cannot pass;
- **decomposition invariance**: lane rows are ``np.array_equal`` however
  the trials are decomposed (whole, blocked, pooled, degraded serial);
- **one trial index per table**: sweeps read the index a ``YetTable``
  derives once — once per worker for an attached copy.
"""

import os

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
from repro.core.tables import (
    YET_SCHEMA,
    EltTable,
    EventIndex,
    TrialSegments,
    YetTable,
)
from repro.core.terms import LayerTerms
from repro.data.columnar import ColumnTable
from repro.hpc import shm
from repro.serve.dispatch import InlineDispatcher, PooledDispatcher

RTOL, ATOL = 1e-9, 1e-6


def make_yet(trials, event_ids, n_trials):
    trials = np.asarray(trials, dtype=np.int64)
    table = ColumnTable.from_arrays(
        YET_SCHEMA, trial=trials, seq=np.zeros(trials.size, dtype=np.int32),
        event_id=np.asarray(event_ids, dtype=np.int64),
    )
    return YetTable(table, n_trials)


class NetGatherProof:
    """Proves every lane row priced by the path the rule of record
    assigns it: the net table on the stream, or the event index.

    Each path has exactly one implementation.  Stream rows gather
    through ``kernel._net`` and by-event rows read their events, all
    rows in one read, through ``EventIndex.occurrences``; wrapping both
    makes "this row priced on its net table" / "this row priced by
    events" an observable instead of an assumption, and the kernel's
    own ``kernel.lane_rows.*`` counts must agree with what was observed.
    """

    def __init__(self, kernel: PortfolioKernel) -> None:
        self.kernel = kernel
        self.gathers = [0] * kernel.n_layers
        self.by_event = {row for row in range(kernel.n_layers)
                         if kernel._pierced_entries(row) is not None}
        by_stream = sorted(set(range(kernel.n_layers)) - self.by_event)
        for row, gather in zip(by_stream, kernel._net_gathers(by_stream)):
            kernel._net[row] = self._counting(row, gather)

    def _counting(self, row, gather):
        def counted(event_ids, out):
            self.gathers[row] += 1
            return gather(event_ids, out=out)
        return counted

    def ran(self, sweep):
        """Run ``sweep()``; assert each row took its assigned path."""
        before, routed = list(self.gathers), dict(self.kernel.routed)
        lookups = []
        occurrences = EventIndex.occurrences

        def counted(index, events, t0, t1):
            lookups.append(events)
            return occurrences(index, events, t0, t1)

        EventIndex.occurrences = counted
        try:
            result = sweep()
        finally:
            EventIndex.occurrences = occurrences
        for row in range(self.kernel.n_layers):
            gathered = self.gathers[row] - before[row]
            if row in self.by_event:
                assert gathered == 0, f"by-event row {row} read the stream"
            else:
                assert gathered >= 1, f"row {row} skipped its net table"
        # One index read per sweep that has by-event rows, over all of
        # their pierced events in row order — none for a sweep without.
        assert len(lookups) == (1 if self.by_event else 0), (
            "one index read per sweep, not one per by-event row")
        if self.by_event:
            np.testing.assert_array_equal(lookups[0], np.concatenate([
                self.kernel._pierced_entries(row)[0]
                for row in sorted(self.by_event)]))
        moved = {name: self.kernel.routed[name] - routed[name]
                 for name in ("kernel.lane_rows.by_event",
                              "kernel.lane_rows.by_stream")}
        assert moved == {
            "kernel.lane_rows.by_event": len(self.by_event),
            "kernel.lane_rows.by_stream": self.kernel.n_layers
            - len(self.by_event),
        }
        return result


# ---------------------------------------------------------------------------
# the trial index
# ---------------------------------------------------------------------------

class TestTrialSegments:
    def test_empty_trials_have_no_segment(self):
        # trials 0, 3 and 5-6 are empty: leading, interior, trailing
        yet = make_yet([1, 1, 2, 4, 4, 4], [7, 8, 9, 7, 8, 9], n_trials=7)
        seg, events = yet.trial_block()
        np.testing.assert_array_equal(seg.trial_ids, [1, 2, 4])
        np.testing.assert_array_equal(seg.bounds, [0, 2, 3, 6])
        assert (seg.n_trials, seg.n_occurrences, seg.max_count) == (7, 6, 3)
        assert np.shares_memory(events, yet.event_ids)

    def test_trial_range_is_offset_arithmetic(self):
        yet = make_yet([1, 1, 2, 4, 4, 4], [7, 8, 9, 7, 8, 9], n_trials=7)
        seg, events = yet.trial_block(2, 6)
        np.testing.assert_array_equal(seg.trial_ids, [0, 2])   # renumbered
        np.testing.assert_array_equal(seg.bounds, [0, 1, 4])
        np.testing.assert_array_equal(events, [9, 7, 8, 9])
        assert (seg.n_trials, seg.max_count) == (4, 3)
        assert yet.index_builds == 1
        empty, events = yet.trial_block(5, 7)
        assert empty.n_occurrences == 0 and events.size == 0
        assert empty.trial_ids.size == 0 and empty.max_count == 0

    def test_raw_columns_derive_the_same_structure(self):
        yet = make_yet([1, 1, 2, 4, 4, 4], [7, 8, 9, 7, 8, 9], n_trials=7)
        carried, _ = yet.trial_block()
        derived = TrialSegments.from_sorted_trials(yet.trials, yet.n_trials)
        for name in ("bounds", "trial_ids"):
            np.testing.assert_array_equal(getattr(derived, name),
                                          getattr(carried, name))
        assert derived.max_count == carried.max_count

    def test_index_is_derived_once_per_table_and_per_attached_copy(self):
        yet = make_yet([0, 0, 2], [1, 2, 3], n_trials=3)
        assert yet.index_builds == 0
        first, _ = yet.trial_block()
        for _ in range(3):
            again, _ = yet.trial_block()
            yet.trial_block(1, 3)
            assert again is first
        assert yet.index_builds == 1
        with shm.SharedArena() as arena:
            attached = YetTable.from_handles(yet.to_shared(arena))
            assert attached.index_builds == 0
            for _ in range(3):
                seg, _ = attached.trial_block()
                attached.trial_block(0, 2)
            assert attached.index_builds == 1
            np.testing.assert_array_equal(seg.bounds, first.bounds)
            del attached, seg


# ---------------------------------------------------------------------------
# parity against the scalar oracle
# ---------------------------------------------------------------------------

def test_hand_computed_lane_sweep():
    """Known non-zero answers (a parity suite whose every value is 0
    proves nothing): table, terms and sums worked by hand."""
    elt = EltTable.from_arrays([1, 2, 3], [100.0, 250.0, 400.0])
    pf = Portfolio([Layer(0, [elt], LayerTerms(occ_retention=50.0,
                                               occ_limit=300.0))])
    # net losses: event 1 -> 50, 2 -> 200, 3 -> 300 (capped), 9 -> 0
    yet = make_yet([1, 1, 1, 3, 3, 4], [1, 2, 9, 3, 3, 1], n_trials=6)
    kernel = pf.kernel()
    proof = NetGatherProof(kernel)
    annual = proof.ran(lambda: kernel.sweep_segments(*yet.trial_block()))
    np.testing.assert_array_equal(annual, [[0.0, 250.0, 0.0, 600.0, 50.0, 0.0]])


@st.composite
def lane_case(draw):
    """A distinct-book portfolio, a YET with forced empty trials and
    out-of-table event ids, and per-row ``limit == 0`` overrides."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    width = draw(st.integers(2, 40))
    layers = []
    for li in range(draw(st.integers(1, 4))):
        rows = draw(st.integers(1, width))
        ids = np.sort(rng.choice(width, size=rows, replace=False))
        losses = rng.lognormal(10, 1.5, rows)
        if draw(st.booleans()):                  # force this layer sparse
            ids = np.append(ids, 10**8 + li)
            losses = np.append(losses, float(rng.lognormal(10, 1.5)))
        terms = LayerTerms(
            occ_retention=draw(st.one_of(st.just(0.0), st.just(np.inf),
                                         st.floats(0.0, 1e5))),
            occ_limit=draw(st.one_of(st.just(np.inf), st.floats(1e3, 1e6))),
            agg_retention=draw(st.one_of(st.just(0.0), st.floats(0.0, 1e5))),
            agg_limit=draw(st.one_of(st.just(np.inf), st.floats(1e3, 1e8))),
            participation=draw(st.floats(0.05, 1.0)),
        )
        layers.append(Layer(li, [EltTable.from_arrays(ids, losses,
                                                      contract_id=li)], terms))
    zero_limit = [draw(st.booleans()) for _ in layers]
    lead, trail = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    counts = rng.integers(0, 6, draw(st.integers(1, 20)))   # interior empties
    counts = np.concatenate((np.zeros(lead, int), counts, np.zeros(trail, int)))
    trials = np.repeat(np.arange(counts.size), counts)
    # ids >= width are past every dense table and unknown to sparse ones
    events = rng.integers(0, width + 4, trials.size)
    return (Portfolio(layers), zero_limit, make_yet(trials, events, counts.size),
            rng.permutation(trials.size), draw(st.integers(1, 9)),
            draw(st.integers(0, counts.size)))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=lane_case())
def test_net_table_sweep_matches_sequential_oracle(case):
    portfolio, zero_limit, yet, perm, block, split = case
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
    proof = NetGatherProof(kernel)
    n_trials = yet.n_trials

    def check(annual, exact_to=None):
        final = kernel.apply_aggregate(annual)
        assert np.isfinite(final).all()
        np.testing.assert_allclose(final, expected, rtol=RTOL, atol=ATOL)
        if exact_to is not None:
            np.testing.assert_array_equal(annual, exact_to)

    if yet.n_occurrences == 0:
        check(kernel.sweep_segments(*yet.trial_block()))
        return
    whole = proof.ran(lambda: kernel.sweep_segments(*yet.trial_block()))
    check(whole)
    # raw columns, a small row buffer, a trial-block decomposition: the
    # same core, every trial summed whole — bit-identical
    check(proof.ran(lambda: kernel.sweep(yet.trials, yet.event_ids, n_trials)),
          exact_to=whole)
    small = PortfolioKernel(layer_ids=base.layer_ids, block_occurrences=block,
                            **arrays)
    check(NetGatherProof(small).ran(lambda: small.sweep_segments(
        *yet.trial_block())), exact_to=whole)
    parts = [kernel.sweep_segments(*yet.trial_block(t0, t1))
             for t0, t1 in ((0, split), (split, n_trials)) if t1 > t0]
    check(np.concatenate(parts, axis=1), exact_to=whole)
    # unsorted columns: one stable sort, then the same loop
    check(proof.ran(lambda: kernel.sweep(
        yet.trials[perm], yet.event_ids[perm], n_trials)))


def test_net_tables_pre_apply_the_terms():
    """``width + 1`` long with a zero last entry that out-of-table ids
    clip to."""
    compact = EltTable.from_arrays([1, 2, 3], [100.0, 200.0, 300.0])
    kernel = Portfolio([
        Layer(0, [compact], LayerTerms(occ_retention=150.0, occ_limit=100.0)),
    ]).kernel()
    dense, = kernel._net_gathers([0])
    np.testing.assert_array_equal(dense.args[0], [0.0, 0.0, 50.0, 100.0, 0.0])
    out = np.empty(3)
    np.testing.assert_array_equal(dense(np.array([3, 4, 10**9]), out=out),
                                  [100.0, 0.0, 0.0])


def test_out_of_range_trials_rejected(tiny_workload):
    from repro.errors import ConfigurationError

    kernel = tiny_workload.portfolio.kernel()
    for bad in ([0, 5], [-1, 0]):
        with pytest.raises(ConfigurationError):
            kernel.sweep(np.array(bad), np.array([1, 1]), 5)


# ---------------------------------------------------------------------------
# decomposition invariance
# ---------------------------------------------------------------------------

class TestDecompositionInvariance:
    def test_dispatchers_agree_bitwise(self, small_portfolio_workload):
        """Whole-YET, dispatcher-blocked, 2-worker pooled and degraded
        serial: one answer, bit for bit."""
        wl = small_portfolio_workload
        kernel = wl.portfolio.kernel()
        assert kernel.tail_group_rows == 0       # distinct books: lane rows
        whole = InlineDispatcher().run(kernel, wl.yet)
        assert whole.any()
        small = PortfolioKernel.from_portfolio(wl.portfolio,
                                               block_occurrences=257)
        blocked = InlineDispatcher().run(small, wl.yet)
        np.testing.assert_array_equal(blocked, whole)
        with PooledDispatcher(n_workers=2) as pooled:
            answer = pooled.run(kernel, wl.yet)
            assert pooled.pool.started, "the batch must have been forked"
            np.testing.assert_array_equal(answer, whole)
            pooled.pool.health.degraded = True
            np.testing.assert_array_equal(pooled.run(kernel, wl.yet), whole)
            assert pooled.health.snapshot()["pool.degraded_calls"] == 1

    def test_engines_agree_bitwise(self, small_portfolio_workload):
        wl = small_portfolio_workload
        whole = VectorizedEngine().run(wl.portfolio, wl.yet)
        with MulticoreEngine(n_workers=2) as engine:
            pooled = engine.run(wl.portfolio, wl.yet)
            assert pooled.details["n_blocks"] == 2
            engine.pool.health.degraded = True
            degraded = engine.run(wl.portfolio, wl.yet)
            assert degraded.details["degraded"] is True
        with MulticoreEngine(n_workers=2, transport="pickle") as engine:
            pickled = engine.run(wl.portfolio, wl.yet)
        for other in (pooled, degraded, pickled):
            for lid, ylt in whole.ylt_by_layer.items():
                np.testing.assert_array_equal(other.ylt_by_layer[lid].losses,
                                              ylt.losses)


# ---------------------------------------------------------------------------
# one trial index per worker
# ---------------------------------------------------------------------------

def _worker_index_builds(shared, _i):  # pragma: no cover - runs in a worker
    return os.getpid(), shared.index_builds


class TestTrialIndexOncePerWorker:
    N_SWEEPS = 6

    def check(self, pool, shared):
        seen = dict(pool.starmap_shared(_worker_index_builds, shared,
                                        [(i,) for i in range(8)]))
        assert os.getpid() not in seen, "probe must run in the workers"
        # N sweeps, one derivation: never a second scan of the trial column
        assert max(seen.values()) == 1
        assert all(builds <= 1 for builds in seen.values())

    def test_pooled_dispatcher(self, small_portfolio_workload):
        wl = small_portfolio_workload
        kernel = wl.portfolio.kernel()
        with PooledDispatcher(n_workers=2) as d:
            for _ in range(self.N_SWEEPS):
                d.run(kernel, wl.yet)
            assert d.transport_active == "shm"
            self.check(d.pool, d._bundle(wl.yet))
        # the parent's copy (a fixture other tests sweep too): the pool
        # never makes it derive a second index, nor needs a first
        assert wl.yet.index_builds <= 1

    def test_multicore_engine(self, small_portfolio_workload):
        wl = small_portfolio_workload
        with MulticoreEngine(n_workers=2) as engine:
            for _ in range(self.N_SWEEPS):
                result = engine.run(wl.portfolio, wl.yet)
            assert result.details["transport"] == "shm"
            self.check(engine.pool, engine.dispatcher._bundle(wl.yet))
