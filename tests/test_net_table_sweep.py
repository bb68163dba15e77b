"""The net-table lane sweep and the YET-carried trial index.

Three contracts:

- **the path**: a hand-computed sweep proves each row priced by the
  path the rule of record assigns it (its net table on the stream, or
  the event index), so a silent fallback cannot pass; oracle parity
  over every source and dispatcher is ``tests/test_equivalence_matrix.py``;
- **decomposition invariance**: lane rows are ``np.array_equal`` however
  the trials are decomposed (whole, blocked, pooled, degraded serial);
- **one trial index per table**: sweeps read the index a ``YetTable``
  derives once — once per worker for an attached copy.
"""


import numpy as np
import pytest
from conftest import make_yet, multicore, worker_probes

from repro.core.engines import VectorizedEngine
from repro.core.kernels import PortfolioKernel
from repro.core.layer import Layer
from repro.core.portfolio import Portfolio
from repro.core.tables import (
    EltTable,
    EventIndex,
    TrialSegments,
    YetTable,
)
from repro.core.terms import LayerTerms
from repro.hpc import shm
from repro.serve.dispatch import PooledDispatcher

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

        def counted(index, events):
            lookups.append(events)
            return occurrences(index, events)

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
        seg = yet.trial_block()
        np.testing.assert_array_equal(seg.trial_ids, [1, 2, 4])
        np.testing.assert_array_equal(seg.bounds, [0, 2, 3, 6])
        assert (seg.n_trials, seg.n_occurrences, seg.max_count) == (7, 6, 3)
        assert np.shares_memory(seg.event_ids, yet.event_ids)

    def test_trial_range_is_offset_arithmetic(self):
        yet = make_yet([1, 1, 2, 4, 4, 4], [7, 8, 9, 7, 8, 9], n_trials=7)
        seg = yet.trial_block(2, 6)
        np.testing.assert_array_equal(seg.trial_ids, [0, 2])   # renumbered
        np.testing.assert_array_equal(seg.bounds, [0, 1, 4])
        np.testing.assert_array_equal(seg.event_ids, [9, 7, 8, 9])
        assert (seg.n_trials, seg.max_count) == (4, 3)
        assert yet.index_builds == 1
        empty = yet.trial_block(5, 7)
        assert empty.n_occurrences == 0 and empty.event_ids.size == 0
        assert empty.trial_ids.size == 0
        # a span of a table is bounded by the table's longest trial
        assert empty.max_count == 3

    def test_raw_columns_derive_the_same_structure(self):
        yet = make_yet([1, 1, 2, 4, 4, 4], [7, 8, 9, 7, 8, 9], n_trials=7)
        carried = yet.trial_block()
        derived = TrialSegments.from_sorted_trials(yet.trials, yet.event_ids,
                                                   yet.n_trials)
        for name in ("bounds", "trial_ids", "event_ids"):
            np.testing.assert_array_equal(getattr(derived, name),
                                          getattr(carried, name))
        assert derived.max_count == carried.max_count

    def test_index_is_derived_once_and_staged_for_a_copy(self):
        """A table derives its trial offsets once; a copy attached from
        its staging reads the staged ones and derives none."""
        yet = make_yet([0, 0, 2], [1, 2, 3], n_trials=3)
        assert yet.index_builds == 0
        first, part = yet.trial_block(), yet.trial_block(1, 3)
        for _ in range(3):
            assert yet.trial_block() is first          # one span per range,
            assert yet.trial_block(1, 3) is part       # kept by the table
        assert yet.index_builds == 1
        with shm.SharedArena() as arena:
            attached = YetTable.from_handles(yet.to_shared(arena))
            assert attached.index_builds == 0
            for _ in range(3):
                seg = attached.trial_block()
                attached.trial_block(0, 2)
            assert attached.index_builds == 0
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
    annual = proof.ran(lambda: kernel.sweep_segments(yet.trial_block()))
    np.testing.assert_array_equal(annual, [[0.0, 250.0, 0.0, 600.0, 50.0, 0.0]])


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
    def test_engines_agree_bitwise(self, small_portfolio_workload,
                                   monkeypatch):
        wl = small_portfolio_workload
        whole = VectorizedEngine().run(wl.portfolio, wl.yet)
        with multicore(2) as engine:
            pooled = engine.run(wl.portfolio, wl.yet)
            assert pooled.details["n_blocks"] == 2
            engine.dispatcher.pool.health.degraded = True
            degraded = engine.run(wl.portfolio, wl.yet)
            assert degraded.details["degraded"] is True
        with monkeypatch.context() as m:
            m.setattr(shm, "_AVAILABLE", False)
            with multicore(2) as engine:
                in_process = engine.run(wl.portfolio, wl.yet)
        for other in (pooled, degraded, in_process):
            for lid, ylt in whole.ylt_by_layer.items():
                np.testing.assert_array_equal(other.ylt_by_layer[lid].losses,
                                              ylt.losses)


# ---------------------------------------------------------------------------
# one trial index per worker
# ---------------------------------------------------------------------------

def _worker_index_builds(yet):  # pragma: no cover - runs in a worker
    return yet.index_builds


class TestTrialIndexOncePerWorker:
    N_SWEEPS = 6

    def check(self, dispatcher):
        seen = worker_probes(dispatcher, _worker_index_builds)
        # N sweeps, no derivation: a worker reads the staged offsets and
        # never scans a trial column
        assert set(seen.values()) == {0}

    def test_pooled_dispatcher(self, small_portfolio_workload):
        wl = small_portfolio_workload
        kernel = wl.portfolio.kernel()
        with PooledDispatcher(n_workers=2) as d:
            for _ in range(self.N_SWEEPS):
                d.run(kernel, wl.yet)
            assert d.transport_active == "shm"
            self.check(d)
        # the parent's copy (a fixture other tests sweep too): the pool
        # never makes it derive a second index, nor needs a first
        assert wl.yet.index_builds <= 1

    def test_multicore_engine(self, small_portfolio_workload):
        wl = small_portfolio_workload
        with multicore(2) as engine:
            for _ in range(self.N_SWEEPS):
                result = engine.run(wl.portfolio, wl.yet)
            assert result.details["transport"] == "shm"
            self.check(engine.dispatcher)
