"""Tests for the pipeline table types (ELT, YET, YELT, YLT, YELLT model)."""

import pickle

import numpy as np
import pytest
from conftest import make_yet

from repro.core.tables import (
    ELT_SCHEMA,
    YELT_SCHEMA,
    YLT_SCHEMA,
    EltTable,
    YeltTable,
    YelltModel,
    YetTable,
    YltTable,
)
from repro.data.columnar import ColumnTable
from repro.errors import ConfigurationError


class TestEltTable:
    def test_from_arrays(self):
        elt = EltTable.from_arrays([3, 1, 2], [10.0, 20.0, 30.0], contract_id=5)
        assert elt.n_events == 3
        assert elt.contract_id == 5
        assert elt.max_event_id == 3

    def test_default_sigma_zero(self):
        elt = EltTable.from_arrays([1], [5.0])
        assert elt.sigmas[0] == 0.0

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            EltTable.from_arrays([1, 1], [1.0, 2.0])

    def test_negative_id_rejected(self):
        with pytest.raises(ConfigurationError):
            EltTable.from_arrays([-1], [1.0])

    def test_negative_loss_rejected(self):
        with pytest.raises(ConfigurationError):
            EltTable.from_arrays([1], [-1.0])

    @pytest.mark.parametrize("column", ["mean_loss", "sigma"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    def test_non_finite_or_negative_values_rejected(self, column, bad):
        """NaN passes ``x < 0`` and infinity is not negative; either
        would reach every YLT of a book through its merged lookup."""
        values = {"mean_loss": [1.0, 3.0, 2.0], "sigma": [0.0, 1.0, 0.5]}
        values[column][1] = bad
        what = "losses" if column == "mean_loss" else "sigmas"
        with pytest.raises(ConfigurationError,
                           match=f"ELT {what} must be finite and non-negative"):
            EltTable.from_arrays([1, 2, 3], values["mean_loss"],
                                 values["sigma"])

    def test_nan_loss_and_non_finite_sigmas_rejected(self):
        with pytest.raises(ConfigurationError, match="losses"):
            EltTable.from_arrays([1, 2, 3], [1.0, np.nan, 2.0],
                                 [0.0, np.inf, np.nan])

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            EltTable.from_arrays([], [])

    def test_wrong_schema_rejected(self):
        bad = ColumnTable.from_arrays(YLT_SCHEMA, trial=[0], loss=[1.0])
        with pytest.raises(ConfigurationError):
            EltTable(bad)

    def test_expected_annual_loss_with_rates(self):
        elt = EltTable.from_arrays([1, 2], [100.0, 200.0])
        eal = elt.expected_annual_loss({1: 0.1, 2: 0.5})
        assert eal == pytest.approx(0.1 * 100 + 0.5 * 200)


class TestYetSimulate:
    def simulate(self, n_trials=1000, epk=20.0, seed=0):
        ids = np.arange(50, dtype=np.int64)
        rates = np.full(50, 0.4)
        return YetTable.simulate(ids, rates, n_trials,
                                 np.random.default_rng(seed),
                                 mean_events_per_trial=epk)

    def test_mean_events_near_target(self):
        yet = self.simulate(n_trials=5000, epk=20.0)
        assert yet.mean_events_per_trial() == pytest.approx(20.0, rel=0.05)

    def test_default_rate_driven_frequency(self):
        ids = np.arange(10, dtype=np.int64)
        rates = np.full(10, 0.5)  # total 5/yr
        yet = YetTable.simulate(ids, rates, 4000, np.random.default_rng(0))
        assert yet.mean_events_per_trial() == pytest.approx(5.0, rel=0.1)

    def test_sorted_by_trial(self):
        yet = self.simulate()
        assert (np.diff(yet.trials) >= 0).all()

    def test_seq_resets_per_trial(self):
        yet = self.simulate(n_trials=100, epk=5.0)
        o = yet.trial_offsets
        for t in range(100):
            seqs = yet.table["seq"][o[t]:o[t + 1]]
            np.testing.assert_array_equal(seqs, np.arange(len(seqs)))

    def test_offsets_cover(self):
        yet = self.simulate()
        o = yet.trial_offsets
        assert o[0] == 0 and o[-1] == yet.n_occurrences
        assert (np.diff(o) >= 0).all()

    def test_sampling_follows_rates(self):
        ids = np.array([0, 1], dtype=np.int64)
        rates = np.array([0.9, 0.1])
        yet = YetTable.simulate(ids, rates, 2000, np.random.default_rng(1),
                                mean_events_per_trial=10)
        frac0 = (yet.event_ids == 0).mean()
        assert frac0 == pytest.approx(0.9, abs=0.02)

    def test_deterministic(self):
        a = self.simulate(seed=7)
        b = self.simulate(seed=7)
        assert a.table.equals(b.table)

    def test_slice_trials_renumbers(self):
        yet = self.simulate(n_trials=100, epk=5.0)
        sub = yet.slice_trials(40, 60)
        assert sub.n_trials == 20
        assert sub.trials.min() >= 0
        assert sub.trials.max() < 20

    def test_slice_trials_preserves_occurrences(self):
        yet = self.simulate(n_trials=100, epk=5.0)
        total = sum(
            yet.slice_trials(a, b).n_occurrences
            for a, b in [(0, 30), (30, 80), (80, 100)]
        )
        assert total == yet.n_occurrences

    def test_bad_slice_rejected(self):
        yet = self.simulate(n_trials=10)
        with pytest.raises(ConfigurationError):
            yet.slice_trials(5, 3)

    def test_validation_rejects_unsorted(self):
        table = ColumnTable.from_arrays(
            yet_schema(), trial=[1, 0], seq=[0, 0], event_id=[1, 2]
        )
        with pytest.raises(ConfigurationError):
            YetTable(table, 2)

    def test_validation_rejects_out_of_range_trial(self):
        table = ColumnTable.from_arrays(
            yet_schema(), trial=[5], seq=[0], event_id=[1]
        )
        with pytest.raises(ConfigurationError):
            YetTable(table, 3)


def yet_schema():
    from repro.core.tables import YET_SCHEMA
    return YET_SCHEMA


class TestYetWidth:
    """A YET holds its int64 trial offsets and int32 event ids and
    nothing more: 4 B per occurrence plus 8 B per trial (and one),
    however it was built or moved.  The 12 B int32 ``trial`` / ``seq``
    / ``event_id`` columns are its input and view format, never held;
    its event index adds 4 B per occurrence (8 B with int64 keys) and
    8 B per offset entry."""

    def simulate(self):
        return YetTable.simulate(np.arange(50), np.full(50, 0.4), 300,
                                 np.random.default_rng(3),
                                 mean_events_per_trial=20.0)

    def assert_held(self, yet):
        held = [value for value in (getattr(yet, name)
                                    for name in YetTable.__slots__)
                if isinstance(value, np.ndarray)]
        assert [a.dtype for a in held] == [np.int64, np.int32]
        assert yet.trial_views == 0          # no trial column, no seq
        assert yet.nbytes == 4 * yet.n_occurrences + 8 * (yet.n_trials + 1)

    def test_simulate_and_slice_trials(self):
        yet = self.simulate()
        assert yet.n_occurrences > 1000
        self.assert_held(yet)
        sub = yet.slice_trials(100, 250)
        self.assert_held(sub)
        np.testing.assert_array_equal(
            sub.trial_offsets, yet.trial_offsets[100:251]
            - yet.trial_offsets[100])

    def test_constructed_and_unpickled(self):
        yet = make_yet([0, 0, 2, 2, 2], [4, 1, 1, 7, 3], n_trials=5)
        self.assert_held(yet)
        np.testing.assert_array_equal(yet.trial_offsets, [0, 2, 2, 5, 5, 5])
        payload = pickle.dumps(self.simulate())
        again = pickle.loads(payload)
        self.assert_held(again)
        assert again.fingerprint() == self.simulate().fingerprint()
        assert len(payload) < again.nbytes + 1024

    def test_the_view_is_the_int32_input_format(self):
        """:attr:`YetTable.table` derives the 12 B columns, ``seq`` as
        each occurrence's place in its trial, and builds an equal
        table."""
        yet = self.simulate()
        view = yet.table
        for name in ("trial", "seq", "event_id"):
            assert view[name].dtype == np.int32, name
        rebuilt = YetTable(view, yet.n_trials)
        self.assert_held(rebuilt)
        assert rebuilt.fingerprint() == yet.fingerprint()
        assert rebuilt.table.equals(view)

    def test_shm_round_trip_stages_4_b_per_occurrence_8_per_trial(self):
        """The staged YET is its int64 trial offsets and int32 event ids;
        the attached copy holds them as they are, and derives the same
        columns from them."""
        from repro.hpc import shm

        yet = self.simulate()
        with shm.SharedArena() as arena:
            handles = yet.to_shared(arena)
            assert {name: np.dtype(h.dtype) for name, h
                    in handles.arrays.items()} == {
                "trial_offsets": np.int64, "event_id": np.int32}
            staged = 4 * yet.n_occurrences + 8 * (yet.n_trials + 1)
            assert sum(h.nbytes for h in handles.arrays.values()) == staged
            # two arrays, each padded to the arena's 64 B alignment
            assert staged <= arena.nbytes < staged + 2 * 64
            again = YetTable.from_handles(handles)
            self.assert_held(again)
            assert again.table.equals(yet.table)
            del again

    def test_event_index_is_4_bytes_per_occurrence(self):
        yet = self.simulate()
        assert yet.trial_block().event_index().keys.dtype == np.int32
        offsets = int(yet.event_ids.max()) + 1       # offsets by id
        assert yet.cache_levels()["yet.event_index.bytes"] == (
            4 * yet.n_occurrences + 8 * offsets)

    def test_ids_at_2_31_raise_at_construction(self):
        """Ids and ``n_trials`` are below 2**31.  The accepted edge of
        ``n_trials`` is pinned on its check: a table of 2**31 - 1 trials
        holds 16 GiB of trial offsets."""
        from repro.core.tables import _check_n_trials
        from repro.errors import SchemaError

        for column in ("trial", "event_id"):
            cols = dict(trial=[0, 1], seq=[0, 0], event_id=[1, 2])
            cols[column] = [1, 2**31]
            with pytest.raises(SchemaError, match=column):
                ColumnTable.from_arrays(yet_schema(), **cols)
        with pytest.raises(SchemaError, match="event_id"):
            YetTable.simulate([1, 2**31], [0.5, 0.5], 10,
                              np.random.default_rng(0))
        table = ColumnTable.from_arrays(yet_schema(), trial=[0], seq=[0],
                                        event_id=[2**31 - 1])
        assert YetTable(table, 1).event_ids[0] == 2**31 - 1
        _check_n_trials(2**31 - 1)
        with pytest.raises(ConfigurationError, match="n_trials"):
            _check_n_trials(2**31)
        with pytest.raises(ConfigurationError, match="n_trials"):
            YetTable(table, 2**31)


class TestYeltTable:
    def make(self):
        table = ColumnTable.from_arrays(
            YELT_SCHEMA,
            trial=[0, 0, 2],
            event_id=[7, 8, 7],
            loss=[10.0, 5.0, 3.0],
        )
        return YeltTable(table, n_trials=4)

    def test_to_ylt_aggregates_and_pads(self):
        ylt = self.make().to_ylt()
        np.testing.assert_allclose(ylt.losses, [15.0, 0.0, 3.0, 0.0])

    def test_loss_conservation(self):
        yelt = self.make()
        assert yelt.to_ylt().losses.sum() == pytest.approx(yelt.total_loss())

    def test_trial_range_validated(self):
        table = ColumnTable.from_arrays(
            YELT_SCHEMA, trial=[9], event_id=[1], loss=[1.0]
        )
        with pytest.raises(ConfigurationError):
            YeltTable(table, n_trials=4)


class TestYltTable:
    def test_mean_and_nbytes(self):
        ylt = YltTable(np.array([1.0, 3.0]))
        assert ylt.mean() == 2.0
        assert ylt.nbytes == 16

    def test_add_alignment(self):
        a = YltTable(np.array([1.0, 2.0]))
        b = YltTable(np.array([10.0, 20.0]))
        np.testing.assert_allclose(a.add(b).losses, [11.0, 22.0])

    def test_add_mismatched_rejected(self):
        with pytest.raises(ConfigurationError):
            YltTable(np.ones(2)).add(YltTable(np.ones(3)))

    def test_sum_of_list(self):
        out = YltTable.sum([YltTable(np.ones(3))] * 4)
        np.testing.assert_allclose(out.losses, [4.0, 4.0, 4.0])

    def test_negative_losses_rejected(self):
        with pytest.raises(ConfigurationError):
            YltTable(np.array([-1.0]))

    def test_nan_rejected(self):
        with pytest.raises(ConfigurationError):
            YltTable(np.array([np.nan]))

    def test_table_roundtrip(self):
        ylt = YltTable(np.array([0.0, 5.0, 0.0]))
        back = YltTable.from_table(ylt.to_table(), 3)
        np.testing.assert_array_equal(back.losses, ylt.losses)

    def test_from_sparse_table_pads_missing(self):
        table = ColumnTable.from_arrays(YLT_SCHEMA, trial=[1], loss=[9.0])
        ylt = YltTable.from_table(table, 3)
        np.testing.assert_allclose(ylt.losses, [0.0, 9.0, 0.0])

    def test_zeros(self):
        assert YltTable.zeros(5).losses.sum() == 0.0


class TestYelltModel:
    def test_paper_scale_reaches_5e16(self):
        assert YelltModel.paper_scale().yellt_entries() == pytest.approx(5e16)

    def test_ratio_yellt_to_yelt_is_locations(self):
        m = YelltModel.paper_scale()
        assert m.ratios()["yellt_over_yelt"] == pytest.approx(1000.0)

    def test_ratio_yelt_to_ylt_is_events_per_trial(self):
        m = YelltModel.paper_scale()
        assert m.ratios()["yelt_over_ylt"] == pytest.approx(1000.0)

    def test_bytes_accounting(self):
        m = YelltModel(1, 1, 1, 1)
        assert m.bytes_at(100, row_bytes=8) == 800

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            YelltModel(0, 1, 1, 1)
        with pytest.raises(ConfigurationError):
            YelltModel(1, 1, 1, 1, mean_events_per_trial=0)
