"""Tests for reinstatement provisions and YELLT materialisation."""

import numpy as np
import pytest

from repro.core.reinstatements import (
    apply_reinstatement_limit,
    reinstatement_premiums,
)
from repro.core.tables import YELT_SCHEMA, YeltTable, YetTable
from repro.core.yellt import (
    ELL_SCHEMA,
    YelltTable,
    materialize_yellt,
    yellt_to_yelt,
)
from repro.data.columnar import ColumnTable
from repro.errors import ConfigurationError


def make_yelt(trials, events, losses, n_trials=None):
    table = ColumnTable.from_arrays(
        YELT_SCHEMA, trial=trials, event_id=events, loss=losses
    )
    return YeltTable(table, n_trials or (max(trials) + 1 if trials else 1))


class TestReinstatementLimit:
    def test_capacity_consumed_in_order(self):
        # capacity = (1+1) * 100 = 200; losses 150, 100, 50 in one year
        yelt = make_yelt([0, 0, 0], [1, 2, 3], [150.0, 100.0, 50.0])
        out = apply_reinstatement_limit(yelt, occ_limit=100.0,
                                        n_reinstatements=1)
        np.testing.assert_allclose(out.table["loss"], [150.0, 50.0, 0.0])

    def test_unlimited_years_untouched(self):
        yelt = make_yelt([0, 1], [1, 1], [50.0, 60.0])
        out = apply_reinstatement_limit(yelt, occ_limit=100.0,
                                        n_reinstatements=5)
        np.testing.assert_allclose(out.table["loss"], [50.0, 60.0])

    def test_zero_reinstatements_single_fill(self):
        yelt = make_yelt([0, 0], [1, 2], [80.0, 80.0])
        out = apply_reinstatement_limit(yelt, occ_limit=100.0,
                                        n_reinstatements=0)
        np.testing.assert_allclose(out.table["loss"], [80.0, 20.0])

    def test_independent_across_trials(self):
        yelt = make_yelt([0, 0, 1, 1], [1, 2, 1, 2],
                         [150.0, 150.0, 150.0, 150.0])
        out = apply_reinstatement_limit(yelt, occ_limit=100.0,
                                        n_reinstatements=1)
        np.testing.assert_allclose(out.table["loss"],
                                   [150.0, 50.0, 150.0, 50.0])

    def test_annual_total_never_exceeds_capacity(self):
        rng = np.random.default_rng(0)
        n = 500
        trials = np.sort(rng.integers(0, 40, n))
        yelt = make_yelt(trials.tolist(),
                         rng.integers(0, 100, n).tolist(),
                         rng.lognormal(4, 1, n).tolist(), n_trials=40)
        out = apply_reinstatement_limit(yelt, occ_limit=50.0,
                                        n_reinstatements=2)
        annual = out.to_ylt().losses
        assert (annual <= 3 * 50.0 + 1e-9).all()

    def test_never_increases_any_row(self):
        rng = np.random.default_rng(1)
        n = 300
        trials = np.sort(rng.integers(0, 30, n))
        losses = rng.lognormal(3, 1, n)
        yelt = make_yelt(trials.tolist(),
                         rng.integers(0, 50, n).tolist(),
                         losses.tolist(), n_trials=30)
        out = apply_reinstatement_limit(yelt, occ_limit=20.0,
                                        n_reinstatements=3)
        assert (out.table["loss"] <= yelt.table["loss"] + 1e-12).all()

    def test_empty_yelt(self):
        yelt = YeltTable(ColumnTable(YELT_SCHEMA), n_trials=5)
        out = apply_reinstatement_limit(yelt, 10.0, 1)
        assert out.n_rows == 0

    def test_unsorted_rejected(self):
        table = ColumnTable.from_arrays(
            YELT_SCHEMA, trial=[1, 0], event_id=[1, 1], loss=[1.0, 1.0]
        )
        yelt = YeltTable(table, 2)
        with pytest.raises(ConfigurationError):
            apply_reinstatement_limit(yelt, 10.0, 1)

    @pytest.mark.parametrize("kwargs", [
        dict(occ_limit=0.0, n_reinstatements=1),
        dict(occ_limit=float("inf"), n_reinstatements=1),
        dict(occ_limit=10.0, n_reinstatements=-1),
    ])
    def test_bad_args_rejected(self, kwargs):
        yelt = make_yelt([0], [1], [1.0])
        with pytest.raises(ConfigurationError):
            apply_reinstatement_limit(yelt, **kwargs)


class TestReinstatementPremiums:
    def test_pro_rata(self):
        original = make_yelt([0, 1], [1, 1], [150.0, 20.0], n_trials=2)
        limited = apply_reinstatement_limit(original, occ_limit=100.0,
                                            n_reinstatements=1)
        premiums = reinstatement_premiums(original, limited, occ_limit=100.0,
                                          rate_on_line=0.1,
                                          n_reinstatements=1)
        # trial 0 consumed 50 beyond the first limit -> 0.5 reinstatement
        # at 0.1 * 100 premium per full reinstatement
        np.testing.assert_allclose(premiums, [5.0, 0.0])

    def test_capped_at_n_reinstatements(self):
        original = make_yelt([0, 0, 0], [1, 2, 3], [100.0, 100.0, 100.0],
                             n_trials=1)
        limited = apply_reinstatement_limit(original, occ_limit=100.0,
                                            n_reinstatements=1)
        premiums = reinstatement_premiums(original, limited, 100.0, 0.2, 1)
        # capacity 200 fully used; exactly one reinstatement bought
        np.testing.assert_allclose(premiums, [0.2 * 100.0])

    def test_mismatched_trials_rejected(self):
        a = make_yelt([0], [1], [1.0], n_trials=1)
        b = make_yelt([0], [1], [1.0], n_trials=2)
        with pytest.raises(ConfigurationError):
            reinstatement_premiums(a, b, 10.0, 0.1, 1)


class TestYellt:
    def make_ell(self):
        return ColumnTable.from_arrays(
            ELL_SCHEMA,
            event_id=[1, 1, 2, 5, 5, 5],
            location_id=[10, 11, 10, 20, 21, 22],
            loss=[5.0, 7.0, 3.0, 1.0, 2.0, 4.0],
        )

    def make_yet(self):
        from repro.core.tables import YET_SCHEMA

        table = ColumnTable.from_arrays(
            YET_SCHEMA,
            trial=[0, 0, 2],
            seq=[0, 1, 0],
            event_id=[1, 5, 1],
        )
        return YetTable(table, n_trials=3)

    def test_materialise_row_count(self):
        yellt = materialize_yellt(self.make_yet(), self.make_ell())
        # occurrences: e1 (2 locs), e5 (3 locs), e1 (2 locs) = 7 rows
        assert yellt.n_rows == 7

    def test_losses_joined_correctly(self):
        yellt = materialize_yellt(self.make_yet(), self.make_ell())
        assert yellt.total_loss() == pytest.approx(2 * (5 + 7) + (1 + 2 + 4))

    def test_events_without_locations_skipped(self):
        from repro.core.tables import YET_SCHEMA

        table = ColumnTable.from_arrays(
            YET_SCHEMA, trial=[0], seq=[0], event_id=[99]
        )
        yet = YetTable(table, n_trials=1)
        yellt = materialize_yellt(yet, self.make_ell())
        assert yellt.n_rows == 0

    def test_marginalisation_conserves_loss(self):
        yellt = materialize_yellt(self.make_yet(), self.make_ell())
        yelt = yellt_to_yelt(yellt)
        assert yelt.total_loss() == pytest.approx(yellt.total_loss())

    def test_marginalisation_row_ratio_is_locations_per_event(self):
        yellt = materialize_yellt(self.make_yet(), self.make_ell())
        yelt = yellt_to_yelt(yellt)
        assert yelt.n_rows == 3  # one row per occurrence
        assert yellt.n_rows / yelt.n_rows == pytest.approx(7 / 3)

    def test_max_rows_guard(self):
        with pytest.raises(ConfigurationError, match="max_rows"):
            materialize_yellt(self.make_yet(), self.make_ell(), max_rows=3)

    def test_wrong_schema_rejected(self):
        not_an_ell = ColumnTable.from_arrays(
            YELT_SCHEMA, trial=[0], event_id=[1], loss=[1.0]
        )
        with pytest.raises(ConfigurationError):
            materialize_yellt(self.make_yet(), not_an_ell)

    def test_empty_yellt_marginalises(self):
        from repro.core.yellt import YELLT_SCHEMA

        yellt = YelltTable(ColumnTable(YELLT_SCHEMA), n_trials=2)
        assert yellt_to_yelt(yellt).n_rows == 0

    def test_scaled_ratio_near_configured_locations(self):
        """Statistical version: locations/event drives the ratio (§II)."""
        rng = np.random.default_rng(0)
        n_events, locs_per_event = 50, 12
        ell = ColumnTable.from_arrays(
            ELL_SCHEMA,
            event_id=np.repeat(np.arange(n_events), locs_per_event),
            location_id=np.tile(np.arange(locs_per_event), n_events),
            loss=rng.lognormal(3, 1, n_events * locs_per_event),
        )
        ids = np.arange(n_events, dtype=np.int64)
        yet = YetTable.simulate(ids, np.full(n_events, 1.0), 200, rng,
                                mean_events_per_trial=8.0)
        yellt = materialize_yellt(yet, ell)
        yelt = yellt_to_yelt(yellt)
        # consecutive same-event occurrences in a trial merge into one
        # YELT row, inflating the ratio slightly above locs_per_event
        ratio = yellt.n_rows / yelt.n_rows
        assert locs_per_event <= ratio < locs_per_event * 1.1
