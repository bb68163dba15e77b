"""Property-based tests for the extension modules.

Reinstatement idempotence and monotonicity, compression round-trips on
adversarial tables, CSV round-trips, co-TVaR full allocation.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.reinstatements import apply_reinstatement_limit
from repro.core.tables import YELT_SCHEMA, YeltTable, YltTable
from repro.data.columnar import ColumnTable
from repro.data.compression import pack_table_compressed, unpack_table_compressed
from repro.data.csv_io import table_from_csv_text, table_to_csv_text
from repro.data.schema import Schema
from repro.dfa.allocation import co_tvar_allocation
from repro.dfa.metrics import tail_value_at_risk


@st.composite
def yelts(draw):
    n_trials = draw(st.integers(1, 20))
    n_rows = draw(st.integers(0, 120))
    trials = np.sort(draw(hnp.arrays(
        np.int64, n_rows, elements=st.integers(0, n_trials - 1)
    )))
    events = draw(hnp.arrays(np.int64, n_rows, elements=st.integers(0, 50)))
    losses = draw(hnp.arrays(
        np.float64, n_rows,
        elements=st.floats(0.0, 1e6, allow_nan=False),
    ))
    table = ColumnTable.from_arrays(
        YELT_SCHEMA, trial=trials, event_id=events, loss=losses
    )
    return YeltTable(table, n_trials)


class TestReinstatementProperties:
    @settings(max_examples=50)
    @given(yelt=yelts(), occ_limit=st.floats(1.0, 1e5),
           n=st.integers(0, 4))
    def test_idempotent(self, yelt, occ_limit, n):
        """Exactly idempotent by construction — each trial's running sum
        restarts at zero, so a second pass re-adds the same prefixes in
        the same order — and the tolerance does not scale with the limit.
        The bound stays as a float comparison; the deterministic case
        below asserts the exact equality."""
        once = apply_reinstatement_limit(yelt, occ_limit, n)
        twice = apply_reinstatement_limit(once, occ_limit, n)
        np.testing.assert_allclose(
            twice.table["loss"], once.table["loss"], rtol=1e-12, atol=1e-9
        )

    def test_large_earlier_trials_leave_a_trial_alone(self):
        """A trial's recoveries are its own: huge earlier trials (where a
        global running sum has an ulp of 2) change nothing in it, and a
        second application changes nothing at all."""
        small = [0.1, 0.2, 0.3, 0.7]
        big = [3e15, 4e15, 5e15]

        def yelt(rows):
            trials = np.array([t for t, _ in rows], dtype=np.int64)
            losses = np.array([x for _, x in rows])
            return YeltTable(ColumnTable.from_arrays(
                YELT_SCHEMA, trial=trials,
                event_id=np.arange(trials.size, dtype=np.int64),
                loss=losses), 3)

        alone = apply_reinstatement_limit(
            yelt([(2, x) for x in small]), 0.175, 1).table["loss"]
        after = yelt([(0, x) for x in big] + [(1, x) for x in big]
                     + [(2, x) for x in small])
        once = apply_reinstatement_limit(after, 0.175, 1)
        twice = apply_reinstatement_limit(once, 0.175, 1)
        np.testing.assert_array_equal(once.table["loss"][6:], alone)
        np.testing.assert_array_equal(twice.table["loss"],
                                      once.table["loss"])
        np.testing.assert_allclose(alone, [0.1, 0.2, 0.05, 0.0],
                                   rtol=0, atol=1e-15)
        np.testing.assert_array_equal(once.table["loss"][:6],
                                      [0.35, 0, 0, 0.35, 0, 0])

    @settings(max_examples=50)
    @given(yelt=yelts(), occ_limit=st.floats(1.0, 1e5),
           n=st.integers(0, 4))
    def test_annual_cap_and_row_bounds(self, yelt, occ_limit, n):
        out = apply_reinstatement_limit(yelt, occ_limit, n)
        assert (out.table["loss"] <= yelt.table["loss"] + 1e-9).all()
        assert (out.table["loss"] >= -1e-12).all()
        annual = out.to_ylt().losses
        assert (annual <= (1 + n) * occ_limit * (1 + 1e-12) + 1e-6).all()

    @settings(max_examples=50)
    @given(yelt=yelts(), occ_limit=st.floats(1.0, 1e5),
           n_small=st.integers(0, 2), n_extra=st.integers(1, 3))
    def test_monotone_in_reinstatements(self, yelt, occ_limit, n_small, n_extra):
        """More reinstatements never reduce any year's recovery."""
        small = apply_reinstatement_limit(yelt, occ_limit, n_small)
        big = apply_reinstatement_limit(yelt, occ_limit, n_small + n_extra)
        assert (big.to_ylt().losses >= small.to_ylt().losses - 1e-9).all()


MIXED = Schema([("a", np.int64), ("b", np.int32), ("c", np.float64)])


@st.composite
def mixed_tables(draw):
    n = draw(st.integers(0, 100))
    return ColumnTable.from_arrays(
        MIXED,
        a=draw(hnp.arrays(np.int64, n, elements=st.integers(-2**40, 2**40))),
        b=draw(hnp.arrays(np.int32, n, elements=st.integers(-2**20, 2**20))),
        c=draw(hnp.arrays(np.float64, n,
                          elements=st.floats(-1e12, 1e12, allow_nan=False))),
    )


class TestCompressionProperties:
    @settings(max_examples=50)
    @given(t=mixed_tables())
    def test_lossless_roundtrip(self, t):
        assert unpack_table_compressed(pack_table_compressed(t)).equals(t)


class TestCsvProperties:
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    @given(t=mixed_tables())
    def test_roundtrip(self, t):
        back = table_from_csv_text(table_to_csv_text(t), MIXED)
        assert back.equals(t)


class TestAllocationProperties:
    @settings(max_examples=30)
    @given(
        k=st.integers(1, 5),
        n=st.integers(8, 200),
        seed=st.integers(0, 2**31 - 1),
        q=st.floats(0.0, 0.95),
    )
    def test_full_allocation(self, k, n, seed, q):
        rng = np.random.default_rng(seed)
        units = {f"u{i}": YltTable(rng.lognormal(5, 1, n)) for i in range(k)}
        alloc = co_tvar_allocation(units, q)
        total = YltTable(np.sum([u.losses for u in units.values()], axis=0))
        expect = tail_value_at_risk(total, q)
        np.testing.assert_allclose(sum(alloc.values()), expect, rtol=1e-9)
