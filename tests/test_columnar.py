"""Tests for the columnar table."""

import numpy as np
import pytest

from repro.data.columnar import ColumnTable
from repro.data.schema import Schema
from repro.errors import SchemaError

S = Schema([("k", np.int64), ("v", np.float64)])


def make(k, v):
    return ColumnTable.from_arrays(S, k=k, v=v)


class TestConstruction:
    def test_empty(self):
        t = ColumnTable(S)
        assert t.n_rows == 0 and len(t) == 0

    def test_from_arrays_coerces(self):
        t = make([1, 2], [1.5, 2.5])
        assert t["k"].dtype == np.int64

    def test_from_arrays_refuses_a_fraction(self):
        with pytest.raises(SchemaError, match="'k'"):
            make(np.array([1.0, 2.2]), [1.0, 2.0])
        with pytest.raises(SchemaError, match="'k'"):
            make(np.array([1.0, np.nan]), [1.0, 2.0])
        # whole floats keep their value
        assert make(np.array([1.0, 2.0]), [1.0, 2.0])["k"].tolist() == [1, 2]

    def test_from_arrays_refuses_an_int_outside_the_range(self):
        narrow = Schema([("k", np.int32)])
        for wide in (np.array([0, 2**31]), np.array([0, -2**31 - 1]),
                     np.array([2**63], dtype=np.uint64)):
            with pytest.raises(SchemaError, match="'k'"):
                ColumnTable.from_arrays(narrow, k=wide)
        with pytest.raises(SchemaError, match="'k'"):
            make(np.array([2**63], dtype=np.uint64), [1.0])
        bounds = np.array([-2**31, 2**31 - 1])
        assert ColumnTable.from_arrays(narrow, k=bounds)["k"].tolist() == (
            bounds.tolist())

    def test_from_arrays_narrowing_of_a_yet_raises_not_wraps(self):
        """``seq = 2**32 + 1`` used to be stored as 1 and ``event_id =
        1.7`` as 1, and ``YetTable`` accepted the result."""
        from repro.core.tables import YET_SCHEMA
        with pytest.raises(SchemaError, match="'seq'"):
            ColumnTable.from_arrays(YET_SCHEMA, trial=[0, 0],
                                    seq=np.array([0, 2**32 + 1]),
                                    event_id=np.array([1, 2]))
        with pytest.raises(SchemaError, match="'event_id'"):
            ColumnTable.from_arrays(YET_SCHEMA, trial=[0, 0], seq=[0, 1],
                                    event_id=np.array([1.7, 2.2]))

    def test_same_dtype_is_not_copied(self):
        k = np.array([1, 2], dtype=np.int64)
        assert make(k, [1.0, 2.0])["k"] is k

    def test_missing_column_rejected(self):
        with pytest.raises(SchemaError):
            ColumnTable.from_arrays(S, k=[1])

    def test_extra_column_rejected(self):
        with pytest.raises(SchemaError):
            ColumnTable.from_arrays(S, k=[1], v=[1.0], z=[2])

    def test_nbytes(self):
        t = make([1, 2, 3], [1.0, 2.0, 3.0])
        assert t.nbytes == 3 * 16


class TestAccess:
    def test_unknown_column_rejected(self):
        with pytest.raises(SchemaError):
            make([1], [1.0]).column("zzz")

    def test_row_materialisation(self):
        t = make([5, 6], [1.0, 2.0])
        assert t.row(1) == {"k": 6, "v": 2.0}

    def test_row_out_of_range(self):
        with pytest.raises(IndexError):
            make([1], [1.0]).row(5)


class TestOps:
    def test_select(self):
        t = make([1, 2], [3.0, 4.0]).select(["v"])
        assert t.schema.names == ("v",)

    def test_take(self):
        t = make([1, 2, 3], [1.0, 2.0, 3.0]).take([2, 0])
        np.testing.assert_array_equal(t["k"], [3, 1])

    def test_slice_is_view(self):
        base = make([1, 2, 3], [1.0, 2.0, 3.0])
        s = base.slice(1, 3)
        assert s.n_rows == 2
        # zero-copy: the slice shares memory with the base table
        assert np.shares_memory(s["k"], base["k"])

    def test_filter(self):
        t = make([1, 2, 3], [1.0, 2.0, 3.0]).filter(np.array([True, False, True]))
        np.testing.assert_array_equal(t["k"], [1, 3])

    def test_filter_wrong_shape_rejected(self):
        with pytest.raises(SchemaError):
            make([1, 2], [1.0, 2.0]).filter(np.array([True]))

    def test_where(self):
        t = make([1, 2, 3], [1.0, 2.0, 3.0]).where(lambda tb: tb["k"] > 1)
        assert t.n_rows == 2

    def test_sort_by(self):
        t = make([3, 1, 2], [1.0, 2.0, 3.0]).sort_by("k")
        np.testing.assert_array_equal(t["k"], [1, 2, 3])

    def test_concat(self):
        t = ColumnTable.concat([make([1], [1.0]), make([2], [2.0])])
        assert t.n_rows == 2

    def test_concat_schema_mismatch_rejected(self):
        other = ColumnTable.from_arrays(Schema([("k", np.int64)]), k=[1])
        with pytest.raises(SchemaError):
            ColumnTable.concat([make([1], [1.0]), other])

    def test_concat_empty_list_rejected(self):
        with pytest.raises(SchemaError):
            ColumnTable.concat([])

    def test_append(self):
        t = make([1], [1.0]).append(make([2], [2.0]))
        np.testing.assert_array_equal(t["k"], [1, 2])


class TestGroupbySum:
    def test_dense_keys(self):
        t = make([0, 1, 0, 2, 1], [1.0, 2.0, 3.0, 4.0, 5.0])
        g = t.groupby_sum("k", "v")
        assert dict(zip(g["k"].tolist(), g["v"].tolist())) == {0: 4.0, 1: 7.0, 2: 4.0}

    def test_sparse_keys_fall_back_to_sort(self):
        t = make([10**12, 5, 10**12], [1.0, 2.0, 3.0])
        g = t.groupby_sum("k", "v")
        assert dict(zip(g["k"].tolist(), g["v"].tolist())) == {5: 2.0, 10**12: 4.0}

    def test_empty_table(self):
        g = ColumnTable(S).groupby_sum("k", "v")
        assert g.n_rows == 0

    def test_conserves_total(self):
        rng = np.random.default_rng(0)
        t = make(rng.integers(0, 50, 1000), rng.random(1000))
        g = t.groupby_sum("k", "v")
        assert g["v"].sum() == pytest.approx(t["v"].sum())

    def test_float_key_rejected(self):
        with pytest.raises(SchemaError):
            make([1], [1.0]).groupby_sum("v", "k")

    def test_negative_keys_ok(self):
        t = make([-5, -5, 3], [1.0, 2.0, 3.0])
        g = t.groupby_sum("k", "v")
        assert dict(zip(g["k"].tolist(), g["v"].tolist())) == {-5: 3.0, 3: 3.0}


class TestStructRoundtrip:
    def test_roundtrip(self):
        t = make([1, 2], [3.0, 4.0])
        back = ColumnTable.from_struct_array(S, t.to_struct_array())
        assert back.equals(t)

    def test_equals_tolerance(self):
        a = make([1], [1.0])
        b = make([1], [1.0 + 1e-12])
        assert not a.equals(b)
        assert a.equals(b, rtol=1e-9)
