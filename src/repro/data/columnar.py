"""In-memory columnar tables.

The pipeline's tables (ELT, YET, YELT, YLT) are "a small number of very
large tables" (§II) that are written once and scanned many times.  A
:class:`ColumnTable` stores each field as a contiguous NumPy array, which
is exactly the layout the accumulated-large-memory strategy of the paper
wants: streaming a column touches memory sequentially, and whole-column
vector operations map onto the simulated GPU engine without copying.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.data.schema import Schema
from repro.errors import SchemaError

__all__ = ["ColumnTable", "cast_lossless"]


def cast_lossless(values, dtype, name: str) -> np.ndarray:
    """``values`` as an array of ``dtype``, refusing a cast into an
    integer dtype that would change a value.

    A same-dtype array, or one ``dtype`` holds every value of (int32 into
    int64), passes unchecked; any other cast into an integer dtype is
    compared back against its source, and a float with a fraction (or a
    NaN) or an integer outside ``dtype``'s range raises
    :class:`~repro.errors.SchemaError` naming column ``name``.
    """
    arr = np.asarray(values)
    dtype = np.dtype(dtype)
    if (arr.dtype == dtype or dtype.kind not in "iu"
            or arr.dtype.kind not in "biuf"
            or np.can_cast(arr.dtype, dtype, "safe")):
        return arr.astype(dtype, copy=False)
    with np.errstate(invalid="ignore"):
        out = arr.astype(dtype)
    if not np.array_equal(out, arr):
        raise SchemaError(f"column {name!r}: values do not fit {dtype} "
                          f"(a fraction, or outside its range)")
    return out


class ColumnTable:
    """An immutable-schema, append-only column-oriented table.

    Parameters
    ----------
    schema:
        The table's :class:`~repro.data.schema.Schema`.
    columns:
        Optional initial columns; must match the schema exactly.
    """

    __slots__ = ("_schema", "_columns", "_n_rows")

    def __init__(self, schema: Schema, columns: Mapping[str, np.ndarray] | None = None):
        self._schema = schema
        if columns is None:
            columns = schema.empty_columns(0)
        cols = {name: np.ascontiguousarray(arr) for name, arr in columns.items()}
        self._n_rows = schema.validate_columns(cols)
        self._columns = cols

    # -- construction -----------------------------------------------------

    @classmethod
    def from_arrays(cls, schema: Schema, **arrays) -> "ColumnTable":
        """Build a table from keyword arrays, coercing dtypes per schema.

        A coercion into an integer column must keep every value: a float
        with a fraction, or an integer outside the column's range, raises
        :class:`~repro.errors.SchemaError` instead of being truncated or
        wrapped (see :func:`cast_lossless`).
        """
        cols = {}
        for f in schema:
            if f.name not in arrays:
                raise SchemaError(f"missing column {f.name!r}")
            cols[f.name] = cast_lossless(arrays[f.name], f.dtype, f.name)
        extra = set(arrays) - set(schema.names)
        if extra:
            raise SchemaError(f"unexpected columns: {sorted(extra)}")
        return cls(schema, cols)

    @classmethod
    def concat(cls, tables: Sequence["ColumnTable"]) -> "ColumnTable":
        """Concatenate tables sharing one schema (order preserved)."""
        if not tables:
            raise SchemaError("cannot concat an empty list of tables")
        schema = tables[0].schema
        for t in tables[1:]:
            if t.schema != schema:
                raise SchemaError("cannot concat tables with different schemas")
        cols = {
            name: np.concatenate([t._columns[name] for t in tables])
            for name in schema.names
        }
        return cls(schema, cols)

    # -- basic accessors ---------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def n_rows(self) -> int:
        return self._n_rows

    def __len__(self) -> int:
        return self._n_rows

    @property
    def nbytes(self) -> int:
        """Actual payload bytes held by the column arrays."""
        return sum(c.nbytes for c in self._columns.values())

    def column(self, name: str) -> np.ndarray:
        """Return the column array (a live view — treat as read-only)."""
        try:
            return self._columns[name]
        except KeyError:
            raise SchemaError(f"no column {name!r}; have {self._schema.names}") from None

    def __getitem__(self, name: str) -> np.ndarray:
        return self.column(name)

    def row(self, i: int) -> dict[str, object]:
        """Materialise row ``i`` as a dict (slow path, for tests/debug)."""
        if not (-self._n_rows <= i < self._n_rows):
            raise IndexError(f"row {i} out of range for {self._n_rows} rows")
        return {name: col[i].item() for name, col in self._columns.items()}

    # -- relational-ish operations ----------------------------------------

    def select(self, names: Sequence[str]) -> "ColumnTable":
        """Project onto a subset of columns."""
        sub_schema = Schema([self._schema[n] for n in names])
        return ColumnTable(sub_schema, {n: self._columns[n] for n in names})

    def take(self, indices) -> "ColumnTable":
        """Gather rows by integer index array."""
        idx = np.asarray(indices)
        return ColumnTable(
            self._schema, {n: c[idx] for n, c in self._columns.items()}
        )

    def slice(self, start: int, stop: int) -> "ColumnTable":
        """Zero-copy contiguous row range ``[start, stop)``."""
        return ColumnTable(
            self._schema, {n: c[start:stop] for n, c in self._columns.items()}
        )

    def filter(self, mask) -> "ColumnTable":
        """Keep rows where the boolean ``mask`` is true."""
        m = np.asarray(mask, dtype=bool)
        if m.shape != (self._n_rows,):
            raise SchemaError(f"mask shape {m.shape} != ({self._n_rows},)")
        return ColumnTable(self._schema, {n: c[m] for n, c in self._columns.items()})

    def where(self, predicate: Callable[["ColumnTable"], np.ndarray]) -> "ColumnTable":
        """Filter with a predicate over the whole table (vectorised)."""
        return self.filter(predicate(self))

    def sort_by(self, name: str, *more: str) -> "ColumnTable":
        """Stable sort by one or more columns (last key is primary)."""
        keys = [self._columns[k] for k in (name, *more)]
        order = np.lexsort(tuple(keys))
        return self.take(order)

    def append(self, other: "ColumnTable") -> "ColumnTable":
        """Return a new table with ``other``'s rows appended."""
        return ColumnTable.concat([self, other])

    def groupby_sum(self, key: str, value: str) -> "ColumnTable":
        """Group by integer column ``key`` and sum ``value``.

        This is the workhorse of the pipeline's aggregations (YELT → YLT is
        exactly ``groupby_sum("trial", "loss")``).  Implemented with
        ``np.bincount`` when keys are dense non-negative ints, falling back
        to sort-based reduction otherwise.
        """
        keys = self._columns[key]
        values = self._columns[value].astype(np.float64, copy=False)
        if not np.issubdtype(keys.dtype, np.integer):
            raise SchemaError(f"groupby key {key!r} must be an integer column")
        out_schema = Schema([(key, keys.dtype), (value, np.float64)])
        if keys.size == 0:
            return ColumnTable(out_schema)
        kmin = int(keys.min())
        kmax = int(keys.max())
        span = kmax - kmin + 1
        if span <= max(4 * keys.size, 1024):
            sums = np.bincount(keys - kmin, weights=values, minlength=span)
            uniq = np.nonzero(np.bincount(keys - kmin, minlength=span))[0]
            return ColumnTable.from_arrays(
                out_schema, **{key: uniq + kmin, value: sums[uniq]}
            )
        order = np.argsort(keys, kind="stable")
        sk, sv = keys[order], values[order]
        boundaries = np.nonzero(np.diff(sk))[0] + 1
        starts = np.concatenate(([0], boundaries))
        uniq = sk[starts]
        sums = np.add.reduceat(sv, starts)
        return ColumnTable.from_arrays(out_schema, **{key: uniq, value: sums})

    def to_struct_array(self) -> np.ndarray:
        """Materialise as a packed structured array (row-wise layout)."""
        out = np.empty(self._n_rows, dtype=self._schema.to_struct_dtype())
        for name, col in self._columns.items():
            out[name] = col
        return out

    @classmethod
    def from_struct_array(cls, schema: Schema, arr: np.ndarray) -> "ColumnTable":
        """Inverse of :meth:`to_struct_array`."""
        cols = {f.name: np.ascontiguousarray(arr[f.name]) for f in schema}
        return cls(schema, cols)

    def equals(self, other: "ColumnTable", rtol: float = 0.0, atol: float = 0.0) -> bool:
        """Exact (or toleranced, for float columns) row-wise equality."""
        if self._schema != other._schema or self._n_rows != other._n_rows:
            return False
        for f in self._schema:
            a, b = self._columns[f.name], other._columns[f.name]
            if np.issubdtype(f.dtype, np.floating) and (rtol or atol):
                if not np.allclose(a, b, rtol=rtol, atol=atol):
                    return False
            elif not np.array_equal(a, b):
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ColumnTable({self._schema!r}, n_rows={self._n_rows})"
