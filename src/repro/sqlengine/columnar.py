"""Columnar batch representation for the columnar execution engine.

A :class:`ColumnBatch` is the unit of data flow on the ``"columnar"``
engine: one :class:`ColumnData` per schema column plus an explicit
*selection vector* — a sorted list of physical row indices that are
logically present.  Filters and hash-join residuals never copy rows;
they produce a new batch sharing the same column objects with a
narrower selection (:meth:`ColumnBatch.with_sel`).

Column representations:

* ``TableColumn`` — one column of a stored table's projection, built
  when a kernel first reads it: a plain value list of the row tuples'
  own objects, whatever the column's type, so nothing is copied or
  re-boxed (``TableColumns.padded`` is the same list behind a NULL slot,
  what hash-join builds over the table read);
* ``ValueColumn`` — plain Python list (stored columns, operator
  intermediates);
* ``SliceColumn`` / ``TakeColumn`` / ``GatherColumn`` — lazy views used
  for scan batching, projections and join output.  They decode (build
  a selection-aligned value list) only when a kernel actually pulls the
  column, which is what gives the engine late materialisation: row
  tuples exist only at ``Project`` output, fragment serialisation and
  the integrator merge boundary.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, List, Optional, Sequence

from .types import Row, Schema


class ColumnData:
    """Base class of all column representations.

    ``values()`` returns the full *physical*-length Python value list
    (``None`` for NULL slots) and caches it on the column object; all
    other accessors are derived views.
    """

    __slots__ = ()

    def values(self) -> List[Any]:
        raise NotImplementedError


class ValueColumn(ColumnData):
    """Plain Python value list (stored columns and operator intermediates)."""

    __slots__ = ("_vals",)

    def __init__(self, values: List[Any]):
        self._vals = values

    def values(self) -> List[Any]:
        return self._vals


class SliceColumn(ColumnData):
    """A contiguous physical window over a parent column.

    Decoding reuses the parent's cached value list (one C-level list
    slice), so scanning a table in batches decodes each table column at
    most once per table version, not once per batch per query.
    """

    __slots__ = ("parent", "start", "stop", "_values")

    def __init__(self, parent: ColumnData, start: int, stop: int):
        self.parent = parent
        self.start = start
        self.stop = stop
        self._values: Optional[List[Any]] = None

    def values(self) -> List[Any]:
        vals = self._values
        if vals is None:
            vals = self._values = self.parent.values()[self.start : self.stop]
        return vals


class TakeColumn(ColumnData):
    """A gather of arbitrary (valid) physical indices from a parent."""

    __slots__ = ("parent", "indices", "_values")

    def __init__(self, parent: ColumnData, indices: List[int]):
        self.parent = parent
        self.indices = indices
        self._values: Optional[List[Any]] = None

    def values(self) -> List[Any]:
        vals = self._values
        if vals is None:
            src = self.parent.values()
            vals = self._values = [src[i] for i in self.indices]
        return vals


class GatherColumn(ColumnData):
    """Lazy join-output column: gathers from a value provider.

    ``provider`` yields the source value list on first use (e.g. a
    hash join's build column, whose slot 0 is the NULL row an outer
    join's padding gathers).
    """

    __slots__ = ("provider", "indices", "_values")

    def __init__(self, provider: Callable[[], List[Any]], indices: List[int]):
        self.provider = provider
        self.indices = indices
        self._values: Optional[List[Any]] = None

    def values(self) -> List[Any]:
        vals = self._values
        if vals is None:
            src = self.provider()
            vals = self._values = list(map(src.__getitem__, self.indices))
        return vals


class ColumnBatch:
    """One batch of columnar data: columns + physical count + selection.

    ``sel`` is either ``None`` (every physical row is selected) or a
    sorted list of physical row indices.  ``len(batch)`` is the
    *logical* row count — what downstream operators and the profiler
    see — while ``n_rows`` is the physical slot count the selection
    indexes into.
    """

    __slots__ = ("cols", "n_rows", "sel", "_selected")

    def __init__(
        self,
        cols: Sequence[ColumnData],
        n_rows: int,
        sel: Optional[List[int]] = None,
    ):
        self.cols = cols
        self.n_rows = n_rows
        self.sel = sel
        self._selected: Optional[List[int]] = None

    def __len__(self) -> int:
        sel = self.sel
        return len(sel) if sel is not None else self.n_rows

    def selected(self) -> List[int]:
        """The selection as an explicit (cached) index list."""
        if self.sel is not None:
            return self.sel
        indices = self._selected
        if indices is None:
            indices = self._selected = list(range(self.n_rows))
        return indices

    def with_sel(self, sel: List[int]) -> "ColumnBatch":
        """Narrow to *sel* (sorted physical indices) — shares columns."""
        return ColumnBatch(self.cols, self.n_rows, sel)

    def first_n(self, count: int) -> "ColumnBatch":
        """The first *count* logical rows (LIMIT support)."""
        return ColumnBatch(self.cols, self.n_rows, self.selected()[:count])

    def column_values(self, idx: int) -> List[Any]:
        """Column *idx* decoded and aligned to the selection.

        With no selection this is the column's (shared, cached) physical
        value list — callers must treat it as read-only.
        """
        vals = self.cols[idx].values()
        sel = self.sel
        if sel is None:
            return vals
        return [vals[i] for i in sel]

    def materialize(self) -> List[Row]:
        """Build row tuples — the late-materialisation boundary."""
        n = len(self)
        if not self.cols:
            return [()] * n
        return list(zip(*(self.column_values(j) for j in range(len(self.cols)))))

    @staticmethod
    def from_rows(rows: Sequence[Row], width: int) -> "ColumnBatch":
        """Transpose a row batch (adapter boundary for non-native ops)."""
        n = len(rows)
        if width == 0 or n == 0:
            return ColumnBatch((), n, None)
        return ColumnBatch(
            tuple(ValueColumn(list(col)) for col in zip(*rows)), n, None
        )


class TableColumn(ColumnData):
    """One column of a heap table's projection, built on first access.

    A query pays — in time and in resident memory — only for the table
    columns its kernels actually read, and each of those holds exactly
    one copy of the column: the list of the row tuples' own value
    objects.
    """

    __slots__ = ("_rows", "_idx", "_col")

    def __init__(self, rows: Sequence[Row], idx: int):
        self._rows = rows
        self._idx = idx
        self._col: Optional[ValueColumn] = None

    def _built(self) -> ValueColumn:
        col = self._col
        if col is None:
            idx = self._idx
            col = self._col = ValueColumn([row[idx] for row in self._rows])
        return col

    def values(self) -> List[Any]:
        return self._built().values()


class TableColumns:
    """The columnar projection of one heap table (all physical rows)."""

    __slots__ = ("cols", "n_rows", "_rows", "_padded")

    def __init__(self, rows: Sequence[Row], schema: Schema):
        self.cols = tuple(
            TableColumn(rows, idx) for idx in range(len(schema.columns))
        )
        self.n_rows = len(rows)
        self._rows = rows
        self._padded: List[Optional[List[Any]]] = [None] * len(self.cols)

    def batch(self, start: int, stop: int) -> ColumnBatch:
        """A zero-copy slice batch over rows [start, stop)."""
        return ColumnBatch(
            tuple(SliceColumn(col, start, stop) for col in self.cols),
            stop - start,
            None,
        )

    def padded(self, idx: int) -> List[Any]:
        """Column *idx* behind one NULL slot (row *i* at *i* + 1): the
        build column of every hash-join build over this version, built on
        first use (``spine._Build``)."""
        vals = self._padded[idx]
        if vals is None:
            vals = self._padded[idx] = [None]
            vals += map(itemgetter(idx), self._rows)
        return vals
