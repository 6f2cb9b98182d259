"""Result containers: STwig result tables and final match results.

The answer is an array until someone asks for Python objects.
:class:`MatchTable` is a *columnar* relation — all rows live in one 2-D
``NODE_DTYPE`` array, so exploration, the join and the result hand-off run
as numpy kernels — and :class:`MatchResult` is the same array plus the
query's metadata.  ``to_array()`` (and ``MatchResult.external_array()``)
are the primary accessors; ``rows`` / ``external_rows()`` / ``as_dicts()``
convert that array to Python objects on every call, column by column
(:func:`rows_as_tuples`), and keep nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple, Union

import numpy as np

from repro.errors import ExecutionError
from repro.graph.labeled_graph import NODE_DTYPE
from repro.utils.arrays import fast_unique

#: Rows accepted by the constructor / ``add_rows``: tuples or a 2-D array.
RowsLike = Union[Iterable[Tuple[int, ...]], np.ndarray]


def rows_as_tuples(array: np.ndarray) -> List[tuple]:
    """An ``(n, width)`` array as a list of ``n`` tuples of Python scalars.

    Built column-wise — one ``tolist`` per column, then one ``zip`` — which
    allocates ``width`` intermediate lists instead of one per row.
    """
    if array.shape[1] == 0:
        return [()] * len(array)
    return list(zip(*[array[:, index].tolist() for index in range(array.shape[1])]))


class MatchTable:
    """A relation over query nodes: columns are query-node names, rows are data-node IDs.

    Used both for per-STwig intermediate results (``G_k(q_i)``) and for the
    final answer relation.

    Storage is columnar: one ``(row_count, width)`` ``NODE_DTYPE`` array
    with amortized-doubling appends.  ``to_array`` / ``column_array`` expose
    zero-copy views for vectorized consumers; ``rows`` converts the array to
    a list of Python-int tuples on every read.
    Tables follow bag semantics — no operation deduplicates rows except
    :meth:`project`, which is a true relational projection.
    """

    __slots__ = ("columns", "_data", "_size")

    def __init__(self, columns: Tuple[str, ...], rows: RowsLike = ()) -> None:
        self.columns: Tuple[str, ...] = tuple(columns)
        if len(set(self.columns)) != len(self.columns):
            raise ExecutionError(f"duplicate columns in match table: {self.columns}")
        self._data = np.empty((0, len(self.columns)), dtype=NODE_DTYPE)
        self._size = 0
        if isinstance(rows, np.ndarray):
            self.add_rows(rows)
        else:
            rows = list(rows)
            if rows:
                self.add_rows(rows)

    @classmethod
    def from_array(cls, columns: Tuple[str, ...], data: np.ndarray) -> "MatchTable":
        """Wrap an existing ``(n, width)`` ``NODE_DTYPE`` array without copying.

        The caller cedes ownership of ``data``; the table may later detach
        from it on growth.  This is the zero-copy constructor used by the
        vectorized join kernels.
        """
        table = cls(columns)
        data = np.asarray(data, dtype=NODE_DTYPE)
        if data.ndim != 2 or data.shape[1] != len(table.columns):
            raise ExecutionError(
                f"array shape {data.shape} does not match columns {table.columns}"
            )
        table._data = data
        table._size = len(data)
        return table

    # -- shape -------------------------------------------------------------

    @property
    def row_count(self) -> int:
        """Number of rows."""
        return self._size

    @property
    def width(self) -> int:
        """Number of columns."""
        return len(self.columns)

    # -- row access ----------------------------------------------------------

    @property
    def rows(self) -> List[Tuple[int, ...]]:
        """Rows as a new list of Python-int tuples, converted on every read."""
        return rows_as_tuples(self.to_array())

    def to_array(self) -> np.ndarray:
        """The live ``(row_count, width)`` data array (zero-copy view)."""
        return self._data[: self._size]

    def column_array(self, column: str) -> np.ndarray:
        """Zero-copy view of one column (valid until the table is mutated)."""
        return self._data[: self._size, self.column_index(column)]

    # -- mutation ----------------------------------------------------------

    def add_rows(self, rows: RowsLike) -> None:
        """Append many rows at once: a list of tuples or a ``(n, width)`` array."""
        if isinstance(rows, np.ndarray):
            block = np.asarray(rows, dtype=NODE_DTYPE)
            if block.ndim != 2 or block.shape[1] != self.width:
                raise ExecutionError(
                    f"row block shape {block.shape} does not match {self.width} columns"
                )
        else:
            rows = list(rows)
            if not rows:
                return
            width = self.width
            if any(len(row) != width for row in rows):
                raise ExecutionError(f"row width mismatch: expected {width} columns")
            block = np.array(rows, dtype=NODE_DTYPE).reshape(len(rows), width)
        count = len(block)
        if count == 0:
            return
        self._reserve(count)
        self._data[self._size : self._size + count] = block
        self._size += count

    def truncate(self, row_limit: int) -> None:
        """Drop all rows past ``row_limit`` (no-op when already smaller)."""
        if row_limit < self._size:
            self._size = max(0, row_limit)

    def _reserve(self, extra: int) -> None:
        needed = self._size + extra
        capacity = len(self._data)
        if needed <= capacity:
            return
        grown = np.empty((max(needed, 2 * capacity, 8), self.width), dtype=NODE_DTYPE)
        grown[: self._size] = self._data[: self._size]
        self._data = grown

    # -- columns -----------------------------------------------------------

    def column_index(self, column: str) -> int:
        """Index of ``column`` within the rows."""
        try:
            return self.columns.index(column)
        except ValueError:
            raise ExecutionError(f"column {column!r} not in table {self.columns}") from None

    def column_values(self, column: str) -> set:
        """Distinct values appearing in ``column`` (as a set of Python ints)."""
        return set(self.column_distinct(column).tolist())

    def column_distinct(self, column: str) -> np.ndarray:
        """Distinct values appearing in ``column`` as a sorted array."""
        return fast_unique(self.column_array(column))

    def as_dicts(self) -> List[Dict[str, int]]:
        """Rows as dictionaries keyed by query-node name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    # -- relational operations ---------------------------------------------

    def project(self, columns: Sequence[str]) -> "MatchTable":
        """True projection onto ``columns``: duplicates dropped, first-seen order."""
        columns = tuple(columns)
        indices = [self.column_index(c) for c in columns]
        if self._size == 0:
            return MatchTable(columns)
        if not indices:
            # Zero-width projection of a non-empty table is the single empty row.
            return MatchTable.from_array(columns, np.empty((1, 0), dtype=NODE_DTYPE))
        data = self._data[: self._size, indices]
        _, first_seen = np.unique(data, axis=0, return_index=True)
        first_seen.sort()
        return MatchTable.from_array(columns, data[first_seen])

    def reorder(self, columns: Sequence[str]) -> "MatchTable":
        """Same rows with columns permuted into ``columns`` — **no dedup**.

        Unlike :meth:`project` this preserves bag semantics (and row count),
        so it is safe on paths that later apply row limits.  ``columns``
        must be a permutation of the table's columns.
        """
        columns = tuple(columns)
        if set(columns) != set(self.columns) or len(columns) != len(self.columns):
            raise ExecutionError(
                f"reorder target {columns} is not a permutation of {self.columns}"
            )
        if columns == self.columns:
            return MatchTable.from_array(columns, self.to_array())
        indices = [self.column_index(c) for c in columns]
        return MatchTable.from_array(columns, self._data[: self._size, indices])

    def union(self, other: "MatchTable") -> "MatchTable":
        """Union of two tables with identical columns (bag union, no dedup)."""
        if self.columns != other.columns:
            raise ExecutionError(
                f"cannot union tables with columns {self.columns} and {other.columns}"
            )
        return MatchTable.from_array(
            self.columns, np.concatenate([self.to_array(), other.to_array()], axis=0)
        )

    def slice_rows(self, start: int, stop: int) -> "MatchTable":
        """Zero-copy view table over rows ``[start, stop)`` (for block pipelining)."""
        return MatchTable.from_array(self.columns, self.to_array()[start:stop])

    def copy(self) -> "MatchTable":
        """Independent copy (own data buffer)."""
        return MatchTable.from_array(self.columns, self.to_array().copy())

    # -- dunder ------------------------------------------------------------

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        return iter(self.rows)

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        return f"MatchTable(columns={self.columns}, rows={self.row_count})"


@dataclass
class StageStats:
    """Per-stage accounting of one query execution.

    ``plan_cache_hit`` says whether *this* query's plan came out of the
    planner's plan cache (its decomposition and join order were memoized by
    query fingerprint); ``plan_cache_hits``/``plan_cache_misses`` are the
    planner's cumulative counters as of the end of this query.

    ``join_rows_materialized`` is the total row count the join phase
    assembled into stage buffers across all machines, and
    ``join_peak_intermediate_rows`` the largest single materialization any
    machine performed — on a limited query the streaming budgeted join
    keeps the peak O(limit + chunk) instead of O(total matches).
    """

    decomposition_seconds: float = 0.0
    exploration_seconds: float = 0.0
    join_seconds: float = 0.0
    stwig_count: int = 0
    stwig_result_rows: int = 0
    head_stwig_root: str | None = None
    truncated: bool = False
    plan_cache_hit: bool = False
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    join_rows_materialized: int = 0
    join_peak_intermediate_rows: int = 0


class MatchResult:
    """The answer to one subgraph matching query plus execution metadata.

    The answer is one ``(match_count, width)`` ``NODE_DTYPE`` array, held
    behind a :class:`~repro.core.tasks.TableHandle` (a result whose table
    still lives in shared memory is copied out on the first read, not
    before).  :meth:`to_array` and :meth:`external_array` hand that array
    out as it is; :attr:`rows`, :meth:`external_rows` and :meth:`as_dicts`
    convert it to Python objects — a new list on every call, nothing kept —
    for callers who want tuples or dicts.  :attr:`match_count` and
    :attr:`columns` never touch the data.

    The array always holds the engine's internal (dense) node IDs.  For a
    graph that came through the ingestion layer, ``id_map`` carries the
    external<->dense bijection and the ``external_*`` accessors (and
    :meth:`as_dicts`) translate back to the caller's original IDs with one
    vectorized gather over the final array, never per intermediate row.
    """

    def __init__(
        self,
        query_nodes: Tuple[str, ...],
        matches: MatchTable | None = None,
        wall_seconds: float = 0.0,
        simulated_seconds: float = 0.0,
        metrics: Dict[str, int] | None = None,
        stats: StageStats | None = None,
        id_map: object | None = None,
        table=None,
    ) -> None:
        if (matches is None) == (table is None):
            raise ValueError("MatchResult takes exactly one of matches= or table=")
        if table is None:
            # Deferred import: repro.core.tasks imports MatchTable from here.
            from repro.core.tasks import TableHandle

            table = TableHandle.from_table(matches)
        self.query_nodes = tuple(query_nodes)
        self.wall_seconds = wall_seconds
        self.simulated_seconds = simulated_seconds
        self.metrics: Dict[str, int] = {} if metrics is None else metrics
        self.stats: StageStats = StageStats() if stats is None else stats
        self.id_map = id_map
        self._handle = table
        self._materialized: MatchTable | None = None

    @property
    def table(self):
        """The :class:`~repro.core.tasks.TableHandle` backing this result."""
        return self._handle

    def _gathered(self) -> MatchTable:
        """The handle's table, copied out of published storage at most once."""
        if self._materialized is None:
            self._materialized = self._handle.materialize()
        return self._materialized

    @property
    def columns(self) -> Tuple[str, ...]:
        """Result column order (the query nodes, sorted)."""
        return self._handle.columns

    @property
    def match_count(self) -> int:
        """Number of matches found (possibly truncated by a result limit)."""
        return self._handle.row_count

    def to_array(self) -> np.ndarray:
        """Matches as a ``(match_count, width)`` array of internal IDs."""
        return self._gathered().to_array()

    def external_array(self) -> np.ndarray:
        """:meth:`to_array` in the caller's original (external) node IDs.

        One :meth:`~repro.ingest.idmap.IdMap.to_external` gather over the
        2-D array (an array of strings for a string-ID dataset); the dense
        array itself when no :attr:`id_map` is attached or the map is the
        identity.
        """
        dense = self.to_array()
        if self.id_map is None or self.id_map.is_identity:
            return dense
        return self.id_map.to_external(dense)

    @property
    def rows(self) -> List[Tuple[int, ...]]:
        """Match rows (internal IDs) as a new list of Python-int tuples."""
        return rows_as_tuples(self.to_array())

    def external_rows(self) -> List[Tuple]:
        """:meth:`external_array` as a new list of tuples of Python scalars."""
        return rows_as_tuples(self.external_array())

    def as_dicts(self) -> List[Dict[str, int]]:
        """Matches as dictionaries keyed by query-node name.

        Values are external IDs when the result carries an :attr:`id_map`.
        """
        return [dict(zip(self.columns, row)) for row in self.external_rows()]

    def assignments(self) -> List[Dict[str, int]]:
        """Alias of :meth:`as_dicts` (query node -> data node)."""
        return self.as_dicts()

    def __repr__(self) -> str:
        return (
            f"MatchResult(matches={self.match_count}, wall={self.wall_seconds:.4f}s, "
            f"simulated={self.simulated_seconds:.4f}s)"
        )
