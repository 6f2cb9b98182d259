"""Result containers: STwig result tables and final match results.

The answer is an array until someone asks for Python objects.
:class:`MatchTable` is a *value*: a tuple of column names and one 2-D
``NODE_DTYPE`` array, fixed at construction.  Exploration produces tables,
the proxy narrows binding sets from them and the join reads them; nothing
edits one (Sections 4.2-4.3), so a table attached over a worker's read-only
shared-memory pages is as good as an owned one.  :class:`MatchResult` is
such a table plus the query's metadata.  ``to_array()`` (and
``MatchResult.external_array()``) are the primary accessors; ``rows`` /
``external_rows()`` / ``as_dicts()`` convert that array to Python objects
on every call, column by column (:func:`rows_as_tuples`), and keep nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple, Union

import numpy as np

from repro.errors import ExecutionError
from repro.graph.labeled_graph import NODE_DTYPE
from repro.utils.arrays import fast_unique

#: Rows accepted by the constructor: an iterable of tuples or a 2-D array.
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

    An immutable ``(columns, array)`` pair: one ``(row_count, width)``
    ``NODE_DTYPE`` array that no member resizes, replaces or writes to.  A
    different relation — a prefix, a filtered subset, a concatenation — is a
    new table over a new (or sliced) array.  ``to_array`` / ``column_array``
    expose the array itself; ``rows`` converts it to a list of Python-int
    tuples on every read.  Tables follow bag semantics: nothing deduplicates
    rows.
    """

    __slots__ = ("columns", "_data")

    def __init__(self, columns: Tuple[str, ...], rows: RowsLike = ()) -> None:
        """Build a table over ``rows``.

        A 2-D ``NODE_DTYPE`` ndarray is adopted as it is (no copy — the
        table aliases it, read-only pages included); anything else is
        converted once.

        Raises:
            ExecutionError: on duplicate columns, or rows that are ragged or
                not ``len(columns)`` wide.
        """
        self.columns: Tuple[str, ...] = tuple(columns)
        width = len(self.columns)
        if len(set(self.columns)) != width:
            raise ExecutionError(f"duplicate columns in match table: {self.columns}")
        if not (isinstance(rows, np.ndarray) and rows.dtype == NODE_DTYPE):
            if not isinstance(rows, np.ndarray):
                rows = list(rows)
            try:
                rows = np.asarray(rows, dtype=NODE_DTYPE)
            except ValueError as error:
                raise ExecutionError(f"ragged rows for columns {self.columns}: {error}") from None
        if rows.ndim == 1 and rows.size == 0:
            rows = rows.reshape(0, width)  # "no rows" carries no width of its own
        if rows.ndim != 2 or rows.shape[1] != width:
            raise ExecutionError(
                f"rows of shape {rows.shape} do not match columns {self.columns}"
            )
        self._data = rows

    # -- shape -------------------------------------------------------------

    @property
    def row_count(self) -> int:
        """Number of rows."""
        return len(self._data)

    @property
    def width(self) -> int:
        """Number of columns."""
        return len(self.columns)

    def __len__(self) -> int:
        return len(self._data)

    # -- row access ----------------------------------------------------------

    @property
    def rows(self) -> List[Tuple[int, ...]]:
        """Rows as a new list of Python-int tuples, converted on every read."""
        return rows_as_tuples(self._data)

    def to_array(self) -> np.ndarray:
        """The table's ``(row_count, width)`` array itself (no copy)."""
        return self._data

    def column_array(self, column: str) -> np.ndarray:
        """Zero-copy view of one column."""
        return self._data[:, self.column_index(column)]

    def as_dicts(self) -> List[Dict[str, int]]:
        """Rows as dictionaries keyed by query-node name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    # -- columns -----------------------------------------------------------

    def column_index(self, column: str) -> int:
        """Index of ``column`` within the rows."""
        try:
            return self.columns.index(column)
        except ValueError:
            raise ExecutionError(f"column {column!r} not in table {self.columns}") from None

    def column_distinct(self, column: str) -> np.ndarray:
        """Distinct values appearing in ``column`` as a sorted array."""
        return fast_unique(self.column_array(column))

    def copy(self) -> "MatchTable":
        """The same relation over its own, writable array."""
        return MatchTable(self.columns, self._data.copy())

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

    The answer is one :class:`MatchTable` — a ``(match_count, width)``
    ``NODE_DTYPE`` array under the query's sorted node names.
    :meth:`to_array` and :meth:`external_array` hand that array out as it
    is; :attr:`rows`, :meth:`external_rows` and :meth:`as_dicts` convert it
    to Python objects — a new list on every call, nothing kept — for callers
    who want tuples or dicts.

    The array always holds the engine's internal (dense) node IDs.  For a
    graph that came through the ingestion layer, ``id_map`` carries the
    external<->dense bijection and the ``external_*`` accessors (and
    :meth:`as_dicts`) translate back to the caller's original IDs with one
    vectorized gather over the final array, never per intermediate row.
    """

    def __init__(
        self,
        query_nodes: Tuple[str, ...],
        matches: MatchTable,
        wall_seconds: float = 0.0,
        simulated_seconds: float = 0.0,
        metrics: Dict[str, int] | None = None,
        stats: StageStats | None = None,
        id_map: object | None = None,
    ) -> None:
        self.query_nodes = tuple(query_nodes)
        self.wall_seconds = wall_seconds
        self.simulated_seconds = simulated_seconds
        self.metrics: Dict[str, int] = {} if metrics is None else metrics
        self.stats: StageStats = StageStats() if stats is None else stats
        self.id_map = id_map
        self._matches = matches

    @property
    def columns(self) -> Tuple[str, ...]:
        """Result column order (the query nodes, sorted)."""
        return self._matches.columns

    @property
    def match_count(self) -> int:
        """Number of matches found (possibly truncated by a result limit)."""
        return self._matches.row_count

    def to_array(self) -> np.ndarray:
        """Matches as a ``(match_count, width)`` array of internal IDs."""
        return self._matches.to_array()

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

    def __repr__(self) -> str:
        return (
            f"MatchResult(matches={self.match_count}, wall={self.wall_seconds:.4f}s, "
            f"simulated={self.simulated_seconds:.4f}s)"
        )
