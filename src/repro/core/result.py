"""Result containers: STwig result tables and final match results.

Two table *values*, fixed at construction, read through one protocol
(``columns``, ``row_count``, ``to_array()``, ``row_blocks(n)``).
:class:`STwigTable` is what exploration returns — Algorithm 1's
factorized ``{root} x S_l1 x ... x S_lk``, whose row count and distincts
are computed on the slots and whose rows exist only while someone reads
them (:func:`_row_blocks`, the one STwig row constructor).
:class:`MatchTable` is a tuple of column names and one 2-D ``NODE_DTYPE``
array: the join's output and the final answer.  Nothing edits either
(Sections 4.2-4.3).  :class:`MatchResult` is a
:class:`MatchTable` plus the query's metadata.  ``to_array()`` (and
``MatchResult.external_array()``) are the primary accessors; ``rows`` /
``external_rows()`` / ``as_dicts()`` convert that array to Python objects
on every call, column by column (:func:`rows_as_tuples`), and keep nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, prod
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple, Union

import numpy as np

from repro.errors import ExecutionError
from repro.graph.labeled_graph import NODE_DTYPE, OFFSET_DTYPE
from repro.utils.arrays import fast_unique
from repro.utils.collector import paused_gc

#: Candidate rows decoded per block: bounds the row constructor's working set.
_BLOCK_ROWS = 1 << 15

#: Row counts are float64 products; below this bound they are exact integers.
_MAX_EXACT_ROWS = float(1 << 53)

#: Rows accepted by the constructor: an iterable of tuples or a 2-D array.
RowsLike = Union[Iterable[Tuple[int, ...]], np.ndarray]


def rows_as_tuples(array: np.ndarray) -> List[tuple]:
    """An ``(n, width)`` array as a list of ``n`` tuples of Python scalars.

    Built column-wise — one ``tolist`` per column, then one ``zip`` — which
    allocates ``width`` intermediate lists instead of one per row.  The
    cyclic collector is paused meanwhile: tuples of ints cannot form a cycle,
    and traversing them is a third of the conversion on a 250k-row answer.
    """
    if array.shape[1] == 0:
        return [()] * len(array)
    with paused_gc():
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

    def row_blocks(self, block_rows: int) -> Iterator[np.ndarray]:
        """The rows in order, as slices of at most ``block_rows`` rows."""
        for start in range(0, len(self._data), block_rows):
            yield self._data[start : start + block_rows]

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

    def copy(self) -> "MatchTable":
        """The same relation over its own, writable array."""
        return MatchTable(self.columns, self._data.copy())

    def __repr__(self) -> str:
        return f"MatchTable(columns={self.columns}, rows={self.row_count})"


def _row_blocks(
    roots: np.ndarray,
    slot_values: Sequence[np.ndarray],
    slot_bounds: Sequence[np.ndarray],
    distinct_pairs: Sequence[Tuple[int, int]],
    block_rows: int = _BLOCK_ROWS,
) -> Iterator[np.ndarray]:
    """The one STwig row constructor: ``(rows, 1 + k)`` blocks for any ``k``.

    Root ``i`` owns ``prod_k len_k[i]`` candidate rows — one per choice of a
    value from each of its slots — numbered consecutively across roots by a
    flat row index.  A row's offset within its root is a mixed-radix number
    whose digits (last slot least significant) are its slot positions, so
    rows come out in nested-loop order: roots ascending, first slot slowest.
    Blocks are cut on the flat index, ``block_rows`` candidates at a time
    (a boundary may fall mid-root); each keeps the candidates whose
    ``distinct_pairs`` columns (0 = root) differ.  The candidate count is
    exactly representable (:meth:`STwigTable.from_slots` checks).
    """
    lengths = [bounds[1:] - bounds[:-1] for bounds in slot_bounds]
    per_root = np.ones(len(roots))
    for length in lengths:
        per_root *= length
    row_starts = np.zeros(len(roots) + 1, dtype=OFFSET_DTYPE)
    np.cumsum(per_root, out=row_starts[1:], dtype=OFFSET_DTYPE)
    total = int(row_starts[-1])
    for low in range(0, total, block_rows):
        high = min(low + block_rows, total)
        first, last = np.searchsorted(row_starts, (low, high - 1), side="right") - 1
        cuts = np.minimum(np.maximum(row_starts[first : last + 2], low), high)
        owner = np.repeat(np.arange(first, last + 1), cuts[1:] - cuts[:-1])
        digits = np.arange(low, high, dtype=OFFSET_DTYPE) - row_starts[owner]
        block = np.empty((high - low, 1 + len(lengths)), dtype=NODE_DTYPE)
        block[:, 0] = roots[owner]
        for slot in range(len(lengths) - 1, -1, -1):
            # The most significant digit is whatever the others left over.
            if slot:
                digits, position = np.divmod(digits, lengths[slot][owner])
            else:
                position = digits
            block[:, slot + 1] = slot_values[slot][slot_bounds[slot][owner] + position]
        keep = np.ones(len(block), dtype=bool)
        for left, right in distinct_pairs:
            keep &= block[:, left] != block[:, right]
        yield block if keep.all() else block.compress(keep, axis=0)


def _compress(roots, slot_values, slot_bounds, lengths, live: np.ndarray, keeps=None):
    """``(roots, slot_values, slot_bounds)`` of the ``live`` roots only; ``keeps[k]``
    masks slot ``k``'s entries (``None`` = all), ``lengths[k]`` are its per-root
    counts under that mask."""
    roots = roots[live]
    values, bounds, keeps = [], [], keeps or [None] * len(lengths)
    for column, column_bounds, length, keep in zip(slot_values, slot_bounds, lengths, keeps):
        mask = np.repeat(live, column_bounds[1:] - column_bounds[:-1])
        values.append(column[mask if keep is None else mask & keep])
        fresh = np.zeros(len(roots) + 1, dtype=OFFSET_DTYPE)
        np.cumsum(length[live], out=fresh[1:])
        bounds.append(fresh)
    return roots, values, bounds


def _set_partitions(items: Tuple[int, ...]) -> Iterator[List[Tuple[int, ...]]]:
    """Every partition of ``items`` (at least one) into non-empty blocks."""
    for partition in _set_partitions(items[1:]) if items[1:] else [[]]:
        yield [items[:1], *partition]
        for index, block in enumerate(partition):
            yield [*partition[:index], items[:1] + block, *partition[index + 1 :]]


def _injective_counts(count: int, values: List[np.ndarray], lengths: List[np.ndarray]) -> np.ndarray:
    """Per root, the ways to pick one value per slot with all picks distinct.

    Inclusion-exclusion over the set partitions of the slots: a partition
    contributes ``prod_block (-1)^(|block|-1) (|block|-1)! |intersection of
    the block's slots|`` — two terms for a pair, ``|A||B| - |A & B|`` — the
    intersections taken with ``np.intersect1d`` over ``(root, value)`` pairs
    packed into single int64 keys (a block's from its prefix's).
    """
    low = min(int(column.min()) for column in values)
    span = max(int(column.max()) for column in values) - low + 1
    if count * span >= 1 << 62:
        # IDs too sparse for root * span + value to fit: rank them first.
        ranks = np.unique(np.concatenate(values), return_inverse=True)[1]
        values = np.split(ranks, np.cumsum([len(column) for column in values])[:-1])
        low, span = 0, len(ranks)
    base = np.arange(count, dtype=NODE_DTYPE) * span - low
    keys = {(k,): np.repeat(base, n) + column for k, (column, n) in enumerate(zip(values, lengths))}
    sizes = {(slot,): length for slot, length in enumerate(lengths)}

    def size(block: Tuple[int, ...]) -> np.ndarray:  # per root, |intersection of the block|
        if block not in sizes:
            size(block[:-1])
            keys[block], last = keys[block[:-1]], keys[block[-1:]]
            if not np.array_equal(keys[block], last):  # unbound same-label leaves: equal slots
                keys[block] = np.intersect1d(keys[block], last, assume_unique=True)
            sizes[block] = np.bincount(keys[block] // span, minlength=count)
        return sizes[block]
    total = 0.0
    for partition in _set_partitions(tuple(range(len(values)))):
        term = prod((-1.0) ** (len(block) - 1) * factorial(len(block) - 1) for block in partition)
        for block in partition:
            term = term * size(block)
        total = total + term
    return total


class STwigTable:
    """An STwig's matches, factorized: ``{root} x S_l1 x ... x S_lk`` per root.

    ``roots`` are the matched roots (ascending within one machine's table);
    ``slot_values[k][slot_bounds[k][i] : slot_bounds[k][i + 1]]`` are the
    candidates of leaf ``k`` under ``roots[i]``, duplicate-free.  ``groups``
    are the groups of two or more *leaf* columns of equal query label, the
    only ones that can hold one data node twice.  The relation is *by
    contract* the flat one: ``to_array()`` is every root's slot product in
    nested-loop order (first leaf slowest) minus the rows repeating a node
    within a group; ``row_count`` and :meth:`distincts` are those of that
    array, computed on the slots.  Every root has at least one row and no
    slot holds its own root (:meth:`from_slots` establishes both).
    Immutable: a filtered or concatenated relation is a new table.
    """

    __slots__ = ("columns", "groups", "roots", "slot_values", "slot_bounds", "row_count")

    def __init__(self, columns, groups=(), roots=None, slot_values=(), slot_bounds=(), row_count=0):
        """Adopt normalized columns as they are (no copy); no roots means no rows."""
        self.columns: Tuple[str, ...] = tuple(columns)
        self.groups: Tuple[Tuple[int, ...], ...] = tuple(groups)
        if roots is None:
            roots = np.empty(0, dtype=NODE_DTYPE)
            slot_values = [roots] * (len(self.columns) - 1)
            slot_bounds = [np.zeros(1, dtype=OFFSET_DTYPE)] * (len(self.columns) - 1)
        self.roots = roots
        self.slot_values: Tuple[np.ndarray, ...] = tuple(slot_values)
        self.slot_bounds: Tuple[np.ndarray, ...] = tuple(slot_bounds)
        self.row_count = int(row_count)

    @classmethod
    def from_slots(
        cls, columns, groups, roots, slot_values, slot_bounds, root_keep=None, entry_keeps=None
    ) -> "STwigTable":
        """Normalize raw slot columns: mask, count the rows, drop the dead roots.

        ``groups`` are the column-index groups of equal label (0 = root);
        ``root_keep`` / ``entry_keeps[k]`` mask the roots and slot ``k``'s
        entries (``None`` = all).  A root's row count is the product over
        label groups of its injective picks (a plain length for a lone
        leaf); a root whose count is 0 is dead and leaves the table.

        Raises:
            ExecutionError: when the candidate count is too large to index.
        """
        keeps = [None] * len(slot_values) if entry_keeps is None else list(entry_keeps)
        for group in groups:
            for slot in [column - 1 for column in group[1:]] if group[0] == 0 else ():
                # The root's own label: a slot must not offer the root itself.
                bounds = slot_bounds[slot]
                other = slot_values[slot] != np.repeat(roots, bounds[1:] - bounds[:-1])
                if not other.all():
                    keeps[slot] = other if keeps[slot] is None else keeps[slot] & other
        groups = [tuple(column for column in group if column) for group in groups]
        groups = [group for group in groups if len(group) > 1]
        lengths = []  # per root and slot, the entries its mask keeps
        for bounds, keep in zip(slot_bounds, keeps):
            if keep is not None:
                kept = np.zeros(len(keep) + 1, dtype=OFFSET_DTYPE)
                np.cumsum(keep, out=kept[1:])
                bounds = kept[bounds]
            lengths.append(bounds[1:] - bounds[:-1])
        terms = lengths if root_keep is None else [root_keep, *lengths]
        per_root = terms[0].astype(float) if terms else np.ones(len(roots))
        for term in terms[1:]:
            per_root *= term
        row_count = per_root.sum()
        if not row_count < _MAX_EXACT_ROWS:
            worst = int(np.argmax(per_root))
            raise ExecutionError(
                f"STwig({columns[0]} -> [{', '.join(columns[1:])}]) has {row_count:.3g} "
                f"candidate rows in one root chunk ({per_root[worst]:.3g} under root "
                f"{int(roots[worst])}): too many to enumerate"
            )
        live = per_root > 0
        if not live.all() or any(keep is not None for keep in keeps):
            roots, slot_values, slot_bounds = _compress(
                roots, slot_values, slot_bounds, lengths, live, keeps
            )
        if row_count and groups:
            # A label group's factor is its injective count, not its product.
            factors = {1 + slot: b[1:] - b[:-1] for slot, b in enumerate(slot_bounds)}
            lengths = list(factors.values())
            for group in groups:
                group_lengths = [factors.pop(column) for column in group]
                factors[group] = _injective_counts(
                    len(roots), [slot_values[column - 1] for column in group], group_lengths
                )
            per_root = np.ones(len(roots))
            for factor in factors.values():
                per_root *= factor
            row_count, live = per_root.sum(), per_root > 0
            if not live.all():
                roots, slot_values, slot_bounds = _compress(
                    roots, slot_values, slot_bounds, lengths, live
                )
        return cls(columns, groups, roots, slot_values, slot_bounds, row_count)

    def select(self, root_keep, entry_keeps) -> "STwigTable":
        """The rows whose root and every slot entry pass their mask (``None`` = all):
        the flat table's row filter, since a row survives iff each column does."""
        return STwigTable.from_slots(
            self.columns, self.groups, self.roots, self.slot_values, self.slot_bounds,
            root_keep, entry_keeps,
        )

    def row_blocks(self, block_rows: int = _BLOCK_ROWS) -> Iterator[np.ndarray]:
        """Build the rows in order, ``block_rows`` candidates at a time."""
        pairs = [
            (low, high)
            for group in self.groups
            for position, high in enumerate(group)
            for low in group[:position]
        ]
        return _row_blocks(self.roots, self.slot_values, self.slot_bounds, pairs, block_rows)

    def to_array(self) -> np.ndarray:
        """Build the whole ``(row_count, width)`` array (a new one per call)."""
        blocks = list(self.row_blocks()) or [np.empty((0, len(self.columns)), dtype=NODE_DTYPE)]
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)

    @property
    def rows(self) -> List[Tuple[int, ...]]:
        """Rows as a new list of Python-int tuples, built on every read."""
        return rows_as_tuples(self.to_array())

    def distincts(self) -> Dict[str, np.ndarray]:
        """Every column's sorted distinct values, without building the table.

        A slot's values all appear in some row unless a same-label sibling
        crowds one out, which takes a *tight* root: one with a slot of its
        label group shorter than the group.  Only those roots' group columns
        are multiplied out; everywhere else the slot column is the answer.
        """
        used = [self.roots, *self.slot_values]
        for group in self.groups:
            bounds = [self.slot_bounds[column - 1] for column in group]
            lengths = [b[1:] - b[:-1] for b in bounds]
            tight = np.logical_or.reduce([length < len(group) for length in lengths])
            if tight.any():
                values = [self.slot_values[column - 1] for column in group]
                crowded = STwigTable(
                    range(1 + len(group)),
                    [tuple(range(1, 1 + len(group)))],
                    *_compress(self.roots, values, bounds, lengths, tight),
                ).to_array()
                for position, (column, length) in enumerate(zip(group, lengths)):
                    loose = used[column][np.repeat(~tight, length)]
                    used[column] = np.concatenate([loose, crowded[:, 1 + position]])
        return {name: fast_unique(column) for name, column in zip(self.columns, used)}

    @classmethod
    def concatenate(cls, tables: Sequence["STwigTable"]) -> "STwigTable":
        """Tables over disjoint roots as one, rows in table order (bounds shift)."""
        live = [table for table in tables if table.row_count] or list(tables[:1])
        if len(live) == 1:
            return live[0]
        values, bounds = [], []
        for slot in range(len(live[0].slot_values)):
            values.append(np.concatenate([table.slot_values[slot] for table in live]))
            shift, pieces = 0, []
            for table in live:
                pieces.append(table.slot_bounds[slot][:-1] + shift)
                shift += len(table.slot_values[slot])
            bounds.append(np.concatenate(pieces + [[shift]]))
        roots = np.concatenate([table.roots for table in live])
        row_count = sum(table.row_count for table in live)
        return cls(live[0].columns, live[0].groups, roots, values, bounds, row_count)

    def __repr__(self) -> str:
        return f"STwigTable(columns={self.columns}, roots={len(self.roots)}, rows={self.row_count})"


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

    ``stwig_result_rows`` counts the STwig rows exploration *held* (the
    factorized tables' logical row counts); ``stwig_rows_built`` the ones
    the join phase built — after the final binding filter, the lead table
    only as far as the budget pulled it.
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
    stwig_rows_built: int = 0


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
