"""Joining STwig result tables (the paper's step 3).

The exploration phase leaves each machine with one result table per STwig;
this module assembles them into full matches:

* :func:`select_join_order` — greedy join ordering by arithmetic alone:
  the next table is the one minimizing ``current size × rows / Π distinct
  count of each shared column``, computed from the tables' row counts and
  the per-column distinct counts the caller already holds (the final
  binding-set sizes).  No row is read and nothing is sampled — a stated
  deviation from the paper's sample-based estimate (Section 4.3), whose
  proxy does not know those counts.  The kernel below executes the order
  it is given; it does not plan.
* :func:`multiway_join` — streaming budgeted multi-way join: the leading
  table is processed in head blocks, and every block is pushed through *all*
  its join stages before the next block is touched.  Each stage is a
  sort/``searchsorted`` merge join against the stage table's key sort
  (computed once per join, :class:`_StagePlan`).  One :class:`JoinBudget`
  threads the remaining row budget end to end: every stage — not just the
  final one — expands only the prefix of its probe rows whose match pairs
  the downstream budget can still consume (chunked via the O(probe)
  :meth:`_StagePlan.match_runs` metadata), and execution stops the instant
  the budget fills (the paper stops at 1024 matches).  A limited query
  therefore materializes O(limit + chunk) intermediate rows per stage, not
  O(total matches); :class:`JoinCounters` makes that claim observable.
  Stage joins always probe with the flowing partial (build on the stage
  table), so output rows appear in nested head-row-major order and any
  budget cut is an exact row prefix of the unlimited join — the invariant
  that keeps limits, block pipelining, and cooperative multi-machine
  budgets (see :class:`JoinBudget`) row-for-row deterministic.

Rows flow through the stages at the *output's* width and column order from
the first head block on (columns a later stage fills are simply not written
yet), so a stage expansion is one row gather plus one 1-D gather per new
column, and the final stage's blocks are the answer: they are written once,
with no growth copies and no column reorder.

Tables are read through one protocol — ``columns``, ``row_count``,
``to_array()``, ``row_blocks(n)`` — that both table values of
:mod:`repro.core.result` speak: a stage table is read whole (``to_array()``
*builds* a factorized STwig table's rows), the lead only through
``row_blocks``, one head block at a time while the budget is open, so a full
budget stops row construction.  A join of one table is the same loop with
no stages: each head block is masked, cut to the budget's prefix, charged.

Subgraph isomorphism is injective — distinct query nodes map to distinct
data nodes.  Only columns that *may* hold the same node need comparing: a
data node has one label, so when the caller supplies the query's labels a
stage masks just the (earlier column, new column) pairs of equal label —
one ``!=`` per pair, none at all for a stage whose new columns share no
label with what came before.  Without labels every pair may collide.  Rows
that repeat a node *within* one input table are dropped once, up front.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.result import MatchTable
from repro.errors import ExecutionError
from repro.graph.labeled_graph import NODE_DTYPE
from repro.utils.validation import require_positive

#: Default block size for the pipelined join.
DEFAULT_BLOCK_SIZE = 1024


class JoinCounters:
    """Materialization accounting for one multi-way join.

    ``rows_materialized`` sums every row physically assembled into an
    intermediate (or final-stage) buffer, before the injectivity filter;
    ``peak_intermediate_rows`` is the largest single materialization.  An
    unlimited join's peak is its biggest stage expansion — O(matches) on a
    join-heavy workload — while a budgeted streaming join's peak stays
    O(limit + chunk), which is exactly the claim these counters expose.
    """

    __slots__ = ("rows_materialized", "peak_intermediate_rows", "lead_rows")

    def __init__(self) -> None:
        self.rows_materialized = 0
        self.peak_intermediate_rows = 0
        #: Rows the lead table handed out in head blocks (built, if factorized).
        self.lead_rows = 0

    def charge(self, rows: int) -> None:
        """Record one materialization of ``rows`` rows."""
        if rows > 0:
            self.rows_materialized += rows
            if rows > self.peak_intermediate_rows:
                self.peak_intermediate_rows = rows


class JoinBudget:
    """Remaining-row budget threaded through every stage of a join.

    The budget is *cooperative*: producers call :meth:`note_produced` as
    result rows are emitted, and every stage polls :meth:`remaining` to
    bound how much it expands next.  ``remaining()`` may shrink between
    polls (other machines producing into a shared budget); it never grows.
    A conservative (stale) read is always safe — it can only make a stage
    expand rows that a later clip discards, never miss rows.

    A budget is machine ``machine_id``'s view of one ``limit`` (``None`` =
    unlimited) shared by every machine's join; without ``slots`` it is a
    single consumer's plain countdown.  ``slots[k]`` is the monotone count
    of rows machine ``k`` has produced — each slot has exactly one writer,
    so no lock is needed (a plain list in-process, an int64 array over a
    shared anonymous mapping for the process backend).
    Machine ``k``'s remaining budget is ``limit`` minus the production of
    machines ``0..k`` *only*: a machine never yields budget to a higher ID,
    so the driver's machine-ordered concatenation truncated to the limit is
    always the exact row prefix of the unlimited join, regardless of
    scheduling.  Higher-ID machines stop early whenever lower IDs have
    already filled the budget — that early stop is the parallel win.

    The guarantee is per *machine-ordered task*: the work-stealing runtime
    may split exploration stages into chunks, but join tasks are never
    split (two chunks of one machine would race the same slot), so any
    schedule — including stolen, out-of-order completion — still yields an
    exact prefix.
    """

    def __init__(self, limit: Optional[int], slots=None, machine_id: int = 0) -> None:
        self._limit = limit
        self._slots = [0] if slots is None else slots
        self._machine_id = machine_id

    def remaining(self) -> Optional[int]:
        """Rows still wanted; ``None`` means unlimited."""
        if self._limit is None:
            return None
        produced = 0
        for machine in range(self._machine_id + 1):
            produced += int(self._slots[machine])
        return self._limit - produced

    def note_produced(self, rows: int) -> None:
        """Record ``rows`` result rows emitted against this budget."""
        # Single writer per slot; += on list/array items is read-modify-write
        # of our own slot only, so no other writer can interleave.
        self._slots[self._machine_id] += rows

    def exhausted(self) -> bool:
        """True once the budget is filled (never true when unlimited)."""
        remaining = self.remaining()
        return remaining is not None and remaining <= 0


def _may_collide(labels: Optional[Mapping[str, object]], first: str, second: str) -> bool:
    """Whether two distinct query nodes can map to one data node."""
    return labels is None or labels[first] == labels[second]


def _within_row_pairs(
    columns: Sequence[str], labels: Optional[Mapping[str, object]]
) -> List[Tuple[int, int]]:
    """Column-index pairs of one input table that may hold the same node."""
    return [
        (first, second)
        for second in range(len(columns))
        for first in range(second)
        if _may_collide(labels, columns[first], columns[second])
    ]


def _distinct_rows(rows: np.ndarray, pairs: Sequence[Tuple[int, int]]) -> np.ndarray:
    """``rows`` without those holding one node in both columns of any pair."""
    keep: Optional[np.ndarray] = None
    for first, second in pairs:
        differ = rows[:, first] != rows[:, second]
        keep = differ if keep is None else np.logical_and(keep, differ, out=keep)
    if keep is None or keep.all():
        return rows
    return rows.compress(keep, axis=0)


def _at_slots(rows: np.ndarray, slots: Sequence[int], width: int) -> np.ndarray:
    """``rows``' columns placed at ``slots`` of new ``width``-column rows.

    The other columns are left unwritten: later stages fill them.
    """
    wide = np.empty((len(rows), width), dtype=NODE_DTYPE)
    wide[:, slots] = rows
    return wide


#: Minimum match-pair chunk assembled at once under a row limit.
_LIMIT_CHUNK = 4096


def select_join_order(
    tables: Sequence[MatchTable], distinct_counts: Mapping[str, int]
) -> List[int]:
    """Choose a join order (as indices into ``tables``) from cardinalities.

    Greedy strategy: start from the smallest table; at every step join the
    table (preferring ones connected to the current result via a shared
    column) whose estimated intermediate result is smallest.  The estimate
    is the textbook one — ``current size × rows``, divided by
    ``distinct_counts[column]`` for every column the table shares with the
    running result (the cross product when it shares none).

    Only ``row_count`` and ``columns`` of each table are read, never a row,
    so every machine and backend derives the same order from the same
    integers.  A column missing from ``distinct_counts`` counts as 1, which
    degrades to smallest-connected-table-first.
    """
    if not tables:
        return []
    remaining = list(range(len(tables)))
    start = min(remaining, key=lambda index: tables[index].row_count)
    order = [start]
    remaining.remove(start)
    bound = set(tables[start].columns)
    current_size = float(tables[start].row_count)

    def estimate(index: int) -> float:
        size = current_size * tables[index].row_count
        for column in tables[index].columns:
            if column in bound:
                size /= max(1, distinct_counts.get(column, 1))
        return size

    while remaining:
        connected = [i for i in remaining if bound.intersection(tables[i].columns)]
        best = min(connected or remaining, key=estimate)
        current_size = max(1.0, estimate(best))
        order.append(best)
        remaining.remove(best)
        bound.update(tables[best].columns)
    return order


def _lex_keys(keys: np.ndarray) -> np.ndarray:
    """1-D lexicographically comparable view of 2-D key rows.

    Single columns compare raw; multi-column keys are viewed as one
    structured record per row (field-wise comparison == tuple comparison),
    which keeps the build-side sort reusable across probe chunks — a
    joint ``np.unique`` dictionary encoding of build and probe keys would
    entangle the encoding with each probe block.
    """
    if keys.shape[1] == 1:
        return keys[:, 0]
    contiguous = np.ascontiguousarray(keys)
    return contiguous.view([("", contiguous.dtype)] * contiguous.shape[1]).ravel()


class _StagePlan:
    """One join stage's build-side state, reused across every head block.

    The build side is always the stage table and the probe side the flowing
    partial, regardless of size: output rows are then partial-major (build
    matches in build-row order), so the concatenation of chunked expansions
    equals the full expansion row for row — the prefix stability the
    streaming driver relies on.  Because the build side never changes, its
    key sort is computed once here instead of once per block.

    ``slots`` maps every output column to its position in the flowing rows;
    ``bound`` are the columns the lead table and earlier stages have written.
    """

    __slots__ = (
        "build_rows",
        "build_order",
        "sorted_keys",
        "key_slots",
        "new_slots",
        "collision_pairs",
    )

    def __init__(
        self,
        slots: Mapping[str, int],
        bound: Sequence[str],
        table: MatchTable,
        labels: Optional[Mapping[str, object]],
    ) -> None:
        shared = [c for c in bound if c in table.columns]
        new_columns = [c for c in table.columns if c not in shared]
        self.build_rows = _distinct_rows(
            table.to_array(), _within_row_pairs(table.columns, labels)
        )
        self.key_slots = [slots[c] for c in shared]
        self.new_slots = [(slots[c], table.columns.index(c)) for c in new_columns]
        # A shared column equals the table's own, which the within-row check
        # above compared with the table's other columns; only columns this
        # table does not carry can still collide with the ones it adds.
        self.collision_pairs = [
            (slots[earlier], slots[new])
            for new in new_columns
            for earlier in bound
            if earlier not in shared and _may_collide(labels, earlier, new)
        ]
        if len(self.build_rows) and shared:
            build_keys = _lex_keys(
                self.build_rows[:, [table.columns.index(c) for c in shared]]
            )
            self.build_order = np.argsort(build_keys, kind="stable")
            self.sorted_keys = build_keys[self.build_order]
        else:
            # Cartesian stage (or empty table): every probe row matches
            # every build row, in build-row order.
            self.build_order = np.arange(len(self.build_rows), dtype=np.int64)
            self.sorted_keys = None

    def match_runs(
        self, partial: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(lo, counts, offsets)`` runs of ``partial``'s rows vs the build.

        Probe row ``i`` matches the build rows
        ``build_order[lo[i] : lo[i] + counts[i]]``.  O(probe log build)
        metadata only — expanding runs into rows is the caller's
        (budget-bounded) decision.
        """
        probe_rows = len(partial)
        if len(self.build_rows) == 0 or probe_rows == 0:
            lo = np.zeros(probe_rows, dtype=np.int64)
            counts = np.zeros(probe_rows, dtype=np.int64)
        elif self.sorted_keys is None:
            lo = np.zeros(probe_rows, dtype=np.int64)
            counts = np.full(probe_rows, len(self.build_rows), dtype=np.int64)
        else:
            probe_keys = _lex_keys(partial[:, self.key_slots])
            lo = np.searchsorted(self.sorted_keys, probe_keys, side="left")
            hi = np.searchsorted(self.sorted_keys, probe_keys, side="right")
            counts = hi - lo
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return lo, counts, offsets

    def expand(
        self,
        partial: np.ndarray,
        lo: np.ndarray,
        counts: np.ndarray,
        offsets: np.ndarray,
        row_start: int,
        row_end: int,
        counters: JoinCounters,
    ) -> np.ndarray:
        """Materialize (injectivity-filtered) rows for probe rows [start, end).

        Probe-major order with build matches in build-row order — the exact
        order of the full expansion, so any probe-row prefix yields the
        exact row prefix of the full join.
        """
        sub_counts = counts[row_start:row_end]
        pair_count = int(offsets[row_end] - offsets[row_start])
        counters.charge(pair_count)
        out = np.repeat(partial[row_start:row_end], sub_counts, axis=0)
        if self.new_slots:
            # Output row r of probe row i reads build position
            # lo[i] + (r - first output row of i).
            run_shift = lo[row_start:row_end] - (
                offsets[row_start:row_end] - offsets[row_start]
            )
            build_idx = self.build_order.take(
                np.arange(pair_count, dtype=np.int64) + np.repeat(run_shift, sub_counts)
            )
            for slot, column in self.new_slots:
                out[:, slot] = self.build_rows[:, column].take(build_idx)
        return _distinct_rows(out, self.collision_pairs)


def _stream_stages(
    partial: np.ndarray,
    plans: Sequence[_StagePlan],
    stage: int,
    budget: JoinBudget,
    counters: JoinCounters,
    pieces: List[np.ndarray],
) -> None:
    """Push ``partial`` through stages ``[stage:]``, collecting into ``pieces``.

    Depth-first over the stage chain: each chunk of a stage's expansion is
    recursed through every later stage before the next chunk is expanded,
    so result rows appear in nested probe-major order (the unlimited join's
    order) and the budget observed before each expansion reflects all
    output already produced — by this machine and, under a cooperative
    budget, by lower-ID machines too.
    """
    if stage == len(plans):
        remaining = budget.remaining()
        if remaining is not None and len(partial) > remaining:
            partial = partial[: max(0, remaining)]
        if len(partial):
            if stage == 0:
                # No stage expanded (and charged) these rows: with a single
                # table the head block's prefix is the materialization.
                counters.charge(len(partial))
            pieces.append(partial)
            budget.note_produced(len(partial))
        return
    plan = plans[stage]
    lo, counts, offsets = plan.match_runs(partial)
    if int(offsets[-1]) == 0:
        return
    remaining = budget.remaining()
    if remaining is None:
        out = plan.expand(partial, lo, counts, offsets, 0, len(counts), counters)
        if len(out):
            _stream_stages(out, plans, stage + 1, budget, counters, pieces)
        return
    # Budgeted: expand only as many probe rows as the remaining budget can
    # consume, one chunk of match pairs at a time.  Chunks grow
    # geometrically in case downstream stages keep dropping rows (no
    # partner / injectivity), so a sparse tail costs O(log) extra passes,
    # never a full re-expansion.
    row_position = 0
    chunk = max(remaining, _LIMIT_CHUNK)
    while row_position < len(counts) and not budget.exhausted():
        pair_position = int(offsets[row_position])
        row_end = int(np.searchsorted(offsets, pair_position + chunk, side="left"))
        row_end = min(max(row_end, row_position + 1), len(counts))
        out = plan.expand(partial, lo, counts, offsets, row_position, row_end, counters)
        row_position = row_end
        if len(out):
            _stream_stages(out, plans, stage + 1, budget, counters, pieces)
        chunk *= 2


def multiway_join(
    tables: Sequence[MatchTable],
    order: Optional[Sequence[int]] = None,
    row_limit: Optional[int] = None,
    block_size: Optional[int] = DEFAULT_BLOCK_SIZE,
    budget: Optional[JoinBudget] = None,
    counters: Optional[JoinCounters] = None,
    labels: Optional[Mapping[str, object]] = None,
    columns: Optional[Sequence[str]] = None,
) -> MatchTable:
    """Join all ``tables`` into one result via the streaming block pipeline.

    Args:
        tables: one result table per STwig, of either table value.
        order: the join order, as indices into ``tables`` (see
            :func:`select_join_order`); the tables as listed when omitted.
        row_limit: stop once this many result rows have been produced.
            The budget is threaded through *every* stage of every head
            block: each stage expands only the probe-row prefix whose
            match pairs the remaining budget can still consume, so
            intermediate materialization is O(limit + chunk), not
            O(total matches).
        block_size: size of the leading-table blocks for the pipelined join
            (at least 1); ``None`` disables pipelining and joins everything
            at once.
        budget: an externally shared :class:`JoinBudget` (one machine's
            view of the query's budget).  Overrides ``row_limit``;
            rows produced here are noted against it as they stream out.
        counters: optional :class:`JoinCounters` accumulating
            materialization counts for this join.
        labels: the label of every column's query node.  Columns of
            different labels can never hold the same data node, so only
            equal-label pairs are checked for injectivity; without labels
            every pair is.
        columns: the result's column order (a permutation of the tables'
            columns); the order the join binds them in when omitted.

    Returns:
        The joined :class:`MatchTable` (owning its array) — always an exact
        row prefix of the unlimited join's output.

    Raises:
        ConfigurationError: ``block_size`` is neither ``None`` nor >= 1.
    """
    if not tables:
        raise ExecutionError("multiway_join requires at least one table")
    if block_size is not None:
        # A non-positive step would make the head-block loop silently empty.
        require_positive(block_size, "block_size")
    if budget is None:
        budget = JoinBudget(row_limit)
    if counters is None:
        counters = JoinCounters()

    if order is None:
        order = range(len(tables))
    if sorted(order) != list(range(len(tables))):
        raise ExecutionError(f"join order {order!r} is not a permutation of the table indices")
    lead = tables[order[0]]
    # Each stage table with the columns bound before it, in join order.
    stages: List[Tuple[MatchTable, Tuple[str, ...]]] = []
    bound: List[str] = list(lead.columns)
    for index in order[1:]:
        stages.append((tables[index], tuple(bound)))
        bound.extend(c for c in tables[index].columns if c not in bound)
    columns = tuple(bound) if columns is None else tuple(columns)
    if sorted(columns) != sorted(bound):
        raise ExecutionError(
            f"result columns {columns} are not a permutation of the joined {tuple(bound)}"
        )
    slots = {column: slot for slot, column in enumerate(columns)}
    lead_slots = [slots[c] for c in lead.columns]
    plans = [_StagePlan(slots, before, table, labels) for table, before in stages]
    lead_pairs = _within_row_pairs(lead.columns, labels)
    if block_size is None:
        block_size = max(lead.row_count, 1)
    pieces: List[np.ndarray] = []
    blocks = iter(lead.row_blocks(block_size))
    # The budget is polled before a block is asked for: a full budget stops
    # the lead's rows from being built, not just from being used.
    while not budget.exhausted():
        block = next(blocks, None)
        if block is None:
            break
        counters.lead_rows += len(block)
        # Rows flow at the output's width from here on.
        partial = _at_slots(_distinct_rows(block, lead_pairs), lead_slots, len(columns))
        _stream_stages(partial, plans, 0, budget, counters, pieces)
    if not pieces:
        return MatchTable(columns)
    out = pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=0)
    return MatchTable(columns, out)
