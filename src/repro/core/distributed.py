"""Distributed join and result assembly (Section 4.3).

After exploration, machine ``k`` holds ``G_k(q_i)`` for every STwig.  Each
machine then assembles its share of the answer:

* its head-STwig table stays local (``R_k(q_s) = G_k(q_s)``), which is what
  makes per-machine answers disjoint;
* for every other STwig ``q_t`` it fetches ``G_j(q_t)`` from the machines in
  its load set ``F_k,t`` (pruned via the cluster graph) and unions them with
  its own table;
* it joins the resulting tables in the order :func:`select_join_order`
  derives from their row counts and the final binding-set sizes, with a
  block-pipelined multi-way join.

The final answer is the union of all machines' joined results — without
deduplication, because disjointness is guaranteed by construction.  A
result limit is threaded through as a *remaining* budget: each machine's
join only runs for the rows still needed, and the assembly reports whether
the limit actually cut anything off (a query with exactly ``limit`` matches
is not truncated).

The final binding filter runs *inside the gather* and *on the slots*: the
tables exploration left are factorized (:class:`~repro.core.result.STwigTable`),
and a row survives the filter iff its root and every one of its slot
entries does — so each source table is reduced once, on its owning machine
(cached per (machine, STwig)), with one sorted-membership mask per slot
column, before any row exists.  The filtered table's exact row count is
what the simulated network ships and what :func:`select_join_order` reads;
rows dropped sender-side are charged to ``result_rows_filtered``.  Rows are
built after all that, where the join reads them: the tables it builds on
whole, the lead block by block under the budget (``stwig_rows_built``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cloud.cluster import MemoryCloud
from repro.core.bindings import BindingTable
from repro.core.exploration import ExplorationOutcome, ExplorationTables
from repro.core.tasks import JoinTask, empty_rows
from repro.core.join import (
    JoinBudget,
    JoinCounters,
    multiway_join,
    select_join_order,
)
from repro.core.planner import QueryPlan
from repro.core.result import MatchTable, STwigTable

#: Cache of binding-filtered tables, keyed by (machine, stwig_index).
FilteredTables = Dict[Tuple[int, int], STwigTable]


@dataclass
class JoinOutcome:
    """The join phase's answer table plus whether the result limit bit."""

    table: MatchTable
    truncated: bool

    @property
    def row_count(self) -> int:
        """Number of assembled matches."""
        return self.table.row_count


def assemble_results(
    cloud: MemoryCloud,
    plan: QueryPlan,
    exploration: ExplorationOutcome,
    result_limit: Optional[int] = None,
    executor=None,
) -> JoinOutcome:
    """Run the distributed join phase and return the global result table.

    Args:
        cloud: the memory cloud (used for communication accounting).
        plan: the query plan being executed.
        exploration: per-machine STwig tables from the exploration phase.
        result_limit: stop once this many global matches are assembled.
        executor: the :class:`~repro.runtime.Executor` receiving one
            :class:`~repro.core.tasks.JoinTask` per machine; ``None`` uses
            a :class:`~repro.runtime.SerialExecutor`.  The tasks
            share the exploration table matrix (a process backend
            pickles it once per batch).  Limited queries dispatch
            through it too: every machine joins against
            its own machine-ordered :class:`JoinBudget` view of
            the shared budget, which keeps the concatenated rows an exact
            prefix of the unlimited result on every backend (lower machine
            IDs are never starved of budget by higher ones).

    Returns:
        A :class:`JoinOutcome` whose table has the query nodes in sorted
        order as columns and complete matches as rows, and whose
        ``truncated`` flag says whether ``result_limit`` discarded at least
        one real match (queries with exactly ``result_limit`` matches are
        *not* truncated).
    """
    final_columns = plan.query.nodes()
    if exploration.empty:
        return JoinOutcome(MatchTable(final_columns), False)

    # Probe for one row beyond the limit: reaching limit+1 proves a real
    # match was cut, while a query with exactly `limit` matches runs the
    # same joins it would have anyway and comes back un-truncated.
    probe_limit = None if result_limit is None else result_limit + 1

    if executor is None:
        # Deferred import: repro.runtime imports this module.
        from repro.runtime.executors import SerialExecutor

        executor = SerialExecutor()
    tasks = [
        JoinTask(
            machine_id=machine_id,
            plan=plan,
            tables=exploration.tables,
            bindings=exploration.bindings,
            row_limit=probe_limit,
        )
        for machine_id in range(cloud.machine_count)
    ]
    final = np.concatenate(
        [result.rows for result in executor.run(cloud, tasks)], axis=0
    )
    # Under a parallel schedule machines may overshoot the shared budget
    # slightly (each saw a stale lower bound of the others' production);
    # the machine-ordered concatenation is still an exact prefix, so one
    # final slice restores the precise limit.
    truncated = result_limit is not None and len(final) > result_limit
    if truncated:
        final = final[:result_limit]
    return JoinOutcome(MatchTable(final_columns, final), truncated)


def machine_result_rows(
    cloud: MemoryCloud,
    plan: QueryPlan,
    tables: ExplorationTables,
    machine_id: int,
    bindings,
    remaining: Optional[int] = None,
    filtered_cache: Optional[FilteredTables] = None,
    budget: Optional[JoinBudget] = None,
) -> np.ndarray:
    """One machine's share of the answer, as final-column-ordered rows.

    The per-machine unit of the join phase: gather ``R_k(q_t)`` for every
    STwig and run the multi-way join, which emits its rows in the query's
    sorted column order and masks for injectivity only the column pairs the
    query's labels allow to collide.  The join order is computed here, from
    the gathered tables' row counts and the sizes of the final binding sets
    (``bindings``; a missing one counts as 1) — integers every machine,
    backend and direct caller sees alike, so all derive the same order.
    ``bindings`` also feeds the final binding filter, unless
    ``plan.config.use_final_binding_filter`` turns that off.  Every runtime
    executor backend (inline, process pool) calls exactly this function, so
    the communication accounting — result transfers, sender-side filter
    counts — is structurally identical across backends.  The returned array
    is the caller's own: it never aliases ``tables``.

    ``budget`` is this machine's view of the (possibly shared) join budget;
    the plain ``remaining`` countdown is a convenience spelling for direct
    callers.  A budget already exhausted on entry skips the gather entirely
    — no transfers, no metrics, no row built.

    ``filtered_cache`` may be shared across machines when calls run
    sequentially (each source table is binding-filtered once); concurrent
    callers pass per-task caches and recompute, which changes wall-clock
    only, never the counters.
    """
    query = plan.query
    final_columns = query.nodes()
    if budget is None:
        budget = JoinBudget(remaining)
    if budget.exhausted():
        return empty_rows(len(final_columns))
    if filtered_cache is None:
        filtered_cache = {}
    machine_tables = _gather_machine_tables(
        cloud, plan, tables, machine_id, bindings, filtered_cache
    )
    if any(table.row_count == 0 for table in machine_tables):
        # An empty R_k(q_t) (in particular an empty local head table)
        # makes the whole join empty: this machine contributes nothing.
        return empty_rows(len(final_columns))
    distinct_counts = {
        column: len(bindings.candidates_array(column))
        for column in final_columns
        if bindings is not None and bindings.is_bound(column)
    }
    order = select_join_order(machine_tables, distinct_counts)
    counters = JoinCounters()
    joined = multiway_join(
        machine_tables,
        order=order,
        block_size=plan.config.block_size,
        budget=budget,
        counters=counters,
        labels=query.labels(),
        columns=final_columns,
    )
    cloud.metrics.record_join_materialization(
        counters.rows_materialized, counters.peak_intermediate_rows
    )
    # The join expanded every table it built on and pulled this much of its lead.
    cloud.metrics.stwig_rows_built += counters.lead_rows + sum(
        machine_tables[index].row_count for index in order[1:]
    )
    return joined.to_array()


def _filter_by_bindings(table: STwigTable, bindings: BindingTable) -> STwigTable:
    """Drop rows whose values fell out of the final binding sets.

    Every full match assigns each query node a value that survived *all*
    STwigs mentioning it, i.e. a value in the final binding set; rows
    violating that for any column can therefore never contribute to an
    answer.  Earlier-explored STwig tables were built against weaker binding
    information, so this backward pass can shrink them substantially before
    the join.  One sorted-membership mask per bound column runs on the roots
    and the slot columns — no row is built to be dropped.
    """
    if table.row_count == 0:
        return table
    keeps: List[Optional[np.ndarray]] = []
    for column, values in zip(table.columns, (table.roots, *table.slot_values)):
        keep = None
        if bindings.is_bound(column):
            keep = bindings.membership_mask(column, values)
            if keep.all():
                keep = None
        keeps.append(keep)
    if all(keep is None for keep in keeps):
        return table
    return table.select(keeps[0], keeps[1:])


def _filtered_table(
    tables: ExplorationTables, machine_id: int, stwig_index: int, bindings, cache: FilteredTables
) -> STwigTable:
    """``G_k(q_i)`` with the final binding filter applied on its machine.

    Cached per (machine, STwig): every receiver whose load set includes this
    source reuses the same filtered table instead of re-deriving the masks.
    With ``bindings`` disabled the raw table passes through untouched.
    """
    table = tables[machine_id][stwig_index]
    if bindings is None:
        return table
    key = (machine_id, stwig_index)
    if key not in cache:
        cache[key] = _filter_by_bindings(table, bindings)
    return cache[key]


def _gather_machine_tables(
    cloud: MemoryCloud,
    plan: QueryPlan,
    exploration_tables: ExplorationTables,
    machine_id: int,
    bindings,
    filtered_cache: FilteredTables,
) -> List[STwigTable]:
    """Build ``R_k(q_t)`` for every STwig ``t`` on machine ``machine_id``.

    ``bindings`` filter the parts only under
    ``plan.config.use_final_binding_filter``; the ablation passes raw tables.

    Every part — local and remote — is binding-filtered *before* the union,
    and the union over the load set concatenates factorized parts (disjoint
    roots), so nothing here builds a row.  Remote fetches are charged as
    result transfers for the rows actually shipped; rows the sender-side
    filter removed are charged to ``result_rows_filtered``.
    """
    if not plan.config.use_final_binding_filter:
        bindings = None
    tables: List[STwigTable] = []
    for stwig_index in range(len(plan.stwigs)):
        local = _filtered_table(
            exploration_tables, machine_id, stwig_index, bindings, filtered_cache
        )
        if stwig_index == plan.head_index:
            tables.append(local)
            continue
        parts = [local]
        for remote_machine in sorted(plan.load_set(machine_id, stwig_index)):
            raw_rows = exploration_tables[remote_machine][stwig_index].row_count
            if raw_rows == 0:
                continue
            remote = _filtered_table(
                exploration_tables, remote_machine, stwig_index, bindings, filtered_cache
            )
            cloud.metrics.record_result_filter(
                sender=remote_machine,
                receiver=machine_id,
                rows=raw_rows - remote.row_count,
            )
            if remote.row_count:
                cloud.metrics.record_result_transfer(
                    sender=remote_machine,
                    receiver=machine_id,
                    rows=remote.row_count,
                    row_width=len(remote.columns),
                )
                parts.append(remote)
        tables.append(STwigTable.concatenate(parts))
    return tables
