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
deduplication, because disjointness is guaranteed by construction.  The
machines join in machine order, in the calling process on every backend
(executors run exploration only).  A result limit is one *remaining*
countdown: each machine's join only runs for the rows still needed, and the
assembly reports whether the limit actually cut anything off (a query with
exactly ``limit`` matches is not truncated).

The final binding filter ran at the end of exploration, once per stage on
its slots (:mod:`repro.core.exploration`): the gather reads machine ranges
of the filtered stage tables, factorized
(:class:`~repro.core.result.STwigTable`).  Their exact row counts are what
the simulated network ships and what :func:`select_join_order` reads; the
rows a sender's filter dropped (its range's held rows minus its filtered
rows) are charged to ``result_rows_filtered``.  Rows are built after all
that, where the join reads them: the tables it builds on whole, the lead
block by block under the budget (``stwig_rows_built``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.cloud.cluster import MemoryCloud
from repro.core.exploration import ExplorationOutcome
from repro.core.join import (
    JoinBudget,
    JoinCounters,
    multiway_join,
    select_join_order,
)
from repro.core.planner import QueryPlan
from repro.core.result import MatchTable, StageTable, STwigTable
from repro.graph.labeled_graph import NODE_DTYPE


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

    The machines join one after another, ``0..M-1``, with
    :func:`machine_result_rows` against one :class:`JoinBudget`, in the
    calling process on every backend: each machine resumes the countdown
    where the previous one left it, so the concatenation is an exact
    prefix of the unlimited result, and every counter is the same on every
    schedule.

    Args:
        cloud: the memory cloud (used for communication accounting).
        plan: the query plan being executed.
        exploration: the stage tables and bindings exploration left.
        result_limit: stop once this many global matches are assembled.
        executor: accepted and unused: the join no longer runs through an
            executor.  The keyword stays for the benchmark's replay, and
            leaves with it (ROADMAP item 1c).

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
    budget = JoinBudget(None if result_limit is None else result_limit + 1)
    final = np.concatenate(
        [
            machine_result_rows(
                cloud, plan, exploration.tables, machine, exploration.bindings, budget=budget
            )
            for machine in range(cloud.machine_count)
        ],
        axis=0,
    )
    truncated = result_limit is not None and len(final) > result_limit
    if truncated:
        final = final[:result_limit]
    return JoinOutcome(MatchTable(final_columns, final), truncated)


def machine_result_rows(
    cloud: MemoryCloud,
    plan: QueryPlan,
    tables: Sequence[StageTable],
    machine_id: int,
    bindings,
    remaining: Optional[int] = None,
    budget: Optional[JoinBudget] = None,
) -> np.ndarray:
    """One machine's share of the answer, as final-column-ordered rows.

    The per-machine unit of the join phase: gather ``R_k(q_t)`` for every
    STwig from the stage tables and run the multi-way join, which emits its
    rows in the query's sorted column order and masks for injectivity only
    the column pairs the query's labels allow to collide.  The join order is
    computed here, from the gathered tables' row counts and the sizes of the
    final binding sets (``bindings``; a missing one counts as 1) — integers
    every machine and direct caller sees alike, so all derive the same
    order.  The returned array is the caller's own: it never aliases
    ``tables``.

    ``budget`` is the query's countdown, shared with the machines joined
    before this one; the plain ``remaining`` countdown is a convenience
    spelling for direct callers.  A budget already exhausted on entry skips
    the gather entirely — no transfers, no metrics, no row built.
    """
    query = plan.query
    final_columns = query.nodes()
    if budget is None:
        budget = JoinBudget(remaining)
    if budget.exhausted():
        return _empty_rows(len(final_columns))
    machine_tables = _gather_machine_tables(cloud, plan, tables, machine_id)
    if any(table.row_count == 0 for table in machine_tables):
        # An empty R_k(q_t) (in particular an empty local head table)
        # makes the whole join empty: this machine contributes nothing.
        return _empty_rows(len(final_columns))
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


def _gather_machine_tables(
    cloud: MemoryCloud, plan: QueryPlan, stages: Sequence[StageTable], machine_id: int
) -> List[STwigTable]:
    """Build ``R_k(q_t)`` for every STwig ``t`` on machine ``machine_id``.

    The union over the load set concatenates factorized machine ranges
    (disjoint roots), so nothing here builds a row.  Remote fetches are
    charged as result transfers for the rows actually shipped; rows the
    sender's final filter removed are charged to ``result_rows_filtered``.
    """
    tables: List[STwigTable] = []
    for stwig_index, stage in enumerate(stages):
        local = stage.machine_table(machine_id)
        if stwig_index == plan.head_index:
            tables.append(local)
            continue
        parts = [local]
        held = stage.held
        for remote_machine in sorted(plan.load_set(machine_id, stwig_index)):
            held_rows = int(held[remote_machine + 1] - held[remote_machine])
            if held_rows == 0:
                continue
            remote = stage.machine_table(remote_machine)
            cloud.metrics.record_result_filter(
                sender=remote_machine,
                receiver=machine_id,
                rows=held_rows - remote.row_count,
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


def _empty_rows(width: int) -> np.ndarray:
    """A zero-row result-row block of the given width."""
    return np.empty((0, width), dtype=NODE_DTYPE)
