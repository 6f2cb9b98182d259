"""The exploration phase: process STwigs in order, carrying bindings forward.

For every STwig (in plan order) the query proxy partitions the stage's root
candidates by owner once, and the executor runs the whole stage as one
:class:`~repro.core.tasks.ExploreTask`: one
:func:`~repro.core.matcher.match_stage` pass over every machine's roots.
The simulated machines are an accounting model, not a loop: machine ``m``'s
result table ``G_m(q_i)`` is its owner range of the stage table, and every
counter is charged per machine as separate passes would charge it.  The
tables stay on their machines; only each machine's distinct column values
(the binding delta) travel to the proxy, one message per contributing
machine per stage, and the proxy intersects their union into the running
:class:`~repro.core.bindings.BindingTable`, so later STwigs explore only
nodes that can still participate in a full match (Section 4.2, step 2).

Exploration ends with the final binding filter (unless
``use_final_binding_filter`` is off, or some stage came up empty): every
stage keeps only the rows whose values all survived into the final binding
sets — one sorted-membership mask per column, one
:meth:`~repro.core.result.STwigTable.select` over the whole stage with its
machine cuts, no row built.  Each machine filters its own range, so the
stage still holds the per-machine row counts it had before (``held_cuts``):
the join charges the rows a sender dropped to ``result_rows_filtered``.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.cloud.cluster import MemoryCloud
from repro.core.bindings import BindingTable
from repro.core.matcher import _stage_root_partition
from repro.core.planner import QueryPlan
from repro.core.result import StageTable
from repro.core.tasks import ExploreTask


class ExplorationOutcome:
    """One :class:`~repro.core.result.StageTable` per STwig (``tables[i]``;
    a skipped STwig's is empty), the final bindings, and whether some STwig
    matched nothing (``empty``: no answers)."""

    def __init__(self, tables: List[StageTable], bindings: BindingTable, empty: bool) -> None:
        self.tables = tables
        self.bindings = bindings
        self.empty = empty

    def total_rows(self) -> int:
        """Total intermediate rows exploration held, before the final filter."""
        return sum(int(stage.held[-1]) for stage in self.tables)

    def release(self) -> None:
        """Does nothing: the tables are plain values, freed with the outcome.

        Kept because the benchmark's per-layer replay
        (``benchmarks/e2e/layers.py``) still calls it.
        """


def explore(cloud: MemoryCloud, plan: QueryPlan, executor=None) -> ExplorationOutcome:
    """Run the exploration phase of ``plan`` over ``cloud``.

    Args:
        cloud: the memory cloud holding the data graph.
        plan: the query plan to execute.
        executor: the :class:`~repro.runtime.Executor` running each
            stage's :class:`~repro.core.tasks.ExploreTask` (``None``: a
            :class:`~repro.runtime.SerialExecutor`); the root partition and
            the binding merge stay on the driver, the query proxy.  Every
            schedule yields the same tables, bindings and counters.
    """
    if executor is None:
        # Deferred import: repro.runtime imports this package.
        from repro.runtime.executors import SerialExecutor

        executor = SerialExecutor()
    query = plan.query
    config = plan.config
    bindings = BindingTable(query)
    stages: List[StageTable] = []

    for stwig in plan.stwigs:
        stage_filter = bindings if config.use_binding_filter else None
        roots, cuts = _stage_root_partition(
            cloud, stwig, query.label(stwig.root), stage_filter
        )
        stage = executor.run(cloud, ExploreTask(stwig, query, stage_filter, roots, cuts))
        stages.append(stage)
        _merge_bindings(cloud, stwig.nodes, stage, bindings)
        if config.use_binding_filter and bindings.any_empty():
            # Some query node has no surviving candidate: stop exploring;
            # the remaining STwigs get empty tables.
            break

    empty = len(stages) < len(plan.stwigs) or any(
        stage.table.row_count == 0 for stage in stages
    )
    if config.use_final_binding_filter and not empty:
        stages = [_final_filter(stage, bindings) for stage in stages]
    stages += [
        StageTable.empty(stwig.nodes, cloud.machine_count)
        for stwig in plan.stwigs[len(stages):]
    ]
    return ExplorationOutcome(stages, bindings, empty)


def _final_filter(stage: StageTable, bindings: BindingTable) -> StageTable:
    """Drop the stage's rows whose values fell out of the final binding sets.

    Every full match assigns each query node a value that survived *all*
    STwigs mentioning it, i.e. a value in the final binding set; rows
    violating that for any column can therefore never contribute to an
    answer.  Earlier-explored stages were built against weaker binding
    information, so this backward pass can shrink them substantially before
    the join.  One mask per column, on the roots and the slot columns.
    """
    table = stage.table
    keeps = []
    for column, values in zip(table.columns, (table.roots, *table.slot_values)):
        keep = bindings.membership_mask(column, values)
        keeps.append(None if keep.all() else keep)
    if all(keep is None for keep in keeps):
        return stage
    return table.select(keeps[0], keeps[1:], stage.root_cuts)._replace(held_cuts=stage.row_cuts)


def _merge_bindings(
    cloud: MemoryCloud, nodes: tuple, stage: StageTable, bindings: BindingTable
) -> None:
    """Bind the stage's nodes to their distinct values, charging each machine
    with rows one transfer of its own range's distinct values to the proxy."""
    distincts, shipped = stage.distincts()
    cuts = stage.root_cuts
    for machine in np.flatnonzero(cuts[1:] - cuts[:-1]).tolist():
        cloud.metrics.record_result_transfer(
            sender=machine, receiver=-1, rows=int(shipped[machine]), row_width=1
        )
    for node in nodes:
        bindings.bind(node, distincts[node])
