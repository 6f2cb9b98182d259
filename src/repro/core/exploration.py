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
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.cloud.cluster import MemoryCloud
from repro.core.bindings import BindingTable
from repro.core.matcher import _stage_root_partition
from repro.core.planner import QueryPlan
from repro.core.result import StageTable, STwigTable
from repro.core.tasks import ExploreTask

#: Per-machine tables: explored[machine_id][stwig_index] -> STwigTable.
ExplorationTables = List[List[STwigTable]]


class ExplorationOutcome:
    """The per-machine factorized tables (``tables[machine_id][stwig_index]``,
    each machine's range of its stage's table), the final bindings, and
    whether some STwig matched nothing (``empty``: no answers)."""

    def __init__(self, tables: ExplorationTables, bindings: BindingTable, empty: bool) -> None:
        self.tables = tables
        self.bindings = bindings
        self.empty = empty

    def total_rows(self) -> int:
        """Total intermediate rows produced across machines and STwigs."""
        return sum(table.row_count for machine in self.tables for table in machine)

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
        [stage] = executor.run(cloud, [ExploreTask(stwig, query, stage_filter, roots, cuts)])
        stages.append(stage)
        _merge_bindings(cloud, stwig.nodes, stage, bindings)
        if config.use_binding_filter and bindings.any_empty():
            # Some query node has no surviving candidate: stop exploring;
            # the remaining STwigs get empty tables.
            break

    skipped = [STwigTable(stwig.nodes) for stwig in plan.stwigs[len(stages):]]
    tables: ExplorationTables = [
        [*machine, *skipped] for machine in zip(*(stage.machine_tables() for stage in stages))
    ]
    empty = len(stages) < len(plan.stwigs) or any(
        stage.table.row_count == 0 for stage in stages
    )
    return ExplorationOutcome(tables, bindings, empty)


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
