"""The exploration phase: process STwigs in order, carrying bindings forward.

For every STwig (in plan order) each machine runs
:func:`~repro.core.matcher.match_stwig` over its local root candidates.  The
query proxy then merges the binding contributions of all machines and the
merged binding table is used for the next STwig, so later STwigs explore
only nodes that can still participate in a full match (Section 4.2, step 2).

The per-machine, per-STwig result tables ``G_k(q_i)`` are kept on their
machines; only the (much smaller) binding sets travel through the proxy, and
that traffic is charged to the cloud metrics.

The phase is *array-native and batched*: bindings live as sorted
``NODE_DTYPE`` arrays inside :class:`~repro.core.bindings.BindingTable`
(narrowed via ``np.intersect1d``), and each stage's root candidates are
partitioned by owner **once** — one ``owners_of_array`` call and one stable
argsort — instead of every machine re-scanning the full binding array.  The
per-machine ``match_stwig`` calls then run off shared per-stage arrays.
The communication *accounting* is unchanged and identical to the per-node
execution model: one index lookup per (machine, unbound-root stage), one
load per root cell, one probe per neighbor per unbound leaf, and one
binding-delta message per contributing machine per stage.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.cloud.cluster import MemoryCloud
from repro.core.bindings import BindingTable
from repro.core.planner import QueryPlan
from repro.core.result import STwigTable
from repro.core.stwig import STwig
from repro.core.tasks import ExploreResult, ExploreTask
from repro.graph.labeled_graph import NODE_DTYPE
from repro.utils.arrays import fast_unique

#: Per-machine tables: explored[machine_id][stwig_index] -> STwigTable.
ExplorationTables = List[List[STwigTable]]


class ExplorationOutcome:
    """Result of the exploration phase: the per-machine factorized tables
    (``tables[machine_id][stwig_index]``) and the final bindings."""

    def __init__(self, tables: ExplorationTables, bindings: BindingTable) -> None:
        self.tables = tables
        self.bindings = bindings
        self._empty: Optional[bool] = None

    @property
    def empty(self) -> bool:
        """True if some STwig matched nothing anywhere (the query has no answers).

        Computed once over the (immutable after exploration) tables and
        cached: the join phase consults this per query, and re-scanning
        every (machine, STwig) pair on each access is pure waste.
        """
        if self._empty is None:
            self._empty = self._compute_empty()
        return self._empty

    def _compute_empty(self) -> bool:
        machine_count = len(self.tables)
        if machine_count == 0:
            return True
        stwig_count = len(self.tables[0])
        for stwig_index in range(stwig_count):
            if all(
                self.tables[machine][stwig_index].row_count == 0
                for machine in range(machine_count)
            ):
                return True
        return False

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
            stage's per-machine :class:`~repro.core.tasks.ExploreTask`
            batch; ``None`` uses a
            :class:`~repro.runtime.SerialExecutor`.  Stage root
            partitioning stays on the driver (the query proxy), and the
            proxy-side binding merge *overlaps* the stage barrier: each
            machine's distinct sets are absorbed (and their transfer
            charged) as that machine's result arrives, so only the final
            intersection waits for the slowest machine.  The accounting is
            exactly the serial model's.
    """
    if executor is None:
        # Deferred import: repro.runtime imports this package.
        from repro.runtime.executors import SerialExecutor

        executor = SerialExecutor()
    query = plan.query
    config = plan.config
    machine_count = cloud.machine_count
    bindings = BindingTable(query)
    tables: ExplorationTables = [[] for _ in range(machine_count)]

    for stwig in plan.stwigs:
        stage_filter = bindings if config.use_binding_filter else None
        stage_roots = _stage_root_partition(
            cloud, stwig, query.label(stwig.root), stage_filter
        )
        tasks = [
            ExploreTask(
                machine_id=machine_id,
                stwig=stwig,
                query=query,
                bindings=stage_filter,
                roots=stage_roots[machine_id],
            )
            for machine_id in range(machine_count)
        ]
        merger = _BindingMerger(cloud, stwig.nodes)
        results = executor.run(cloud, tasks, on_result=merger.absorb)
        for machine_id, result in enumerate(results):
            tables[machine_id].append(result.table)
        merger.bind_into(bindings)

        if config.use_binding_filter and bindings.any_empty():
            # Some query node has no surviving candidate: fill the
            # remaining STwigs with empty tables so downstream code sees
            # a uniform structure, then stop exploring.
            for machine_id in range(machine_count):
                for skipped in plan.stwigs[len(tables[machine_id]):]:
                    tables[machine_id].append(STwigTable(skipped.nodes))
            break

    return ExplorationOutcome(tables, bindings)


class _BindingMerger:
    """Accumulates per-machine binding contributions as results arrive.

    The executor invokes :meth:`absorb` (from the driver thread) the moment
    each machine's :class:`ExploreResult` completes — possibly out of
    machine order — so the proxy's merge work and its transfer accounting
    overlap the stage barrier.  Totals are order-independent: each
    machine's charge depends only on its own distinct counts, and the
    final :meth:`bind_into` union is a sort-merge.
    """

    def __init__(self, cloud: MemoryCloud, stwig_nodes: tuple) -> None:
        self._cloud = cloud
        self._nodes = stwig_nodes
        self._chunks: Dict[str, List[np.ndarray]] = {node: [] for node in stwig_nodes}

    def absorb(self, index: int, result: ExploreResult) -> None:
        if result.table.row_count == 0:
            return
        # Binding synchronisation traffic: each machine ships its distinct
        # column values to the proxy once per STwig (chunk-split machines
        # were merged to per-machine distincts by the executor first).
        distinct_total = 0
        for node in self._nodes:
            values = result.distincts[node]
            self._chunks[node].append(values)
            distinct_total += len(values)
        self._cloud.metrics.record_result_transfer(
            sender=result.machine_id, receiver=-1, rows=distinct_total, row_width=1
        )

    def bind_into(self, bindings: BindingTable) -> None:
        for node, chunks in self._chunks.items():
            if chunks:
                merged = fast_unique(np.concatenate(chunks))
            else:
                merged = np.empty(0, dtype=NODE_DTYPE)
            bindings.bind(node, merged)


def _stage_root_partition(
    cloud: MemoryCloud,
    stwig: STwig,
    root_label: str,
    bindings: Optional[BindingTable],
) -> List[np.ndarray]:
    """Per-machine root candidate arrays for one stage, partitioned once.

    For a bound root the binding array is split by owner with a single
    ``owners_of_array`` + stable argsort (ascending IDs within each machine,
    exactly the order the per-machine scans produced); for an unbound root
    each machine's label index answers locally, charged one index lookup per
    machine as in the per-node model.  Owner resolution is proxy-side
    partition-map arithmetic and is not charged, same as before.
    """
    machine_count = cloud.machine_count
    if bindings is not None and bindings.is_bound(stwig.root):
        bound = bindings.candidates_array(stwig.root)
        if bound is None or len(bound) == 0:
            empty = np.empty(0, dtype=NODE_DTYPE)
            return [empty] * machine_count
        owners = cloud.owners_of_array(bound)
        order = np.argsort(owners, kind="stable")
        cuts = np.searchsorted(owners[order], np.arange(machine_count + 1))
        partitioned = bound[order]
        return [
            partitioned[cuts[machine_id] : cuts[machine_id + 1]]
            for machine_id in range(machine_count)
        ]
    return [
        cloud.get_local_ids_array(machine_id, root_label)
        for machine_id in range(machine_count)
    ]
