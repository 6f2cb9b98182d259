"""Property test: a fused exploration stage is the per-machine passes, range by range.

Exploration runs each stage as one pass over its owner-ordered roots
(``match_stage``); the simulated machines are ranges of that pass.  The
reference is the per-machine ``match_stwig`` over ``_stage_root_partition``'s
slice for that machine.  For random graphs and queries, every partitioner in
``PARTITIONERS`` and machine counts {1, 2, 3, 8}, machine ``m``'s range of each
``outcome.tables[i]`` (explored with the final binding filter off, which the
reference does not apply) must hold the reference's roots, slot values, slot
bounds and row count; the stage's counters (``CloudMetrics.snapshot()`` and
``per_pair_messages``) must be the per-machine passes' plus each machine's
binding-sync transfer; and any cut of the stage's roots into consecutive
chunks, as a work-stealing backend makes, must concatenate back to the same
stage.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.cloud.metrics import CloudMetrics
from repro.core.bindings import BindingTable
from repro.core.exploration import _merge_bindings, explore
from repro.core.matcher import _stage_root_partition, match_stage, match_stwig
from repro.core.head_selection import full_load_sets
from repro.core.planner import MatcherConfig, QueryPlan, QueryPlanner
from repro.core.result import StageTable
from repro.core.stwig import STwig
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.partition import PARTITIONERS
from repro.query.query_graph import QueryGraph
from repro.utils.arrays import fast_unique

from tests.property.strategies import connected_queries, labeled_graphs

RELAXED = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def assert_same_table(actual, expected):
    assert actual.columns == expected.columns
    assert actual.row_count == expected.row_count
    assert actual.roots.tolist() == expected.roots.tolist()
    assert len(actual.slot_values) == len(expected.slot_values)
    for got, want in zip(actual.slot_values, expected.slot_values):
        assert got.tolist() == want.tolist()
    for got, want in zip(actual.slot_bounds, expected.slot_bounds):
        assert got.tolist() == want.tolist()


def counters(metrics: CloudMetrics):
    pairs = {pair: count for pair, count in metrics.per_pair_messages.items() if count}
    return metrics.snapshot(), pairs


def assert_fusion(cloud: MemoryCloud, plan, chunk_count: int) -> None:
    """Explore ``plan`` and hold every stage to the per-machine passes."""
    plan = replace(plan, config=replace(plan.config, use_final_binding_filter=False))
    query, machine_count = plan.query, cloud.machine_count
    explored = CloudMetrics()
    outcome = explore(cloud.with_metrics(explored), plan)

    assert plan.config.use_binding_filter
    reference_total = CloudMetrics()
    fused_bindings, reference_bindings = BindingTable(query), BindingTable(query)
    for index, stwig in enumerate(plan.stwigs):
        label = query.label(stwig.root)
        stage_filter = fused_bindings.copy()
        fused, kernel, reference = CloudMetrics(), CloudMetrics(), CloudMetrics()
        roots, cuts = _stage_root_partition(
            cloud.with_metrics(fused), stwig, label, fused_bindings
        )
        stage = match_stage(cloud.with_metrics(kernel), stwig, query, stage_filter, roots, cuts)
        _merge_bindings(cloud.with_metrics(fused), stwig.nodes, stage, fused_bindings)

        # The reference: the same partition, then one pass per machine.
        _stage_root_partition(cloud.with_metrics(reference), stwig, label, reference_bindings)
        tables = [
            match_stwig(
                cloud.with_metrics(reference), machine, stwig, query, reference_bindings,
                roots[cuts[machine] : cuts[machine + 1]],
            )
            for machine in range(machine_count)
        ]
        shipped = [sum(len(values) for values in table.distincts().values()) for table in tables]
        for machine, table in enumerate(tables):
            if table.row_count:
                reference.record_result_transfer(machine, -1, shipped[machine], 1)
        assert stage.distincts()[1].tolist() == shipped
        for node in stwig.nodes:
            reference_bindings.bind(
                node,
                fast_unique(np.concatenate([table.distincts()[node] for table in tables])),
            )

        # Chunks cut anywhere, even through a machine's range, concatenate
        # back to the stage and sum to its kernel's counters.
        chunked = CloudMetrics()
        pieces = []
        for chunk in np.array_split(np.arange(len(roots)), chunk_count):
            start = int(chunk[0]) if len(chunk) else len(roots)
            stop = start + len(chunk)
            pieces.append(
                match_stage(
                    cloud.with_metrics(chunked), stwig, query, stage_filter,
                    roots[start:stop], np.clip(cuts, start, stop) - start,
                )
            )
        whole = StageTable.concatenate(pieces)
        assert whole.root_cuts.tolist() == stage.root_cuts.tolist()
        assert whole.row_cuts.tolist() == stage.row_cuts.tolist()
        assert_same_table(whole.table, stage.table)
        assert counters(chunked) == counters(kernel)

        fused.merge(kernel)
        assert stage.table.row_count == sum(table.row_count for table in tables)
        for machine, table in enumerate(tables):
            assert_same_table(stage.machine_table(machine), table)
            assert_same_table(outcome.tables[index].machine_table(machine), table)
        assert counters(fused) == counters(reference)
        for node in stwig.nodes:
            assert (
                fused_bindings.candidates_array(node).tolist()
                == reference_bindings.candidates_array(node).tolist()
            )
        reference_total.merge(reference)
        if fused_bindings.any_empty():
            break
    assert counters(explored) == counters(reference_total)


@RELAXED
@given(
    graph=labeled_graphs(),
    query=connected_queries(min_nodes=2, max_nodes=5),
    partitioner=st.sampled_from(sorted(PARTITIONERS)),
    machine_count=st.sampled_from([1, 2, 3, 8]),
    chunk_count=st.integers(min_value=1, max_value=5),
)
def test_fused_stage_is_the_per_machine_passes(
    graph, query, partitioner, machine_count, chunk_count
):
    config = ClusterConfig(machine_count=machine_count, partitioner=PARTITIONERS[partitioner]())
    cloud = MemoryCloud.from_graph(graph, config)
    assert_fusion(cloud, QueryPlanner(cloud).plan(query), chunk_count)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
@pytest.mark.parametrize("machine_count", [2, 3, 8])
def test_crowded_groups_ship_from_their_own_machine(machine_count, sparse):
    """Same-label leaves crowd a value out of a root's rows on every machine.

    Each ``a`` root ``r`` has two ``b`` neighbors, and only the first has a
    ``c`` neighbor, so once ``qx`` is bound the star ``qa -> [qx, qy]``
    leaves ``r`` one row, ``(first, second)``: its ``qy`` column never holds
    the first neighbor although its slot does.  Each machine ships exactly
    its own roots' distinct values, on dense IDs and on IDs spread too far
    apart to pack with a machine number into one integer.
    """
    roots = 8
    labels = {node: "a" for node in range(roots)}
    edges = []
    for root in range(roots):
        first, second, hub = 100 + 2 * root, 101 + 2 * root, 300 + root
        labels.update({first: "b", second: "b", hub: "c"})
        edges += [(root, first), (root, second), (first, hub)]
    if sparse:
        spread = {node: rank << 57 for rank, node in enumerate(sorted(labels))}
        labels = {spread[node]: label for node, label in labels.items()}
        edges = [(spread[u], spread[v]) for u, v in edges]
    graph = LabeledGraph.from_edges(labels, edges)
    query = QueryGraph(
        {"qa": "a", "qx": "b", "qy": "b", "qz": "c"},
        [("qx", "qz"), ("qa", "qx"), ("qa", "qy")],
    )
    stwigs = [STwig("qx", ("qz",)), STwig("qa", ("qx", "qy"))]
    cloud = MemoryCloud.from_graph(graph, ClusterConfig(machine_count=machine_count))
    plan = QueryPlan(
        query=query,
        stwigs=stwigs,
        head_index=0,
        load_sets=full_load_sets(len(stwigs), 0, machine_count),
        machine_count=machine_count,
        config=MatcherConfig(),
    )
    assert_fusion(cloud, plan, chunk_count=3)
