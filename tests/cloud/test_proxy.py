"""Unit tests for the query proxy's scatter/gather (Figure 2).

The proxy broadcasts a plan, collects one result set per machine and unions
them without deduplication, which is sound because the head-STwig mechanism
makes the per-machine sets disjoint.  The standalone ``QueryProxy``
demonstration class is gone; these tests hold the engine's own proxy side —
``assemble_results`` over ``machine_result_rows`` — to the same contract.
"""

from __future__ import annotations

import pytest

from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.core.distributed import assemble_results, machine_result_rows
from repro.core.exploration import explore
from repro.core.planner import QueryPlanner
from repro.query.generators import dfs_query
from repro.workloads.datasets import paper_figure5_graph

MACHINES = 4


@pytest.fixture
def scattered():
    """``(cloud, plan, outcome, per-machine rows)`` for one 5-node query."""
    graph = paper_figure5_graph()
    cloud = MemoryCloud.from_graph(graph, ClusterConfig(machine_count=MACHINES))
    plan = QueryPlanner(cloud).plan(dfs_query(graph, 5, seed=1))
    outcome = explore(cloud, plan)
    per_machine = [
        [
            tuple(row)
            for row in machine_result_rows(
                cloud, plan, outcome.tables, machine_id, outcome.bindings
            ).tolist()
        ]
        for machine_id in range(MACHINES)
    ]
    return cloud, plan, outcome, per_machine


class TestScatterGather:
    def test_union_of_per_machine_rows(self, scattered):
        cloud, plan, outcome, per_machine = scattered
        gathered = assemble_results(cloud, plan, outcome).table.rows
        assert gathered  # the query has matches, so the union is not vacuous
        # Machine-ordered concatenation, no deduplication.
        assert gathered == [row for rows in per_machine for row in rows]

    def test_per_machine_counts_recorded(self, scattered):
        cloud, plan, _outcome, per_machine = scattered
        # A machine reports exactly the matches whose head-STwig root it owns.
        head_column = plan.query.nodes().index(plan.head_stwig.root)
        for machine_id, rows in enumerate(per_machine):
            assert {cloud.owner_of(row[head_column]) for row in rows} <= {machine_id}
        assert sum(len(rows) > 0 for rows in per_machine) > 1

    def test_transfer_charged_to_metrics(self, scattered):
        cloud, plan, outcome, _per_machine = scattered
        before = cloud.metrics.messages
        assemble_results(cloud, plan, outcome)
        assert cloud.metrics.messages > before

    def test_disjointness_verification_passes(self, scattered):
        _cloud, _plan, _outcome, per_machine = scattered
        seen: set = set()
        for rows in per_machine:
            assert len(set(rows)) == len(rows)
            assert seen.isdisjoint(rows)
            seen.update(rows)
