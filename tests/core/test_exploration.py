"""Unit tests for the binding-carrying exploration phase."""

from __future__ import annotations

import pytest

from repro.cloud.cluster import MemoryCloud
from repro.core.exploration import explore
from repro.core.planner import MatcherConfig, QueryPlanner
from repro.query.query_graph import QueryGraph
from repro.workloads.datasets import paper_figure5_graph, tiny_example_graph

from tests.helpers import bound_set, triangle_tail_query
from tests.helpers import make_cloud as build_cloud


def make_cloud(machine_count: int = 3) -> MemoryCloud:
    return build_cloud(tiny_example_graph(), machine_count=machine_count)


@pytest.fixture
def query() -> QueryGraph:
    return triangle_tail_query()


class TestExplore:
    def test_tables_shape(self, query):
        cloud = make_cloud()
        plan = QueryPlanner(cloud).plan(query)
        outcome = explore(cloud, plan)
        assert len(outcome.tables) == cloud.machine_count
        assert all(len(machine) == len(plan.stwigs) for machine in outcome.tables)

    def test_table_columns_match_stwigs(self, query):
        cloud = make_cloud()
        plan = QueryPlanner(cloud).plan(query)
        outcome = explore(cloud, plan)
        for machine_tables in outcome.tables:
            for stwig, table in zip(plan.stwigs, machine_tables):
                assert table.columns == stwig.nodes

    def test_bindings_cover_all_query_nodes(self, query):
        cloud = make_cloud()
        plan = QueryPlanner(cloud).plan(query)
        outcome = explore(cloud, plan)
        assert all(outcome.bindings.is_bound(node) for node in query.nodes())

    def test_bindings_contain_true_match_nodes(self, query):
        # The two known matches use nodes {1, 2} for qa, {3} for qb, {4} for
        # qc, {5} for qd — those must survive in the binding sets.
        cloud = make_cloud()
        plan = QueryPlanner(cloud).plan(query)
        outcome = explore(cloud, plan)
        assert {1, 2} <= bound_set(outcome.bindings, "qa")
        assert 3 in bound_set(outcome.bindings, "qb")
        assert 4 in bound_set(outcome.bindings, "qc")
        assert 5 in bound_set(outcome.bindings, "qd")

    def test_not_empty_for_satisfiable_query(self, query):
        cloud = make_cloud()
        plan = QueryPlanner(cloud).plan(query)
        assert not explore(cloud, plan).empty

    def test_empty_for_unsatisfiable_query(self):
        cloud = make_cloud()
        query = QueryGraph({"x": "a", "y": "zzz"}, [("x", "y")])
        plan = QueryPlanner(cloud).plan(query)
        outcome = explore(cloud, plan)
        assert outcome.empty

    def test_total_rows_counts_all_tables(self, query):
        cloud = make_cloud()
        plan = QueryPlanner(cloud).plan(query)
        outcome = explore(cloud, plan)
        assert outcome.total_rows() == sum(
            table.row_count for machine in outcome.tables for table in machine
        )
        assert outcome.total_rows() > 0

    def test_rows_for_stwig(self, query):
        cloud = make_cloud()
        plan = QueryPlanner(cloud).plan(query)
        outcome = explore(cloud, plan)
        per_stwig = [
            sum(machine[index].row_count for machine in outcome.tables)
            for index in range(len(plan.stwigs))
        ]
        assert all(per_stwig), "every STwig of a satisfiable query matches somewhere"
        assert sum(per_stwig) == outcome.total_rows()

    def test_binding_filter_reduces_or_preserves_rows(self, query):
        cloud_filtered = make_cloud()
        plan_filtered = QueryPlanner(cloud_filtered, MatcherConfig()).plan(query)
        filtered_rows = explore(cloud_filtered, plan_filtered).total_rows()

        cloud_unfiltered = make_cloud()
        plan_unfiltered = QueryPlanner(
            cloud_unfiltered, MatcherConfig(use_binding_filter=False)
        ).plan(query)
        unfiltered_rows = explore(cloud_unfiltered, plan_unfiltered).total_rows()
        assert filtered_rows <= unfiltered_rows

    def test_root_locality(self, query):
        # Every row's root node must be owned by the machine that produced it.
        cloud = build_cloud(paper_figure5_graph(), machine_count=4)
        from repro.query.generators import dfs_query

        pattern = dfs_query(paper_figure5_graph(), 5, seed=2)
        plan = QueryPlanner(cloud).plan(pattern)
        outcome = explore(cloud, plan)
        for machine_id, machine_tables in enumerate(outcome.tables):
            for table in machine_tables:
                for row in table.rows:
                    assert cloud.owner_of(row[0]) == machine_id
