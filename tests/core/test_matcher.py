"""Unit tests for MatchSTwig (Algorithm 1)."""

from __future__ import annotations

import pytest

from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.core.bindings import BindingTable
from repro.core.matcher import match_stwig
from repro.core.stwig import STwig
from repro.graph.labeled_graph import LabeledGraph
from repro.query.query_graph import QueryGraph

from tests.helpers import make_cloud, stwig_example_graph, stwig_example_query


@pytest.fixture
def data_graph() -> LabeledGraph:
    """Small graph with known STwig matches: two 'a' roots, shared children."""
    return stwig_example_graph()


@pytest.fixture
def query() -> QueryGraph:
    return stwig_example_query()


def single_machine_cloud(graph: LabeledGraph) -> MemoryCloud:
    return make_cloud(graph, machine_count=1)


def all_rows(cloud: MemoryCloud, stwig: STwig, query: QueryGraph, bindings=None):
    """Union of match_stwig over every machine."""
    rows = []
    for machine in cloud.machines:
        rows.extend(match_stwig(cloud, machine.machine_id, stwig, query, bindings).rows)
    return sorted(rows)


class TestMatchSTwigSingleMachine:
    def test_basic_stwig(self, data_graph, query):
        cloud = single_machine_cloud(data_graph)
        stwig = STwig("qa", ("qb", "qc"))
        table = match_stwig(cloud, 0, stwig, query)
        assert table.columns == ("qa", "qb", "qc")
        assert sorted(table.rows) == [(1, 10, 20), (2, 10, 20), (2, 11, 20)]

    def test_leafless_stwig_returns_label_matches(self, data_graph, query):
        cloud = single_machine_cloud(data_graph)
        table = match_stwig(cloud, 0, STwig("qa", ()), query)
        assert sorted(table.rows) == [(1,), (2,)]

    def test_no_match_when_label_absent(self, data_graph):
        cloud = single_machine_cloud(data_graph)
        query = QueryGraph({"x": "zzz", "y": "b"}, [("x", "y")])
        table = match_stwig(cloud, 0, STwig("x", ("y",)), query)
        assert table.row_count == 0

    def test_injectivity_between_same_label_leaves(self):
        # Root 'r' with two 'x'-labeled children: leaves must be distinct nodes.
        graph = LabeledGraph.from_edges(
            {0: "r", 1: "x", 2: "x"}, [(0, 1), (0, 2)]
        )
        query = QueryGraph(
            {"qr": "r", "q1": "x", "q2": "x"}, [("qr", "q1"), ("qr", "q2")]
        )
        cloud = single_machine_cloud(graph)
        table = match_stwig(cloud, 0, STwig("qr", ("q1", "q2")), query)
        assert sorted(table.rows) == [(0, 1, 2), (0, 2, 1)]


class TestMatchSTwigWithBindings:
    def test_bound_root_restricts_candidates(self, data_graph, query):
        cloud = single_machine_cloud(data_graph)
        bindings = BindingTable(query)
        bindings.bind("qa", [2])
        table = match_stwig(cloud, 0, STwig("qa", ("qb", "qc")), query, bindings)
        assert {row[0] for row in table.rows} == {2}

    def test_bound_leaf_restricts_candidates(self, data_graph, query):
        cloud = single_machine_cloud(data_graph)
        bindings = BindingTable(query)
        bindings.bind("qb", [11])
        table = match_stwig(cloud, 0, STwig("qa", ("qb", "qc")), query, bindings)
        assert sorted(table.rows) == [(2, 11, 20)]

    def test_empty_binding_gives_no_rows(self, data_graph, query):
        cloud = single_machine_cloud(data_graph)
        bindings = BindingTable(query)
        bindings.bind("qa", [])
        table = match_stwig(cloud, 0, STwig("qa", ("qb", "qc")), query, bindings)
        assert table.row_count == 0

    def test_bound_leaf_skips_label_probes(self, data_graph, query):
        cloud = single_machine_cloud(data_graph)
        bindings = BindingTable(query)
        bindings.bind("qb", [10, 11])
        bindings.bind("qc", [20])
        cloud.reset_metrics()
        match_stwig(cloud, 0, STwig("qa", ("qb", "qc")), query, bindings)
        # All leaves are bound, so hasLabel is never called.
        snapshot = cloud.metrics.snapshot()
        assert snapshot["local_label_probes"] == 0
        assert snapshot["remote_label_probes"] == 0


class TestMatchSTwigDistributed:
    def test_union_over_machines_equals_single_machine(self, data_graph, query):
        stwig = STwig("qa", ("qb", "qc"))
        single = all_rows(single_machine_cloud(data_graph), stwig, query)
        multi_cloud = MemoryCloud.from_graph(data_graph, ClusterConfig(machine_count=3))
        multi = all_rows(multi_cloud, stwig, query)
        assert single == multi

    def test_roots_are_local_to_each_machine(self, data_graph, query):
        cloud = MemoryCloud.from_graph(data_graph, ClusterConfig(machine_count=3))
        stwig = STwig("qa", ("qb", "qc"))
        for machine in cloud.machines:
            table = match_stwig(cloud, machine.machine_id, stwig, query)
            for row in table.rows:
                assert cloud.owner_of(row[0]) == machine.machine_id

    def test_remote_label_probes_charged(self, data_graph, query):
        from repro.graph.partition import RoundRobinPartitioner

        # Round-robin placement guarantees root 1 (machine 0) has children on
        # other machines, so hasLabel probes must cross the network.
        config = ClusterConfig(machine_count=3, partitioner=RoundRobinPartitioner())
        cloud = MemoryCloud.from_graph(data_graph, config)
        cloud.reset_metrics()
        all_rows(cloud, STwig("qa", ("qb", "qc")), query)
        snapshot = cloud.metrics.snapshot()
        assert snapshot["remote_label_probes"] > 0

    def test_one_tag_gather_per_call_whatever_the_leaf_count(self, data_graph, query, monkeypatch):
        cloud = MemoryCloud.from_graph(data_graph, ClusterConfig(machine_count=3))
        gathered = []
        real = cloud.labels_and_owners

        def counting(node_ids):
            gathered.append(len(node_ids))
            return real(node_ids)

        monkeypatch.setattr(cloud, "labels_and_owners", counting)
        stwig = STwig("qa", ("qb", "qc"))
        expected = all_rows(single_machine_cloud(data_graph), stwig, query)
        assert all_rows(cloud, stwig, query) == expected
        # One match_stwig call per machine, each gathering its flat neighbor
        # array's tags once for both unbound leaves.
        assert len(gathered) == cloud.machine_count
