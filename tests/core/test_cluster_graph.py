"""Unit tests for the cluster graph and its distance bound (Theorem 3)."""

from __future__ import annotations

import pytest

from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.core.cluster_graph import (
    UNREACHABLE,
    build_cluster_graph,
    cluster_distances,
    query_label_pairs,
)
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.partition import RoundRobinPartitioner
from repro.query.query_graph import QueryGraph


@pytest.fixture
def striped_cloud() -> MemoryCloud:
    """A path graph a-b-c-a-b-c... striped across 3 machines round-robin."""
    labels = {i: "abc"[i % 3] for i in range(9)}
    edges = [(i, i + 1) for i in range(8)]
    graph = LabeledGraph.from_edges(labels, edges)
    config = ClusterConfig(machine_count=3, partitioner=RoundRobinPartitioner())
    return MemoryCloud.from_graph(graph, config)


class TestQueryLabelPairs:
    def test_pairs_of_triangle(self):
        query = QueryGraph(
            {"x": "a", "y": "b", "z": "c"}, [("x", "y"), ("y", "z"), ("z", "x")]
        )
        pairs = query_label_pairs(query)
        assert frozenset(("a", "b")) in pairs
        assert frozenset(("b", "c")) in pairs
        assert frozenset(("a", "c")) in pairs

    def test_same_label_edge(self):
        query = QueryGraph({"x": "a", "y": "a"}, [("x", "y")])
        assert query_label_pairs(query) == {frozenset(("a",))}


class TestBuildClusterGraph:
    def test_edges_only_for_relevant_label_pairs(self, striped_cloud):
        # Query with a single edge (a, b): only machine pairs connected by an
        # a-b data edge appear in the cluster graph.
        query = QueryGraph({"x": "a", "y": "b"}, [("x", "y")])
        adjacency = build_cluster_graph(striped_cloud, query)
        for machine, neighbors in adjacency.items():
            for neighbor in neighbors:
                pairs = striped_cloud.label_pairs_between(machine, neighbor)
                assert frozenset(("a", "b")) in pairs

    def test_irrelevant_query_gives_empty_graph(self, striped_cloud):
        query = QueryGraph({"x": "zz", "y": "ww"}, [("x", "y")])
        adjacency = build_cluster_graph(striped_cloud, query)
        assert all(not neighbors for neighbors in adjacency.values())

    def test_adjacency_is_symmetric(self, striped_cloud):
        query = QueryGraph(
            {"x": "a", "y": "b", "z": "c"}, [("x", "y"), ("y", "z")]
        )
        adjacency = build_cluster_graph(striped_cloud, query)
        for machine, neighbors in adjacency.items():
            for neighbor in neighbors:
                assert machine in adjacency[neighbor]


class TestClusterDistances:
    def test_distances_of_triangle(self):
        adjacency = {0: {1}, 1: {0, 2}, 2: {1}}
        distances = cluster_distances(adjacency)
        assert distances[(0, 0)] == 0
        assert distances[(0, 1)] == 1
        assert distances[(0, 2)] == 2

    def test_unreachable(self):
        adjacency = {0: set(), 1: set()}
        distances = cluster_distances(adjacency)
        assert distances[(0, 1)] == UNREACHABLE

    def test_theorem3_bound(self, striped_cloud):
        # D_C(machine(u), machine(v)) <= D_Gq(u, v) for data nodes u, v: check
        # the 1-hop case (every data edge relevant to the query).
        query = QueryGraph(
            {"x": "a", "y": "b", "z": "c"}, [("x", "y"), ("y", "z"), ("x", "z")]
        )
        adjacency = build_cluster_graph(striped_cloud, query)
        distances = cluster_distances(adjacency)
        for machine in striped_cloud.machines:
            for node in striped_cloud.columns()[f"machine{machine.machine_id}/node_ids"].tolist():
                for neighbor in striped_cloud.load(node).neighbors:
                    other = striped_cloud.owner_of(neighbor)
                    assert distances[(machine.machine_id, other)] <= 1
