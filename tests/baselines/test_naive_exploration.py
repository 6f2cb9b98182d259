"""Unit tests for the naive graph-exploration baseline (Section 3)."""

from __future__ import annotations

import pytest

from repro.baselines.vf2 import vf2_match
from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.graph.generators.erdos_renyi import generate_gnm
from repro.query.generators import dfs_query, random_query_from_graph
from repro.query.query_graph import QueryGraph
from repro.workloads.datasets import paper_figure5_graph, tiny_example_graph

from benchmarks.paper.naive_exploration import naive_exploration_match
from tests.helpers import counter_snapshot


def normalize(matches):
    return sorted(tuple(sorted(m.items())) for m in matches)


def make_cloud(graph, machine_count=3):
    return MemoryCloud.from_graph(graph, ClusterConfig(machine_count=machine_count))


class TestKnownAnswers:
    def test_two_matches_on_tiny_graph(self):
        graph = tiny_example_graph()
        query = QueryGraph(
            {"qa": "a", "qb": "b", "qc": "c", "qd": "d"},
            [("qa", "qb"), ("qa", "qc"), ("qb", "qc"), ("qc", "qd")],
        )
        matches = naive_exploration_match(make_cloud(graph), query)
        assert normalize(matches) == normalize(vf2_match(graph, query))

    def test_single_node_query(self):
        graph = tiny_example_graph()
        query = QueryGraph({"x": "b"}, [])
        matches = naive_exploration_match(make_cloud(graph), query)
        assert sorted(m["x"] for m in matches) == [3, 6]

    def test_no_match(self):
        graph = tiny_example_graph()
        query = QueryGraph({"x": "zzz", "y": "a"}, [("x", "y")])
        assert naive_exploration_match(make_cloud(graph), query) == []

    def test_limit(self):
        graph = generate_gnm(50, 200, label_count=2, seed=4)
        query = QueryGraph({"u": "L0", "v": "L1"}, [("u", "v")])
        assert len(naive_exploration_match(make_cloud(graph), query, limit=5)) == 5


class TestAgainstVf2:
    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_on_random_graphs(self, seed):
        graph = generate_gnm(60, 150, label_count=4, seed=seed)
        query = (
            dfs_query(graph, 4, seed=seed)
            if seed % 2 == 0
            else random_query_from_graph(graph, 4, 4, seed=seed)
        )
        expected = normalize(vf2_match(graph, query))
        got = normalize(naive_exploration_match(make_cloud(graph), query))
        assert got == expected


class TestCostAccounting:
    def test_exploration_charges_cloud_accesses(self):
        graph = generate_gnm(80, 240, label_count=3, seed=9)
        cloud = make_cloud(graph)
        query = dfs_query(graph, 4, seed=9)
        cloud.reset_metrics()
        naive_exploration_match(cloud, query, limit=50)
        snapshot = cloud.metrics.snapshot()
        assert snapshot["local_loads"] + snapshot["remote_loads"] > 0
        assert snapshot["index_lookups"] > 0

    def test_pinned_accounting(self):
        """Exact counters on fixed inputs: a global label lookup charges one
        index lookup per machine, and the walk's loads and probes are fixed."""
        triangle = QueryGraph(
            {"x": "a", "y": "b", "z": "c"}, [("x", "y"), ("x", "z"), ("y", "z")]
        )
        cloud = make_cloud(paper_figure5_graph())
        assert len(naive_exploration_match(cloud, triangle)) == 9
        assert cloud.metrics.snapshot() == counter_snapshot(
            local_loads=25, local_label_probes=16, remote_label_probes=19,
            index_lookups=3, messages=38, bytes_transferred=475,
        )
        cloud.reset_metrics()
        assert len(naive_exploration_match(cloud, triangle, limit=2)) == 2
        assert cloud.metrics.snapshot() == counter_snapshot(
            local_loads=9, local_label_probes=6, remote_label_probes=10,
            index_lookups=3, messages=20, bytes_transferred=250,
        )
        tiny = make_cloud(tiny_example_graph())
        query = QueryGraph(
            {"qa": "a", "qb": "b", "qc": "c", "qd": "d"},
            [("qa", "qb"), ("qa", "qc"), ("qb", "qc"), ("qc", "qd")],
        )
        assert len(naive_exploration_match(tiny, query)) == 2
        assert tiny.metrics.snapshot() == counter_snapshot(
            local_loads=9, local_label_probes=2, remote_label_probes=10,
            index_lookups=3, messages=20, bytes_transferred=250,
        )
