"""Unit tests for the Ullmann, VF2, edge-join, and signature baselines.

All four baselines implement the same semantics (subgraph isomorphism on
vertex-labeled undirected graphs), so most tests run the same scenarios
through every method and compare against hand-computed or networkx answers.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.baselines.ullmann import ullmann_match
from repro.baselines.vf2 import vf2_match
from repro.graph.generators.erdos_renyi import generate_gnm
from repro.graph.labeled_graph import LabeledGraph
from repro.query.query_graph import QueryGraph
from repro.workloads.datasets import tiny_example_graph

from benchmarks.paper.edge_join import EdgeIndex, EdgeJoinStats, edge_join_match
from benchmarks.paper.neighborhood_index import (
    NeighborhoodSignatureIndex,
    signature_match,
)

ALL_METHODS = [ullmann_match, vf2_match, edge_join_match, signature_match]
METHOD_IDS = ["ullmann", "vf2", "edge_join", "signature"]


def normalize(matches):
    return sorted(tuple(sorted(m.items())) for m in matches)


@pytest.fixture(scope="module")
def triangle_tail_query() -> QueryGraph:
    return QueryGraph(
        {"qa": "a", "qb": "b", "qc": "c", "qd": "d"},
        [("qa", "qb"), ("qa", "qc"), ("qb", "qc"), ("qc", "qd")],
    )


class TestKnownAnswers:
    @pytest.mark.parametrize("method", ALL_METHODS, ids=METHOD_IDS)
    def test_two_matches_on_tiny_graph(self, method, triangle_tail_query):
        matches = method(tiny_example_graph(), triangle_tail_query)
        assert normalize(matches) == [
            (("qa", 1), ("qb", 3), ("qc", 4), ("qd", 5)),
            (("qa", 2), ("qb", 3), ("qc", 4), ("qd", 5)),
        ]

    @pytest.mark.parametrize("method", ALL_METHODS, ids=METHOD_IDS)
    def test_single_edge_query(self, method):
        query = QueryGraph({"x": "c", "y": "d"}, [("x", "y")])
        matches = method(tiny_example_graph(), query)
        assert normalize(matches) == [(("x", 4), ("y", 5))]

    @pytest.mark.parametrize("method", ALL_METHODS, ids=METHOD_IDS)
    def test_no_match_for_absent_label(self, method):
        query = QueryGraph({"x": "zzz", "y": "b"}, [("x", "y")])
        assert method(tiny_example_graph(), query) == []

    @pytest.mark.parametrize("method", ALL_METHODS, ids=METHOD_IDS)
    def test_automorphic_matches_counted_separately(self, method):
        # A path x - y where both ends share a label has two symmetric matches.
        graph = LabeledGraph.from_edges({0: "p", 1: "p"}, [(0, 1)])
        query = QueryGraph({"u": "p", "v": "p"}, [("u", "v")])
        assert len(method(graph, query)) == 2

    @pytest.mark.parametrize("method", ALL_METHODS, ids=METHOD_IDS)
    def test_injectivity_enforced(self, method):
        # Query triangle of label 'p' cannot match a single edge.
        graph = LabeledGraph.from_edges({0: "p", 1: "p"}, [(0, 1)])
        query = QueryGraph(
            {"u": "p", "v": "p", "w": "p"}, [("u", "v"), ("v", "w"), ("w", "u")]
        )
        assert method(graph, query) == []

    @pytest.mark.parametrize("method", [ullmann_match, vf2_match, signature_match])
    def test_limit_respected(self, method):
        graph = generate_gnm(40, 120, label_count=2, seed=5)
        query = QueryGraph({"u": "L0", "v": "L1"}, [("u", "v")])
        assert len(method(graph, query, limit=3)) == 3


class TestAgainstNetworkx:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_networkx_counts(self, seed):
        graph = generate_gnm(30, 70, label_count=3, seed=seed)
        query = QueryGraph(
            {"u": "L0", "v": "L1", "w": "L2"}, [("u", "v"), ("v", "w")]
        )
        expected = _networkx_match_count(graph, query)
        assert len(vf2_match(graph, query)) == expected
        assert len(ullmann_match(graph, query)) == expected
        assert len(edge_join_match(graph, query)) == expected
        assert len(signature_match(graph, query)) == expected


def _networkx_match_count(graph: LabeledGraph, query: QueryGraph) -> int:
    nx_graph = graph.to_networkx()
    nx_query = nx.Graph()
    for node in query.nodes():
        nx_query.add_node(node, label=query.label(node))
    nx_query.add_edges_from(query.edges())
    matcher = nx.algorithms.isomorphism.GraphMatcher(
        nx_graph,
        nx_query,
        node_match=lambda a, b: a["label"] == b["label"],
    )
    return sum(1 for _ in matcher.subgraph_monomorphisms_iter())


class TestBaselineCrossAgreement:
    @pytest.mark.parametrize("seed", range(8))
    def test_all_methods_agree_on_random_graphs(self, seed):
        from repro.query.generators import dfs_query

        graph = generate_gnm(50, 120, label_count=4, seed=seed)
        query = dfs_query(graph, 4, seed=seed)
        reference = normalize(vf2_match(graph, query))
        assert normalize(ullmann_match(graph, query)) == reference
        assert normalize(edge_join_match(graph, query)) == reference
        assert normalize(signature_match(graph, query)) == reference
        assert len(reference) >= 1  # DFS queries always have a match


class TestEdgeIndex:
    def test_edges_for_label_pair(self):
        graph = tiny_example_graph()
        index = EdgeIndex(graph)
        assert set(index.edges_for("c", "d")) == {(4, 5)}
        assert set(index.edges_for("d", "c")) == {(4, 5)}

    def test_size_linear_in_edges(self):
        graph = tiny_example_graph()
        assert EdgeIndex(graph).size_in_entries() == graph.edge_count

    def test_stats_collected(self):
        stats = EdgeJoinStats()
        query = QueryGraph({"x": "a", "y": "b"}, [("x", "y")])
        edge_join_match(tiny_example_graph(), query, stats=stats)
        assert stats.edge_tables == 1
        assert stats.intermediate_rows > 0

    def test_single_node_query(self):
        query = QueryGraph({"x": "a"}, [])
        matches = edge_join_match(tiny_example_graph(), query)
        assert sorted(m["x"] for m in matches) == [1, 2]


class TestSignatureIndex:
    def test_signature_counts_neighbor_labels(self):
        graph = tiny_example_graph()
        index = NeighborhoodSignatureIndex(graph, radius=1)
        signature = index.signature(4)  # node 4 has label c, neighbors a, a, b, d
        assert signature["a"] == 2
        assert signature["b"] == 1
        assert signature["d"] == 1

    def test_radius_two_signature_larger(self):
        graph = tiny_example_graph()
        r1 = NeighborhoodSignatureIndex(graph, radius=1)
        r2 = NeighborhoodSignatureIndex(graph, radius=2)
        assert sum(r2.signature(1).values()) >= sum(r1.signature(1).values())

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            NeighborhoodSignatureIndex(tiny_example_graph(), radius=0)

    def test_candidates_dominance_filter(self):
        from collections import Counter

        graph = tiny_example_graph()
        index = NeighborhoodSignatureIndex(graph, radius=1)
        # Nodes labeled 'a' adjacent to at least one b and one c: both a1 and a2.
        assert index.candidates("a", Counter({"b": 1, "c": 1})) == [1, 2]
        # Requiring two 'b' neighbors eliminates both.
        assert index.candidates("a", Counter({"b": 2})) == []
