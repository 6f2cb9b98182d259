"""Unit tests for the LabeledGraph container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError, NodeNotFoundError
from repro.graph.labeled_graph import LabeledGraph, NodeCell


@pytest.fixture
def path_graph() -> LabeledGraph:
    """A 4-node path a-b-c-d."""
    return LabeledGraph.from_edges(
        {0: "a", 1: "b", 2: "c", 3: "d"}, [(0, 1), (1, 2), (2, 3)]
    )


class TestConstruction:
    def test_from_edges_counts(self, path_graph):
        assert path_graph.node_count == 4
        assert path_graph.edge_count == 3

    def test_duplicate_edges_collapse(self):
        graph = LabeledGraph.from_edges({0: "a", 1: "b"}, [(0, 1), (1, 0), (0, 1)])
        assert graph.edge_count == 1

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            LabeledGraph.from_edges({0: "a"}, [(0, 0)])

    def test_isolated_node_allowed(self):
        graph = LabeledGraph.from_edges({0: "a", 1: "b"}, [])
        assert graph.node_count == 2
        assert graph.edge_count == 0
        assert graph.neighbors(0) == ()

    def test_adjacency_without_label_rejected(self):
        with pytest.raises(GraphError, match="edge endpoint 1 has no label"):
            LabeledGraph.from_edges({0: "a"}, [(0, 1)])

    @pytest.mark.parametrize("node_id", ["x", np.int64(1), 1.0])
    def test_non_int_node_id_rejected(self, node_id):
        with pytest.raises(GraphError, match="node IDs must be ints"):
            LabeledGraph.from_edges({node_id: "a", 2: "b"}, [])

    def test_float_endpoint_rejected_not_truncated(self):
        # np.asarray(0.5, int64) would be node 0: the endpoint is checked first.
        with pytest.raises(GraphError, match="edge endpoint 0.5 has no label"):
            LabeledGraph.from_edges({0: "a", 1: "b"}, [(0.5, 1)])

    def test_numpy_int_endpoint_accepted(self):
        graph = LabeledGraph.from_edges({0: "a", 1: "b"}, [(np.int64(0), 1)])
        assert graph.neighbors(1) == (0,)

    def test_empty_graph(self):
        graph = LabeledGraph.from_edges({}, [])
        assert graph.node_count == 0
        assert graph.edge_count == 0
        assert graph.label_table.labels() == ()

    def test_labels_interned_in_ascending_node_order(self):
        graph = LabeledGraph.from_edges({9: "z", 2: "y", 5: "z", 1: "x"}, [(9, 2)])
        assert graph.label_table.labels() == ("x", "y", "z")
        assert graph.label_id_array().tolist() == [0, 1, 2, 2]
        assert graph.neighbors(2) == (9,)


class TestAccessors:
    def test_label(self, path_graph):
        assert path_graph.label(0) == "a"
        assert path_graph.label(3) == "d"

    def test_label_missing_node(self, path_graph):
        with pytest.raises(NodeNotFoundError):
            path_graph.label(99)

    def test_neighbors_sorted(self):
        graph = LabeledGraph.from_edges(
            {0: "a", 1: "b", 2: "c", 3: "d"}, [(0, 3), (0, 1), (0, 2)]
        )
        assert graph.neighbors(0) == (1, 2, 3)

    def test_neighbors_missing_node(self, path_graph):
        with pytest.raises(NodeNotFoundError):
            path_graph.neighbors(42)

    def test_degree(self, path_graph):
        assert path_graph.degree(0) == 1
        assert path_graph.degree(1) == 2

    def test_has_edge_symmetric(self, path_graph):
        assert path_graph.has_edge(0, 1)
        assert path_graph.has_edge(1, 0)
        assert not path_graph.has_edge(0, 2)

    def test_has_edge_unknown_node(self, path_graph):
        assert not path_graph.has_edge(99, 0)

    def test_has_node_and_contains(self, path_graph):
        assert 2 in path_graph
        assert 99 not in path_graph

    def test_len(self, path_graph):
        assert len(path_graph) == 4

    def test_edges_normalized(self, path_graph):
        assert sorted(path_graph.edges()) == [(0, 1), (1, 2), (2, 3)]

    def test_cell(self, path_graph):
        cell = path_graph.cell(1)
        assert isinstance(cell, NodeCell)
        assert cell.node_id == 1
        assert cell.label == "b"
        assert cell.neighbors == (0, 2)
        assert cell.degree == 2

    def test_repr_mentions_counts(self, path_graph):
        text = repr(path_graph)
        assert "nodes=4" in text and "edges=3" in text


class TestLabelHelpers:
    def test_distinct_labels(self, path_graph):
        assert path_graph.distinct_labels() == ("a", "b", "c", "d")

    def test_nodes_with_label(self):
        graph = LabeledGraph.from_edges({0: "x", 1: "x", 2: "y"}, [(0, 2)])
        assert graph.nodes_with_label("x") == (0, 1)
        assert graph.nodes_with_label("missing") == ()

    def test_label_frequencies(self):
        graph = LabeledGraph.from_edges({0: "x", 1: "x", 2: "y"}, [(0, 2)])
        assert graph.label_frequencies() == {"x": 2, "y": 1}

    def test_labels_returns_copy(self, path_graph):
        labels = path_graph.labels()
        labels[0] = "mutated"
        assert path_graph.label(0) == "a"


class TestSubgraph:
    def test_induced_subgraph(self, path_graph):
        sub = path_graph.subgraph([0, 1, 2])
        assert sub.node_count == 3
        assert sorted(sub.edges()) == [(0, 1), (1, 2)]

    def test_subgraph_preserves_labels(self, path_graph):
        sub = path_graph.subgraph([1, 2])
        assert sub.label(1) == "b"
        assert sub.label(2) == "c"

    def test_subgraph_unknown_node(self, path_graph):
        with pytest.raises(NodeNotFoundError):
            path_graph.subgraph([0, 77])
