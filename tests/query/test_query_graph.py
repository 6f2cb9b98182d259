"""Unit tests for the QueryGraph model."""

from __future__ import annotations

import pytest

from repro.errors import QueryError
from repro.query.query_graph import QueryGraph


@pytest.fixture
def square_query() -> QueryGraph:
    """The 4-cycle query of Figure 3(d): a-b-c-d-a."""
    return QueryGraph(
        {"a": "La", "b": "Lb", "c": "Lc", "d": "Ld"},
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")],
    )


class TestConstruction:
    def test_counts(self, square_query):
        assert square_query.node_count == 4
        assert square_query.edge_count == 4

    def test_empty_query_rejected(self):
        with pytest.raises(QueryError):
            QueryGraph({}, [])

    def test_edge_with_unknown_node_rejected(self):
        with pytest.raises(QueryError):
            QueryGraph({"a": "x"}, [("a", "b")])

    def test_self_loop_rejected(self):
        with pytest.raises(QueryError):
            QueryGraph({"a": "x"}, [("a", "a")])

    def test_disconnected_query_rejected_by_default(self):
        with pytest.raises(QueryError):
            QueryGraph({"a": "x", "b": "y"}, [])

    def test_disconnected_query_allowed_when_requested(self):
        query = QueryGraph({"a": "x", "b": "y"}, [], require_connected=False)
        assert query.node_count == 2

    def test_single_node_query_is_connected(self):
        query = QueryGraph({"a": "x"}, [])
        assert query.node_count == 1
        assert query.edge_count == 0

    def test_duplicate_edges_collapse(self):
        query = QueryGraph({"a": "x", "b": "y"}, [("a", "b"), ("b", "a")])
        assert query.edge_count == 1


class TestAccessors:
    def test_nodes_sorted(self, square_query):
        assert square_query.nodes() == ("a", "b", "c", "d")

    def test_edges_normalized(self, square_query):
        assert ("a", "b") in square_query.edges()
        assert ("a", "d") in square_query.edges()

    def test_label(self, square_query):
        assert square_query.label("c") == "Lc"
        with pytest.raises(QueryError):
            square_query.label("nope")

    def test_neighbors(self, square_query):
        assert square_query.neighbors("a") == ("b", "d")
        with pytest.raises(QueryError):
            square_query.neighbors("nope")

    def test_degree(self, square_query):
        assert square_query.degree("a") == 2

    def test_has_edge(self, square_query):
        assert square_query.has_edge("a", "b")
        assert square_query.has_edge("b", "a")
        assert not square_query.has_edge("a", "c")

    def test_distinct_labels(self, square_query):
        assert square_query.distinct_labels() == ("La", "Lb", "Lc", "Ld")

    def test_labels_copy(self, square_query):
        labels = square_query.labels()
        labels["a"] = "mutated"
        assert square_query.label("a") == "La"

    def test_iter(self, square_query):
        assert list(square_query) == ["a", "b", "c", "d"]


class TestAlgorithms:
    def test_shortest_paths_on_cycle(self, square_query):
        dist = square_query.shortest_path_lengths()
        assert dist[("a", "a")] == 0
        assert dist[("a", "b")] == 1
        assert dist[("a", "c")] == 2
        assert dist[("b", "d")] == 2

    def test_shortest_paths_on_path_query(self):
        query = QueryGraph(
            {"x": "1", "y": "2", "z": "3"}, [("x", "y"), ("y", "z")]
        )
        dist = query.shortest_path_lengths()
        assert dist[("x", "z")] == 2

    def test_copy_is_equal_but_independent(self, square_query):
        clone = square_query.copy()
        assert clone.nodes() == square_query.nodes()
        assert clone.edges() == square_query.edges()
