"""Unit tests for graph IO (label/edge files)."""

from __future__ import annotations

import pytest

from repro.errors import GraphError
from repro.graph.io import (
    load_graph,
    read_edge_file,
    read_label_file,
    save_graph,
    write_edge_file,
    write_label_file,
)
from repro.graph.labeled_graph import LabeledGraph


@pytest.fixture
def sample_graph() -> LabeledGraph:
    return LabeledGraph.from_edges(
        {0: "alpha", 1: "beta", 2: "alpha"}, [(0, 1), (1, 2)]
    )


class TestLabelFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "nodes.labels"
        write_label_file(path, {3: "x", 1: "y"})
        assert read_label_file(path) == {1: "y", 3: "x"}

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "nodes.labels"
        path.write_text("# comment\n\n1\tx\n")
        assert read_label_file(path) == {1: "x"}

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "nodes.labels"
        path.write_text("1 x y\n")
        with pytest.raises(GraphError):
            read_label_file(path)

    def test_non_integer_id_names_path_and_line(self, tmp_path):
        path = tmp_path / "nodes.labels"
        path.write_text("1\tx\nseven\ty\n")
        with pytest.raises(GraphError, match=rf"{path}:2: node ID 'seven'"):
            read_label_file(path)

    def test_empty_file_yields_empty_mapping(self, tmp_path):
        path = tmp_path / "nodes.labels"
        path.write_text("")
        assert read_label_file(path) == {}

    @pytest.mark.parametrize("label", ["a ", " a", "", "x\ty", "x\ny", "x\ry"])
    def test_label_that_would_not_round_trip_is_refused_before_writing(
        self, tmp_path, label
    ):
        path = tmp_path / "nodes.labels"
        with pytest.raises(GraphError, match="node 7"):
            write_label_file(path, {1: "ok", 7: label})
        assert not path.exists()

    def test_inner_space_round_trips(self, tmp_path):
        path = tmp_path / "nodes.labels"
        write_label_file(path, {1: "two words"})
        assert read_label_file(path) == {1: "two words"}

    def test_relabel_names_path_and_line(self, tmp_path):
        path = tmp_path / "nodes.labels"
        path.write_text("0\ta\n1\tb\n0\tc\n")
        with pytest.raises(GraphError, match=rf"{path}:3: node 0 relabeled"):
            read_label_file(path)

    def test_repeat_with_same_label_accepted(self, tmp_path):
        path = tmp_path / "nodes.labels"
        path.write_text("0\ta\n1\tb\n0\ta\n")
        assert read_label_file(path) == {0: "a", 1: "b"}


class TestEdgeFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "graph.edges"
        write_edge_file(path, iter([(0, 1), (1, 2)]))
        assert read_edge_file(path) == [(0, 1), (1, 2)]

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "graph.edges"
        path.write_text("0\n")
        with pytest.raises(GraphError):
            read_edge_file(path)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "graph.edges"
        path.write_text("# header\n\n0\t1\n\n# tail\n1\t2\n")
        assert read_edge_file(path) == [(0, 1), (1, 2)]

    def test_non_integer_endpoint_names_path_and_line(self, tmp_path):
        path = tmp_path / "graph.edges"
        path.write_text("0\t1\n0\ttwo\n")
        with pytest.raises(GraphError, match=rf"{path}:2: edge endpoints"):
            read_edge_file(path)

    def test_empty_file_yields_no_edges(self, tmp_path):
        path = tmp_path / "graph.edges"
        path.write_text("")
        assert read_edge_file(path) == []


class TestGraphRoundtrip:
    def test_save_and_load(self, tmp_path, sample_graph):
        prefix = tmp_path / "g"
        label_path, edge_path = save_graph(prefix, sample_graph)
        assert label_path.exists() and edge_path.exists()
        loaded = load_graph(prefix)
        assert loaded.node_count == sample_graph.node_count
        assert loaded.edge_count == sample_graph.edge_count
        assert loaded.labels() == sample_graph.labels()
        assert sorted(loaded.edges()) == sorted(sample_graph.edges())

    def test_dotted_prefix_keeps_every_component(self, tmp_path, sample_graph):
        # Regression: Path.with_suffix() used to rewrite "graph.v1" to
        # "graph.labels", colliding every dotted prefix onto one file pair.
        prefix = tmp_path / "graph.v1"
        label_path, edge_path = save_graph(prefix, sample_graph)
        assert label_path.name == "graph.v1.labels"
        assert edge_path.name == "graph.v1.edges"
        loaded = load_graph(prefix)
        assert sorted(loaded.edges()) == sorted(sample_graph.edges())

    def test_dotted_prefixes_do_not_collide(self, tmp_path, sample_graph):
        other = LabeledGraph.from_edges({7: "zeta", 8: "zeta"}, [(7, 8)])
        save_graph(tmp_path / "graph.v1", sample_graph)
        save_graph(tmp_path / "graph.v2", other)
        assert sorted(load_graph(tmp_path / "graph.v1").edges()) == sorted(
            sample_graph.edges()
        )
        assert sorted(load_graph(tmp_path / "graph.v2").edges()) == [(7, 8)]

    def test_unwritable_label_writes_neither_file(self, tmp_path):
        graph = LabeledGraph.from_edges({0: "a", 1: "a "}, [(0, 1)])
        with pytest.raises(GraphError, match="node 1"):
            save_graph(tmp_path / "g", graph)
        assert list(tmp_path.iterdir()) == []

    def test_empty_graph_roundtrip(self, tmp_path):
        empty = LabeledGraph.from_edges({}, [])
        save_graph(tmp_path / "empty", empty)
        loaded = load_graph(tmp_path / "empty")
        assert loaded.node_count == 0
        assert loaded.edge_count == 0
