"""Unit tests for graph statistics helpers."""

from __future__ import annotations

from repro.graph.labeled_graph import LabeledGraph
from repro.graph.stats import compute_stats


def star_graph() -> LabeledGraph:
    """A star: node 0 (hub, label h) connected to 4 leaves (label l)."""
    labels = {0: "h", 1: "l", 2: "l", 3: "l", 4: "l"}
    return LabeledGraph.from_edges(labels, [(0, i) for i in range(1, 5)])


class TestComputeStats:
    def test_counts(self):
        stats = compute_stats(star_graph())
        assert stats.node_count == 5
        assert stats.edge_count == 4
        assert stats.label_count == 2

    def test_degrees(self):
        stats = compute_stats(star_graph())
        assert stats.min_degree == 1
        assert stats.max_degree == 4
        assert stats.average_degree == 2 * 4 / 5

    def test_label_density(self):
        stats = compute_stats(star_graph())
        assert stats.label_density == 2 / 5

    def test_as_row_keys(self):
        row = compute_stats(star_graph()).as_row()
        assert {"nodes", "edges", "labels", "avg_degree"}.issubset(row)

