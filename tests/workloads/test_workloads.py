"""Unit tests for the canned datasets and query suites."""

from __future__ import annotations

import pytest

from repro.graph.stats import compute_stats
from repro.workloads.datasets import (
    paper_figure5_graph,
    patents_small,
    rmat_graph,
    tiny_example_graph,
    wordnet_small,
)

from benchmarks.paper.suites import (
    DEFAULT_BATCH_SIZE,
    PAPER_RESULT_LIMIT,
    dfs_suite,
    random_suite,
)


class TestDatasets:
    def test_tiny_graph_shape(self):
        graph = tiny_example_graph()
        assert graph.node_count == 6
        assert graph.edge_count == 7
        assert set(graph.distinct_labels()) == {"a", "b", "c", "d"}

    def test_figure5_graph_labels(self):
        graph = paper_figure5_graph()
        assert set(graph.distinct_labels()) == set("abcdef")
        assert graph.node_count == 22

    def test_datasets_are_cached(self):
        assert tiny_example_graph() is tiny_example_graph()
        assert patents_small() is patents_small()

    def test_patents_label_regime(self):
        stats = compute_stats(patents_small())
        # Hundreds of labels: the selective-label regime of US Patents.
        assert stats.label_count > 100

    def test_wordnet_label_regime(self):
        stats = compute_stats(wordnet_small())
        # Five labels: the unselective-label regime of WordNet.
        assert stats.label_count <= 5

    def test_rmat_graph_deterministic(self):
        assert rmat_graph(node_count=1024) is rmat_graph(node_count=1024)

    def test_paper_constants(self):
        assert PAPER_RESULT_LIMIT == 1024
        assert DEFAULT_BATCH_SIZE > 0


class TestSuites:
    @pytest.fixture(scope="class")
    def graph(self):
        return paper_figure5_graph()

    def test_dfs_suite_sizes(self, graph):
        suite = dfs_suite(graph, node_count=5, batch_size=4, seed=1)
        assert len(suite) == 4
        assert all(q.node_count == 5 for q in suite.queries)
        assert suite.kind == "dfs"

    def test_random_suite_sizes(self, graph):
        suite = random_suite(graph, node_count=4, edge_count=5, batch_size=3, seed=1)
        assert len(suite) == 3
        assert all(q.node_count == 4 for q in suite.queries)
        assert all(q.edge_count == 5 for q in suite.queries)
        assert suite.kind == "random"

    def test_suites_deterministic(self, graph):
        first = dfs_suite(graph, node_count=4, batch_size=3, seed=9)
        second = dfs_suite(graph, node_count=4, batch_size=3, seed=9)
        assert [q.edges() for q in first.queries] == [q.edges() for q in second.queries]

    def test_suite_name(self, graph):
        suite = dfs_suite(graph, node_count=4, batch_size=2, seed=1, name="custom")
        assert suite.name == "custom"
