"""Unit tests for EdgeStatistics and statistics-aware ordering."""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.baselines.vf2 import vf2_match
from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.core.decomposition import stwig_order_selection
from repro.core.engine import SubgraphMatcher
from repro.core.planner import MatcherConfig, QueryPlanner
from repro.core.statistics import EdgeStatistics
from repro.core.stwig import validate_cover
from repro.graph.labeled_graph import LabeledGraph
from repro.query.generators import dfs_query
from repro.query.query_graph import QueryGraph
from repro.workloads.datasets import paper_figure5_graph, tiny_example_graph


@pytest.fixture
def stats() -> EdgeStatistics:
    return EdgeStatistics.from_graph(tiny_example_graph())


class TestCollection:
    def test_label_frequencies(self, stats):
        # The planner's f(v) reads label frequencies off the cloud; the
        # statistics hold one entry per label, counted in their footprint.
        cloud = MemoryCloud.from_graph(tiny_example_graph(), ClusterConfig(machine_count=2))
        frequencies = cloud.global_label_frequencies()
        assert frequencies["a"] == 2 and frequencies["b"] == 2
        assert "zzz" not in frequencies
        assert stats.size_in_entries() == len(frequencies) + 5

    def test_pair_frequencies(self, stats):
        # tiny graph edges: a-b x2, a-c x2, b-c x1, c-d x1, d-b x1.
        assert stats.pair_frequency("a", "b") == 2
        assert stats.pair_frequency("b", "a") == 2
        assert stats.pair_frequency("c", "d") == 1
        assert stats.pair_frequency("a", "d") == 0
        # Every one of the 7 edges is counted under exactly one pair.
        labels = "abcd"
        assert sum(
            stats.pair_frequency(low, high)
            for at, low in enumerate(labels)
            for high in labels[at:]
        ) == 7

    def test_size_in_entries_is_small(self, stats):
        assert stats.size_in_entries() <= 4 + 5


class TestStatisticsAwareOrdering:
    def test_cover_still_valid(self, stats):
        query = QueryGraph(
            {"qa": "a", "qb": "b", "qc": "c", "qd": "d"},
            [("qa", "qb"), ("qa", "qc"), ("qb", "qc"), ("qc", "qd")],
        )
        graph = tiny_example_graph()
        ordered = stwig_order_selection(
            query, graph.label_frequencies(), seed=1, edge_statistics=stats
        )
        validate_cover(query, ordered)

    def test_most_selective_edge_chosen_first(self):
        # Data graph: the x-y pair appears once, the x-z pair 50 times.
        labels = {0: "x", 1: "y"}
        edges = [(0, 1)]
        next_id = 2
        for _ in range(50):
            labels[next_id] = "x"
            labels[next_id + 1] = "z"
            edges.append((next_id, next_id + 1))
            next_id += 2
        graph = LabeledGraph.from_edges(labels, edges)
        stats = EdgeStatistics.from_graph(graph)
        query = QueryGraph(
            {"qx": "x", "qy": "y", "qz": "z"}, [("qx", "qy"), ("qx", "qz")]
        )
        ordered = stwig_order_selection(
            query, graph.label_frequencies(), seed=1, edge_statistics=stats
        )
        # The first STwig must cover the rare x-y edge (not only the common x-z one).
        assert ("qx", "qy") in ordered[0].covered_edges()

    def test_engine_results_unchanged_with_statistics(self):
        graph = paper_figure5_graph()
        stats = EdgeStatistics.from_graph(graph)
        query = QueryGraph(
            {"q1": "a", "q2": "b", "q3": "c"}, [("q1", "q2"), ("q2", "q3"), ("q1", "q3")]
        )
        expected = sorted(tuple(sorted(m.items())) for m in vf2_match(graph, query))
        cloud = MemoryCloud.from_graph(graph, ClusterConfig(machine_count=3))
        matcher = SubgraphMatcher(cloud, statistics=stats)
        got = sorted(tuple(sorted(m.items())) for m in matcher.match(query).as_dicts())
        assert got == expected

    def test_statistics_alone_enable_edge_selection(self):
        # No config flag: the planner uses edge statistics exactly when it is
        # given them.  On this query the two orderings differ.
        graph = paper_figure5_graph()
        stats = EdgeStatistics.from_graph(graph)
        query = dfs_query(graph, 5, seed=0)
        frequencies = graph.label_frequencies()
        seed = MatcherConfig().seed
        by_f_value = stwig_order_selection(query, frequencies, seed=seed)
        by_statistics = stwig_order_selection(
            query, frequencies, seed=seed, edge_statistics=stats
        )
        assert by_f_value != by_statistics
        cloud = MemoryCloud.from_graph(graph, ClusterConfig(machine_count=3))
        assert QueryPlanner(cloud).plan(query).stwigs == by_f_value
        assert QueryPlanner(cloud, statistics=stats).plan(query).stwigs == by_statistics

    def test_matcher_config_has_no_statistics_switch(self):
        assert len(fields(MatcherConfig)) == 9
        assert "use_edge_statistics" not in {f.name for f in fields(MatcherConfig)}
