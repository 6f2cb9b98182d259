"""Figure 8 — run time vs. query size on the real-data look-alikes.

(a) DFS queries, node count 3..10.
(b) Random queries, node count 5..15 (edge count 2N).
(c) Random queries, edge count 10..20 (node count fixed at 10).

The look-alike Patents/WordNet graphs replace the original datasets (see
DESIGN.md); the curves to compare against the paper are the growth trends,
not absolute milliseconds.
"""

from __future__ import annotations

from repro.workloads.datasets import patents_small, wordnet_small

from benchmarks.paper.experiments import (
    BENCH_MATCHER_CONFIG,
    figure8a_dfs_query_size,
    figure8b_random_query_size,
    figure8c_random_edge_count,
)
from benchmarks.paper.harness import build_cloud, run_suite
from benchmarks.paper.suites import PAPER_RESULT_LIMIT, dfs_suite

from conftest import save_rows

BATCH = 5


def test_figure8a_dfs_query_size(benchmark, results_dir):
    rows = benchmark.pedantic(
        lambda: figure8a_dfs_query_size(batch_size=BATCH), rounds=1, iterations=1
    )
    save_rows(
        results_dir, "figure8a_dfs_query_size", rows,
        "Figure 8(a): run time vs. query node count (DFS queries)",
    )
    assert [row["query_nodes"] for row in rows] == [3, 4, 5, 6, 7, 8, 9, 10]


def test_figure8b_random_query_size(benchmark, results_dir):
    rows = benchmark.pedantic(
        lambda: figure8b_random_query_size(batch_size=BATCH), rounds=1, iterations=1
    )
    save_rows(
        results_dir, "figure8b_random_query_size", rows,
        "Figure 8(b): run time vs. query node count (random queries, E = 2N)",
    )
    assert [row["query_nodes"] for row in rows] == [5, 7, 9, 11, 13, 15]


def test_figure8c_random_edge_count(benchmark, results_dir):
    rows = benchmark.pedantic(
        lambda: figure8c_random_edge_count(batch_size=BATCH), rounds=1, iterations=1
    )
    save_rows(
        results_dir, "figure8c_random_edge_count", rows,
        "Figure 8(c): run time vs. query edge count (random queries, N = 10)",
    )
    assert [row["query_edges"] for row in rows] == [10, 12, 14, 16, 18, 20]


def test_figure8_single_query_patents(benchmark):
    """Timing of one 8-node DFS query batch on the Patents-like graph."""
    graph = patents_small()
    cloud = build_cloud(graph, machine_count=4)
    suite = dfs_suite(graph, 8, batch_size=3, seed=8)
    measurement = benchmark(
        lambda: run_suite(
            cloud, suite, matcher_config=BENCH_MATCHER_CONFIG,
            result_limit=PAPER_RESULT_LIMIT,
        )
    )
    assert measurement.total_matches > 0


def test_figure8_single_query_wordnet(benchmark):
    """Timing of one 6-node DFS query batch on the WordNet-like graph."""
    graph = wordnet_small()
    cloud = build_cloud(graph, machine_count=4)
    suite = dfs_suite(graph, 6, batch_size=3, seed=8)
    measurement = benchmark(
        lambda: run_suite(
            cloud, suite, matcher_config=BENCH_MATCHER_CONFIG,
            result_limit=PAPER_RESULT_LIMIT,
        )
    )
    assert measurement.total_matches > 0
