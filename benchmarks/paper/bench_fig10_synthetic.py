"""Figure 10 — synthetic R-MAT sweeps.

(a) run time vs. node count at fixed average degree (16K -> 1M nodes,
    the paper's Table 2 starting scale, unlocked by the vectorized
    generators),
(b) run time vs. node count at fixed graph density,
(c) run time vs. average degree,
(d) run time vs. label density.
"""

from __future__ import annotations

from repro.workloads.datasets import rmat_graph

from benchmarks.paper.experiments import (
    BENCH_MATCHER_CONFIG,
    figure10a_graph_size_fixed_degree,
    figure10b_graph_size_fixed_density,
    figure10c_average_degree,
    figure10d_label_density,
)
from benchmarks.paper.harness import build_cloud, run_suite
from benchmarks.paper.suites import PAPER_RESULT_LIMIT, dfs_suite

from conftest import save_rows

BATCH = 3


def test_figure10a_node_count_fixed_degree(benchmark, results_dir):
    rows = benchmark.pedantic(
        lambda: figure10a_graph_size_fixed_degree(batch_size=BATCH), rounds=1, iterations=1
    )
    save_rows(
        results_dir, "figure10a_nodes_fixed_degree", rows,
        "Figure 10(a): run time vs. node count (average degree fixed at 16)",
    )
    # The paper's observation: at fixed degree, query time is not proportional
    # to graph size. A 64x larger graph must stay well below 64x the time.
    assert rows[-1]["dfs_ms"] < rows[0]["dfs_ms"] * 64


def test_figure10b_node_count_fixed_density(benchmark, results_dir):
    rows = benchmark.pedantic(
        lambda: figure10b_graph_size_fixed_density(batch_size=BATCH), rounds=1, iterations=1
    )
    save_rows(
        results_dir, "figure10b_nodes_fixed_density", rows,
        "Figure 10(b): run time vs. node count (graph density fixed)",
    )
    # With fixed density the average degree grows with size, so the last
    # configuration is denser than the first.
    assert rows[-1]["avg_degree"] > rows[0]["avg_degree"]


def test_figure10c_average_degree(benchmark, results_dir):
    rows = benchmark.pedantic(
        lambda: figure10c_average_degree(batch_size=BATCH), rounds=1, iterations=1
    )
    save_rows(
        results_dir, "figure10c_average_degree", rows,
        "Figure 10(c): run time vs. average degree",
    )
    assert [row["degree"] for row in rows] == [4, 8, 16, 32, 64]


def test_figure10d_label_density(benchmark, results_dir):
    rows = benchmark.pedantic(
        lambda: figure10d_label_density(batch_size=BATCH), rounds=1, iterations=1
    )
    save_rows(
        results_dir, "figure10d_label_density", rows,
        "Figure 10(d): run time vs. label density",
    )
    # Denser labels (more distinct labels) mean more selective STwigs: the
    # densest configuration must not be slower than the sparsest one.
    assert rows[-1]["dfs_ms"] <= rows[0]["dfs_ms"] * 1.5


def test_figure10_reference_query_batch(benchmark):
    """Wall-clock of the million-node synthetic workload (degree 8)."""
    graph = rmat_graph(node_count=1_048_576, average_degree=8.0)
    cloud = build_cloud(graph, machine_count=4)
    suite = dfs_suite(graph, 6, batch_size=3, seed=10)
    measurement = benchmark(
        lambda: run_suite(
            cloud, suite, matcher_config=BENCH_MATCHER_CONFIG,
            result_limit=PAPER_RESULT_LIMIT,
        )
    )
    assert measurement.query_count == 3
