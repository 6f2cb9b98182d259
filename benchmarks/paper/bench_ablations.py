"""Ablation benchmarks for the Section 5 design choices (beyond the paper's figures).

* each query optimization disabled in turn (decomposition/ordering, binding
  filter, head selection, load-set pruning);
* pipelined-join block size sweep;
* STwig exploration vs. the edge-index join baseline (the Section 3
  exploration-vs-joins discussion, measured).
"""

from __future__ import annotations

from repro.workloads.datasets import patents_small

from benchmarks.paper.edge_join import EdgeIndex, edge_join_match
from benchmarks.paper.experiments import ablation_block_size, ablation_optimizations
from benchmarks.paper.harness import build_cloud, run_baseline, run_suite
from benchmarks.paper.suites import PAPER_RESULT_LIMIT, dfs_suite

from conftest import save_rows


def test_ablation_optimizations(benchmark, results_dir):
    rows = benchmark.pedantic(
        lambda: ablation_optimizations(batch_size=3), rounds=1, iterations=1
    )
    save_rows(
        results_dir, "ablation_optimizations", rows,
        "Ablation: Section 5 optimizations disabled one at a time",
    )
    variants = {row["variant"] for row in rows}
    assert "full (paper)" in variants and len(variants) == 5


def test_ablation_block_size(benchmark, results_dir):
    rows = benchmark.pedantic(
        lambda: ablation_block_size(batch_size=3), rounds=1, iterations=1
    )
    save_rows(
        results_dir, "ablation_block_size", rows,
        "Ablation: pipelined join block size",
    )
    assert len(rows) == 5


def test_exploration_vs_edge_join(benchmark, results_dir):
    """Section 3's discussion, measured: STwig exploration vs. edge-index joins."""
    graph = patents_small()
    suite = dfs_suite(graph, 6, batch_size=3, seed=17)
    cloud = build_cloud(graph, machine_count=1)

    def run_both():
        stwig = run_suite(cloud, suite, result_limit=PAPER_RESULT_LIMIT, label="STwig exploration")
        index = EdgeIndex(graph)
        join = run_baseline(
            graph,
            suite.queries,
            lambda g, q, limit=None: edge_join_match(g, q, index=index, limit=limit),
            label="edge-index join",
            result_limit=PAPER_RESULT_LIMIT,
        )
        return [stwig.as_row(), join.as_row()]

    rows = benchmark.pedantic(run_both, rounds=1, iterations=1)
    save_rows(
        results_dir, "ablation_exploration_vs_join", rows,
        "Exploration vs. edge-index joins (same queries, same result limit)",
    )
    assert len(rows) == 2
