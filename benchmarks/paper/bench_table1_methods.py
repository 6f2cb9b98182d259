"""Table 1 — existing subgraph matching methods vs. STwig.

Regenerates the analytic index size / index time / update cost columns at
Facebook scale and the measured index sizes of the methods we implement,
and benchmarks building the STwig string index (the only index the paper's
approach needs).
"""

from __future__ import annotations

from repro.workloads.datasets import patents_small

from benchmarks.paper.experiments import table1_method_comparison
from benchmarks.paper.harness import build_cloud

from conftest import save_rows


def test_table1_method_comparison(benchmark, results_dir):
    graph = patents_small()
    rows = benchmark.pedantic(
        lambda: table1_method_comparison(measured_graph=graph), rounds=1, iterations=1
    )
    save_rows(results_dir, "table1_methods", rows, "Table 1: index cost comparison")
    methods = {row["method"] for row in rows}
    assert "STwig" in methods and "R-Join" in methods
    stwig = next(row for row in rows if row["method"] == "STwig")
    assert stwig["feasible_at_scale"] is True


def test_table1_stwig_index_build(benchmark):
    """Building the linear string index on the Patents-like graph."""
    graph = patents_small()
    cloud = benchmark(lambda: build_cloud(graph, machine_count=4))
    assert cloud.node_count == graph.node_count
