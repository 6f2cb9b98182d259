"""Figure 9 — speed-up vs. machine count (DFS and random queries).

A single Python process cannot show real parallel speed-up, so the reported
series is the *simulated* cluster time: per-machine compute divided by the
machine count plus the (growing) communication cost — the same quantity the
paper's curves capture qualitatively (speed-up that is significant but
sub-linear).
"""

from __future__ import annotations

from repro.workloads.datasets import patents_small

from benchmarks.paper.experiments import BENCH_MATCHER_CONFIG, figure9_speedup
from benchmarks.paper.harness import build_cloud, run_suite
from benchmarks.paper.suites import PAPER_RESULT_LIMIT, dfs_suite

from conftest import save_rows

MACHINE_COUNTS = (1, 2, 4, 8)


def test_figure9a_speedup_dfs(benchmark, results_dir):
    rows = benchmark.pedantic(
        lambda: figure9_speedup(kind="dfs", machine_counts=MACHINE_COUNTS, batch_size=3),
        rounds=1, iterations=1,
    )
    save_rows(
        results_dir, "figure9a_speedup_dfs", rows,
        "Figure 9(a): simulated run time vs. machine count (DFS queries)",
    )
    assert [row["machines"] for row in rows] == list(MACHINE_COUNTS)
    # More machines must reduce the simulated time on the heavier workload
    # (WordNet-like, unselective labels), as in the paper's Figure 9(a)...
    assert rows[-1]["wordnet_sim_ms"] < rows[0]["wordnet_sim_ms"]
    # ...while the speed-up stays bounded (communication does not shrink).
    assert rows[-1]["wordnet_sim_ms"] > rows[0]["wordnet_sim_ms"] / 32


def test_figure9b_speedup_random(benchmark, results_dir):
    rows = benchmark.pedantic(
        lambda: figure9_speedup(kind="random", machine_counts=MACHINE_COUNTS, batch_size=3),
        rounds=1, iterations=1,
    )
    save_rows(
        results_dir, "figure9b_speedup_random", rows,
        "Figure 9(b): simulated run time vs. machine count (random queries)",
    )
    assert [row["machines"] for row in rows] == list(MACHINE_COUNTS)


def test_figure9_query_batch_8_machines(benchmark):
    """Wall-clock of one DFS batch on an 8-machine cloud (load comparison point)."""
    graph = patents_small()
    cloud = build_cloud(graph, machine_count=8)
    suite = dfs_suite(graph, 6, batch_size=3, seed=12)
    measurement = benchmark(
        lambda: run_suite(
            cloud, suite, matcher_config=BENCH_MATCHER_CONFIG,
            result_limit=PAPER_RESULT_LIMIT,
        )
    )
    assert measurement.query_count == 3
