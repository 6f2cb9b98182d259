"""Substrate benchmarks for the Section 2.2 / Section 3 claims.

* k-hop neighborhood exploration rate (the "3-hop neighborhood in under
  100 ms" claim that motivates index-free matching);
* STwig engine vs. naive backtracking exploration over the same cloud
  (the Section 3 exploration-vs-joins-vs-hybrid discussion);
* statistics-aware edge selection (the Section 1.3 extension).
"""

from __future__ import annotations

import statistics as pystats
import time

from repro.core.engine import SubgraphMatcher
from repro.core.planner import MatcherConfig
from repro.core.statistics import EdgeStatistics
from repro.workloads.datasets import DEFAULT_SEED, patents_small, rmat_graph, wordnet_small
from repro.utils.rng import ensure_rng

from benchmarks.paper.harness import build_cloud, run_suite
from benchmarks.paper.naive_exploration import explore_neighborhood, naive_exploration_match
from benchmarks.paper.suites import PAPER_RESULT_LIMIT, dfs_suite

from conftest import save_rows


def test_three_hop_exploration_rate(benchmark, results_dir):
    """The paper's Trinity claim: 3-hop neighborhoods explored in ~0.1 s."""
    graph = rmat_graph()
    cloud = build_cloud(graph, machine_count=4)
    rng = ensure_rng(DEFAULT_SEED)
    starts = [rng.randrange(graph.node_count) for _ in range(20)]

    def explore_all():
        return [len(explore_neighborhood(cloud, start, hops=3)) for start in starts]

    sizes = benchmark(explore_all)
    timings = []
    for start in starts[:10]:
        begin = time.perf_counter()
        reached = explore_neighborhood(cloud, start, hops=3)
        timings.append((time.perf_counter() - begin, len(reached)))
    rows = [
        {
            "hops": 3,
            "explorations": len(sizes),
            "avg_nodes_reached": round(pystats.fmean(sizes), 1) if sizes else 0,
            "avg_ms_per_exploration": round(
                pystats.fmean(t for t, _ in timings) * 1000, 3
            ),
        }
    ]
    save_rows(
        results_dir, "substrate_three_hop_exploration", rows,
        "3-hop neighborhood exploration (Section 2.2 claim)",
    )
    assert sizes and min(sizes) >= 1


def test_stwig_vs_naive_exploration(benchmark, results_dir):
    """Section 3: the STwig hybrid vs. pure backtracking exploration."""
    graph = wordnet_small()
    suite = dfs_suite(graph, 6, batch_size=3, seed=31)
    cloud = build_cloud(graph, machine_count=4)
    matcher_config = MatcherConfig(max_stwig_leaves=3)

    def run_both():
        stwig = run_suite(
            cloud, suite, matcher_config=matcher_config,
            result_limit=PAPER_RESULT_LIMIT, label="STwig engine",
        )
        naive_cloud = build_cloud(graph, machine_count=4)
        naive_times = []
        naive_matches = 0
        for query in suite.queries:
            begin = time.perf_counter()
            found = naive_exploration_match(naive_cloud, query, limit=PAPER_RESULT_LIMIT)
            naive_times.append(time.perf_counter() - begin)
            naive_matches += len(found)
        return [
            stwig.as_row(),
            {
                "workload": "naive exploration",
                "queries": len(suite.queries),
                "avg_wall_ms": round(pystats.fmean(naive_times) * 1000, 3),
                "avg_sim_ms": round(pystats.fmean(naive_times) * 1000, 3),
                "avg_matches": round(naive_matches / len(suite.queries), 2),
                "avg_messages": "-",
            },
        ]

    rows = benchmark.pedantic(run_both, rounds=1, iterations=1)
    save_rows(
        results_dir, "substrate_stwig_vs_naive", rows,
        "STwig engine vs. naive exploration (Section 3)",
    )
    assert len(rows) == 2


def test_statistics_aware_ordering(benchmark, results_dir):
    """The Section 1.3 extension: edge-statistics-guided decomposition."""
    graph = patents_small()
    stats = EdgeStatistics.from_graph(graph)
    suite = dfs_suite(graph, 8, batch_size=3, seed=41)

    def run_both():
        rows = []
        for label, statistics in [("f-value only (paper)", None), ("edge statistics", stats)]:
            cloud = build_cloud(graph, machine_count=4)
            matcher = SubgraphMatcher(cloud, statistics=statistics)
            wall = []
            intermediate = 0
            matches = 0
            for query in suite.queries:
                result = matcher.match(query, limit=PAPER_RESULT_LIMIT)
                wall.append(result.wall_seconds)
                intermediate += result.stats.stwig_result_rows
                matches += result.match_count
            rows.append(
                {
                    "ordering": label,
                    "avg_wall_ms": round(pystats.fmean(wall) * 1000, 2),
                    "stwig_rows": intermediate,
                    "matches": matches,
                }
            )
        return rows

    rows = benchmark.pedantic(run_both, rounds=1, iterations=1)
    save_rows(
        results_dir, "substrate_statistics_ordering", rows,
        "Decomposition ordering: f-value vs. edge statistics (Section 1.3 extension)",
    )
    assert {row["ordering"] for row in rows} == {"f-value only (paper)", "edge statistics"}
    assert rows[0]["matches"] == rows[1]["matches"]
