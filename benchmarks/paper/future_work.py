"""Experiment drivers for the paper's stated future work (Section 8).

The conclusions announce two follow-up measurements that the paper itself
does not include:

* "verify the system speedup, **query throughput** and response time bounds"
  — :func:`throughput_vs_machines` measures sustained queries/second for a
  stream of mixed queries as the (simulated) cluster grows.
* "test the **amount of transmitted data** on larger clusters"
  — :func:`transmitted_data_vs_machines` measures bytes and partial-result
  rows shipped per query as machines are added.

Both reuse the same workloads as the Figure 9 experiments so the numbers are
directly comparable with the speed-up curves.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Sequence

from repro.core.engine import SubgraphMatcher
from repro.core.planner import MatcherConfig
from repro.workloads.datasets import patents_small, wordnet_small

from benchmarks.paper.harness import build_cloud
from benchmarks.paper.suites import PAPER_RESULT_LIMIT, dfs_suite, random_suite

#: Matcher configuration shared with the figure benchmarks.
FUTURE_WORK_CONFIG = MatcherConfig(max_stwig_leaves=3)


def throughput_vs_machines(
    machine_counts: Sequence[int] = (1, 2, 4, 8),
    queries_per_stream: int = 10,
    query_nodes: int = 6,
    seed: int = 71,
) -> List[Dict[str, object]]:
    """Sustained query throughput (queries/second) vs. machine count.

    A mixed stream of DFS and random queries is executed back-to-back; the
    reported throughput uses the *simulated* per-query cluster time (compute
    divided across machines plus batched network cost), i.e. the steady-state
    rate one coordinator could sustain against the cluster.
    """
    graph = patents_small()
    dfs = dfs_suite(graph, query_nodes, batch_size=queries_per_stream // 2, seed=seed)
    rnd = random_suite(
        graph, query_nodes, 2 * query_nodes,
        batch_size=queries_per_stream - len(dfs.queries), seed=seed,
    )
    stream = [*dfs.queries, *rnd.queries]

    rows: List[Dict[str, object]] = []
    for machine_count in machine_counts:
        cloud = build_cloud(graph, machine_count=machine_count)
        per_query_seconds: List[float] = []
        with SubgraphMatcher(cloud, FUTURE_WORK_CONFIG) as matcher:
            for query in stream:
                result = matcher.match(query, limit=PAPER_RESULT_LIMIT)
                compute = result.wall_seconds / machine_count
                network = cloud.config.network.network_seconds(
                    result.metrics.get("messages", 0),
                    result.metrics.get("bytes_transferred", 0),
                )
                per_query_seconds.append(compute + network)
        total = sum(per_query_seconds)
        rows.append(
            {
                "machines": machine_count,
                "queries": len(stream),
                "avg_query_ms": round(statistics.fmean(per_query_seconds) * 1000, 3),
                "throughput_qps": round(len(stream) / total, 1) if total else 0.0,
            }
        )
    return rows


def transmitted_data_vs_machines(
    machine_counts: Sequence[int] = (2, 4, 8, 12),
    query_nodes: int = 6,
    batch_size: int = 5,
    seed: int = 73,
    use_load_set_pruning: bool = True,
) -> List[Dict[str, object]]:
    """Bytes and partial-result rows shipped per query vs. machine count."""
    graph = wordnet_small()
    suite = dfs_suite(graph, query_nodes, batch_size=batch_size, seed=seed)
    rows: List[Dict[str, object]] = []
    for machine_count in machine_counts:
        cloud = build_cloud(graph, machine_count=machine_count)
        config = MatcherConfig(
            max_stwig_leaves=3, use_load_set_pruning=use_load_set_pruning
        )
        bytes_per_query: List[int] = []
        rows_per_query: List[int] = []
        with SubgraphMatcher(cloud, config) as matcher:
            for query in suite.queries:
                result = matcher.match(query, limit=PAPER_RESULT_LIMIT)
                bytes_per_query.append(result.metrics.get("bytes_transferred", 0))
                rows_per_query.append(result.metrics.get("result_rows_shipped", 0))
        rows.append(
            {
                "machines": machine_count,
                "avg_mb_per_query": round(statistics.fmean(bytes_per_query) / 1e6, 4),
                "avg_rows_shipped": round(statistics.fmean(rows_per_query), 1),
            }
        )
    return rows


def response_time_bounds(
    percentiles: Sequence[float] = (0.5, 0.9, 0.99),
    query_count: int = 30,
    machine_count: int = 4,
    seed: int = 77,
) -> List[Dict[str, object]]:
    """Response-time distribution (median / tail percentiles) for a query mix."""
    graph = patents_small()
    dfs = dfs_suite(graph, 7, batch_size=query_count // 2, seed=seed)
    rnd = random_suite(graph, 7, 14, batch_size=query_count - len(dfs.queries), seed=seed)
    cloud = build_cloud(graph, machine_count=machine_count)
    latencies: List[float] = []
    with SubgraphMatcher(cloud, FUTURE_WORK_CONFIG) as matcher:
        for query in [*dfs.queries, *rnd.queries]:
            started = time.perf_counter()
            matcher.match(query, limit=PAPER_RESULT_LIMIT)
            latencies.append(time.perf_counter() - started)
    latencies.sort()
    rows: List[Dict[str, object]] = []
    for percentile in percentiles:
        index = min(len(latencies) - 1, int(percentile * len(latencies)))
        rows.append(
            {
                "percentile": f"p{int(percentile * 100)}",
                "latency_ms": round(latencies[index] * 1000, 2),
            }
        )
    rows.append({"percentile": "max", "latency_ms": round(latencies[-1] * 1000, 2)})
    return rows
