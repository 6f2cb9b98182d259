"""Benchmark harness: run query batches and collect paper-style measurements.

The harness is deliberately small: it builds a cloud, runs a
:class:`~benchmarks.paper.suites.QuerySuite` through the STwig engine (or a
baseline callable), and aggregates per-query wall-clock and simulated times
into the averages the paper reports.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.core.engine import SubgraphMatcher
from repro.core.planner import MatcherConfig
from repro.graph.labeled_graph import LabeledGraph
from repro.query.query_graph import QueryGraph

from benchmarks.paper.suites import PAPER_RESULT_LIMIT, QuerySuite


@dataclass
class BatchMeasurement:
    """Aggregated measurements over one query batch."""

    label: str
    query_count: int
    average_wall_seconds: float
    average_simulated_seconds: float
    average_match_count: float
    total_matches: int
    average_remote_loads: float = 0.0
    average_messages: float = 0.0
    average_bytes: float = 0.0
    per_query_wall_seconds: List[float] = field(default_factory=list)

    def as_row(self) -> Dict[str, object]:
        """Flat dict for table rendering."""
        return {
            "workload": self.label,
            "queries": self.query_count,
            "avg_wall_ms": round(self.average_wall_seconds * 1000, 3),
            "avg_sim_ms": round(self.average_simulated_seconds * 1000, 3),
            "avg_matches": round(self.average_match_count, 2),
            "avg_messages": round(self.average_messages, 1),
        }


def build_cloud(
    graph: LabeledGraph,
    machine_count: int = 4,
    config: Optional[ClusterConfig] = None,
) -> MemoryCloud:
    """Load ``graph`` into a memory cloud with ``machine_count`` machines."""
    cluster_config = config or ClusterConfig(machine_count=machine_count)
    return MemoryCloud.from_graph(graph, cluster_config)


def run_suite(
    cloud: MemoryCloud,
    suite: QuerySuite,
    matcher_config: Optional[MatcherConfig] = None,
    result_limit: Optional[int] = PAPER_RESULT_LIMIT,
    label: Optional[str] = None,
) -> BatchMeasurement:
    """Run every query of ``suite`` through the STwig engine and aggregate."""
    wall_times: List[float] = []
    simulated_times: List[float] = []
    match_counts: List[int] = []
    remote_loads: List[int] = []
    messages: List[int] = []
    transferred_bytes: List[int] = []
    # Closed on the way out: under the process backend every matcher owns
    # worker processes forked from the cloud.
    with SubgraphMatcher(cloud, matcher_config) as matcher:
        for query in suite.queries:
            result = matcher.match(query, limit=result_limit)
            wall_times.append(result.wall_seconds)
            simulated_times.append(result.simulated_seconds)
            match_counts.append(result.match_count)
            remote_loads.append(result.metrics.get("remote_loads", 0))
            messages.append(result.metrics.get("messages", 0))
            transferred_bytes.append(result.metrics.get("bytes_transferred", 0))
    return BatchMeasurement(
        label=label or suite.name,
        query_count=len(suite.queries),
        average_wall_seconds=statistics.fmean(wall_times) if wall_times else 0.0,
        average_simulated_seconds=statistics.fmean(simulated_times) if simulated_times else 0.0,
        average_match_count=statistics.fmean(match_counts) if match_counts else 0.0,
        total_matches=sum(match_counts),
        average_remote_loads=statistics.fmean(remote_loads) if remote_loads else 0.0,
        average_messages=statistics.fmean(messages) if messages else 0.0,
        average_bytes=statistics.fmean(transferred_bytes) if transferred_bytes else 0.0,
        per_query_wall_seconds=wall_times,
    )


def run_baseline(
    graph: LabeledGraph,
    queries: Sequence[QueryGraph],
    method: Callable[..., List[Dict[str, int]]],
    label: str,
    result_limit: Optional[int] = PAPER_RESULT_LIMIT,
) -> BatchMeasurement:
    """Run a single-machine baseline over ``queries`` and aggregate.

    ``method(graph, query, limit=result_limit)`` is called once per query;
    whatever it raises propagates.
    """
    wall_times: List[float] = []
    match_counts: List[int] = []
    for query in queries:
        started = time.perf_counter()
        matches = method(graph, query, limit=result_limit)
        wall_times.append(time.perf_counter() - started)
        match_counts.append(len(matches))
    return BatchMeasurement(
        label=label,
        query_count=len(queries),
        average_wall_seconds=statistics.fmean(wall_times) if wall_times else 0.0,
        average_simulated_seconds=statistics.fmean(wall_times) if wall_times else 0.0,
        average_match_count=statistics.fmean(match_counts) if match_counts else 0.0,
        total_matches=sum(match_counts),
        per_query_wall_seconds=wall_times,
    )
