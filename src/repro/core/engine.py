"""The top-level subgraph matching engine.

:class:`SubgraphMatcher` wires together the planner, the exploration phase,
and the distributed join into the three-step pipeline of Section 4.2:

1. query decomposition and STwig ordering (on the proxy),
2. binding-aware STwig exploration (in parallel on every machine),
3. per-machine joins of partial results and a deduplication-free union.

Typical usage::

    cloud = MemoryCloud.from_graph(graph, ClusterConfig(machine_count=4))
    matcher = SubgraphMatcher(cloud)
    result = matcher.match(query, limit=1024)
    for assignment in result.as_dicts():
        ...
"""

from __future__ import annotations

import time
from typing import Optional

from repro.cloud.cluster import MemoryCloud
from repro.cloud.metrics import CloudMetrics
from repro.core.distributed import assemble_results
from repro.core.exploration import explore
from repro.core.planner import MatcherConfig, QueryPlan, QueryPlanner
from repro.core.result import MatchResult, StageStats
from repro.query.query_graph import QueryGraph
from repro.runtime import Executor, ExecutorSpec, create_executor
from repro.utils.validation import is_row_limit, require


class SubgraphMatcher:
    """Distributed, index-free subgraph matcher over a memory cloud.

    ``match`` is safe to call from several threads at once on one matcher:
    every query runs against its own metrics-scoped view of the cloud
    (:meth:`MemoryCloud.with_metrics`), so overlapping queries never read —
    or corrupt — each other's communication counters, and the per-query
    isolated counters are folded into the shared cloud totals exactly once,
    under the cloud's metrics lock.
    """

    def __init__(
        self,
        cloud: MemoryCloud,
        config: MatcherConfig | None = None,
        statistics=None,
        executor: ExecutorSpec = None,
        workers: Optional[int] = None,
    ) -> None:
        """Create a matcher.

        Args:
            cloud: the memory cloud holding the (already loaded) data graph.
            config: engine knobs; defaults follow the paper.
            statistics: optional
                :class:`~repro.core.statistics.EdgeStatistics`; when given,
                the planner selects query edges by data-edge selectivity.
            executor: runtime backend driving the per-machine fan-outs — a
                backend name (``"serial"``/``"process"``), a
                :class:`~repro.cloud.config.RuntimeConfig`, or an existing
                :class:`~repro.runtime.Executor` (shared executors are not
                closed by this matcher).  ``None`` resolves the
                ``REPRO_EXECUTOR`` environment variable, defaulting to
                serial execution.
            workers: pool size for the process backend (same
                spelling as ``QueryService`` and the CLI's ``--workers``);
                not combinable with an ``Executor`` instance.
        """
        self.cloud = cloud
        self.config = config or MatcherConfig()
        self._planner = QueryPlanner(cloud, self.config, statistics=statistics)
        self._owns_executor = not isinstance(executor, Executor)
        self._executor = create_executor(executor, workers)

    @property
    def executor(self) -> Executor:
        """The runtime executor backing this matcher's fan-outs."""
        return self._executor

    @property
    def planner(self) -> QueryPlanner:
        """The planner (and its plan cache) backing this matcher."""
        return self._planner

    def close(self) -> None:
        """Release the matcher's runtime resources (the process backend's workers).

        Idempotent, and safe in any order relative to ``MemoryCloud.close()``
        — both may end up closing the same process executor, whose teardown
        tolerates repetition.  Only executors this matcher created are
        closed; a shared executor passed in by the caller is left running.
        """
        if self._owns_executor:
            self._executor.close()

    def __enter__(self) -> "SubgraphMatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def explain(self, query: QueryGraph) -> QueryPlan:
        """Return the plan (decomposition, order, head, load sets) without executing."""
        return self._planner.plan(query)

    def match(self, query: QueryGraph, limit: Optional[int] = None) -> MatchResult:
        """Find subgraphs of the loaded data graph isomorphic to ``query``.

        Args:
            query: the query pattern.
            limit: maximum number of matches to return (the paper uses 1024
                with pipelined joins); ``None`` enumerates everything.

        Returns:
            A :class:`MatchResult` with the matches and execution metadata
            (wall-clock time, simulated cluster time, communication counters).

        Raises:
            ConfigurationError: ``limit`` is neither ``None`` nor a
                non-negative integer; nothing has run.
        """
        require(is_row_limit(limit), f"limit must be None or a non-negative integer, got {limit!r}")
        stats = StageStats()
        started = time.perf_counter()

        plan_started = time.perf_counter()
        plan, cache_hit = self._planner.plan_cached(query)
        stats.decomposition_seconds = time.perf_counter() - plan_started
        stats.stwig_count = len(plan.stwigs)
        stats.head_stwig_root = plan.head_stwig.root
        stats.plan_cache_hit = cache_hit
        cache_info = self._planner.plan_cache_info()
        stats.plan_cache_hits = cache_info["hits"]
        stats.plan_cache_misses = cache_info["misses"]

        # Every query records into its own isolated sink: diffing snapshots
        # of the *shared* counters would attribute an overlapping query's
        # traffic to this one.  The isolated counters are folded into the
        # shared totals exactly once, at the end, under the cloud's lock.
        query_metrics = CloudMetrics()
        scoped = self.cloud.with_metrics(query_metrics)

        explore_started = time.perf_counter()
        exploration = explore(scoped, plan, executor=self._executor)
        stats.exploration_seconds = time.perf_counter() - explore_started
        stats.stwig_result_rows = exploration.total_rows()

        join_started = time.perf_counter()
        join_outcome = assemble_results(scoped, plan, exploration, limit)
        matches = join_outcome.table
        stats.join_seconds = time.perf_counter() - join_started
        # Truncation is what the join phase observed, not an after-the-fact
        # row-count comparison: exactly `limit` matches is not truncated.
        stats.truncated = join_outcome.truncated
        stats.join_rows_materialized = query_metrics.join_rows_materialized
        stats.join_peak_intermediate_rows = query_metrics.join_peak_intermediate_rows
        stats.stwig_rows_built = query_metrics.stwig_rows_built

        wall_seconds = time.perf_counter() - started
        metrics_delta = query_metrics.snapshot()
        simulated = (
            query_metrics.simulated_total_seconds(self.cloud.config.network)
            + wall_seconds
        )
        self.cloud.merge_metrics(query_metrics)

        return MatchResult(
            query_nodes=query.nodes(),
            matches=matches,
            wall_seconds=wall_seconds,
            simulated_seconds=simulated,
            metrics=metrics_delta,
            stats=stats,
            id_map=self.cloud.id_map,
        )

    def match_count(self, query: QueryGraph, limit: Optional[int] = None) -> int:
        """Convenience wrapper returning only the number of matches."""
        return self.match(query, limit=limit).match_count
