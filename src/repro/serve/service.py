"""The always-on query service: one resident cloud, many concurrent queries.

The paper's engine is an *online service*: the graph is loaded into the
memory cloud once and stays resident while a stream of concurrent queries
runs against it.  :class:`QueryService` is that serving layer for the
reproduction — it is handed a loaded :class:`~repro.cloud.cluster.MemoryCloud`
(:func:`repro.api.connect` is where a dataset, file or snapshot becomes one,
and what closes it), shares one :class:`~repro.core.engine.SubgraphMatcher`
(and therefore one executor pool and one plan cache) across every query, and
multiplexes callers through a thread-safe :meth:`QueryService.submit`.

Concurrency correctness comes from the layers below:

* every query records into an isolated metrics sink
  (:meth:`MemoryCloud.with_metrics`), merged into the shared totals once —
  overlapping queries report exactly the counters of their solo runs;
* the planner's plan cache memoizes STwig decomposition + join order by
  query fingerprint, so a recurring query shape skips planning entirely;
* one executor serves every query: a process backend forks its workers
  from the resident cloud once (they inherit the graph; a reload restarts
  them), and its batches take turns on the workers' pipes.

What the service adds on top is *admission control* and *lifecycle*:

* ``max_in_flight`` bounds concurrently executing queries (excess callers
  queue on a semaphore, optionally timing out into
  :class:`~repro.errors.AdmissionError`);
* per-query row budgets: queries without a limit get the configured
  default, and negative limits or limits above ``max_row_budget`` are
  rejected outright;
* graceful shutdown: :meth:`QueryService.close` stops admitting, waits for
  in-flight queries to drain, then closes the matcher, so no query ever runs
  against torn-down runtime state.  The cloud is the caller's to close.

An asyncio front-end is provided by :meth:`QueryService.submit_async` (and
``async with``), which runs the blocking submit on the event loop's default
thread pool.
"""

from __future__ import annotations

import asyncio
import functools
import threading
import time
from dataclasses import dataclass, replace
from typing import Optional

from repro.cloud.cluster import MemoryCloud
from repro.core.engine import SubgraphMatcher
from repro.core.planner import MatcherConfig
from repro.core.result import MatchResult
from repro.errors import AdmissionError, ConfigurationError, ServiceError
from repro.query.query_graph import QueryGraph
from repro.runtime import ExecutorSpec


@dataclass(frozen=True)
class ServiceConfig:
    """Admission-control and lifecycle knobs of a :class:`QueryService`.

    Attributes:
        max_in_flight: maximum number of queries executing concurrently;
            further submissions block until a slot frees (or time out).
        admission_timeout: seconds a submission may wait for a slot before
            being rejected with :class:`~repro.errors.AdmissionError`;
            ``None`` waits indefinitely.
        limit: row budget applied to queries submitted without one;
            ``None`` leaves unlimited queries unlimited.
        max_row_budget: upper bound on any query's row budget; submissions
            asking for more (or for no limit at all, when set) are rejected.
            ``None`` accepts any budget.  The admitted budget is a true
            cost cap, not just a result cap: it flows into the streaming
            budgeted join, which bounds the intermediate rows every machine
            materializes — per-query ``join_rows_materialized`` /
            ``join_peak_intermediate_rows`` (in
            :class:`~repro.core.result.StageStats` and the metrics
            snapshot) make the bound observable.
        drain_timeout: seconds :meth:`QueryService.close` waits for
            in-flight queries before raising :class:`ServiceError`;
            ``None`` waits indefinitely.
    """

    max_in_flight: int = 8
    admission_timeout: Optional[float] = None
    limit: Optional[int] = None
    max_row_budget: Optional[int] = None
    drain_timeout: Optional[float] = 60.0

    def validate(self) -> None:
        if self.max_in_flight < 1:
            raise ConfigurationError(
                f"max_in_flight must be positive, got {self.max_in_flight}"
            )
        for name in ("admission_timeout", "drain_timeout"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ConfigurationError(f"{name} must be non-negative, got {value}")
        for name in ("limit", "max_row_budget"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigurationError(f"{name} must be positive, got {value}")


@dataclass
class ServiceStats:
    """Cumulative counters of one :class:`QueryService` (a point snapshot)."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    in_flight: int = 0
    rows_returned: int = 0
    join_rows_materialized: int = 0
    busy_seconds: float = 0.0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0


class QueryService:
    """A long-lived, thread-safe query front-end over one resident cloud.

    Constructed over an already-loaded cloud, which the caller keeps owning
    and closes after the service (:func:`repro.api.connect` does both)::

        with QueryService(cloud, executor="process") as service:
            result = service.submit(query, limit=1024)
        cloud.close()

    ``submit`` may be called from any number of threads; ``submit_async``
    wraps it for asyncio callers.  See :class:`ServiceConfig` for admission
    control and :meth:`close` for the drain-then-teardown shutdown.
    """

    def __init__(
        self,
        cloud: MemoryCloud,
        *,
        matcher_config: Optional[MatcherConfig] = None,
        executor: ExecutorSpec = None,
        workers: Optional[int] = None,
        service_config: Optional[ServiceConfig] = None,
    ) -> None:
        """Create (and immediately start serving from) a query service.

        Args:
            cloud: the loaded memory cloud to serve from; stays owned by the
                caller.
            matcher_config: engine knobs shared by every query (including
                ``plan_cache_size``).
            executor: runtime backend spec shared by every query (a backend
                name, :class:`~repro.cloud.config.RuntimeConfig`, or an
                existing executor).
            workers: pool size for the process backend — the same
                spelling as ``SubgraphMatcher`` and the CLI's ``--workers``.
            service_config: admission-control and lifecycle knobs.
        """
        self.service_config = service_config or ServiceConfig()
        self.service_config.validate()
        self.cloud = cloud
        #: The shared matcher: one executor pool, one plan cache.
        self.matcher = SubgraphMatcher(
            cloud, matcher_config, executor=executor, workers=workers
        )
        self._slots = threading.BoundedSemaphore(self.service_config.max_in_flight)
        self._state = threading.Condition()
        self._stats = ServiceStats()
        self._closed = False
        self._torn_down = False

    # -- introspection -------------------------------------------------------

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has begun; new submissions are rejected."""
        with self._state:
            return self._closed

    def stats(self) -> ServiceStats:
        """A consistent snapshot of the service counters (plus plan cache)."""
        with self._state:
            snapshot = replace(self._stats)
        cache_info = self.matcher.planner.plan_cache_info()
        snapshot.plan_cache_hits = cache_info["hits"]
        snapshot.plan_cache_misses = cache_info["misses"]
        return snapshot

    def warm(self, query: QueryGraph) -> None:
        """Fault in the runtime (the process backend's workers) eagerly.

        Runs ``query`` with a row budget of one and discards the result —
        the paper's cluster is provisioned before traffic arrives, and a
        benchmark should not charge pool start-up to its first query.
        """
        self.submit(query, limit=1)

    # -- submission ----------------------------------------------------------

    def submit(self, query: QueryGraph, limit: Optional[int] = None) -> MatchResult:
        """Run one query and return its :class:`MatchResult` (thread-safe).

        Blocks while the service is at ``max_in_flight`` (subject to
        ``admission_timeout``).  Raises
        :class:`~repro.errors.AdmissionError` on rejection (a negative
        budget, one above ``max_row_budget``, admission timeout) and
        :class:`~repro.errors.ServiceError` once the service is closed.
        """
        budget = self._admit(limit)
        started = time.perf_counter()
        result = None
        try:
            result = self.matcher.match(query, limit=budget)
            return result
        finally:
            # Unconditional: an interrupt (a BaseException) must free the slot
            # too, or close() waits for a query that is no longer running.
            self._finish(started, result)

    async def submit_async(
        self, query: QueryGraph, limit: Optional[int] = None
    ) -> MatchResult:
        """Asyncio front-end: :meth:`submit` on the loop's default executor.

        Admission control applies unchanged — a coroutine waiting for a slot
        occupies one worker thread of the loop's pool, so size
        ``max_in_flight`` (or the loop's executor) accordingly.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, functools.partial(self.submit, query, limit)
        )

    def _admit(self, limit: Optional[int]) -> Optional[int]:
        """Apply admission control; returns the effective row budget.

        On success a concurrency slot is held and the in-flight gauge is
        bumped; :meth:`_finish` must run exactly once afterwards.
        """
        config = self.service_config
        budget = limit if limit is not None else config.limit
        with self._state:
            if self._closed:
                raise ServiceError("query service is closed")
            if budget is not None and budget < 0:
                self._stats.rejected += 1
                raise AdmissionError(f"row budget must be non-negative, got {budget}")
            if config.max_row_budget is not None and (
                budget is None or budget > config.max_row_budget
            ):
                self._stats.rejected += 1
                asked = "unlimited" if budget is None else str(budget)
                raise AdmissionError(
                    f"row budget {asked} exceeds max_row_budget="
                    f"{config.max_row_budget}"
                )
        if not self._slots.acquire(timeout=config.admission_timeout):
            with self._state:
                self._stats.rejected += 1
            raise AdmissionError(
                f"no execution slot within {config.admission_timeout}s "
                f"({config.max_in_flight} queries in flight)"
            )
        with self._state:
            if self._closed:
                # close() began while we waited for a slot: do not start.
                self._slots.release()
                raise ServiceError("query service is closed")
            self._stats.submitted += 1
            self._stats.in_flight += 1
        return budget

    def _finish(self, started: float, result: Optional[MatchResult]) -> None:
        """Release the slot and count the query; ``None`` = it failed."""
        elapsed = time.perf_counter() - started
        self._slots.release()
        with self._state:
            self._stats.in_flight -= 1
            self._stats.busy_seconds += elapsed
            if result is None:
                self._stats.failed += 1
            else:
                self._stats.completed += 1
                self._stats.rows_returned += result.match_count
                self._stats.join_rows_materialized += (
                    result.stats.join_rows_materialized
                )
            self._state.notify_all()

    # -- lifecycle -----------------------------------------------------------

    def close(self, drain_timeout: Optional[float] = None) -> None:
        """Drain in-flight queries, then tear down the runtime (idempotent).

        New submissions are rejected immediately; queries already admitted
        run to completion.  Only then is the matcher closed, so no query
        ever observes a torn-down executor.  A call that timed out leaves
        the runtime up, and a later call drains again and tears it down.
        The cloud stays open: whoever loaded it closes it.

        Args:
            drain_timeout: overrides ``service_config.drain_timeout``;
                raises :class:`ServiceError` (leaving the runtime up) if
                in-flight queries outlast it.
        """
        timeout = (
            drain_timeout
            if drain_timeout is not None
            else self.service_config.drain_timeout
        )
        with self._state:
            self._closed = True
            deadline = None if timeout is None else time.monotonic() + timeout
            while self._stats.in_flight > 0:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    # Give a later close() another chance to drain.
                    raise ServiceError(
                        f"{self._stats.in_flight} queries still in flight "
                        f"after {timeout}s drain timeout"
                    )
                self._state.wait(remaining)
            # Admission closed at the first call; teardown happens once, at
            # the first call that drained.
            torn_down, self._torn_down = self._torn_down, True
        if not torn_down:
            self.matcher.close()

    async def aclose(self, drain_timeout: Optional[float] = None) -> None:
        """Asyncio counterpart of :meth:`close` (drains off the event loop)."""
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, functools.partial(self.close, drain_timeout)
        )

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    async def __aenter__(self) -> "QueryService":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"QueryService(cloud={self.cloud!r}, in_flight={stats.in_flight}, "
            f"completed={stats.completed}, closed={self.closed})"
        )
