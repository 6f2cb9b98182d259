"""Tests for the always-on QueryService: concurrency, admission, lifecycle.

The concurrency tests drive one service from many client threads and hold
it to the solo oracle: identical rows and identical per-query communication
counters, plus *exact* plan-cache accounting.  The admission and drain
tests use a monkeypatched, event-blocked ``match`` so in-flight states are
deterministic instead of timing-dependent.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

import repro.api as api
from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.core.engine import SubgraphMatcher
from repro.errors import AdmissionError, ConfigurationError, ServiceError
from repro.graph.generators.erdos_renyi import generate_gnm
from repro.query.generators import dfs_query
from repro.serve import QueryService, ServiceConfig
from repro.workloads.datasets import tiny_example_graph

from benchmarks.paper.serve_bench import percentile, run_concurrent_clients


@pytest.fixture(scope="module")
def service_graph():
    """Seeded 400-node graph with enough structure for varied queries."""
    return generate_gnm(400, 1600, label_count=5, seed=13)


@pytest.fixture(scope="module")
def service_queries(service_graph):
    return [dfs_query(service_graph, 4, seed=seed) for seed in (2, 3, 5, 7, 11, 13)]


@pytest.fixture
def service_cloud(service_graph):
    """The 400-node graph on three machines; closed after the test."""
    with MemoryCloud.from_graph(service_graph, ClusterConfig(machine_count=3)) as cloud:
        yield cloud


@pytest.fixture
def tiny_service_cloud():
    with MemoryCloud.from_graph(tiny_example_graph()) as cloud:
        yield cloud


def solo_oracle(service_graph, queries, limits):
    """(rows, metrics) per query from fresh, single-threaded matchers."""
    oracle = []
    cloud = MemoryCloud.from_graph(service_graph, ClusterConfig(machine_count=3))
    try:
        with SubgraphMatcher(cloud) as matcher:
            for query, limit in zip(queries, limits):
                result = matcher.match(query, limit=limit)
                oracle.append((result.rows, result.metrics))
    finally:
        cloud.close()
    return oracle


class TestConcurrentSubmission:
    def test_parity_with_solo_runs_mixed_limits(
        self, service_graph, service_queries, service_cloud
    ):
        """N threads, mixed limited/unlimited queries: row-for-row solo parity."""
        limits = [None, 10, None, 25, 5, None]
        oracle = solo_oracle(service_graph, service_queries, limits)
        with QueryService(
            service_cloud, service_config=ServiceConfig(max_in_flight=6)
        ) as service:
            outputs = [None] * len(service_queries)
            errors = []
            barrier = threading.Barrier(len(service_queries))

            def client(index: int) -> None:
                barrier.wait()
                try:
                    outputs[index] = service.submit(
                        service_queries[index], limit=limits[index]
                    )
                except Exception as exc:  # noqa: BLE001 - surfaced via the list
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(len(service_queries))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            for result, limit, (rows, metrics) in zip(outputs, limits, oracle):
                assert result.rows == rows
                if limit is None:
                    # Unlimited queries have schedule-independent counters.
                    # Limited ones run under the cooperative shared budget,
                    # where parallel backends may do gather work a serial
                    # schedule's early exit skips — rows stay exact
                    # prefixes, but the metrics are schedule-dependent.
                    assert result.metrics == metrics

    def test_repeated_fingerprints_hit_plan_cache_exactly(
        self, service_queries, service_cloud
    ):
        rounds, clients = 3, 4
        with QueryService(service_cloud) as service:
            run = run_concurrent_clients(
                service, service_queries, clients=clients, limit=50, rounds=rounds
            )
            assert run.errors == []
            assert len(run.records) == len(service_queries) * rounds
            stats = service.stats()
            # Each distinct fingerprint misses exactly once, ever.
            assert stats.plan_cache_misses == len(service_queries)
            assert stats.plan_cache_hits == len(service_queries) * (rounds - 1)
            assert stats.completed == len(run.records)
            assert stats.in_flight == 0

    def test_service_counters_match_workload(self, service_queries, service_cloud):
        with QueryService(service_cloud) as service:
            run = run_concurrent_clients(
                service, service_queries, clients=2, limit=20
            )
            stats = service.stats()
            assert stats.submitted == len(service_queries)
            assert stats.rows_returned == sum(r.match_count for r in run.records)
            assert stats.failed == 0
            assert stats.busy_seconds > 0


class TestAdmissionControl:
    def test_row_budget_cap_rejects(self, tiny_service_cloud):
        config = ServiceConfig(max_row_budget=100)
        with QueryService(tiny_service_cloud, service_config=config) as service:
            query = dfs_query(tiny_example_graph(), 2, seed=1)
            with pytest.raises(AdmissionError, match="max_row_budget"):
                service.submit(query, limit=101)
            with pytest.raises(AdmissionError, match="unlimited"):
                service.submit(query)  # no limit at all is over any cap
            assert service.submit(query, limit=100).match_count >= 0
            assert service.stats().rejected == 2

    def test_negative_limit_is_rejected_not_answered(self, tiny_service_cloud):
        """A negative budget used to come back as 0 rows, truncated, counted
        completed; 0 stays the cheap existence probe."""
        query = dfs_query(tiny_example_graph(), 2, seed=1)
        with QueryService(tiny_service_cloud) as service:
            with pytest.raises(AdmissionError, match="non-negative"):
                service.submit(query, limit=-5)
            stats = service.stats()
            assert (stats.rejected, stats.submitted, stats.completed) == (1, 0, 0)
            probe = service.submit(query, limit=0)
            assert probe.match_count == 0 and probe.stats.truncated
            assert service.stats().completed == 1

    def test_default_limit_applied(self, service_graph, service_queries, service_cloud):
        unlimited = solo_oracle(service_graph, service_queries[:1], [None])[0]
        with QueryService(
            service_cloud, service_config=ServiceConfig(limit=1)
        ) as service:
            result = service.submit(service_queries[0])
            assert result.match_count == min(1, len(unlimited[0]))
            explicit = service.submit(service_queries[0], limit=10_000)
            assert explicit.rows == unlimited[0]

    def test_max_in_flight_blocks_then_admits(self, monkeypatch, tiny_service_cloud):
        """With one slot, a second query waits until the first finishes."""
        service = QueryService(
            tiny_service_cloud, service_config=ServiceConfig(max_in_flight=1)
        )
        query = dfs_query(tiny_example_graph(), 2, seed=1)
        release = threading.Event()
        entered = threading.Event()
        real_match = service.matcher.match

        def blocking_match(q, limit=None):
            entered.set()
            assert release.wait(5), "test deadlock: release never set"
            return real_match(q, limit=limit)

        monkeypatch.setattr(service.matcher, "match", blocking_match)
        first = threading.Thread(target=service.submit, args=(query,))
        first.start()
        assert entered.wait(5)
        # The only slot is held: a zero-timeout admission must reject.
        service.service_config = ServiceConfig(
            max_in_flight=1, admission_timeout=0.05
        )
        with pytest.raises(AdmissionError, match="in flight"):
            service.submit(query)
        release.set()
        first.join(timeout=5)
        assert not first.is_alive()
        # Slot free again: the same submission now succeeds.
        monkeypatch.setattr(service.matcher, "match", real_match)
        assert service.submit(query).match_count >= 0
        service.close()

    def test_failed_query_releases_slot(self, monkeypatch, tiny_service_cloud):
        service = QueryService(
            tiny_service_cloud, service_config=ServiceConfig(max_in_flight=1)
        )
        query = dfs_query(tiny_example_graph(), 2, seed=1)

        def exploding_match(q, limit=None):
            raise RuntimeError("boom")

        real_match = service.matcher.match
        monkeypatch.setattr(service.matcher, "match", exploding_match)
        with pytest.raises(RuntimeError, match="boom"):
            service.submit(query)
        stats = service.stats()
        assert stats.failed == 1
        assert stats.in_flight == 0
        monkeypatch.setattr(service.matcher, "match", real_match)
        assert service.submit(query).match_count >= 0  # slot was released
        service.close()

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(max_in_flight=0).validate()
        with pytest.raises(ConfigurationError):
            ServiceConfig(limit=0).validate()
        with pytest.raises(ConfigurationError):
            ServiceConfig(admission_timeout=-1).validate()

    def test_interrupt_releases_slot_and_close_returns(
        self, monkeypatch, tiny_service_cloud
    ):
        """Ctrl-C inside a query (a BaseException, not an Exception) must
        free the admission slot, or every later submit is refused and
        close() waits out the whole drain timeout for a query that is gone."""
        service = QueryService(
            tiny_service_cloud,
            service_config=ServiceConfig(max_in_flight=1, admission_timeout=0.05),
        )
        query = dfs_query(tiny_example_graph(), 2, seed=1)
        real_match = service.matcher.match

        def interrupted_match(q, limit=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(service.matcher, "match", interrupted_match)
        with pytest.raises(KeyboardInterrupt):
            service.submit(query)
        stats = service.stats()
        assert (stats.in_flight, stats.failed, stats.completed) == (0, 1, 0)
        monkeypatch.setattr(service.matcher, "match", real_match)
        assert service.submit(query).match_count >= 0  # the one slot is free
        started = time.monotonic()
        service.close()  # parent: blocks for drain_timeout (60 s), then raises
        assert time.monotonic() - started < 5
        assert service.closed


class TestSnapshotRestart:
    @pytest.fixture(scope="class")
    def snapshot_dir(self, service_graph, tmp_path_factory):
        directory = tmp_path_factory.mktemp("service") / "snap"
        cloud = MemoryCloud.from_graph(service_graph, ClusterConfig(machine_count=3))
        try:
            cloud.save_snapshot(directory)
        finally:
            cloud.close()
        return directory

    def test_restart_from_snapshot_matches_graph_service(
        self, service_graph, service_queries, snapshot_dir
    ):
        """A service reopened from a snapshot returns the same rows."""
        query = service_queries[0]
        with api.connect(service_graph, machines=3) as reference:
            expected = reference.query(query).rows
        with api.connect(snapshot_dir) as restarted:
            assert restarted.cloud.machine_count == 3
            assert restarted.query(query).rows == expected

    def test_warm_after_snapshot_restart(self, service_queries, snapshot_dir):
        with api.connect(snapshot_dir) as db:
            db.service.warm(service_queries[1])
            stats = db.stats()
            result = db.query(service_queries[1])
            assert result.stats.plan_cache_hit is True
            assert stats is not None

    def test_service_owns_snapshot_cloud(self, service_queries, snapshot_dir):
        # The session that opened the snapshot owns the cloud: closing it
        # tears down the cloud's runtime resources.  The service never does —
        # over a borrowed cloud (test_caller_cloud_stays_open) they stay up.
        db = api.connect(snapshot_dir, executor="process", workers=1)
        db.query(service_queries[0], limit=5)
        assert db.cloud._runtime_resources  # the pool + its publication
        db.close()
        assert db.cloud._runtime_resources == []
        assert db.service.closed


class TestLifecycle:
    def test_close_rejects_new_queries_and_is_idempotent(self, tiny_service_cloud):
        service = QueryService(tiny_service_cloud)
        query = dfs_query(tiny_example_graph(), 2, seed=1)
        assert service.submit(query).match_count >= 0
        service.close()
        service.close()  # idempotent
        assert service.closed
        with pytest.raises(ServiceError, match="closed"):
            service.submit(query)

    def test_close_drains_in_flight_queries(self, monkeypatch, tiny_service_cloud):
        """close() waits for the running query, then tears down."""
        service = QueryService(tiny_service_cloud)
        query = dfs_query(tiny_example_graph(), 2, seed=1)
        release = threading.Event()
        entered = threading.Event()
        real_match = service.matcher.match
        outcome = {}

        def blocking_match(q, limit=None):
            entered.set()
            assert release.wait(5), "test deadlock: release never set"
            return real_match(q, limit=limit)

        monkeypatch.setattr(service.matcher, "match", blocking_match)

        def client() -> None:
            outcome["result"] = service.submit(query)

        worker = threading.Thread(target=client)
        worker.start()
        assert entered.wait(5)
        closer = threading.Thread(target=service.close)
        closer.start()
        # close() must be draining (not done) while the query is blocked.
        closer.join(timeout=0.2)
        assert closer.is_alive()
        assert service.closed  # ...but already rejecting new work
        with pytest.raises(ServiceError, match="closed"):
            service.submit(query)
        release.set()
        worker.join(timeout=5)
        closer.join(timeout=5)
        assert not closer.is_alive()
        # The drained query completed normally before teardown.
        assert outcome["result"].match_count >= 0

    def test_close_drain_timeout_raises_and_leaves_runtime_up(
        self, monkeypatch, tiny_service_cloud
    ):
        service = QueryService(tiny_service_cloud)
        query = dfs_query(tiny_example_graph(), 2, seed=1)
        release = threading.Event()
        entered = threading.Event()
        real_match = service.matcher.match

        def blocking_match(q, limit=None):
            entered.set()
            assert release.wait(5), "test deadlock: release never set"
            return real_match(q, limit=limit)

        closes = []
        monkeypatch.setattr(service.matcher, "match", blocking_match)
        monkeypatch.setattr(service.matcher, "close", lambda: closes.append(1))
        worker = threading.Thread(target=service.submit, args=(query,))
        worker.start()
        assert entered.wait(5)
        with pytest.raises(ServiceError, match="drain timeout"):
            service.close(drain_timeout=0.05)
        assert closes == []  # the runtime stays up for the query still running
        release.set()
        worker.join(timeout=5)
        service.close()  # second close now drains cleanly and tears down
        assert closes == [1]
        service.close()
        assert closes == [1]

    def test_caller_cloud_stays_open(self, service_graph):
        cloud = MemoryCloud.from_graph(service_graph, ClusterConfig(machine_count=2))
        try:
            query = dfs_query(service_graph, 3, seed=5)
            with QueryService(cloud) as service:
                expected = service.submit(query, limit=10).rows
            # The service closed, but the caller's cloud must still serve.
            with SubgraphMatcher(cloud) as matcher:
                assert matcher.match(query, limit=10).rows == expected
        finally:
            cloud.close()

    def test_warm_runs_one_budgeted_query(self, service_queries, service_cloud):
        with QueryService(service_cloud) as service:
            service.warm(service_queries[0])
            stats = service.stats()
            assert stats.completed == 1
            assert stats.rows_returned <= 1


class TestAsyncFrontend:
    def test_submit_async_matches_sync(self, service_queries, service_cloud):
        async def scenario() -> None:
            async with QueryService(service_cloud) as service:
                sync_rows = [
                    service.submit(q, limit=20).rows for q in service_queries
                ]
                results = await asyncio.gather(
                    *(service.submit_async(q, limit=20) for q in service_queries)
                )
                assert [r.rows for r in results] == sync_rows
            assert service.closed

        asyncio.run(scenario())

    def test_submit_async_propagates_admission_errors(self, tiny_service_cloud):
        async def scenario() -> None:
            service = QueryService(
                tiny_service_cloud, service_config=ServiceConfig(max_row_budget=5)
            )
            query = dfs_query(tiny_example_graph(), 2, seed=1)
            with pytest.raises(AdmissionError):
                await service.submit_async(query, limit=50)
            await service.aclose()

        asyncio.run(scenario())


class TestBenchHelpers:
    def test_percentile_interpolates(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 1.0) == 4.0
        assert percentile(samples, 0.5) == pytest.approx(2.5)
        assert percentile([], 0.5) == 0.0
        assert percentile([7.0], 0.99) == 7.0

    def test_run_summary_shape(self, service_queries, service_cloud):
        with QueryService(service_cloud) as service:
            run = run_concurrent_clients(
                service, service_queries, clients=2, limit=10
            )
        summary = run.summary()
        assert summary["queries"] == len(service_queries)
        assert summary["errors"] == 0
        assert summary["queries_per_second"] > 0
        assert summary["latency_p50_seconds"] <= summary["latency_p99_seconds"]
