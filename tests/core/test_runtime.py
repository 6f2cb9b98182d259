"""Parity suite for the cluster runtime executors.

The serial executor is the oracle: the process backend must
produce *identical* result rows (same order), identical communication
metrics (scalar counters and per-machine-pair messages), and VF2-verified
answers on seeded graphs.  The process backend must additionally leave no
shared-memory segment behind once the cloud is closed.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.vf2 import vf2_match
from repro.errors import ConfigurationError, NodeNotFoundError
from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import (
    EXECUTOR_ENV_VAR,
    ClusterConfig,
    RuntimeConfig,
    resolve_backend,
)
from repro.core.distributed import _gather_machine_tables
from repro.core.engine import SubgraphMatcher
from repro.core.exploration import explore
from repro.core.join import select_join_order
from repro.core.planner import MatcherConfig, QueryPlanner
from repro.graph.generators.power_law import generate_power_law
from repro.query.generators import dfs_query
from repro.runtime import (
    ProcessExecutor,
    SerialExecutor,
    create_executor,
)
from tests.helpers import assert_same_matches, oracle_join

BACKENDS = ("serial", "process")


@pytest.fixture(scope="module")
def parity_graph():
    """Seeded 10k-node power-law graph with few labels (heavy exploration)."""
    return generate_power_law(10_000, 6, label_density=2e-3, seed=41)


@pytest.fixture(scope="module")
def parity_queries(parity_graph):
    return [dfs_query(parity_graph, 5, seed=seed) for seed in (3, 5, 11)]


def star_table(spokes: int):
    """The factorized one-leaf table of a hub with ``spokes`` neighbours."""
    from repro.core.result import STwigTable

    return STwigTable.from_slots(
        ("qa", "qb"),
        (),
        np.array([7], dtype=np.int64),
        [np.arange(100, 100 + spokes, dtype=np.int64)],
        [np.array([0, spokes], dtype=np.int64)],
    )


def run_backend(graph, queries, backend, limit=None, config=None, workers=2, stealing=True):
    """Fresh cloud + matcher per backend; returns rows/metrics/pair counts."""
    cloud = MemoryCloud.from_graph(graph, ClusterConfig(machine_count=4))
    executor = create_executor(
        RuntimeConfig(backend=backend, workers=workers, stealing=stealing)
    )
    outputs = []
    try:
        with SubgraphMatcher(cloud, config, executor=executor) as matcher:
            for query in queries:
                result = matcher.match(query, limit=limit)
                outputs.append(
                    {
                        "rows": result.rows,
                        "dicts": result.as_dicts(),
                        "metrics": result.metrics,
                        "truncated": result.stats.truncated,
                    }
                )
    finally:
        executor.close()
        cloud.close()
    return outputs, dict(cloud.metrics.per_pair_messages)


class TestBackendParity:
    def test_rows_and_metrics_identical(self, parity_graph, parity_queries):
        reference, reference_pairs = run_backend(
            parity_graph, parity_queries, "serial"
        )
        outputs, pairs = run_backend(parity_graph, parity_queries, "process")
        for serial_out, backend_out in zip(reference, outputs):
            # Row-for-row: same rows in the same order, not just the
            # same set — the merge is deterministic by machine ID.
            assert backend_out["rows"] == serial_out["rows"]
            assert backend_out["metrics"] == serial_out["metrics"]
        assert pairs == reference_pairs

    def test_limited_queries_identical_rows(self, parity_graph, parity_queries):
        """Limited queries: row-for-row, truncation and counter parity on
        every backend — the join runs machine after machine in the calling
        process, so the early exit of a filled budget is the serial one."""
        reference, reference_pairs = run_backend(parity_graph, parity_queries, "serial", limit=50)
        outputs, pairs = run_backend(parity_graph, parity_queries, "process", limit=50)
        for serial_out, backend_out in zip(reference, outputs):
            assert backend_out["rows"] == serial_out["rows"]
            assert backend_out["truncated"] == serial_out["truncated"]
            assert backend_out["metrics"] == serial_out["metrics"]
        assert pairs == reference_pairs

    @pytest.mark.parametrize("stealing", (False, True))
    @pytest.mark.parametrize("workers", (4, 2, 1))
    def test_join_cache_shared_per_worker_keeps_parity(
        self, parity_graph, parity_queries, monkeypatch, workers, stealing
    ):
        """Whatever the worker count and stealing, rows, row order and every
        ``CloudMetrics`` counter match serial's — the receiver's transfers
        and the sender-side filter too (``result_rows_shipped`` /
        ``result_rows_filtered`` are part of the compared snapshot) — and a
        limit-k answer is still the exact k-prefix with the serial
        truncation flag."""
        import repro.runtime.executors as executors_module

        if stealing:
            monkeypatch.setattr(executors_module, "_STEAL_MIN_ROOTS", 8)
        reference, reference_pairs = run_backend(parity_graph, parity_queries, "serial")
        assert all(out["metrics"]["result_rows_shipped"] > 0 for out in reference)
        assert any(out["metrics"]["result_rows_filtered"] > 0 for out in reference)
        outputs, pairs = run_backend(
            parity_graph, parity_queries, "process", workers=workers, stealing=stealing
        )
        for serial_out, process_out in zip(reference, outputs):
            assert process_out["rows"] == serial_out["rows"]
            assert process_out["metrics"] == serial_out["metrics"]
        assert pairs == reference_pairs
        for limit in (1, 7, 50):
            limited, _ = run_backend(
                parity_graph, parity_queries, "process", limit=limit,
                workers=workers, stealing=stealing,
            )
            for serial_out, process_out in zip(reference, limited):
                assert process_out["rows"] == serial_out["rows"][:limit]
                assert process_out["truncated"] == (len(serial_out["rows"]) > limit)

    def test_limited_queries_deterministic_per_backend(
        self, parity_graph, parity_queries
    ):
        """Two process-backend runs agree row-for-row on limited queries."""
        first, _ = run_backend(parity_graph, parity_queries, "process", limit=50)
        second, _ = run_backend(parity_graph, parity_queries, "process", limit=50)
        for out_a, out_b in zip(first, second):
            assert out_a["rows"] == out_b["rows"]
            assert out_a["truncated"] == out_b["truncated"]

    def test_limited_queries_join_in_the_calling_process(
        self, parity_graph, parity_queries, monkeypatch
    ):
        """A limit-25 process query explores in the workers and joins in the
        calling process: ``machine_result_rows`` runs once per machine, in
        machine order, in that process, against one budget whose first
        ``remaining()`` is the probe limit 26 (limit + 1 proves truncation
        exactly).  A call in a worker would fail the query."""
        import repro.core.distributed as distributed_module

        caller = os.getpid()
        calls = []
        original = distributed_module.machine_result_rows

        def spy(cloud, plan, tables, machine_id, bindings, remaining=None, budget=None):
            if os.getpid() != caller:
                raise AssertionError("a worker ran a machine's join")
            calls.append((os.getpid(), machine_id, budget, budget.remaining()))
            return original(cloud, plan, tables, machine_id, bindings, remaining, budget)

        monkeypatch.setattr(distributed_module, "machine_result_rows", spy)
        query = parity_queries[0]
        cloud = MemoryCloud.from_graph(parity_graph, ClusterConfig(machine_count=4))
        executor = ProcessExecutor(workers=2)
        try:
            with SubgraphMatcher(cloud, MatcherConfig(), executor=executor) as m:
                result = m.match(query, limit=25)
                workers = [worker.process.pid for worker in executor._state.workers]
        finally:
            executor.close()
            cloud.close()
        assert len(workers) == 2 and caller not in workers
        assert [machine for _, machine, _, _ in calls] == [0, 1, 2, 3]
        assert {pid for pid, _, _, _ in calls} == {caller}
        assert len({id(budget) for _, _, budget, _ in calls}) == 1
        assert calls[0][3] == 26
        assert result.match_count <= 25

    def test_vf2_cross_check(self, parity_graph, parity_queries):
        expected = [
            vf2_match(parity_graph, query) for query in parity_queries
        ]
        for backend in BACKENDS:
            outputs, _ = run_backend(parity_graph, parity_queries, backend)
            for backend_out, vf2_answers in zip(outputs, expected):
                assert_same_matches(backend_out["dicts"], vf2_answers)

    @pytest.mark.parametrize(
        "ablation", ["use_final_binding_filter", "use_binding_filter"]
    )
    def test_binding_filter_ablations_keep_vf2_answers(
        self, parity_graph, parity_queries, ablation
    ):
        """The join order reads the final binding sizes whether or not the
        bindings also filter: turning a filter off changes no answer."""
        query = parity_queries[0]
        expected = vf2_match(parity_graph, query)
        config = MatcherConfig(**{ablation: False})
        for backend in BACKENDS:
            outputs, _ = run_backend(parity_graph, [query], backend, config=config)
            assert_same_matches(outputs[0]["dicts"], expected)


def final_arrays(graph, queries, limits_for, backend, stealing=True):
    """``{(query index, limit): (final array, truncated)}`` on one backend."""
    cloud = MemoryCloud.from_graph(graph, ClusterConfig(machine_count=4))
    executor = create_executor(
        RuntimeConfig(backend=backend, workers=2, stealing=stealing)
    )
    arrays = {}
    try:
        with SubgraphMatcher(cloud, MatcherConfig(), executor=executor) as matcher:
            for index, query in enumerate(queries):
                for limit in limits_for(index):
                    result = matcher.match(query, limit=limit)
                    arrays[index, limit] = (result.to_array(), result.stats.truncated)
    finally:
        executor.close()
        cloud.close()
    return arrays


def oracle_arrays(graph, queries):
    """Each query's unlimited answer, joined by the row-sort-mask oracle."""
    oracle = []
    with MemoryCloud.from_graph(graph, ClusterConfig(machine_count=4)) as cloud:
        planner = QueryPlanner(cloud, MatcherConfig())
        for query in queries:
            plan = planner.plan(query)
            exploration = explore(cloud, plan)
            distinct_counts = {
                node: len(exploration.bindings.candidates_array(node))
                for node in query.nodes()
            }
            shares = [np.empty((0, query.node_count), dtype=np.int64)]
            for machine_id in range(cloud.machine_count):
                tables = _gather_machine_tables(cloud, plan, exploration.tables, machine_id)
                if all(table.row_count for table in tables):
                    order = select_join_order(tables, distinct_counts)
                    shares.append(oracle_join(tables, order, query.nodes()))
            oracle.append(np.concatenate(shares, axis=0))
    return oracle


class TestFinalArrayParity:
    """The assembled array itself — before any tuple conversion — is the
    row-sort-mask oracle's, row for row and in order, on every backend,
    stealing on or off, unlimited and at every limit around the count."""

    def test_final_array_identical_on_every_schedule(
        self, parity_graph, parity_queries, monkeypatch
    ):
        import repro.runtime.executors as executors_module

        oracle = oracle_arrays(parity_graph, parity_queries)
        assert all(len(rows) > 1 for rows in oracle)

        def limits_for(index):
            count = len(oracle[index])
            return (None, 1, count, count + 1)

        schedules = {
            "serial": final_arrays(parity_graph, parity_queries, limits_for, "serial"),
            "process": final_arrays(
                parity_graph, parity_queries, limits_for, "process", stealing=False
            ),
        }
        monkeypatch.setattr(executors_module, "_STEAL_MIN_ROOTS", 8)
        schedules["process+stealing"] = final_arrays(
            parity_graph, parity_queries, limits_for, "process", stealing=True
        )
        for name, arrays in schedules.items():
            for (index, limit), (array, truncated) in arrays.items():
                expected = oracle[index][:limit]
                assert array.dtype == expected.dtype, (name, index, limit)
                assert np.array_equal(array, expected), (name, index, limit)
                assert truncated == (limit is not None and limit < len(oracle[index]))


def worker_pids(executor: ProcessExecutor):
    """PIDs of the executor's own workers, in start order."""
    return [worker.process.pid for worker in executor._state.workers]


def running(pid: int) -> bool:
    """Whether process ``pid`` exists (a retired worker is reaped)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def shm_listing():
    """The names in ``/dev/shm`` (empty where it cannot be listed)."""
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


class TestProcessRuntimeLifecycle:
    def test_process_query_touches_no_shared_memory(self):
        """One transport, the pipes: in a fresh interpreter, an unlimited and
        a limited process query (a stage cut into chunks for stealing) return
        serial's rows without loading ``multiprocessing.shared_memory``,
        leave ``/dev/shm`` as they found it, and write nothing to stderr."""
        if not os.path.isdir("/dev/shm"):
            pytest.skip("needs a /dev/shm listing to see new blocks")
        script = textwrap.dedent(
            """
            import os, sys
            import repro.runtime.executors as executors
            from repro.cloud.cluster import MemoryCloud
            from repro.cloud.config import ClusterConfig
            from repro.core.engine import SubgraphMatcher
            from repro.graph.generators.power_law import generate_power_law
            from repro.query.generators import dfs_query

            executors._STEAL_MIN_ROOTS = 8
            before = sorted(os.listdir("/dev/shm"))
            graph = generate_power_law(3_000, 5, label_density=5e-3, seed=71)
            query = dfs_query(graph, 4, seed=9)
            cloud = MemoryCloud.from_graph(graph, ClusterConfig(machine_count=3))
            with SubgraphMatcher(cloud, executor="serial") as serial:
                expected = [serial.match(query).rows, serial.match(query, limit=5).rows]
            with SubgraphMatcher(cloud, executor="process", workers=2) as matcher:
                actual = [matcher.match(query).rows, matcher.match(query, limit=5).rows]
                split = matcher.executor.transport_counters["explore_coalesced"]
            cloud.close()
            assert len(expected[0]) > 5 and actual == expected
            assert split > 0, "no stage was split"
            assert "multiprocessing.shared_memory" not in sys.modules
            assert sorted(os.listdir("/dev/shm")) == before
            """
        )
        src = Path(__file__).resolve().parents[2] / "src"
        run = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0 and run.stderr == "", run.stderr

    def test_segments_unlinked_after_cloud_close(self, parity_graph, parity_queries):
        """Closing the cloud retires its workers, and ``/dev/shm`` lists
        nothing a query left behind."""
        before = shm_listing()
        cloud = MemoryCloud.from_graph(parity_graph, ClusterConfig(machine_count=4))
        executor = ProcessExecutor(workers=2)
        try:
            with SubgraphMatcher(cloud, MatcherConfig(), executor=executor) as matcher:
                matcher.match(parity_queries[0], limit=5)
                workers = worker_pids(executor)
                assert len(workers) == 2 and all(map(running, workers))
        finally:
            cloud.close()
        assert worker_pids(executor) == [] and not any(map(running, workers))
        assert shm_listing() == before
        executor.close()

    def test_executor_close_is_idempotent(self, parity_graph, parity_queries):
        cloud = MemoryCloud.from_graph(parity_graph, ClusterConfig(machine_count=4))
        executor = ProcessExecutor(workers=1)
        try:
            matcher = SubgraphMatcher(cloud, MatcherConfig(), executor=executor)
            matcher.match(parity_queries[0])
            executor.close()
            executor.close()
        finally:
            executor.close()
            cloud.close()

    def test_executor_reused_after_close_cleans_up_again(
        self, parity_graph, parity_queries
    ):
        """close() must stay effective after a close -> reuse cycle."""
        cloud = MemoryCloud.from_graph(parity_graph, ClusterConfig(machine_count=4))
        executor = ProcessExecutor(workers=1)
        try:
            matcher = SubgraphMatcher(cloud, MatcherConfig(), executor=executor)
            first = matcher.match(parity_queries[0])
            retired = worker_pids(executor)
            executor.close()
            assert worker_pids(executor) == [] and not any(map(running, retired))
            second = matcher.match(parity_queries[0])  # forks new workers
            assert second.rows == first.rows
            workers = worker_pids(executor)
            assert workers and not set(workers) & set(retired)
            executor.close()
            assert worker_pids(executor) == [] and not any(map(running, workers))
        finally:
            executor.close()
            cloud.close()

    def test_matcher_and_cloud_close_any_order_any_number_of_times(
        self, parity_graph, parity_queries
    ):
        """Teardown is idempotent and order-independent, with no worker left.

        The service layer closes the matcher before the cloud; ad-hoc users
        (and __exit__ stacks) do it the other way around, and error paths
        may do either twice.  Every interleaving must retire all workers
        exactly once and tolerate repetition.
        """
        for close_matcher_first in (True, False):
            cloud = MemoryCloud.from_graph(parity_graph, ClusterConfig(machine_count=4))
            matcher = SubgraphMatcher(
                cloud, MatcherConfig(), executor=ProcessExecutor(workers=1)
            )
            matcher._owns_executor = True  # owned, so matcher.close() closes it
            try:
                matcher.match(parity_queries[0], limit=5)
                workers = worker_pids(matcher.executor)
                assert workers
                first, second = (
                    (matcher.close, cloud.close)
                    if close_matcher_first
                    else (cloud.close, matcher.close)
                )
                first()
                first()  # double-close before the peer closes
                second()
                second()
                first()  # ...and after
                assert worker_pids(matcher.executor) == []
                assert not any(map(running, workers))
            finally:
                matcher.close()
                cloud.close()

    def test_close_while_queries_in_flight_never_deadlocks(
        self, parity_graph, parity_queries
    ):
        """Teardown racing in-flight queries must never hang or corrupt.

        Queries overlapping ``close()`` may complete normally or fail with
        a library error (the executor is allowed to refuse work mid-
        teardown), but they must not deadlock, and queries that do complete
        must return correct rows.  The repeated double-closes exercise the
        idempotence under contention.
        """
        import threading

        expected = None
        cloud = MemoryCloud.from_graph(parity_graph, ClusterConfig(machine_count=4))
        with SubgraphMatcher(cloud, MatcherConfig(), executor="serial") as oracle:
            expected = oracle.match(parity_queries[0], limit=20).rows
        cloud.close()

        cloud = MemoryCloud.from_graph(parity_graph, ClusterConfig(machine_count=4))
        matcher = SubgraphMatcher(
            cloud, MatcherConfig(), executor=ProcessExecutor(workers=1)
        )
        matcher._owns_executor = True
        try:
            matcher.match(parity_queries[0], limit=5)  # workers up
            started = threading.Barrier(3)
            outcomes = []
            lock = threading.Lock()

            def client() -> None:
                started.wait(timeout=5)
                try:
                    result = matcher.match(parity_queries[0], limit=20)
                    with lock:
                        outcomes.append(("ok", result.rows))
                except Exception as exc:  # noqa: BLE001 - recorded for the assert
                    with lock:
                        outcomes.append(("error", exc))

            workers = [threading.Thread(target=client) for _ in range(2)]
            for worker in workers:
                worker.start()
            started.wait(timeout=5)
            matcher.close()  # drains the in-flight fan-out, then tears down
            cloud.close()
            for worker in workers:
                worker.join(timeout=60)
                assert not worker.is_alive(), "query deadlocked against teardown"
            assert len(outcomes) == 2
            for kind, payload in outcomes:
                if kind == "ok":
                    assert payload == expected
        finally:
            # A query mid-flight when close() hit may have restarted the
            # workers for its next stage (reuse-after-close semantics); the
            # final close must still leave none behind.
            matcher.close()
            cloud.close()
        assert worker_pids(matcher.executor) == []

    def test_shared_executor_switching_clouds_reregisters(
        self, parity_graph, parity_queries
    ):
        """Closing an executor's *former* cloud must not kill its new one."""
        cloud_a = MemoryCloud.from_graph(parity_graph, ClusterConfig(machine_count=2))
        cloud_b = MemoryCloud.from_graph(parity_graph, ClusterConfig(machine_count=2))
        executor = ProcessExecutor(workers=1)
        try:
            matcher_a = SubgraphMatcher(cloud_a, MatcherConfig(), executor=executor)
            expected = matcher_a.match(parity_queries[0]).rows
            matcher_b = SubgraphMatcher(cloud_b, MatcherConfig(), executor=executor)
            matcher_b.match(parity_queries[0])
            workers_b = worker_pids(executor)
            cloud_a.close()  # must not tear down cloud B's runtime
            assert worker_pids(executor) == workers_b
            again = matcher_b.match(parity_queries[0]).rows
            assert again == expected
            assert worker_pids(executor) == workers_b
        finally:
            executor.close()
            cloud_a.close()
            cloud_b.close()

    def test_reloading_cloud_restarts_workers(self):
        """load_graph on a cloud with live workers must restart them —
        workers forked before the reload would match the previous graph."""
        graph_a = generate_power_law(2_000, 5, label_density=5e-3, seed=71)
        graph_b = generate_power_law(3_000, 5, label_density=5e-3, seed=72)
        cloud = MemoryCloud.from_graph(graph_a, ClusterConfig(machine_count=3))
        executor = ProcessExecutor(workers=1)
        try:
            matcher = SubgraphMatcher(cloud, MatcherConfig(), executor=executor)
            query_a = dfs_query(graph_a, 4, seed=9)
            matcher.match(query_a)
            pids_before = set(worker_pids(executor))
            cloud.load_graph(graph_b)
            query_b = dfs_query(graph_b, 4, seed=9)
            expected = SubgraphMatcher(cloud, executor="serial").match(query_b)
            cloud.reset_metrics()
            actual = matcher.match(query_b)
            assert actual.rows == expected.rows
            assert actual.metrics == expected.metrics
            pids_after = set(worker_pids(executor))
            assert pids_after and not pids_after & pids_before
        finally:
            executor.close()
            cloud.close()

    def test_worker_error_does_not_leak_shipped_blocks(
        self, parity_graph, parity_queries, monkeypatch
    ):
        """A failed batch strands nothing, and leaves the executor usable.

        One exploration stage, cut into chunks, fails inside the workers (its
        cuts put every root on the last machine, which does not store them).
        The error surfaces, ``/dev/shm`` holds exactly what it held before,
        and the next batch answers as the first did: the sibling units in
        flight were drained.
        """
        import repro.runtime.executors as executors_module
        from repro.core.matcher import _stage_root_partition
        from repro.core.planner import QueryPlanner
        from repro.core.tasks import ExploreTask

        monkeypatch.setattr(executors_module, "_STEAL_MIN_ROOTS", 2)

        if not os.path.isdir("/dev/shm"):
            pytest.skip("needs a /dev/shm listing to see stranded blocks")
        cloud = MemoryCloud.from_graph(parity_graph, ClusterConfig(machine_count=4))
        query = parity_queries[0]
        stwig = QueryPlanner(cloud).plan(query).stwigs[0]
        roots, cuts = _stage_root_partition(cloud, stwig, query.label(stwig.root), None)
        assert cuts[3] > 0, "machine 3 holds every root: nothing would be misplaced"
        stage = ExploreTask(stwig, query, None, roots, cuts)
        misplaced = ExploreTask(stwig, query, None, roots, np.array([0, 0, 0, 0, len(roots)]))

        executor = ProcessExecutor(workers=2)
        try:
            first = executor.run(cloud, stage).table.row_count
            resident = set(os.listdir("/dev/shm"))
            with pytest.raises(NodeNotFoundError, match="machine 3"):
                executor.run(cloud, misplaced)
            assert set(os.listdir("/dev/shm")) == resident
            assert executor.run(cloud, stage).table.row_count == first
        finally:
            executor.close()
            cloud.close()

    def test_every_table_rides_the_pipe(self, parity_graph, parity_queries):
        """The transport, asserted on counters: with stealing off, no machine
        is split, nothing is coalesced on the driver, and the three
        publication counters read 0."""
        reference, _ = run_backend(parity_graph, parity_queries, "serial")
        cloud = MemoryCloud.from_graph(parity_graph, ClusterConfig(machine_count=4))
        executor = ProcessExecutor(workers=2, stealing=False)
        try:
            with SubgraphMatcher(cloud, MatcherConfig(), executor=executor) as matcher:
                for query, serial_out in zip(parity_queries, reference):
                    result = matcher.match(query)
                    assert result.rows == serial_out["rows"]
        finally:
            executor.close()
            cloud.close()
        assert executor.transport_counters == dict.fromkeys(
            ("explore_publications", "explore_coalesced", "driver_table_receives",
             "join_publications", "join_cache_hits"), 0,
        )

    def test_work_stealing_preserves_rows_and_metrics(
        self, parity_graph, parity_queries, monkeypatch
    ):
        """Forced chunk-splitting (stealing on, tiny chunk floor) must not
        change a single row or metric: chunks of one machine concatenate
        in chunk order and per-chunk metric deltas sum to the serial
        totals regardless of which worker ran which chunk when."""
        import repro.runtime.executors as executors_module

        reference, reference_pairs = run_backend(parity_graph, parity_queries, "serial")
        monkeypatch.setattr(executors_module, "_STEAL_MIN_ROOTS", 8)
        outputs, pairs = run_backend(parity_graph, parity_queries, "process")
        for serial_out, backend_out in zip(reference, outputs):
            assert backend_out["rows"] == serial_out["rows"]
            assert backend_out["metrics"] == serial_out["metrics"]
        assert pairs == reference_pairs

    def test_root_chunks_partition_exactly(self):
        """Chunking for stealing is an exact order-preserving partition of a
        stage's roots, bounded per worker, and small stages are never split."""
        from repro.runtime.executors import _STEAL_MIN_ROOTS, _root_chunks

        assert _root_chunks(2 * _STEAL_MIN_ROOTS - 1, 4) == [(0, 2 * _STEAL_MIN_ROOTS - 1)]
        large = 10 * _STEAL_MIN_ROOTS + 3
        assert _root_chunks(large, 1) == [(0, large)]
        chunks = _root_chunks(large, 4)
        assert len(chunks) == 4
        # Consecutive, covering, no chunk below the floor.
        assert chunks[0][0] == 0 and chunks[-1][1] == large
        assert all(stop == start for (_, stop), (start, _) in zip(chunks, chunks[1:]))
        assert min(stop - start for start, stop in chunks) >= _STEAL_MIN_ROOTS


class TestSingleExecutionPath:
    """Every fan-out goes through ``Executor.run``; two backends remain."""

    def test_executor_less_calls_run_through_serial_executor(
        self, parity_graph, parity_queries, monkeypatch
    ):
        from repro.core.distributed import assemble_results
        from repro.core.exploration import explore
        from repro.core.planner import QueryPlanner
        from repro.core.tasks import ExploreTask

        batches = []
        inherited_run = SerialExecutor.run

        def spy(self, cloud, task):
            batches.append(type(task))
            return inherited_run(self, cloud, task)

        monkeypatch.setattr(SerialExecutor, "run", spy)
        cloud = MemoryCloud.from_graph(parity_graph, ClusterConfig(machine_count=4))
        plan = QueryPlanner(cloud).plan(parity_queries[0])
        outcome = explore(cloud, plan)
        assert batches == [ExploreTask] * len(plan.stwigs)
        joined = assemble_results(cloud, plan, outcome)
        assert batches == [ExploreTask] * len(plan.stwigs), "the join is no executor task"
        assert joined.row_count > 0

    def test_thread_backend_is_gone(self, monkeypatch, tmp_path):
        from repro.cli import main

        names = r"\('serial', 'process'\)"
        with pytest.raises(ConfigurationError, match=names):
            create_executor("thread")
        with pytest.raises(ConfigurationError, match=names):
            main(["query", "--dataset", "tiny", "--query-file", str(tmp_path / "q"),
                  "--executor", "thread"])
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "thread")
        with pytest.raises(ConfigurationError, match=names):
            create_executor()

    def test_transport_counters_exact_under_concurrent_batches(
        self, parity_graph, parity_queries, monkeypatch
    ):
        """The service runs batches from several threads at once: 4 threads
        x 8 identical queries through one ProcessExecutor must total exactly
        32x one query's transport counters (no lost update)."""
        import sys
        import threading

        import repro.runtime.executors as executors_module

        monkeypatch.setattr(executors_module, "_STEAL_MIN_ROOTS", 8)
        query = parity_queries[0]
        cloud = MemoryCloud.from_graph(parity_graph, ClusterConfig(machine_count=4))
        executor = ProcessExecutor(workers=2)
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with SubgraphMatcher(cloud, MatcherConfig(), executor=executor) as matcher:
                matcher.match(query)
                single = dict(executor.transport_counters)
                assert single["driver_table_receives"] > 0

                def client() -> None:
                    for _ in range(8):
                        matcher.match(query)

                clients = [threading.Thread(target=client) for _ in range(4)]
                for thread in clients:
                    thread.start()
                for thread in clients:
                    thread.join(timeout=120)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(switch_interval)
            executor.close()
            cloud.close()
        assert executor.transport_counters == {
            name: 33 * count for name, count in single.items()
        }


class TestBackendSelection:
    def test_suite_backend_reaches_default_matchers(
        self, runtime_backend, parity_graph
    ):
        """The CI matrix knob (REPRO_EXECUTOR, surfaced by the conftest
        fixture) must be the backend every default-constructed matcher
        actually runs on."""
        cloud = MemoryCloud.from_graph(parity_graph, ClusterConfig(machine_count=2))
        with SubgraphMatcher(cloud) as matcher:
            assert matcher.executor.name == runtime_backend
        cloud.close()

    def test_env_variable_resolution(self, monkeypatch):
        monkeypatch.delenv(EXECUTOR_ENV_VAR, raising=False)
        assert resolve_backend() == "serial"
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "process")
        assert resolve_backend() == "process"
        assert isinstance(create_executor(), ProcessExecutor)
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "warp-drive")
        with pytest.raises(ConfigurationError):
            resolve_backend()

    def test_explicit_backend_beats_environment(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "process")
        assert resolve_backend("serial") == "serial"
        assert isinstance(create_executor("serial"), SerialExecutor)

    def test_runtime_config_validation(self):
        RuntimeConfig(backend="process", workers=2).validate()
        with pytest.raises(ConfigurationError):
            RuntimeConfig(backend="bogus").validate()
        with pytest.raises(ConfigurationError):
            RuntimeConfig(workers=0).validate()

    def test_matcher_owns_only_created_executors(self, parity_graph):
        cloud = MemoryCloud.from_graph(parity_graph, ClusterConfig(machine_count=2))
        shared = SerialExecutor()
        with SubgraphMatcher(cloud, executor=shared) as matcher:
            assert matcher.executor is shared
        # Closing the matcher must not have closed the shared executor; a
        # serial executor has no resources, so just assert it still works.
        assert shared.name == "serial"
