"""Fault injection: a process-backend worker is killed or stopped.

The failure model these scenarios pin (ROADMAP item 2c): a worker that dies
mid-batch turns the query into a typed ``ExecutionError`` promptly, the same
executor answers the next query correctly with a rebuilt worker, ``/dev/shm``
lists nothing new, and ``close()`` returns within its deadline even when a
worker cannot be terminated politely.

``pytest-timeout`` is not available, so every scenario runs its blocking
call in a thread and bounds it with ``join(timeout=...)``: a regression fails
the assertion instead of hanging the suite.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time

import pytest

import repro.runtime.executors as executors_module
from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.core.engine import SubgraphMatcher
from repro.core.planner import MatcherConfig
from repro.errors import ExecutionError
from repro.graph.generators.power_law import generate_power_law
from repro.query.generators import dfs_query
from repro.runtime import ProcessExecutor

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="needs a /dev/shm listing to see stranded blocks"
)

#: Every scenario's hard bound: a query that fails, a close() that returns.
DEADLINE_S = 10.0


@pytest.fixture(scope="module")
def graph():
    return generate_power_law(4_000, 6, label_density=3e-3, seed=17)


@pytest.fixture(scope="module")
def query(graph):
    return dfs_query(graph, 5, seed=5)


@pytest.fixture(scope="module")
def expected(graph, query):
    cloud = MemoryCloud.from_graph(graph, ClusterConfig(machine_count=4))
    with SubgraphMatcher(cloud, MatcherConfig(), executor="serial") as matcher:
        rows = matcher.match(query).rows
    assert len(rows) > 10
    return rows


def bounded(call, timeout=DEADLINE_S):
    """Run ``call`` in a thread; ``(finished in time, result, exception)``."""
    outcome = {}

    def target():
        try:
            outcome["result"] = call()
        except BaseException as error:  # noqa: BLE001 - handed to the assertion
            outcome["error"] = error

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout=timeout)
    return not thread.is_alive(), outcome.get("result"), outcome.get("error")


def _process_state(pid: int) -> str:
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        return handle.read().rsplit(")", 1)[1].split()[0]


class Trap:
    """Blocks the first *worker* process to reach a patched function, inside it.

    The state is ``multiprocessing`` primitives created before the workers
    fork, so the driver can see which worker is caught; workers forked later
    (the replacement) inherit the sprung trap and pass straight through.
    """

    def __init__(self) -> None:
        self.driver = os.getpid()
        self.gate = multiprocessing.Semaphore(1)
        self.caught = multiprocessing.Event()
        self.victim = multiprocessing.Value("i", 0)

    def patch(self, monkeypatch, name: str, after: bool) -> None:
        """Spring inside ``executors.<name>``: before it runs, or once it has."""
        original = getattr(executors_module, name)

        def hooked(*args, **kwargs):
            result = original(*args, **kwargs) if after else None
            if os.getpid() != self.driver and self.gate.acquire(block=False):
                self.victim.value = os.getpid()
                self.caught.set()
                time.sleep(120)
            return result if after else original(*args, **kwargs)

        monkeypatch.setattr(executors_module, name, hooked)

    def victim_pid(self) -> int:
        assert self.caught.wait(DEADLINE_S), "no worker reached the trap"
        return self.victim.value


def workers_of(executor: ProcessExecutor):
    """The executor's own worker processes (never another test's children)."""
    return [worker.process for worker in executor._state.workers]


def children():
    """PIDs of this process's live children."""
    return {child.pid for child in multiprocessing.active_children()}


@pytest.fixture
def runtime(graph):
    """``(cloud, executor, matcher, /dev/shm before the scenario)``.

    Closing it checks that no child process outlives the scenario: the
    children alive at its start are the baseline, not an empty set.
    """
    before = set(os.listdir("/dev/shm"))
    children_before = children()
    cloud = MemoryCloud.from_graph(graph, ClusterConfig(machine_count=4))
    executor = ProcessExecutor(workers=2)
    matcher = SubgraphMatcher(cloud, MatcherConfig(), executor=executor)
    try:
        yield cloud, executor, matcher, before
    finally:
        finished, _, error = bounded(lambda: (matcher.close(), executor.close(), cloud.close()))
        assert finished and error is None
        assert children() <= children_before


@pytest.mark.parametrize(
    "where, patched, after",
    [
        # Inside an exploration unit, its stage chunk built and not yet
        # reported.  No worker runs a join: the calling process joins.
        ("explore", "match_stage", True),
    ],
)
def test_sigkill_mid_batch_fails_the_query_and_the_executor_recovers(
    runtime, query, expected, monkeypatch, where, patched, after
):
    cloud, executor, matcher, before = runtime
    trap = Trap()
    trap.patch(monkeypatch, patched, after)
    executor._ensure_workers(cloud)  # workers up, trap inherited
    resident = set(os.listdir("/dev/shm"))
    workers = {worker.pid for worker in workers_of(executor)}
    assert len(workers) == 2

    failed = {}

    def doomed():
        try:
            matcher.match(query)
        except ExecutionError as error:
            failed["error"] = error

    thread = threading.Thread(target=doomed, daemon=True)
    thread.start()
    victim = trap.victim_pid()
    assert victim in workers
    os.kill(victim, signal.SIGKILL)
    thread.join(timeout=DEADLINE_S)
    assert not thread.is_alive(), f"query still waiting on a dead worker ({where})"
    message = str(failed["error"])
    assert f"worker {victim} died" in message and "chunk" in message
    assert "ExploreTask" in message and "stage" in message
    # Nothing of the failed query is left behind.
    assert set(os.listdir("/dev/shm")) == resident

    finished, result, error = bounded(lambda: matcher.match(query))
    assert finished and error is None
    assert result.rows == expected
    survivors = {worker.pid for worker in workers_of(executor)}
    assert len(survivors) == 2 and victim not in survivors

    finished, _, error = bounded(lambda: (matcher.close(), executor.close(), cloud.close()))
    assert finished and error is None
    assert set(os.listdir("/dev/shm")) == before
    assert workers_of(executor) == [] and not children() & (workers | survivors)


def test_sigkill_between_batches_costs_nothing(runtime, query, expected):
    """An idle worker that dies is replaced before the next batch."""
    cloud, executor, matcher, before = runtime
    assert matcher.match(query).rows == expected
    victim = workers_of(executor)[0]
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(DEADLINE_S)  # dead before the next batch looks, not during it
    assert not victim.is_alive()
    victim = victim.pid
    finished, result, error = bounded(lambda: matcher.match(query))
    assert finished and error is None
    assert result.rows == expected
    survivors = {worker.pid for worker in workers_of(executor)}
    assert len(survivors) == 2 and victim not in survivors


def test_sigstop_does_not_hang_close(runtime, query, expected):
    """A stopped worker ignores SIGTERM: close() kills it at the deadline."""
    cloud, executor, matcher, before = runtime
    assert matcher.match(query).rows == expected
    stopped = workers_of(executor)[0].pid
    os.kill(stopped, signal.SIGSTOP)
    patience = time.monotonic() + DEADLINE_S
    while _process_state(stopped) != "T":  # a SIGTERM that overtakes the stop would kill it
        assert time.monotonic() < patience
        time.sleep(0.01)
    started = time.monotonic()
    finished, _, error = bounded(executor.close)
    assert finished and error is None
    elapsed = time.monotonic() - started
    assert executors_module._CLOSE_DEADLINE_S <= elapsed < executors_module._CLOSE_DEADLINE_S + 3.0
    cloud.close()
    assert set(os.listdir("/dev/shm")) == before
    assert workers_of(executor) == [] and stopped not in children()


def test_stealing_queries_strand_nothing_on_a_resident_executor(
    runtime, query, expected, monkeypatch
):
    """A stage cut into stolen chunks is coalesced where the query runs, and no
    worker joins: ``/dev/shm`` after query *k*
    lists what it listed after query 1, however long the executor stays
    resident."""
    monkeypatch.setattr(executors_module, "_STEAL_MIN_ROOTS", 8)
    cloud, executor, matcher, before = runtime
    listings = []
    for _ in range(5):
        finished, result, error = bounded(lambda: matcher.match(query))
        assert finished and error is None
        assert result.rows == expected
        listings.append(sorted(os.listdir("/dev/shm")))
    counters = executor.transport_counters
    assert counters["explore_coalesced"] > 0, "no stage was cut into chunks"
    assert counters["join_publications"] == 0
    assert all(listing == listings[0] for listing in listings), list(map(len, listings))
    finished, _, error = bounded(lambda: (matcher.close(), executor.close(), cloud.close()))
    assert finished and error is None
    assert set(os.listdir("/dev/shm")) == before
    assert workers_of(executor) == []
