"""Property test: query results and metrics are schedule-independent.

The task-graph runtime's contract is that scheduling — serial inline,
process pool with work stealing on or off, or every batch's units run in
an arbitrary drawn order — never shows through in what a query returns:
the same rows in the same order, the same truncation flag, and identical
merged communication metrics — all of them, limited or not — because
per-chunk metric deltas are summed in (task, chunk) order no matter which
worker ran which chunk when, and the join runs machine after machine in
the calling process on every backend.
Hypothesis drives random query/limit choices against module-scoped
matchers, one per schedule, with the chunk floor forced low enough that
stealing genuinely splits machines at this graph scale.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.runtime.executors as executors_module
from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.core.engine import SubgraphMatcher
from repro.core.planner import MatcherConfig
from repro.graph.generators.power_law import generate_power_law
from repro.query.generators import dfs_query
from repro.runtime import ProcessExecutor, SerialExecutor

#: (backend, stealing) pairs; serial has no scheduler so no stealing knob.
SCHEDULES = (
    ("serial", None),
    ("shuffled", True),
    ("process", False),
    ("process", True),
)


class ShuffledExecutor(SerialExecutor):
    """Test-only backend: the serial unit runner, fed each batch's units
    (split, so chunks interleave across machines) in an order drawn by
    ``rng`` — cheap in-process coverage of out-of-order completion."""

    stealing = True
    rng = None  # set per hypothesis example

    def _run_units(self, cloud, tasks, units):
        units = list(units)
        self.rng.shuffle(units)
        return super()._run_units(cloud, tasks, units)


def _executor_for(backend, stealing):
    if backend == "serial":
        return SerialExecutor()
    if backend == "shuffled":
        return ShuffledExecutor()
    return ProcessExecutor(workers=2, stealing=stealing)


@pytest.fixture(scope="module")
def schedule_env():
    """One matcher per schedule over one seeded graph + serial reference."""
    original_floor = executors_module._STEAL_MIN_ROOTS
    executors_module._STEAL_MIN_ROOTS = 8
    graph = generate_power_law(2_000, 6, label_density=3e-3, seed=23)
    queries = [dfs_query(graph, size, seed=seed) for size, seed in ((4, 3), (5, 9))]
    environments = {}
    for backend, stealing in SCHEDULES:
        cloud = MemoryCloud.from_graph(graph, ClusterConfig(machine_count=4))
        executor = _executor_for(backend, stealing)
        matcher = SubgraphMatcher(cloud, MatcherConfig(), executor=executor)
        environments[(backend, stealing)] = (cloud, matcher, executor)
    serial_matcher = environments[("serial", None)][1]
    reference = [serial_matcher.match(query) for query in queries]
    assert all(result.match_count > 10 for result in reference)
    yield queries, environments, reference
    for cloud, matcher, executor in environments.values():
        matcher.close()
        executor.close()
        cloud.close()
    executors_module._STEAL_MIN_ROOTS = original_floor


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_results_are_schedule_independent(schedule_env, data):
    queries, environments, reference = schedule_env
    index = data.draw(
        st.integers(min_value=0, max_value=len(queries) - 1), label="query"
    )
    limited = data.draw(st.booleans(), label="limited")
    query, expected = queries[index], reference[index]
    k = (
        data.draw(
            st.integers(min_value=1, max_value=expected.match_count + 3),
            label="limit",
        )
        if limited
        else None
    )
    environments[("shuffled", True)][2].rng = data.draw(st.randoms(), label="order")
    serial = environments[("serial", None)][1]
    serial_limited = None if k is None else serial.match(query, limit=k)
    for schedule, (_, matcher, _executor) in environments.items():
        result = matcher.match(query, limit=k)
        if k is None:
            assert result.rows == expected.rows, schedule
            assert result.metrics == expected.metrics, schedule
            assert not result.stats.truncated, schedule
        else:
            # Limited queries: exact prefix, truncation parity, and every
            # counter of the serial run at the same limit.
            assert result.rows == expected.rows[:k], schedule
            assert result.stats.truncated == (k < expected.match_count), schedule
            assert result.metrics == serial_limited.metrics, schedule
