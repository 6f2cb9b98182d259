"""Property test: ``match(query, limit=k)`` is an exact prefix on every backend.

The streaming budgeted join's contract is that a limited query returns
*row for row* the first ``k`` rows of the unlimited result — across the
serial oracle and the process backend, whose machines race each other
for one cooperative shared budget.  Hypothesis drives random ``k`` (and
random query choices) against module-scoped matchers so the process pool
and shared-memory publication are paid once, not per example.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.core.engine import SubgraphMatcher
from repro.core.planner import MatcherConfig
from repro.graph.generators.power_law import generate_power_law
from repro.query.generators import dfs_query

BACKENDS = ("serial", "process")


@pytest.fixture(scope="module")
def limit_env():
    """Per-backend matchers over one seeded graph + full reference rows."""
    graph = generate_power_law(2_000, 6, label_density=3e-3, seed=23)
    queries = [dfs_query(graph, size, seed=seed) for size, seed in ((4, 3), (5, 9))]
    environments = {}
    for backend in BACKENDS:
        cloud = MemoryCloud.from_graph(graph, ClusterConfig(machine_count=4))
        matcher = SubgraphMatcher(cloud, MatcherConfig(), executor=backend)
        environments[backend] = (cloud, matcher)
    serial_matcher = environments["serial"][1]
    full_rows = [serial_matcher.match(query).rows for query in queries]
    assert all(len(rows) > 10 for rows in full_rows), "queries must have matches"
    yield queries, environments, full_rows
    for cloud, matcher in environments.values():
        matcher.close()
        cloud.close()


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_limit_k_is_exact_prefix_on_every_backend(limit_env, data):
    queries, environments, full_rows = limit_env
    query_index = data.draw(
        st.integers(min_value=0, max_value=len(queries) - 1), label="query"
    )
    query = queries[query_index]
    reference = full_rows[query_index]
    k = data.draw(
        st.integers(min_value=1, max_value=len(reference) + 5), label="limit"
    )
    for backend in BACKENDS:
        _, matcher = environments[backend]
        result = matcher.match(query, limit=k)
        assert result.rows == reference[:k], backend
        assert result.stats.truncated == (k < len(reference)), backend
        # The budget must bound work, not just output: the per-query peak
        # materialization may not exceed what an unlimited join of this
        # workload would need, and must stay near the budget scale.
        assert result.stats.join_peak_intermediate_rows <= max(
            4096 * 8, 16 * (k + 4096)
        ), backend
