"""Unit tests for the top-level SubgraphMatcher engine."""

from __future__ import annotations

import threading

import pytest

from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.core.engine import SubgraphMatcher
from repro.core.planner import MatcherConfig
from repro.query.generators import dfs_query
from repro.query.query_graph import QueryGraph
from repro.workloads.datasets import paper_figure5_graph, tiny_example_graph


@pytest.fixture
def matcher() -> SubgraphMatcher:
    cloud = MemoryCloud.from_graph(tiny_example_graph(), ClusterConfig(machine_count=3))
    return SubgraphMatcher(cloud)


@pytest.fixture
def query() -> QueryGraph:
    return QueryGraph(
        {"qa": "a", "qb": "b", "qc": "c", "qd": "d"},
        [("qa", "qb"), ("qa", "qc"), ("qb", "qc"), ("qc", "qd")],
    )


class TestMatch:
    def test_finds_expected_matches(self, matcher, query):
        result = matcher.match(query)
        assert result.match_count == 2
        assignments = sorted(result.as_dicts(), key=lambda d: d["qa"])
        assert assignments[0] == {"qa": 1, "qb": 3, "qc": 4, "qd": 5}
        assert assignments[1] == {"qa": 2, "qb": 3, "qc": 4, "qd": 5}

    def test_match_count_helper(self, matcher, query):
        assert matcher.match_count(query) == 2

    def test_limit_truncates(self, matcher, query):
        result = matcher.match(query, limit=1)
        assert result.match_count == 1
        assert result.stats.truncated

    def test_single_node_query(self, matcher):
        result = matcher.match(QueryGraph({"only": "b"}, []))
        assert sorted(d["only"] for d in result.as_dicts()) == [3, 6]

    def test_single_edge_query(self, matcher):
        result = matcher.match(QueryGraph({"x": "c", "y": "d"}, [("x", "y")]))
        assert result.as_dicts() == [{"x": 4, "y": 5}]

    def test_no_match_for_absent_label(self, matcher):
        result = matcher.match(QueryGraph({"x": "missing"}, []))
        assert result.match_count == 0

    def test_unsatisfiable_structure(self, matcher):
        # There is no triangle of three 'b' nodes in the tiny graph.
        query = QueryGraph(
            {"x": "b", "y": "b", "z": "b"}, [("x", "y"), ("y", "z"), ("z", "x")]
        )
        assert matcher.match(query).match_count == 0

    def test_cycle_query_requires_join(self, matcher):
        # The square query of Figure 3(d): a - b - c(b2) - d back to a is absent,
        # but the triangle a-b-c exists twice (via a1 and a2).
        query = QueryGraph(
            {"x": "a", "y": "b", "z": "c"}, [("x", "y"), ("y", "z"), ("z", "x")]
        )
        result = matcher.match(query)
        assert result.match_count == 2


class TestResultMetadata:
    def test_timings_populated(self, matcher, query):
        result = matcher.match(query)
        assert result.wall_seconds > 0
        assert result.simulated_seconds > 0
        assert result.stats.stwig_count >= 1
        assert result.stats.head_stwig_root is not None

    def test_metrics_are_per_query_deltas(self, matcher, query):
        first = matcher.match(query)
        second = matcher.match(query)
        # Metrics accumulate on the cloud but each result reports its own delta.
        assert first.metrics["index_lookups"] >= 0
        assert second.metrics["local_loads"] == first.metrics["local_loads"]

    def test_explain_does_not_execute(self, matcher, query):
        plan = matcher.explain(query)
        assert len(plan.stwigs) >= 1
        assert "STwig plan" in plan.describe()

    def test_metrics_accumulate_on_shared_cloud(self, matcher, query):
        # Per-query isolation must not lose the cluster-wide totals: two
        # queries' merged counters equal the sum of their deltas.
        first = matcher.match(query)
        second = matcher.match(query)
        totals = matcher.cloud.metrics.snapshot()
        for key in ("local_loads", "index_lookups", "messages"):
            assert totals[key] == first.metrics[key] + second.metrics[key]


class TestMetricsIsolation:
    """Regression: overlapping queries must report solo-run counters.

    The old implementation diffed before/after snapshots of the *shared*
    cloud metrics, so any query overlapping the window absorbed the other's
    traffic into its delta.  Two interleaved queries — each holding a
    barrier open while the other runs — must now report exactly the
    counters of their solo runs.
    """

    @pytest.fixture
    def interleave_setup(self):
        graph = paper_figure5_graph()
        cloud = MemoryCloud.from_graph(graph, ClusterConfig(machine_count=3))
        queries = [dfs_query(graph, 4, seed=seed) for seed in (2, 9)]
        yield cloud, queries
        cloud.close()

    def test_interleaved_queries_report_solo_counters(self, interleave_setup):
        cloud, queries = interleave_setup
        matcher = SubgraphMatcher(cloud)
        solo = [matcher.match(query) for query in queries]

        barrier = threading.Barrier(len(queries))
        outputs = [None] * len(queries)
        errors = []

        def client(index: int) -> None:
            try:
                barrier.wait(timeout=5)
                outputs[index] = matcher.match(queries[index])
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(len(queries))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        for result, reference in zip(outputs, solo):
            assert result.metrics == reference.metrics
            assert result.rows == reference.rows

    def test_many_overlapping_queries_sum_to_total(self, interleave_setup):
        cloud, queries = interleave_setup
        matcher = SubgraphMatcher(cloud)
        solo_metrics = [matcher.match(query).metrics for query in queries]
        before = cloud.metrics.snapshot()

        rounds = 4
        barrier = threading.Barrier(len(queries) * rounds)
        collected = []
        lock = threading.Lock()

        def client(index: int) -> None:
            barrier.wait(timeout=5)
            result = matcher.match(queries[index])
            with lock:
                collected.append((index, result.metrics))

        threads = [
            threading.Thread(target=client, args=(i % len(queries),))
            for i in range(len(queries) * rounds)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(collected) == len(queries) * rounds
        # Every concurrent delta equals its solo run...
        for index, metrics in collected:
            assert metrics == solo_metrics[index]
        # ...and the shared totals grew by exactly the sum of the deltas
        # (the locked merge lost nothing to racing read-modify-writes).
        after = cloud.metrics.snapshot()
        for key in ("local_loads", "remote_loads", "index_lookups", "messages"):
            grown = after[key] - before[key]
            expected = sum(metrics[key] for _, metrics in collected)
            assert grown == expected, key


class TestMetricsDelta:
    """``MatchResult.metrics`` is the query's own delta: the snapshot of an
    isolated sink, folded into the cloud's totals once — nothing is diffed."""

    def test_union_of_keys(self, matcher, query):
        # Every counter of the totals is in the delta, touched or not, so
        # adding or diffing two results never loses a key.
        result = matcher.match(query)
        assert set(result.metrics) == set(matcher.cloud.metrics.snapshot())
        solo = SubgraphMatcher(
            MemoryCloud.from_graph(tiny_example_graph(), ClusterConfig(machine_count=1))
        ).match(query)
        assert solo.metrics["remote_loads"] == solo.metrics["remote_label_probes"] == 0

    def test_identical_snapshots_zero(self, matcher, query):
        first = matcher.match(query)
        second = matcher.match(query)
        assert first.metrics == second.metrics
        assert first.metrics is not second.metrics

    def test_empty_snapshots(self, matcher, query):
        assert not any(matcher.cloud.metrics.snapshot().values())
        first = matcher.match(query)
        assert first.metrics == matcher.cloud.metrics.snapshot()
        assert first.metrics["local_loads"] > 0


class TestConfigurationVariants:
    @pytest.mark.parametrize(
        "config",
        [
            MatcherConfig(),
            MatcherConfig(use_order_selection=False),
            MatcherConfig(use_binding_filter=False),
            MatcherConfig(use_head_selection=False),
            MatcherConfig(use_load_set_pruning=False),
            MatcherConfig(use_final_binding_filter=False),
            MatcherConfig(max_stwig_leaves=1),
            MatcherConfig(max_stwig_leaves=2),
            MatcherConfig(block_size=None),
            MatcherConfig(block_size=2),
        ],
        ids=lambda c: str(c)[:40],
    )
    def test_all_variants_agree(self, query, config):
        cloud = MemoryCloud.from_graph(tiny_example_graph(), ClusterConfig(machine_count=3))
        result = SubgraphMatcher(cloud, config).match(query)
        assignments = sorted(result.as_dicts(), key=lambda d: d["qa"])
        assert [a["qa"] for a in assignments] == [1, 2]

    def test_figure5_graph_multiple_machine_counts(self):
        from repro.baselines.vf2 import vf2_match
        from repro.query.generators import dfs_query

        graph = paper_figure5_graph()
        query = dfs_query(graph, 6, seed=4)
        expected = sorted(
            tuple(sorted(m.items())) for m in vf2_match(graph, query)
        )
        for machine_count in (1, 2, 5):
            cloud = MemoryCloud.from_graph(graph, ClusterConfig(machine_count=machine_count))
            result = SubgraphMatcher(cloud).match(query)
            got = sorted(tuple(sorted(m.items())) for m in result.as_dicts())
            assert got == expected
