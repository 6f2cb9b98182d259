"""Unit tests for the query planner, its plan cache, and MatcherConfig knobs."""

from __future__ import annotations

import pytest

from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.core.planner import MatcherConfig, QueryPlanner, query_fingerprint
from repro.core.stwig import validate_cover
from repro.query.generators import dfs_query
from repro.query.query_graph import QueryGraph
from repro.workloads.datasets import paper_figure5_graph


@pytest.fixture(scope="module")
def cloud() -> MemoryCloud:
    return MemoryCloud.from_graph(paper_figure5_graph(), ClusterConfig(machine_count=4))


@pytest.fixture(scope="module")
def query(cloud):
    return dfs_query(paper_figure5_graph(), 6, seed=3)


class TestPlanning:
    def test_plan_is_valid_cover(self, cloud, query):
        plan = QueryPlanner(cloud).plan(query)
        validate_cover(query, plan.stwigs)

    def test_head_index_in_range(self, cloud, query):
        plan = QueryPlanner(cloud).plan(query)
        assert 0 <= plan.head_index < len(plan.stwigs)
        assert plan.head_stwig is plan.stwigs[plan.head_index]

    def test_head_load_sets_empty(self, cloud, query):
        plan = QueryPlanner(cloud).plan(query)
        for machine in range(cloud.machine_count):
            assert plan.load_set(machine, plan.head_index) == frozenset()

    def test_load_sets_exclude_self(self, cloud, query):
        plan = QueryPlanner(cloud).plan(query)
        for machine in range(cloud.machine_count):
            for index in range(len(plan.stwigs)):
                assert machine not in plan.load_set(machine, index)

    def test_unknown_load_set_defaults_empty(self, cloud, query):
        plan = QueryPlanner(cloud).plan(query)
        assert plan.load_set(99, 99) == frozenset()

    def test_describe_mentions_every_stwig(self, cloud, query):
        plan = QueryPlanner(cloud).plan(query)
        description = plan.describe()
        for index in range(len(plan.stwigs)):
            assert f"q{index}:" in description
        assert "[head]" in description


class TestConfigKnobs:
    def test_naive_decomposition_still_valid(self, cloud, query):
        plan = QueryPlanner(cloud, MatcherConfig(use_order_selection=False)).plan(query)
        validate_cover(query, plan.stwigs)

    def test_head_selection_disabled_uses_first(self, cloud, query):
        plan = QueryPlanner(cloud, MatcherConfig(use_head_selection=False)).plan(query)
        assert plan.head_index == 0

    def test_load_set_pruning_disabled_gives_full_sets(self, cloud, query):
        plan = QueryPlanner(cloud, MatcherConfig(use_load_set_pruning=False)).plan(query)
        everyone = set(range(cloud.machine_count))
        for machine in range(cloud.machine_count):
            for index in range(len(plan.stwigs)):
                if index == plan.head_index:
                    continue
                assert plan.load_set(machine, index) == frozenset(everyone - {machine})

    def test_pruned_load_sets_subset_of_full(self, cloud, query):
        pruned = QueryPlanner(cloud, MatcherConfig()).plan(query)
        full = QueryPlanner(cloud, MatcherConfig(use_load_set_pruning=False)).plan(query)
        if pruned.stwigs == full.stwigs and pruned.head_index == full.head_index:
            for key, machines in pruned.load_sets.items():
                assert machines <= full.load_sets[key]

    def test_max_stwig_leaves_respected(self, cloud, query):
        plan = QueryPlanner(cloud, MatcherConfig(max_stwig_leaves=2)).plan(query)
        validate_cover(query, plan.stwigs)
        assert all(len(stwig.leaves) <= 2 for stwig in plan.stwigs)


class TestQueryFingerprint:
    def test_insensitive_to_construction_order(self):
        forward = QueryGraph(
            {"a": "x", "b": "y", "c": "z"}, [("a", "b"), ("b", "c")]
        )
        shuffled = QueryGraph(
            {"c": "z", "a": "x", "b": "y"}, [("c", "b"), ("a", "b")]
        )
        assert query_fingerprint(forward) == query_fingerprint(shuffled)

    def test_sensitive_to_labels_and_structure(self):
        base = QueryGraph({"a": "x", "b": "y"}, [("a", "b")])
        relabeled = QueryGraph({"a": "x", "b": "z"}, [("a", "b")])
        extra_node = QueryGraph(
            {"a": "x", "b": "y", "c": "y"}, [("a", "b"), ("b", "c")]
        )
        assert query_fingerprint(base) != query_fingerprint(relabeled)
        assert query_fingerprint(base) != query_fingerprint(extra_node)

    def test_sensitive_to_node_renaming(self):
        # Plans are expressed in node names (roots, leaves, result columns),
        # so isomorphic-but-renamed queries must not share a cache slot.
        base = QueryGraph({"a": "x", "b": "y"}, [("a", "b")])
        renamed = QueryGraph({"p": "x", "q": "y"}, [("p", "q")])
        assert query_fingerprint(base) != query_fingerprint(renamed)


class TestPlanCache:
    def test_repeat_query_hits_and_returns_same_plan(self, cloud, query):
        planner = QueryPlanner(cloud)
        first, first_hit = planner.plan_cached(query)
        second, second_hit = planner.plan_cached(query)
        assert (first_hit, second_hit) == (False, True)
        assert second is first  # the memoized object, not a recomputation
        assert planner.plan_cache_info() == {"hits": 1, "misses": 1, "entries": 1}

    def test_equivalent_query_object_hits(self, cloud):
        planner = QueryPlanner(cloud)
        labels = {"a": "A", "b": "B", "c": "C"}
        edges = [("a", "b"), ("b", "c")]
        plan_one, _ = planner.plan_cached(QueryGraph(labels, edges))
        plan_two, hit = planner.plan_cached(
            QueryGraph(dict(reversed(labels.items())), list(reversed(edges)))
        )
        assert hit
        assert plan_two is plan_one

    def test_lru_eviction(self, cloud):
        planner = QueryPlanner(cloud, MatcherConfig(plan_cache_size=2))
        queries = [
            QueryGraph({"a": "A", "b": label}, [("a", "b")]) for label in "BCD"
        ]
        planner.plan(queries[0])
        planner.plan(queries[1])
        planner.plan(queries[0])  # refresh 0: now 1 is least-recent
        planner.plan(queries[2])  # evicts 1
        assert planner.plan_cache_info()["entries"] == 2
        _, hit_kept = planner.plan_cached(queries[0])
        assert hit_kept  # refreshed entry survived the eviction
        _, hit_evicted = planner.plan_cached(queries[1])
        assert not hit_evicted  # least-recently-used entry was dropped

    def test_cache_size_zero_disables(self, cloud, query):
        planner = QueryPlanner(cloud, MatcherConfig(plan_cache_size=0))
        first, first_hit = planner.plan_cached(query)
        second, second_hit = planner.plan_cached(query)
        assert not first_hit and not second_hit
        assert second is not first
        assert planner.plan_cache_info() == {"hits": 0, "misses": 2, "entries": 0}

    def test_reload_invalidates_cache(self, query):
        cloud = MemoryCloud.from_graph(
            paper_figure5_graph(), ClusterConfig(machine_count=4)
        )
        planner = QueryPlanner(cloud)
        planner.plan(query)
        assert planner.plan_cache_info()["entries"] == 1
        cloud.load_graph(paper_figure5_graph())
        plan, hit = planner.plan_cached(query)
        # The reload cleared the old graph's plans (stale load sets); the
        # fresh plan is cached under the new generation.
        assert not hit
        assert planner.plan_cache_info()["entries"] == 1
        _, hit_after = planner.plan_cached(query)
        assert hit_after
        validate_cover(query, plan.stwigs)

    def test_concurrent_first_queries_count_consistently(self, cloud, query):
        import threading

        planner = QueryPlanner(cloud)
        results = []
        barrier = threading.Barrier(4)

        def client() -> None:
            barrier.wait(timeout=5)
            results.append(planner.plan_cached(query))

        threads = [threading.Thread(target=client) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        info = planner.plan_cache_info()
        assert info["hits"] + info["misses"] == 4
        assert info["entries"] == 1
        # Every later lookup serves one shared object.
        cached, hit = planner.plan_cached(query)
        assert hit
        assert all(plan is cached for plan, was_hit in results if was_hit)

    def test_engine_surfaces_cache_counters(self, query):
        from repro.core.engine import SubgraphMatcher

        cloud = MemoryCloud.from_graph(
            paper_figure5_graph(), ClusterConfig(machine_count=4)
        )
        try:
            with SubgraphMatcher(cloud) as matcher:
                first = matcher.match(query, limit=10)
                second = matcher.match(query, limit=10)
            assert not first.stats.plan_cache_hit
            assert second.stats.plan_cache_hit
            assert second.stats.plan_cache_hits == 1
            assert second.stats.plan_cache_misses == 1
            assert second.rows == first.rows
        finally:
            cloud.close()
