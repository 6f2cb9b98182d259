"""Regression tests for row-limit semantics across the pipeline.

The paper's pipelined execution stops at a result limit (1024 in the
experiments).  These tests pin down the semantics end to end:

* ``multiway_join`` streams every head block through all its stages under
  one budget, so *no* stage (intermediate or final) materializes more than
  O(limit + chunk) rows instead of joining everything and truncating after;
* ``assemble_results`` resumes the remaining budget across machines and
  only reports truncation when a real match was discarded.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.api as api
import repro.core.join as join_module
from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig, RuntimeConfig
from repro.core.distributed import assemble_results
from repro.core.engine import SubgraphMatcher
from repro.core.exploration import explore
from repro.core.join import multiway_join
from repro.core.planner import QueryPlanner
from repro.core.result import MatchTable
from repro.errors import AdmissionError, ConfigurationError
from repro.graph.generators.power_law import generate_power_law
from repro.query.generators import dfs_query
from repro.query.parser import parse_query
from repro.query.query_graph import QueryGraph
from repro.workloads.datasets import tiny_example_graph

from tests.helpers import hub_graph, make_cloud, seeded_graph, star_of


class TestMultiwayJoinLimitPushdown:
    def make_cross_tables(self, n=40):
        return [
            MatchTable(("a",), [(i,) for i in range(n)]),
            MatchTable(("b",), [(1000 + i,) for i in range(n)]),
        ]

    def test_limited_join_is_prefix_of_unlimited(self):
        tables = self.make_cross_tables()
        full = multiway_join(tables, order=[0, 1], block_size=10)
        limited = multiway_join(tables, order=[0, 1], block_size=10, row_limit=5)
        assert limited.rows == full.rows[:5]

    def test_limit_hit_mid_block_stops_materialization(self):
        """A filled budget must stop the pipeline inside the first block."""
        tables = self.make_cross_tables(n=200)  # full cross join = 40,000 rows
        full_counters = join_module.JoinCounters()
        full = join_module.multiway_join(
            tables, order=[0, 1], block_size=10, counters=full_counters
        )
        assert full.row_count == 40_000
        assert full_counters.rows_materialized == 40_000
        limited_counters = join_module.JoinCounters()
        limited = join_module.multiway_join(
            tables, order=[0, 1], block_size=10, row_limit=5,
            counters=limited_counters,
        )
        assert limited.rows == full.rows[:5]
        # Only the first head block's stage runs (10 x 200 = 2,000 pairs,
        # under the minimum chunk), nowhere near the 40,000-row full join.
        assert limited_counters.rows_materialized <= 10 * 200
        assert limited_counters.peak_intermediate_rows <= 10 * 200

    def test_budget_reaches_intermediate_stages(self):
        """Non-final stages expand only what the remaining budget can use."""
        # Stage 1 (a,b)x(b,c) has fan-out 3,000 per row: unlimited it
        # materializes 8 x 3,000 = 24,000 intermediate rows before stage 2
        # trims anything.
        tables = [
            MatchTable(("a", "b"), [(i, 100 + i % 2) for i in range(8)]),
            MatchTable(
                ("b", "c"),
                [(100 + i % 2, 200 + i) for i in range(6000)],
            ),
            MatchTable(("c", "d"), [(200 + i, 300 + i) for i in range(6000)]),
        ]
        full_counters = join_module.JoinCounters()
        full = join_module.multiway_join(
            tables, order=[0, 1, 2], block_size=None, counters=full_counters
        )
        assert full.row_count == 24_000
        assert full_counters.peak_intermediate_rows == 24_000
        limited_counters = join_module.JoinCounters()
        limited = join_module.multiway_join(
            tables, order=[0, 1, 2], block_size=None, row_limit=3,
            counters=limited_counters,
        )
        assert limited.rows == full.rows[:3]
        # Each stage expands at most one minimum-size chunk before the
        # budget fills: O(limit + chunk) per stage, not O(24,000).
        chunk_bound = join_module._LIMIT_CHUNK + 3_000
        assert limited_counters.peak_intermediate_rows <= chunk_bound
        assert limited_counters.rows_materialized <= 2 * chunk_bound

    def test_every_limit_is_prefix_three_tables(self):
        tables = [
            MatchTable(("a", "b"), [(i, 100 + i % 3) for i in range(9)]),
            MatchTable(("b", "c"), [(100 + i % 3, 200 + i) for i in range(12)]),
            MatchTable(("c", "d"), [(200 + i % 12, 300 + i) for i in range(24)]),
        ]
        full = join_module.multiway_join(tables, order=[0, 1, 2], block_size=4)
        assert full.row_count > 50
        for limit in range(0, full.row_count + 2):
            limited = join_module.multiway_join(
                tables, order=[0, 1, 2], block_size=4, row_limit=limit
            )
            assert limited.rows == full.rows[:limit]

    def test_limit_spanning_blocks(self):
        tables = self.make_cross_tables(n=12)
        full = multiway_join(tables, order=[0, 1], block_size=2)
        for limit in (1, 23, 24, 25, 144):
            limited = multiway_join(
                tables, order=[0, 1], block_size=2, row_limit=limit
            )
            assert limited.rows == full.rows[: min(limit, 144)]

    def test_single_table_limit(self):
        table = MatchTable(("a",), [(i,) for i in range(10)])
        limited = multiway_join([table], row_limit=4)
        assert limited.rows == table.rows[:4]

    def test_single_table_join_is_injective_like_any_other(self):
        """A one-table join runs the same mask -> prefix -> charge loop: rows
        repeating a node within the table are dropped, as its docstring says."""
        table = MatchTable(("a", "b"), [(1, 1), (1, 2), (3, 3), (2, 1)])
        labels = {"a": "X", "b": "X", "c": "Y"}
        counters = join_module.JoinCounters()
        alone = multiway_join([table], labels=labels, counters=counters)
        assert alone.rows == [(1, 2), (2, 1)]
        assert counters.rows_materialized == 2 and counters.lead_rows == 4
        joined = multiway_join(
            [table, MatchTable(("b", "c"), [(1, 5), (2, 5), (3, 5)])], labels=labels
        )
        assert [row[:2] for row in joined.rows] == alone.rows
        # The budget's prefix is taken after the mask, block by block.
        for block_size in (1, 2, None):
            limited = multiway_join([table], labels=labels, row_limit=1, block_size=block_size)
            assert limited.rows == [(1, 2)]
        assert multiway_join([table], labels={"a": "X", "b": "Y"}).rows == table.rows


class TestCooperativeBudget:
    """A query's machines cooperate on one ``JoinBudget(limit)`` countdown,
    each resuming it where the previous machine left it."""

    def test_unlimited_view(self):
        budget = join_module.JoinBudget(None)
        assert budget.remaining() is None
        budget.note_produced(5)
        assert budget.remaining() is None
        assert not budget.exhausted()

    def test_sequential_views_telescope_to_local_countdown(self):
        """Fed machine by machine, the countdown is the limit minus every
        row produced so far, and a machine it has filled gets nothing."""
        limit = 9
        budget = join_module.JoinBudget(limit)
        produced_so_far = 0
        for wanted in (4, 3, 5, 2):
            assert budget.remaining() == limit - produced_so_far
            assert budget.exhausted() == (produced_so_far >= limit)
            grant = max(0, min(wanted, budget.remaining()))
            budget.note_produced(grant)
            produced_so_far += grant
        assert produced_so_far == limit
        assert budget.remaining() == 0 and budget.exhausted()


class TestLimitStopsRowConstruction:
    """A full budget stops the lead table's rows from being *built*: a hub
    star holds >= 10^5 STwig rows and a limit-10 query builds one block."""

    SPOKES = 400  # 400 * 399 = 159,600 rows under the one hub root

    @pytest.mark.parametrize("backend", ["serial", "process"])
    @pytest.mark.parametrize("stealing", [True, False])
    def test_limit_10_builds_one_block_and_returns_the_exact_prefix(self, backend, stealing):
        query, _ = star_of(2)
        limit = 10
        runtime = RuntimeConfig(backend=backend, workers=2, stealing=stealing)
        with MemoryCloud.from_graph(
            hub_graph(self.SPOKES), ClusterConfig(machine_count=2)
        ) as cloud, SubgraphMatcher(cloud, executor=runtime) as matcher:
            full = matcher.match(query)
            limited = matcher.match(query, limit=limit)
            block = matcher.config.block_size
        held = self.SPOKES * (self.SPOKES - 1)
        assert full.match_count == held >= 10**5
        assert full.stats.stwig_result_rows == full.stats.stwig_rows_built == held
        assert limited.stats.truncated
        assert np.array_equal(limited.to_array(), full.to_array()[:limit])
        # Exploration still *holds* every row; the join built one head block.
        assert limited.stats.stwig_result_rows == held
        assert 0 < limited.stats.stwig_rows_built <= limit + 1 + block
        assert limited.metrics["stwig_rows_built"] == limited.stats.stwig_rows_built


class TestLimitSweepOnAJoinHeavyQuery:
    """Few labels, >= 6 * 10^5 matches, a multi-stage join: at every limit,
    on every backend, the answer is the exact prefix, the largest single
    materialization is a handful of chunks whatever the match count, and
    the join builds a small fraction of what the unlimited join builds."""

    LIMITS = (16, 256, 4096)

    @staticmethod
    def peak_bound(limit: int) -> int:
        # Geometric chunk growth (a chunk starts at the remaining budget or
        # _LIMIT_CHUNK and doubles while later stages drop rows): never a
        # function of the matches.
        chunk = join_module._LIMIT_CHUNK
        return max(8 * chunk, 16 * (limit + chunk))

    @pytest.fixture(scope="class")
    def workload(self):
        graph = generate_power_law(2_000, 6.0, label_density=2e-3, seed=13)
        query = dfs_query(graph, 5, seed=2)
        with MemoryCloud.from_graph(graph, ClusterConfig(machine_count=4)) as cloud:
            with SubgraphMatcher(cloud, executor="serial") as matcher:
                full = matcher.match(query)
            assert full.match_count >= 600_000 and full.stats.stwig_count >= 2
            assert full.metrics["join_peak_intermediate_rows"] > self.peak_bound(max(self.LIMITS))
            yield cloud, query, full

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_prefix_truncation_peak_and_work_at_every_limit(self, workload, backend):
        cloud, query, full = workload
        runtime = RuntimeConfig(backend=backend, workers=2)
        with SubgraphMatcher(cloud, executor=runtime) as matcher:
            for limit in self.LIMITS:
                limited = matcher.match(query, limit=limit)
                assert np.array_equal(limited.to_array(), full.to_array()[:limit]), limit
                assert limited.stats.truncated, limit
                metrics = limited.metrics
                assert metrics["join_peak_intermediate_rows"] <= self.peak_bound(limit), limit
                assert (
                    4 * metrics["join_rows_materialized"]
                    <= full.metrics["join_rows_materialized"]
                ), limit


class TestAssembleResultsLimits:
    def build(self, machine_count=3):
        graph = seeded_graph(seed=5, nodes=60, edges=200, labels=2)
        query = QueryGraph({"r": "L0", "x": "L1"}, [("r", "x")])
        cloud = make_cloud(graph, machine_count=machine_count)
        plan = QueryPlanner(cloud).plan(query)
        outcome = explore(cloud, plan)
        return cloud, plan, outcome

    def test_remaining_budget_resumes_across_machines(self):
        cloud, plan, outcome = self.build()
        full = assemble_results(cloud, plan, outcome)
        total = full.table.row_count
        assert total > 4, "workload must have several matches"
        # The contributions must actually be split across machines (head
        # roots on distinct owners), otherwise this test would not exercise
        # the resume path.
        head_root = plan.head_stwig.root
        owners = {
            cloud.owner_of(value)
            for value in full.table.column_array(head_root).tolist()
        }
        assert len(owners) >= 2
        limit = total - 1
        limited = assemble_results(cloud, plan, outcome, result_limit=limit)
        assert limited.table.row_count == limit
        assert limited.truncated
        assert limited.table.rows == full.table.rows[:limit]

    def test_exactly_limit_matches_not_truncated(self):
        cloud, plan, outcome = self.build()
        total = assemble_results(cloud, plan, outcome).table.row_count
        exact = assemble_results(cloud, plan, outcome, result_limit=total)
        assert exact.table.row_count == total
        assert not exact.truncated

    def test_limit_above_match_count_not_truncated(self):
        cloud, plan, outcome = self.build()
        total = assemble_results(cloud, plan, outcome).table.row_count
        loose = assemble_results(cloud, plan, outcome, result_limit=total + 7)
        assert loose.table.row_count == total
        assert not loose.truncated

    def test_every_limit_is_prefix(self):
        cloud, plan, outcome = self.build()
        full = assemble_results(cloud, plan, outcome).table
        for limit in (1, 2, full.row_count // 2, full.row_count):
            limited = assemble_results(cloud, plan, outcome, result_limit=limit)
            assert limited.table.rows == full.rows[:limit]


class TestEngineTruncatedFlag:
    @pytest.fixture
    def matcher(self) -> SubgraphMatcher:
        cloud = MemoryCloud.from_graph(
            tiny_example_graph(), ClusterConfig(machine_count=3)
        )
        return SubgraphMatcher(cloud)

    @pytest.fixture
    def query(self) -> QueryGraph:
        # Exactly two matches in the tiny example graph.
        return QueryGraph(
            {"qa": "a", "qb": "b", "qc": "c", "qd": "d"},
            [("qa", "qb"), ("qa", "qc"), ("qb", "qc"), ("qc", "qd")],
        )

    def test_exactly_limit_matches_not_truncated(self, matcher, query):
        result = matcher.match(query, limit=2)
        assert result.match_count == 2
        assert result.stats.truncated is False

    def test_below_limit_not_truncated(self, matcher, query):
        result = matcher.match(query, limit=50)
        assert result.match_count == 2
        assert result.stats.truncated is False

    def test_above_limit_truncated(self, matcher, query):
        result = matcher.match(query, limit=1)
        assert result.match_count == 1
        assert result.stats.truncated is True


class TestRowLimitValidation:
    """A row limit is ``None`` or a non-negative integer, checked before any
    work: ``match`` raises :class:`ConfigurationError`, a session rejects
    the query (counted as rejected, not failed)."""

    BAD = [-1, 2.5, True, "3", np.bool_(True)]
    QUERY = "node qa a\nnode qb b\nedge qa qb"

    @pytest.mark.parametrize("limit", BAD, ids=repr)
    def test_match_refuses_before_planning(self, limit):
        cloud = MemoryCloud.from_graph(tiny_example_graph(), ClusterConfig(machine_count=3))
        with SubgraphMatcher(cloud) as matcher:
            with pytest.raises(ConfigurationError, match="non-negative integer"):
                matcher.match(parse_query(self.QUERY), limit=limit)
            assert matcher.planner.plan_cache_info()["misses"] == 0
        assert not any(cloud.metrics.snapshot().values())

    @pytest.mark.parametrize("limit", BAD, ids=repr)
    def test_session_rejects(self, limit):
        with api.connect("tiny", machines=3) as db:
            with pytest.raises(AdmissionError, match="non-negative integer"):
                db.query(self.QUERY, limit=limit)
            stats = db.service.stats()
            assert (stats.rejected, stats.failed, stats.submitted) == (1, 0, 0)

    @pytest.mark.parametrize("limit", [0, 1, np.int64(1), np.int32(5), None], ids=repr)
    def test_integers_are_limits(self, limit):
        cloud = MemoryCloud.from_graph(tiny_example_graph(), ClusterConfig(machine_count=3))
        with SubgraphMatcher(cloud) as matcher:
            full = matcher.match(parse_query(self.QUERY)).rows
            assert len(full) > 1
            result = matcher.match(parse_query(self.QUERY), limit=limit)
        assert result.rows == full[: None if limit is None else int(limit)]
        with api.connect("tiny", machines=3) as db:
            assert db.query(self.QUERY, limit=limit).rows == result.rows
