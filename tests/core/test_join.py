"""Unit tests for the pairwise join cases, join-order selection, and the pipelined multi-way join."""

from __future__ import annotations

import pytest

from repro.core.join import (
    JoinCounters,
    multiway_join,
    select_join_order,
)
from repro.core.result import MatchTable
from repro.errors import ConfigurationError, ExecutionError
from tests.helpers import pair_join


class TestHashJoin:
    """The two-table cases, driven through the one join: ``multiway_join``."""

    def test_join_on_shared_column(self):
        left = MatchTable(("a", "b"), [(1, 10), (2, 20)])
        right = MatchTable(("b", "c"), [(10, 100), (10, 101), (30, 300)])
        joined = pair_join(left, right)
        assert joined.columns == ("a", "b", "c")
        assert sorted(joined.rows) == [(1, 10, 100), (1, 10, 101)]

    def test_join_multiple_shared_columns(self):
        left = MatchTable(("a", "b"), [(1, 2), (1, 3)])
        right = MatchTable(("a", "b", "c"), [(1, 2, 9), (1, 4, 8)])
        joined = pair_join(left, right)
        assert joined.rows == [(1, 2, 9)]

    def test_cartesian_product_when_no_shared_column(self):
        left = MatchTable(("a",), [(1,), (2,)])
        right = MatchTable(("b",), [(3,), (4,)])
        joined = pair_join(left, right)
        assert len(joined.rows) == 4

    def test_injectivity_enforced(self):
        # Same data node bound to two different query nodes must be dropped.
        left = MatchTable(("a", "b"), [(1, 2)])
        right = MatchTable(("b", "c"), [(2, 1), (2, 3)])
        joined = pair_join(left, right)
        assert joined.rows == [(1, 2, 3)]

    def test_within_row_duplicates_of_an_input_are_dropped(self):
        # Hand-made tables may repeat a node inside one row; no stage pair
        # covers two columns of the same input, so inputs are checked up front.
        left = MatchTable(("a", "b"), [(1, 1), (1, 2)])
        right = MatchTable(("b", "c", "d"), [(2, 3, 3), (2, 3, 4), (2, 2, 5)])
        assert pair_join(left, right).rows == [(1, 2, 3, 4)]
        assert pair_join(right, left).rows == [(2, 3, 4, 1)]

    def test_labels_restrict_the_injectivity_check(self):
        # a and c carry different labels, so they can never hold one data
        # node and the pair is not compared; with equal labels it is.
        left = MatchTable(("a", "b"), [(1, 2)])
        right = MatchTable(("b", "c"), [(2, 1), (2, 3)])
        apart = pair_join(left, right, labels={"a": "x", "b": "y", "c": "z"})
        assert apart.rows == [(1, 2, 1), (1, 2, 3)]
        alike = pair_join(left, right, labels={"a": "x", "b": "y", "c": "x"})
        assert alike.rows == [(1, 2, 3)]

    def test_counters_charge_rows_before_the_mask(self):
        left = MatchTable(("a", "b"), [(1, 2)])
        right = MatchTable(("b", "c"), [(2, 1), (2, 3)])
        counters = JoinCounters()
        assert pair_join(left, right, counters=counters).row_count == 1
        assert counters.rows_materialized == counters.peak_intermediate_rows == 2

    def test_result_columns_order(self):
        left = MatchTable(("b", "a"), [(10, 1), (20, 2)])
        right = MatchTable(("c", "b"), [(100, 10), (200, 20)])
        joined = pair_join(left, right, columns=("a", "b", "c"))
        assert joined.columns == ("a", "b", "c")
        assert joined.rows == [(1, 10, 100), (2, 20, 200)]
        assert multiway_join([left], columns=("a", "b")).rows == [(1, 10), (2, 20)]
        with pytest.raises(ExecutionError):
            pair_join(left, right, columns=("a", "b"))

    def test_row_limit(self):
        left = MatchTable(("a",), [(i,) for i in range(10)])
        right = MatchTable(("b",), [(100 + i,) for i in range(10)])
        joined = pair_join(left, right, row_limit=5)
        assert joined.row_count == 5

    def test_row_limit_chunked_prefix_on_large_join(self):
        # Large enough to trigger the chunked limited assembly (>_LIMIT_CHUNK
        # match pairs) with injectivity drops (i == j) along the way: every
        # limit must yield the exact prefix of the full join.
        left = MatchTable(("a", "b"), [(i, 0) for i in range(1, 101)])
        right = MatchTable(("b", "c"), [(0, j) for j in range(1, 101)])
        full = pair_join(left, right)
        assert full.row_count == 9900  # 10_000 pairs minus the i == j rows
        for limit in (10, 4096, 5000, 9900, 20000):
            limited = pair_join(left, right, row_limit=limit)
            assert limited.rows == full.rows[:limit]

    def test_empty_inputs(self):
        left = MatchTable(("a", "b"))
        right = MatchTable(("b", "c"), [(1, 2)])
        assert pair_join(left, right).row_count == 0
        assert pair_join(right, left).row_count == 0

    def test_join_is_symmetric_in_content(self):
        left = MatchTable(("a", "b"), [(1, 10), (2, 20)])
        right = MatchTable(("b", "c"), [(10, 100), (20, 200)])
        lr = {tuple(sorted(d.items())) for d in pair_join(left, right).as_dicts()}
        rl = {tuple(sorted(d.items())) for d in pair_join(right, left).as_dicts()}
        assert lr == rl


class _CountsOnly:
    """A table whose rows cannot be read: any array access fails the test."""

    def __init__(self, columns, row_count):
        self.columns = columns
        self.row_count = row_count

    def _no_rows(self, *args):
        raise AssertionError("select_join_order must not read table rows")

    to_array = column_array = column_distinct = _no_rows
    rows = property(_no_rows)


class TestJoinOrder:
    def test_order_is_permutation(self):
        tables = [
            MatchTable(("a", "b"), [(1, 2)] ),
            MatchTable(("b", "c"), [(2, 3), (2, 4)]),
            MatchTable(("c", "d"), [(3, 4)] * 3),
        ]
        order = select_join_order(tables, {})
        assert sorted(order) == [0, 1, 2]

    def test_starts_from_smallest_table(self):
        tables = [
            MatchTable(("a", "b"), [(1, 2)] * 5),
            MatchTable(("b", "c"), [(2, 3)]),
        ]
        assert select_join_order(tables, {})[0] == 1

    def test_prefers_connected_tables(self):
        tables = [
            MatchTable(("a", "b"), [(1, 2)]),
            MatchTable(("x", "y"), [(8, 9)] * 2),
            MatchTable(("b", "c"), [(2, 3)] * 3),
        ]
        order = select_join_order(tables, {})
        # After table 0, the connected table 2 should come before the disjoint table 1.
        assert order.index(2) < order.index(1)

    def test_empty_input(self):
        assert select_join_order([], {}) == []

    def test_reads_counts_never_rows(self):
        tables = [
            _CountsOnly(("a", "b"), 300),
            _CountsOnly(("b", "c"), 400),
            _CountsOnly(("c", "d"), 350),
        ]
        order = select_join_order(tables, {"a": 300, "b": 13, "c": 400, "d": 350})
        assert order == [0, 1, 2]

    def test_counts_decide_the_order_not_position(self):
        # From the 10-row head, (b, c) is estimated at 10 * 1000 / distinct(b)
        # and (b, d) at 10 * 400 / distinct(b): the smaller table goes first,
        # wherever it stands in the list.
        head = _CountsOnly(("a", "b"), 10)
        wide = _CountsOnly(("b", "c"), 1000)
        narrow = _CountsOnly(("b", "d"), 400)
        counts = {"a": 10, "b": 20, "c": 500, "d": 400}
        for tables, expected in (
            ([head, wide, narrow], [0, 2, 1]),
            ([narrow, wide, head], [2, 0, 1]),
            ([wide, head, narrow], [1, 2, 0]),
        ):
            assert select_join_order(tables, counts) == expected
        # A 1000-row table sharing both a and b is divided by both counts
        # (10 * 1000 / (10 * 20) = 50 < 200) and overtakes the 400-row one;
        # with a's count missing (taken as 1) it is 500 and does not.
        closing = _CountsOnly(("a", "b", "c"), 1000)
        assert select_join_order([head, closing, narrow], counts) == [0, 1, 2]
        assert select_join_order([head, closing, narrow], {"b": 20}) == [0, 2, 1]


class TestMultiwayJoin:
    def make_chain_tables(self):
        return [
            MatchTable(("a", "b"), [(1, 10), (2, 20)]),
            MatchTable(("b", "c"), [(10, 100), (20, 200)]),
            MatchTable(("c", "d"), [(100, 1000)]),
        ]

    def test_chain_join(self):
        joined = multiway_join(self.make_chain_tables())
        assert set(joined.columns) == {"a", "b", "c", "d"}
        assert joined.row_count == 1
        assert joined.as_dicts()[0] == {"a": 1, "b": 10, "c": 100, "d": 1000}

    def test_explicit_order(self):
        joined = multiway_join(self.make_chain_tables(), order=[2, 1, 0])
        assert joined.row_count == 1

    def test_invalid_order_rejected(self):
        with pytest.raises(ExecutionError):
            multiway_join(self.make_chain_tables(), order=[0, 0, 1])

    def test_single_table(self):
        table = MatchTable(("a",), [(1,), (2,)])
        joined = multiway_join([table], row_limit=1)
        assert joined.row_count == 1

    def test_no_tables_rejected(self):
        with pytest.raises(ExecutionError):
            multiway_join([])

    def test_row_limit_respected(self):
        tables = [
            MatchTable(("a",), [(i,) for i in range(20)]),
            MatchTable(("b",), [(100 + i,) for i in range(20)]),
        ]
        joined = multiway_join(tables, row_limit=7, block_size=None)
        assert joined.row_count == 7

    def test_block_pipelining_matches_unpipelined(self):
        tables = self.make_chain_tables()
        unpipelined = multiway_join(tables, block_size=None)
        pipelined = multiway_join(tables, block_size=1, columns=unpipelined.columns)
        assert sorted(unpipelined.rows) == sorted(pipelined.rows)

    def test_order_defaults_to_the_tables_as_listed(self):
        # The kernel executes, it does not plan: columns bind in list order.
        tables = self.make_chain_tables()
        assert multiway_join(tables).columns == ("a", "b", "c", "d")
        assert multiway_join(tables[::-1]).columns == ("c", "d", "b", "a")

    @pytest.mark.parametrize("block_size", [0, -1])
    def test_non_positive_block_size_rejected(self, block_size):
        # range(0, n, -1) is empty: the join used to answer with no rows.
        tables = self.make_chain_tables()
        assert multiway_join(tables, block_size=1).row_count == 1
        with pytest.raises(ConfigurationError, match="block_size"):
            multiway_join(tables, block_size=block_size)

    def test_empty_table_short_circuits(self):
        tables = self.make_chain_tables() + [MatchTable(("d", "e"))]
        joined = multiway_join(tables)
        assert joined.row_count == 0
