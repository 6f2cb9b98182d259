"""Unit tests for MatchTable and MatchResult containers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.result import MatchResult, MatchTable, StageStats
from repro.errors import ExecutionError
from repro.graph.labeled_graph import NODE_DTYPE


class TestMatchTable:
    def test_add_row_and_counts(self):
        table = MatchTable(("a", "b"))
        table.add_rows([(1, 2)])
        table.add_rows([(3, 4)])
        assert table.row_count == 2
        assert table.width == 2
        assert len(table) == 2

    def test_add_row_wrong_width(self):
        table = MatchTable(("a", "b"))
        with pytest.raises(ExecutionError):
            table.add_rows([(1,)])

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ExecutionError):
            MatchTable(("a", "a"))

    def test_column_index_and_values(self):
        table = MatchTable(("a", "b"), [(1, 2), (1, 4)])
        assert table.column_index("b") == 1
        assert table.column_values("a") == {1}
        assert table.column_values("b") == {2, 4}

    def test_column_index_missing(self):
        with pytest.raises(ExecutionError):
            MatchTable(("a",)).column_index("zzz")

    def test_as_dicts(self):
        table = MatchTable(("a", "b"), [(1, 2)])
        assert table.as_dicts() == [{"a": 1, "b": 2}]

    def test_project_reorders_and_dedups(self):
        table = MatchTable(("a", "b", "c"), [(1, 2, 3), (1, 2, 4)])
        projected = table.project(("b", "a"))
        assert projected.columns == ("b", "a")
        assert projected.rows == [(2, 1)]

    def test_union_same_columns(self):
        left = MatchTable(("a",), [(1,)])
        right = MatchTable(("a",), [(2,)])
        assert left.union(right).rows == [(1,), (2,)]

    def test_union_mismatched_columns(self):
        with pytest.raises(ExecutionError):
            MatchTable(("a",)).union(MatchTable(("b",)))

    def test_copy_is_independent(self):
        table = MatchTable(("a",), [(1,)])
        clone = table.copy()
        clone.add_rows([(2,)])
        assert table.row_count == 1

    def test_iteration(self):
        table = MatchTable(("a",), [(1,), (2,)])
        assert list(table) == [(1,), (2,)]


class TestColumnarStorage:
    def test_rows_are_python_int_tuples(self):
        table = MatchTable(("a", "b"), [(1, 2)])
        row = table.rows[0]
        assert isinstance(row, tuple)
        assert all(type(value) is int for value in row)

    def test_add_rows_accepts_ndarray(self):
        table = MatchTable(("a", "b"))
        table.add_rows(np.array([[1, 2], [3, 4]], dtype=NODE_DTYPE))
        table.add_rows([(5, 6)])
        assert table.rows == [(1, 2), (3, 4), (5, 6)]

    def test_add_rows_rejects_bad_array_shape(self):
        table = MatchTable(("a", "b"))
        with pytest.raises(ExecutionError):
            table.add_rows(np.zeros((2, 3), dtype=NODE_DTYPE))

    def test_from_array_is_zero_copy(self):
        data = np.array([[1, 2], [3, 4]], dtype=NODE_DTYPE)
        table = MatchTable.from_array(("a", "b"), data)
        assert np.shares_memory(table.to_array(), data)

    def test_column_array_is_view(self):
        table = MatchTable(("a", "b"), [(1, 2), (3, 4)])
        column = table.column_array("b")
        assert column.tolist() == [2, 4]
        assert np.shares_memory(column, table.to_array())

    def test_column_distinct_sorted(self):
        table = MatchTable(("a",), [(3,), (1,), (3,), (2,)])
        assert table.column_distinct("a").tolist() == [1, 2, 3]

    def test_truncate(self):
        table = MatchTable(("a",), [(i,) for i in range(5)])
        table.truncate(2)
        assert table.rows == [(0,), (1,)]
        table.truncate(10)  # no-op
        assert table.row_count == 2

    def test_tuple_era_mutators_are_gone(self):
        table = MatchTable(("a",), [(1,)])
        with pytest.raises(AttributeError):
            table.rows = [(7,), (8,)]
        assert not hasattr(table, "add_row")
        assert not hasattr(table, "_rows_cache")

    def test_slice_rows_view(self):
        table = MatchTable(("a", "b"), [(i, 10 * i) for i in range(6)])
        block = table.slice_rows(2, 4)
        assert block.rows == [(2, 20), (3, 30)]
        assert np.shares_memory(block.to_array(), table.to_array())

    def test_growth_preserves_rows(self):
        table = MatchTable(("a",))
        for i in range(100):
            table.add_rows([(i,)])
        assert table.rows == [(i,) for i in range(100)]


def old_rows(array):
    """The per-row conversion ``rows`` used before it was built column-wise."""
    return [tuple(row) for row in array.tolist()]


class TestRowsConversion:
    """``rows`` is a plain, uncached conversion of ``to_array()``."""

    TABLES = {
        "empty": MatchTable(("a", "b")),
        "one-row": MatchTable(("a", "b"), [(5, 6)]),
        "many": MatchTable(("a", "b", "c"), [(i, 2 * i, 2**40 + i) for i in range(257)]),
        "one-column": MatchTable(("a",), [(3,), (1,), (3,)]),
        "strided": MatchTable.from_array(
            ("a", "b"), np.arange(40, dtype=NODE_DTYPE).reshape(10, 4)[::2, 1:3]
        ),
        "truncated": MatchTable(("a", "b"), [(i, i) for i in range(9)]),
    }
    TABLES["truncated"].truncate(4)

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_rows_equal_the_per_row_conversion(self, name):
        table = self.TABLES[name]
        rows = table.rows
        assert rows == old_rows(table.to_array())
        assert type(rows) is list and len(rows) == table.row_count
        assert all(type(row) is tuple for row in rows)
        assert all(type(value) is int for row in rows for value in row)

    def test_zero_width_projection_of_a_non_empty_table(self):
        table = MatchTable(("a",), [(1,), (2,)]).project(())
        assert table.rows == old_rows(table.to_array()) == [()]
        assert MatchTable(()).rows == []

    def test_two_reads_are_equal_and_independent(self):
        table = MatchTable(("a", "b"), [(1, 2), (3, 4)])
        first, second = table.rows, table.rows
        assert first == second and first is not second
        first.append((9, 9))
        assert table.rows == second == [(1, 2), (3, 4)]

    def test_rows_follow_the_array(self):
        table = MatchTable(("a",), [(1,)])
        assert table.rows == [(1,)]
        table.add_rows([(2,)])
        assert table.rows == [(1,), (2,)]
        table.to_array()[0, 0] = 7  # nothing is cached beside the array
        assert table.rows == [(7,), (2,)]


class TestReorder:
    def test_reorder_permutes_without_dedup(self):
        table = MatchTable(("a", "b"), [(1, 2), (1, 2), (3, 4)])
        reordered = table.reorder(("b", "a"))
        assert reordered.columns == ("b", "a")
        assert reordered.rows == [(2, 1), (2, 1), (4, 3)]

    def test_reorder_identity_keeps_rows(self):
        table = MatchTable(("a", "b"), [(1, 2), (1, 2)])
        assert table.reorder(("a", "b")).rows == table.rows

    def test_reorder_rejects_non_permutation(self):
        table = MatchTable(("a", "b"), [(1, 2)])
        with pytest.raises(ExecutionError):
            table.reorder(("a",))
        with pytest.raises(ExecutionError):
            table.reorder(("a", "z"))

    def test_project_still_dedups(self):
        table = MatchTable(("a", "b"), [(1, 2), (1, 2), (3, 4)])
        assert table.project(("b", "a")).rows == [(2, 1), (4, 3)]

    def test_project_keeps_first_seen_order(self):
        table = MatchTable(("a", "b"), [(9, 1), (2, 2), (9, 1), (1, 3)])
        assert table.project(("a",)).rows == [(9,), (2,), (1,)]


class TestMatchResult:
    def test_counts_and_dicts(self):
        table = MatchTable(("a", "b"), [(1, 2)])
        result = MatchResult(query_nodes=("a", "b"), matches=table)
        assert result.match_count == 1
        assert result.as_dicts() == [{"a": 1, "b": 2}]
        assert result.assignments() == result.as_dicts()

    def test_array_accessors_are_primary(self):
        table = MatchTable(("a", "b"), [(1, 2), (3, 4)])
        result = MatchResult(query_nodes=("a", "b"), matches=table)
        assert np.shares_memory(result.to_array(), table.to_array())
        # No map: the external array is the array itself, not a copy.
        assert np.shares_memory(result.external_array(), table.to_array())
        assert result.rows == result.external_rows() == old_rows(result.to_array())
        assert all(type(value) is int for row in result.rows for value in row)
        first, second = result.rows, result.rows
        assert first == second and first is not second
        empty = MatchResult(query_nodes=("a",), matches=MatchTable(("a",)))
        assert empty.to_array().shape == (0, 1)
        assert empty.rows == empty.external_rows() == empty.as_dicts() == []

    def test_external_accessors_apply_the_id_map_once(self):
        from repro.ingest import IdMap

        table = MatchTable(("a", "b"), [(0, 2), (1, 0)])
        sparse = IdMap.from_external(np.array([7, 99, 2**40], dtype=np.int64))
        result = MatchResult(query_nodes=("a", "b"), matches=table, id_map=sparse)
        assert result.external_array().tolist() == [[7, 2**40], [99, 7]]
        assert result.external_rows() == [(7, 2**40), (99, 7)]
        assert result.as_dicts() == [{"a": 7, "b": 2**40}, {"a": 99, "b": 7}]
        assert result.rows == [(0, 2), (1, 0)]  # internal IDs stay internal
        names = IdMap.from_external(["carol", "alice", "bob"])
        named = MatchResult(query_nodes=("a", "b"), matches=table, id_map=names)
        assert named.external_array().dtype.kind == "U"
        assert named.external_rows() == [("alice", "carol"), ("bob", "alice")]
        identity = MatchResult(
            query_nodes=("a", "b"), matches=table, id_map=IdMap.identity(3)
        )
        assert np.shares_memory(identity.external_array(), table.to_array())

    def test_default_stats(self):
        result = MatchResult(query_nodes=("a",), matches=MatchTable(("a",)))
        assert isinstance(result.stats, StageStats)
        assert result.stats.truncated is False

    def test_repr(self):
        result = MatchResult(query_nodes=("a",), matches=MatchTable(("a",)))
        assert "matches=0" in repr(result)
