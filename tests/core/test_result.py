"""Unit tests for MatchTable and MatchResult containers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bindings import BindingTable
from repro.core.join import multiway_join
from repro.core.matcher import match_stwig
from repro.core.result import _BLOCK_ROWS, MatchResult, MatchTable, StageStats
from repro.errors import ExecutionError
from repro.graph.labeled_graph import NODE_DTYPE
from repro.graph.partition import PartitionAssignment
from tests.helpers import hub_graph, make_cloud, star_of


class TestMatchTable:
    def test_add_row_and_counts(self):
        table = MatchTable(("a", "b"), [(1, 2), (3, 4)])
        assert table.row_count == 2
        assert table.width == 2
        assert len(table) == 2

    def test_add_row_wrong_width(self):
        with pytest.raises(ExecutionError):
            MatchTable(("a", "b"), [(1,)])
        with pytest.raises(ExecutionError):
            MatchTable(("a", "b"), [(1, 2), (3,)])
        with pytest.raises(ExecutionError):  # not silently re-wrapped into two rows
            MatchTable(("a", "b"), [(1, 2, 3, 4)])

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ExecutionError):
            MatchTable(("a", "a"))

    def test_column_index_and_values(self):
        table = MatchTable(("a", "b"), [(1, 2), (1, 4)])
        assert table.column_index("b") == 1
        assert table.column_array("a").tolist() == [1, 1]
        assert table.column_array("b").tolist() == [2, 4]

    def test_column_index_missing(self):
        with pytest.raises(ExecutionError):
            MatchTable(("a",)).column_index("zzz")

    def test_as_dicts(self):
        table = MatchTable(("a", "b"), [(1, 2)])
        assert table.as_dicts() == [{"a": 1, "b": 2}]

    def test_union_same_columns(self):
        """A bag union is a new table over the concatenated arrays."""
        left = MatchTable(("a",), [(1,), (2,)])
        right = MatchTable(("a",), [(2,)])
        union = MatchTable(left.columns, np.concatenate([left.to_array(), right.to_array()]))
        assert union.rows == [(1,), (2,), (2,)]
        assert (left.rows, right.rows) == ([(1,), (2,)], [(2,)])

    def test_copy_is_independent(self):
        table = MatchTable(("a",), [(1,)])
        clone = table.copy()
        clone.to_array()[0, 0] = 2
        assert (table.rows, clone.rows) == ([(1,)], [(2,)])
        frozen = table.to_array().view()
        frozen.flags.writeable = False
        assert MatchTable(("a",), frozen).copy().to_array().flags.writeable

    def test_iteration(self):
        """A table is not a sequence of tuples: ``rows`` is."""
        table = MatchTable(("a",), [(1,), (2,)])
        with pytest.raises(TypeError):
            iter(table)
        assert list(table.rows) == [(1,), (2,)]


class TestColumnarStorage:
    def test_rows_are_python_int_tuples(self):
        table = MatchTable(("a", "b"), [(1, 2)])
        row = table.rows[0]
        assert isinstance(row, tuple)
        assert all(type(value) is int for value in row)

    def test_add_rows_accepts_ndarray(self):
        """An array of another dtype is converted (copied) to ``NODE_DTYPE``."""
        narrow = np.array([[1, 2], [3, 4]], dtype=np.int32)
        table = MatchTable(("a", "b"), narrow)
        assert table.to_array().dtype == NODE_DTYPE
        assert not np.shares_memory(table.to_array(), narrow)
        assert table.rows == [(1, 2), (3, 4)]

    def test_add_rows_rejects_bad_array_shape(self):
        for dtype in (NODE_DTYPE, np.int32):
            for shape in [(2, 3), (4,), (2, 1, 2), (0, 3)]:
                with pytest.raises(ExecutionError):
                    MatchTable(("a", "b"), np.zeros(shape, dtype=dtype))

    def test_from_array_is_zero_copy(self):
        data = np.array([[1, 2], [3, 4]], dtype=NODE_DTYPE)
        assert MatchTable(("a", "b"), data).to_array() is data

    def test_column_array_is_view(self):
        table = MatchTable(("a", "b"), [(1, 2), (3, 4)])
        column = table.column_array("b")
        assert column.tolist() == [2, 4]
        assert np.shares_memory(column, table.to_array())

    def test_truncate(self):
        """A row limit makes a new table over a prefix; the full one stays."""
        table = MatchTable(("a",), [(i,) for i in range(5)])
        prefix = MatchTable(table.columns, table.to_array()[:2])
        assert prefix.rows == [(0,), (1,)]
        assert table.row_count == 5

    def test_tuple_era_mutators_are_gone(self):
        table = MatchTable(("a",), [(1,)])
        with pytest.raises(AttributeError):
            table.rows = [(7,), (8,)]
        gone = {
            MatchTable: (
                "add_row", "_rows_cache", "_size", "_reserve", "add_rows", "truncate",
                "from_array", "project", "union", "reorder", "slice_rows",
                "column_values", "__iter__",
            ),
            BindingTable: (
                "candidates", "_set_cache", "bound_nodes", "allows", "merge_union",
                "all_bound", "is_empty", "total_size",
            ),
            MatchResult: ("table", "_gathered", "_materialized", "assignments"),
            PartitionAssignment: ("node_to_machine", "_dict_cache"),
        }
        for cls, names in gone.items():
            for name in names:
                assert not hasattr(cls, name), f"{cls.__name__}.{name}"
        with pytest.raises(TypeError):
            MatchResult(query_nodes=("a",), table=MatchTable(("a",)))
        with pytest.raises(TypeError):
            PartitionAssignment(2, {1: 0})

    def test_slice_rows_view(self):
        table = MatchTable(("a", "b"), [(i, 10 * i) for i in range(6)])
        block = MatchTable(table.columns, table.to_array()[2:4])
        assert block.rows == [(2, 20), (3, 30)]
        assert np.shares_memory(block.to_array(), table.to_array())

    def test_growth_preserves_rows(self):
        """A table larger than one builder block is the blocks' concatenation,
        every row kept, in order (there is no buffer to grow any more)."""
        spokes = 200  # 200 * 199 candidate rows > _BLOCK_ROWS: two blocks
        query, stwig = star_of(2)
        table = match_stwig(make_cloud(hub_graph(spokes)), 0, stwig, query)
        assert table.row_count == spokes * (spokes - 1) > _BLOCK_ROWS
        assert table.rows == [
            (0, u, v) for u in range(1, spokes + 1) for v in range(1, spokes + 1) if u != v
        ]


ROW_INPUTS = st.one_of(
    st.lists(st.tuples(st.integers(-5, 2**40), st.integers(-5, 2**40)), max_size=6),
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=6).map(
        lambda rows: np.array(rows, dtype=np.int32).reshape(len(rows), 2)
    ),
    st.tuples(st.integers(0, 5), st.integers(1, 3), st.booleans()).map(
        # A strided, optionally read-only, NODE_DTYPE view.
        lambda spec: _view(np.arange(60, dtype=NODE_DTYPE).reshape(10, 6), *spec)
    ),
)


def _view(base, rows, stride, frozen):
    view = base[: rows * stride : stride, 1:5:2]
    view.flags.writeable = not frozen
    return view


class TestConstructor:
    """``MatchTable(columns, rows)`` is the one way to make a table."""

    @given(ROW_INPUTS)
    @settings(max_examples=60, deadline=None)
    def test_rows_are_the_input_and_only_node_arrays_are_adopted(self, rows):
        table = MatchTable(("a", "b"), rows)
        assert table.rows == [tuple(row) for row in np.asarray(rows).reshape(-1, 2).tolist()]
        adopted = isinstance(rows, np.ndarray) and rows.dtype == NODE_DTYPE
        assert (table.to_array() is rows) == adopted
        assert table.to_array().dtype == NODE_DTYPE
        if adopted:
            assert table.to_array().flags.writeable == rows.flags.writeable

    def test_empty_and_zero_width_inputs(self):
        assert MatchTable(("a", "b")).to_array().shape == (0, 2)
        assert MatchTable(("a", "b"), iter(())).rows == []
        assert MatchTable(()).to_array().shape == (0, 0)
        assert MatchTable((), [()]).rows == [()]
        assert MatchTable((), np.empty((3, 0), dtype=NODE_DTYPE)).rows == [(), (), ()]
        with pytest.raises(ExecutionError):
            MatchTable((), [(1,)])

    @given(st.lists(st.lists(st.integers(0, 9), max_size=4), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_ragged_or_wrong_width_is_a_typed_error(self, rows):
        if all(len(row) == 2 for row in rows):
            assert MatchTable(("a", "b"), rows).row_count == len(rows)
        else:
            with pytest.raises(ExecutionError):
                MatchTable(("a", "b"), rows)


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
        "strided": MatchTable(
            ("a", "b"), np.arange(40, dtype=NODE_DTYPE).reshape(10, 4)[::2, 1:3]
        ),
        "truncated": MatchTable(
            ("a", "b"), np.repeat(np.arange(9, dtype=NODE_DTYPE), 2).reshape(9, 2)[:4]
        ),
    }

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_rows_equal_the_per_row_conversion(self, name):
        table = self.TABLES[name]
        rows = table.rows
        assert rows == old_rows(table.to_array())
        assert type(rows) is list and len(rows) == table.row_count
        assert all(type(row) is tuple for row in rows)
        assert all(type(value) is int for row in rows for value in row)

    def test_zero_width_projection_of_a_non_empty_table(self):
        """A table over no columns still counts its rows."""
        table = MatchTable((), np.empty((2, 0), dtype=NODE_DTYPE))
        assert table.rows == old_rows(table.to_array()) == [(), ()]
        assert MatchTable(()).rows == []

    def test_two_reads_are_equal_and_independent(self):
        table = MatchTable(("a", "b"), [(1, 2), (3, 4)])
        first, second = table.rows, table.rows
        assert first == second and first is not second
        first.append((9, 9))
        assert table.rows == second == [(1, 2), (3, 4)]

    def test_rows_follow_the_array(self):
        table = MatchTable(("a",), [(1,), (2,)])
        assert table.rows == [(1,), (2,)]
        table.to_array()[0, 0] = 7  # nothing is cached beside the array
        assert table.rows == [(7,), (2,)]


class TestReorder:
    """Column order is the join's ``columns=``; no table method permutes."""

    def test_reorder_permutes_without_dedup(self):
        table = MatchTable(("a", "b"), [(1, 2), (1, 2), (3, 4)])
        reordered = multiway_join([table], columns=("b", "a"))
        assert reordered.columns == ("b", "a")
        assert reordered.rows == [(2, 1), (2, 1), (4, 3)]

    def test_reorder_identity_keeps_rows(self):
        table = MatchTable(("a", "b"), [(1, 2), (1, 2)])
        same = multiway_join([table], columns=("a", "b"))
        assert same.rows == table.rows
        assert not np.shares_memory(same.to_array(), table.to_array())

    def test_reorder_rejects_non_permutation(self):
        table = MatchTable(("a", "b"), [(1, 2)])
        with pytest.raises(ExecutionError):
            multiway_join([table], columns=("a",))
        with pytest.raises(ExecutionError):
            multiway_join([table], columns=("a", "z"))


class TestMatchResult:
    def test_counts_and_dicts(self):
        table = MatchTable(("a", "b"), [(1, 2)])
        result = MatchResult(query_nodes=("a", "b"), matches=table)
        assert result.match_count == 1
        assert result.as_dicts() == [{"a": 1, "b": 2}]

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
