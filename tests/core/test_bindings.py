"""Unit tests for the BindingTable."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.bindings import BindingTable
from repro.core.exploration import _merge_bindings
from repro.core.result import StageTable, STwigTable
from repro.core.stwig import STwig
from repro.errors import QueryError
from repro.graph.labeled_graph import NODE_DTYPE
from repro.query.query_graph import QueryGraph
from tests.helpers import bound_set, make_cloud, path_graph


@pytest.fixture
def query() -> QueryGraph:
    return QueryGraph({"a": "x", "b": "y", "c": "z"}, [("a", "b"), ("b", "c")])


def merge_machine_columns(query, bindings, node, per_machine):
    """Bind ``node`` the way the proxy does after one STwig: every machine's
    range of the stage table contributes its distinct column values, the
    merge unions them, then ``bind`` narrows."""
    stwig = STwig(node, ())
    ranges = [np.array(sorted(values), dtype=NODE_DTYPE) for values in per_machine]
    cuts = np.concatenate(([0], np.cumsum([len(roots) for roots in ranges])))
    table = STwigTable(stwig.nodes, roots=np.concatenate(ranges), row_count=int(cuts[-1]))
    cloud = make_cloud(path_graph(2), machine_count=len(per_machine))
    _merge_bindings(cloud, stwig.nodes, StageTable(table, cuts, cuts), bindings)


class TestBasicBinding:
    def test_initially_unbound(self, query):
        bindings = BindingTable(query)
        assert not bindings.is_bound("a")
        assert bindings.candidates_array("a") is None

    def test_bind_sets_candidates(self, query):
        bindings = BindingTable(query)
        bindings.bind("a", [1, 2, 3])
        assert bindings.is_bound("a")
        assert bound_set(bindings, "a") == {1, 2, 3}

    def test_rebind_intersects(self, query):
        bindings = BindingTable(query)
        bindings.bind("a", [1, 2, 3])
        bindings.bind("a", [2, 3, 4])
        assert bound_set(bindings, "a") == {2, 3}

    def test_allows_unbound_accepts_everything(self, query):
        """Unbound means "every node with the label": there is no array to
        probe (the matcher probes labels instead), so asking is a typed error."""
        bindings = BindingTable(query)
        with pytest.raises(QueryError):
            bindings.membership_mask("a", np.array([12345], dtype=NODE_DTYPE))

    def test_allows_bound_filters(self, query):
        bindings = BindingTable(query)
        bindings.bind("a", [1])
        probe = np.array([1, 2], dtype=NODE_DTYPE)
        assert bindings.membership_mask("a", probe).tolist() == [True, False]

    def test_unknown_node_rejected(self, query):
        bindings = BindingTable(query)
        with pytest.raises(QueryError):
            bindings.bind("nope", [1])
        with pytest.raises(QueryError):
            bindings.candidates_array("nope")


class TestUnionAndState:
    def test_merge_union_accumulates(self, query):
        bindings = BindingTable(query)
        merge_machine_columns(query, bindings, "a", [[1, 2], [2, 3]])
        assert bound_set(bindings, "a") == {1, 2, 3}
        # The union of a later STwig's machines narrows, it does not widen.
        merge_machine_columns(query, bindings, "a", [[3, 9], [1]])
        assert bound_set(bindings, "a") == {1, 3}

    def test_all_bound(self, query):
        bindings = BindingTable(query)
        for node in query.nodes():
            assert not bindings.is_bound(node)
            bindings.bind(node, [1])
        assert all(bindings.is_bound(node) for node in query.nodes())

    def test_empty_binding_detected(self, query):
        bindings = BindingTable(query)
        bindings.bind("a", [1, 2])
        assert not bindings.any_empty()
        bindings.bind("a", [3])
        assert len(bindings.candidates_array("a")) == 0
        assert bindings.any_empty()

    def test_bound_nodes_view(self, query):
        """Only bound nodes carry an array, and it is the table's own."""
        bindings = BindingTable(query)
        bindings.bind("b", [7, 8])
        bound = {n: bound_set(bindings, n) for n in query.nodes() if bindings.is_bound(n)}
        assert bound == {"b": {7, 8}}
        assert bindings.candidates_array("b") is bindings.candidates_array("b")

    def test_total_size(self, query):
        """Binding sizes are array lengths: duplicates in the input do not count."""
        bindings = BindingTable(query)
        bindings.bind("a", [1, 2, 2])
        bindings.bind("b", [3])
        assert [len(bindings.candidates_array(node)) for node in ("a", "b")] == [2, 1]

    def test_copy_is_independent(self, query):
        bindings = BindingTable(query)
        bindings.bind("a", [1])
        clone = bindings.copy()
        clone.bind("a", [2])
        assert bound_set(bindings, "a") == {1}
        assert bound_set(clone, "a") == set()

    def test_repr_shows_bound_counts(self, query):
        bindings = BindingTable(query)
        bindings.bind("a", [1, 2])
        assert "a" in repr(bindings)


class TestArrayNativeStorage:
    def test_candidates_array_is_sorted_unique_node_dtype(self, query):
        bindings = BindingTable(query)
        bindings.bind("a", [5, 1, 3, 1, 5])
        array = bindings.candidates_array("a")
        assert array.dtype == NODE_DTYPE
        assert array.tolist() == [1, 3, 5]

    def test_unbound_candidates_array_is_none(self, query):
        assert BindingTable(query).candidates_array("a") is None

    def test_narrowing_result_is_reused_not_rebuilt(self, query):
        # The intersection output IS the stored binding: candidates_array
        # hands back the same object, so downstream membership filters never
        # re-materialize or re-sort it per STwig.
        bindings = BindingTable(query)
        bindings.bind("a", np.array([1, 2, 3, 4], dtype=NODE_DTYPE))
        bindings.bind("a", np.array([2, 3, 9], dtype=NODE_DTYPE))
        first = bindings.candidates_array("a")
        assert first.tolist() == [2, 3]
        assert bindings.candidates_array("a") is first

    def test_sorted_array_input_adopted_without_resort(self, query):
        merged = np.array([4, 8, 15], dtype=NODE_DTYPE)
        bindings = BindingTable(query)
        bindings.bind("a", merged)
        assert bindings.candidates_array("a") is merged

    def test_unsorted_array_input_normalized(self, query):
        bindings = BindingTable(query)
        bindings.bind("a", np.array([9, 2, 9, 4], dtype=np.int64))
        assert bindings.candidates_array("a").tolist() == [2, 4, 9]

    def test_merge_union_keeps_sorted_unique(self, query):
        bindings = BindingTable(query)
        merge_machine_columns(query, bindings, "a", [[5, 3], [4, 3, 99]])
        array = bindings.candidates_array("a")
        assert array.dtype == NODE_DTYPE
        assert array.tolist() == [3, 4, 5, 99]

    def test_set_view_is_cached_until_binding_changes(self, query):
        """The one cache left — the dense membership table — is dropped when
        ``bind`` narrows the node, and never travels with a pickle."""
        bindings = BindingTable(query)
        bindings.bind("a", [1, 2])
        probe = np.arange(4, dtype=NODE_DTYPE)
        assert bindings.membership_mask("a", probe).tolist() == [False, True, True, False]
        assert "a" in bindings._mask_cache
        bindings.bind("a", [2])
        assert "a" not in bindings._mask_cache
        assert bindings.membership_mask("a", probe).tolist() == [False, False, True, False]
        state = bindings.__getstate__()
        assert sorted(state) == ["bindings", "query"]
        clone = pickle.loads(pickle.dumps(bindings))
        assert clone._mask_cache == {}
        assert bound_set(clone, "a") == {2}

    def test_allows_uses_binary_search(self, query):
        """A sparse domain gets no dense table: membership is binary search."""
        bindings = BindingTable(query)
        bindings.bind("a", [10, 2**40, 2**50])
        probe = np.array([2**40, 25, 2**50 + 1, 10], dtype=NODE_DTYPE)
        assert bindings.membership_mask("a", probe).tolist() == [True, False, False, True]
        assert bindings._mask_cache == {}
