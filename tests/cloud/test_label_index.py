"""Unit tests for the per-machine label index ("string index")."""

from __future__ import annotations

import numpy as np

from repro.cloud.label_index import LabelIndex

from tests.helpers import label_index_from_pairs


def make_index() -> LabelIndex:
    return label_index_from_pairs([(5, "a"), (3, "a"), (7, "b")])


class TestLookups:
    def test_get_ids_sorted(self):
        assert make_index().get_ids("a") == (3, 5)

    def test_get_ids_missing_label(self):
        assert make_index().get_ids("zzz") == ()

    def test_has_label(self):
        index = make_index()
        assert index.has_label(5, "a")
        assert not index.has_label(5, "b")
        assert not index.has_label(99, "a")

    def test_label_of(self):
        index = make_index()
        assert index.label_of(7) == "b"
        assert index.label_of(99) is None

    def test_contains_node(self):
        index = make_index()
        assert index.contains_node(3)
        assert not index.contains_node(4)


class TestStatistics:
    def test_labels_sorted(self):
        assert make_index().labels() == ("a", "b")

    def test_label_frequency(self):
        index = make_index()
        assert index.label_frequency("a") == 2
        assert index.label_frequency("b") == 1
        assert index.label_frequency("nope") == 0

    def test_node_count(self):
        assert make_index().node_count == 3

    def test_size_linear_in_content(self):
        # The whole point of the STwig approach: the only index is linear.
        index = make_index()
        assert index.size_in_entries() == 3 + 2

    def test_incremental_add_keeps_sorted(self):
        # The index has no incremental add any more (the name is historical):
        # growing it means adopting the larger arrays, which must replace the
        # contents and drop the per-label ID arrays cached from the old ones.
        index = make_index()
        assert index.get_ids("a") == (3, 5)  # fills the per-label cache
        a, b = index.label_table.id_of("a"), index.label_table.id_of("b")
        index.adopt(
            np.array([1, 3, 5, 7], dtype=np.int64),
            np.array([a, a, a, b], dtype=np.int32),
        )
        assert index.get_ids("a") == (1, 3, 5)
        assert index.node_count == 4
