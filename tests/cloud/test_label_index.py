"""Unit tests for a machine's label index (the paper's "string index").

The index is no object of its own: ``Machine`` answers ``Index.getID`` and
``Index.hasLabel`` over its partition's ID and label columns.
"""

from __future__ import annotations

from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.cloud.machine import Machine
from repro.graph.labeled_graph import LabeledGraph

from tests.helpers import machine_from_cells


def make_index() -> Machine:
    return machine_from_cells(0, [(5, "a", ()), (3, "a", ()), (7, "b", ())])


class TestLookups:
    def test_get_ids_sorted(self):
        assert make_index().get_ids_array("a").tolist() == [3, 5]

    def test_get_ids_missing_label(self):
        assert make_index().get_ids_array("zzz").tolist() == []

    def test_has_label(self):
        index = make_index()
        assert index.has_label(5, "a")
        assert not index.has_label(5, "b")
        assert not index.has_label(99, "a")
        assert not index.has_label(5, "zzz")

    def test_label_of(self):
        index = make_index()
        assert index.label_of(7) == "b"
        assert index.label_of(99) is None


class TestStatistics:
    def test_label_frequency(self):
        index = make_index()
        assert len(index.get_ids_array("a")) == 2
        assert len(index.get_ids_array("b")) == 1
        assert len(index.get_ids_array("nope")) == 0

    def test_node_count(self):
        assert make_index().node_count == 3

    def test_size_linear_in_content(self):
        # The whole point of the STwig approach: the only index is linear.
        index = make_index()
        assert index.index_size_in_entries() == 3 + 2

    def test_incremental_add_keeps_sorted(self):
        # The index has no incremental add any more (the name is historical):
        # growing it means loading the larger graph, which installs fresh
        # machines whose per-label ID arrays hold nothing cached from the
        # old image.
        cloud = MemoryCloud.from_graph(
            LabeledGraph.from_edges({5: "a", 3: "a", 7: "b"}, [(3, 7)]),
            ClusterConfig(machine_count=1),
        )
        assert cloud.machines[0].get_ids_array("a").tolist() == [3, 5]  # cached
        cloud.load_graph(
            LabeledGraph.from_edges({1: "a", 3: "a", 5: "a", 7: "b"}, [(3, 7)])
        )
        assert cloud.machines[0].get_ids_array("a").tolist() == [1, 3, 5]
        assert cloud.machines[0].node_count == 4
