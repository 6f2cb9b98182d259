"""Unit tests for the flat cell store (Trinity's memory trunk, Section 2.2).

The paper stores cells in flat memory blobs rather than as heap objects.
The standalone ``BlobCellStore`` demonstration of that point is gone; the
store the engine actually runs on — a :class:`Machine`'s CSR columns — *is*
the flat layout, so the same round-trip and footprint claims are asserted
against it here; the batched claims go through the cloud's
``load_cells``, which resolves IDs to rows for the machine.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.cloud.cluster import MemoryCloud
from repro.cloud.machine import Machine
from repro.errors import NodeNotFoundError
from repro.graph.generators.erdos_renyi import generate_gnm
from repro.graph.labeled_graph import LabeledGraph, NodeCell

from tests.helpers import machine_from_cells, make_cloud


@pytest.fixture
def store() -> Machine:
    return machine_from_cells(
        0,
        [
            (1, "a", (2, 3)),
            (2, "b", (1,)),
            (3, "a", ()),
        ],
    )


@pytest.fixture
def cloud() -> MemoryCloud:
    """A one-machine cloud of four cells; node 4 has no neighbors."""
    return make_cloud(
        LabeledGraph.from_edges({1: "a", 2: "b", 3: "a", 4: "b"}, [(1, 2), (1, 3)])
    )


def load_batch(cloud: MemoryCloud, node_ids):
    """Batched load of ``node_ids`` from machine 0 (the only one)."""
    return cloud.load_cells(np.array(node_ids, dtype=np.int64), [0, len(node_ids)])


def graph_machine(graph) -> Machine:
    return machine_from_cells(
        0, [(node, graph.label(node), graph.neighbors(node)) for node in graph.nodes()]
    )


def object_store_footprint_bytes(cells) -> int:
    """Approximate heap footprint of the same cells as Python objects.

    Counts the per-cell object, its label string, its neighbor tuple, and
    the per-neighbor ``int`` objects — the Python analogue of the CLR heap
    overhead the paper measures against the memory trunk.
    """
    total = 0
    for cell in cells:
        total += sys.getsizeof(cell)
        total += sys.getsizeof(cell.label)
        total += sys.getsizeof(cell.neighbors)
        total += sum(sys.getsizeof(neighbor) for neighbor in cell.neighbors)
    return total


class TestRoundtrip:
    def test_load_returns_original_cell(self, store):
        cell = store.load(1)
        assert cell == NodeCell(1, "a", (2, 3))

    def test_load_cell_without_neighbors(self, store):
        assert store.load(3).neighbors == ()
        assert len(store.neighbor_slice(3)) == 0

    def test_label_of_and_degree_of(self, store, cloud):
        assert store.label_of(2) == "b"
        _, counts = load_batch(cloud, [1, 4])
        assert counts.tolist() == [2, 0]

    def test_missing_node_raises(self, store, cloud):
        with pytest.raises(NodeNotFoundError):
            store.load(99)
        with pytest.raises(NodeNotFoundError):
            store.neighbor_slice(99)
        with pytest.raises(NodeNotFoundError):
            load_batch(cloud, [1, 99])

    def test_owns_and_node_ids(self, store):
        assert store.label_of(1) == "a"
        assert store.label_of(42) is None
        assert store.node_count == 3

    def test_duplicate_store_last_wins(self, cloud):
        # A machine is never written: a reload installs fresh machines over
        # the new image, and the cloud's lookup columns with them, while a
        # machine of the old image still reads the old one.
        _, counts = load_batch(cloud, [1, 2, 3] * 8)
        assert counts.tolist() == [2, 1, 1] * 8
        before = cloud.machines[0]
        cloud.load_graph(LabeledGraph.from_edges({1: "z", 9: "z"}, [(1, 9)]))
        assert cloud.machines[0].load(1) == NodeCell(1, "z", (9,))
        assert cloud.machines[0].node_count == 2
        assert before.load(1) == NodeCell(1, "a", (2, 3))
        assert load_batch(cloud, [1])[0].tolist() == [9]
        with pytest.raises(NodeNotFoundError):
            load_batch(cloud, [2])

    def test_large_node_ids_supported(self):
        huge = 2**62
        blob = machine_from_cells(0, [(huge, "x", (huge - 1,))])
        assert blob.load(huge).neighbors == (huge - 1,)
        cloud = make_cloud(LabeledGraph.from_edges({huge: "x", huge - 1: "x"}, [(huge, huge - 1)]))
        neighbors, counts = load_batch(cloud, [huge])
        assert neighbors.tolist() == [huge - 1] and counts.tolist() == [1]

    def test_matches_graph_cells(self):
        graph = generate_gnm(100, 300, label_count=4, seed=3)
        blob = graph_machine(graph)
        for node in graph.nodes():
            assert blob.load(node) == graph.cell(node)


class TestFootprint:
    def test_payload_bytes_formula(self, store):
        # CSR columns: 3 IDs and 3 neighbors of 8 bytes, 3 label IDs of 4,
        # 4 offsets of 8; the label index reads the ID and label columns and
        # adds nothing until a getID caches an answer.
        csr = 3 * 8 + 3 * 8 + 3 * 4 + 4 * 8
        assert store.storage_nbytes() == csr

    def test_footprint_includes_index(self, store):
        before = store.storage_nbytes()
        cached = store.get_ids_array("a")
        assert len(cached) and store.storage_nbytes() == before + cached.nbytes
        # Index entries: 3 index rows + 2 label buckets.
        assert store.index_size_in_entries() == 3 + 2

    def test_blob_payload_much_smaller_than_object_store(self):
        """The paper's Section 2.2 claim: flat blobs beat per-object storage."""
        graph = generate_gnm(2000, 8000, label_count=10, seed=7)
        cells = [graph.cell(node) for node in graph.nodes()]
        object_bytes = object_store_footprint_bytes(cells)
        assert graph_machine(graph).storage_nbytes() < object_bytes / 4
