"""Unit tests for the flat cell store (Trinity's memory trunk, Section 2.2).

The paper stores cells in flat memory blobs rather than as heap objects.
The standalone ``BlobCellStore`` demonstration of that point is gone; the
store the engine actually runs on — a :class:`Machine`'s CSR columns — *is*
the flat layout, so the same round-trip and footprint claims are asserted
against it here.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.cloud.machine import Machine
from repro.errors import NodeNotFoundError
from repro.graph.generators.erdos_renyi import generate_gnm
from repro.graph.labeled_graph import NodeCell

from tests.helpers import csr_from_cells, machine_from_cells


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

    def test_label_of_and_degree_of(self, store):
        assert store.label_index.label_of(2) == "b"
        _, counts = store.load_rows(np.array([1, 3], dtype=np.int64))
        assert counts.tolist() == [2, 0]

    def test_missing_node_raises(self, store):
        with pytest.raises(NodeNotFoundError):
            store.load(99)
        with pytest.raises(NodeNotFoundError):
            store.neighbor_slice(99)
        with pytest.raises(NodeNotFoundError):
            store.load_rows(np.array([1, 99], dtype=np.int64))

    def test_owns_and_node_ids(self, store):
        assert store.label_index.label_of(1) == "a"
        assert store.label_index.label_of(42) is None
        assert store.node_count == 3

    def test_duplicate_store_last_wins(self, store):
        # A machine is written only by adoption, and adopting again replaces
        # the partition wholesale — including the lazily built row table.
        store.load_rows(np.array([1, 2, 3] * 8, dtype=np.int64))
        table, columns = csr_from_cells([(1, "z", (9,))])
        store.label_table = store.label_index.label_table = table
        store.adopt_partition(*columns)
        assert store.load(1) == NodeCell(1, "z", (9,))
        assert store.node_count == 1
        with pytest.raises(NodeNotFoundError):
            store.load_rows(np.array([2], dtype=np.int64))

    def test_large_node_ids_supported(self):
        huge = 2**62
        blob = machine_from_cells(0, [(huge, "x", (huge - 1,))])
        assert blob.load(huge).neighbors == (huge - 1,)
        neighbors, counts = blob.load_rows(np.array([huge], dtype=np.int64))
        assert neighbors.tolist() == [huge - 1] and counts.tolist() == [1]

    def test_matches_graph_cells(self):
        graph = generate_gnm(100, 300, label_count=4, seed=3)
        blob = graph_machine(graph)
        for node in graph.nodes():
            assert blob.load(node) == graph.cell(node)


class TestFootprint:
    def test_payload_bytes_formula(self, store):
        # CSR columns: 3 IDs and 3 neighbors of 8 bytes, 3 label IDs of 4,
        # 4 offsets of 8; the label index shares the ID and label columns
        # and reports them again.
        csr = 3 * 8 + 3 * 8 + 3 * 4 + 4 * 8
        assert store.storage_nbytes() == csr + (3 * 8 + 3 * 4)

    def test_footprint_includes_index(self, store):
        assert store.storage_nbytes() > store.label_index.storage_nbytes() > 0
        # Entries: 3 cells + 3 adjacency + (3 index rows + 2 label buckets).
        assert store.memory_footprint_entries() == 3 + 3 + 5

    def test_blob_payload_much_smaller_than_object_store(self):
        """The paper's Section 2.2 claim: flat blobs beat per-object storage."""
        graph = generate_gnm(2000, 8000, label_count=10, seed=7)
        cells = [graph.cell(node) for node in graph.nodes()]
        object_bytes = object_store_footprint_bytes(cells)
        assert graph_machine(graph).storage_nbytes() < object_bytes / 4
