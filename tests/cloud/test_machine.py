"""Unit tests for the Machine partition store."""

from __future__ import annotations

import pytest

from repro.cloud.machine import Machine
from repro.errors import NodeNotFoundError

from tests.helpers import machine_from_cells


def make_machine() -> Machine:
    return machine_from_cells(
        2,
        [
            (10, "a", (11, 12)),
            (11, "b", (10,)),
            (12, "c", (10, 99)),  # 99 lives on another machine
        ],
    )


class TestStorage:
    def test_load_returns_cell(self):
        cell = make_machine().load(10)
        assert cell.label == "a"
        assert cell.neighbors == (11, 12)

    def test_load_missing_node_raises(self):
        with pytest.raises(NodeNotFoundError):
            make_machine().load(999)

    def test_owns(self):
        machine = make_machine()
        assert machine.owns(11)
        assert not machine.owns(99)

    def test_node_count_and_local_nodes(self):
        machine = make_machine()
        assert machine.node_count == 3
        assert machine.local_nodes() == (10, 11, 12)

    def test_remote_neighbor_ids_are_stored(self):
        # Cells know the IDs of remote neighbors, exactly as in Trinity.
        assert 99 in make_machine().load(12).neighbors


class TestLocalIndex:
    def test_get_ids(self):
        assert make_machine().get_ids("a") == (10,)

    def test_has_label(self):
        machine = make_machine()
        assert machine.has_label(11, "b")
        assert not machine.has_label(11, "a")

    def test_memory_footprint_counts_cells_adjacency_index(self):
        machine = make_machine()
        # 3 cells + 5 adjacency entries (2 + 1 + 2) + (3 node entries + 3 label buckets).
        assert machine.memory_footprint_entries() == 3 + 5 + 6

    def test_repr(self):
        assert "id=2" in repr(make_machine())
