"""One simulated machine of the memory cloud (columnar CSR partition store).

Each machine owns a disjoint partition of the data graph: for every local
node it stores a cell (label + full neighbor ID list, mirroring Trinity's
flat cell store) and a local :class:`~repro.cloud.label_index.LabelIndex`.
Neighbor lists include *remote* neighbors — the cell knows the IDs of its
neighbors regardless of where those neighbors live, exactly as in Trinity.

Instead of one Python ``NodeCell`` object per node, the partition is four
``numpy`` arrays (sorted local node IDs, parallel label IDs, CSR offsets,
and one flat neighbor array).  :meth:`adopt_partition` is the only way in:
it adopts the cloud installer's CSR columns without copying, and from then
on the machine is read-only — graph updates go through the snapshot delta
log and a reload, never through a per-cell write.  :meth:`neighbor_slice`
returns a zero-copy view for the matcher's batched filtering.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.cloud.label_index import LabelIndex
from repro.errors import NodeNotFoundError
from repro.graph.label_table import LabelTable
from repro.utils.arrays import (
    dense_position_table,
    dense_table_profitable,
    sorted_lookup,
    table_position_lookup,
)
from repro.graph.labeled_graph import (
    LABEL_DTYPE,
    NODE_DTYPE,
    OFFSET_DTYPE,
    NodeCell,
)


class Machine:
    """Partition store + label index for one cluster machine."""

    def __init__(self, machine_id: int, label_table: LabelTable | None = None) -> None:
        self.machine_id = machine_id
        self.label_table = label_table if label_table is not None else LabelTable()
        self.label_index = LabelIndex(self.label_table)
        self._ids = np.empty(0, dtype=NODE_DTYPE)
        self._label_ids = np.empty(0, dtype=LABEL_DTYPE)
        self._offsets = np.zeros(1, dtype=OFFSET_DTYPE)
        self._neighbors = np.empty(0, dtype=NODE_DTYPE)
        self._dense_rows: np.ndarray | None = None

    # -- loading -----------------------------------------------------------

    def adopt_partition(
        self,
        node_ids: np.ndarray,
        label_ids: np.ndarray,
        offsets: np.ndarray,
        neighbors: np.ndarray,
    ) -> None:
        """Adopt pre-built CSR arrays for this machine's partition.

        ``node_ids`` must be sorted ascending and ``label_ids`` expressed in
        this machine's :attr:`label_table`; the cloud loader guarantees both
        by sharing the graph's table with every machine.
        """
        self._ids = node_ids
        self._label_ids = label_ids
        self._offsets = offsets
        self._neighbors = neighbors
        self._dense_rows = None
        self.label_index.adopt(node_ids, label_ids)

    # -- local access ------------------------------------------------------

    def load(self, node_id: int) -> NodeCell:
        """Return the locally stored cell for ``node_id``.

        Raises:
            NodeNotFoundError: if the node is not stored on this machine.
        """
        row = self._row_of(node_id)
        if row is None:
            raise NodeNotFoundError(node_id, f"machine {self.machine_id}")
        label = self.label_table.label_of(int(self._label_ids[row]))
        neighbors = tuple(
            self._neighbors[self._offsets[row] : self._offsets[row + 1]].tolist()
        )
        return NodeCell(node_id, label, neighbors)

    def neighbor_slice(self, node_id: int) -> np.ndarray:
        """Zero-copy view of the stored neighbor IDs of ``node_id``.

        Raises:
            NodeNotFoundError: if the node is not stored on this machine.
        """
        row = self._row_of(node_id)
        if row is None:
            raise NodeNotFoundError(node_id, f"machine {self.machine_id}")
        return self._neighbors[self._offsets[row] : self._offsets[row + 1]]

    def load_rows(self, node_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Batched neighbor gather for many locally stored nodes.

        Returns ``(neighbors, counts)`` where ``neighbors`` is the
        concatenation of each node's sorted neighbor IDs and ``counts`` the
        per-node neighbor counts (parallel to ``node_ids``).

        Raises:
            NodeNotFoundError: if any ID is not stored on this machine.
        """
        if len(node_ids) == 0:
            return np.empty(0, dtype=NODE_DTYPE), np.empty(0, dtype=OFFSET_DTYPE)
        dense = self._dense_row_table(len(node_ids))
        if dense is not None:
            rows, valid = table_position_lookup(dense, node_ids)
        else:
            rows, valid = sorted_lookup(self._ids, node_ids)
        if not valid.all():
            missing = np.asarray(node_ids)[~valid]
            raise NodeNotFoundError(int(missing[0]), f"machine {self.machine_id}")
        starts = self._offsets[rows]
        counts = self._offsets[rows + 1] - starts
        out_offsets = np.zeros(len(rows) + 1, dtype=OFFSET_DTYPE)
        np.cumsum(counts, out=out_offsets[1:])
        gather = (
            np.arange(out_offsets[-1], dtype=OFFSET_DTYPE)
            + np.repeat(starts - out_offsets[:-1], counts)
        )
        return self._neighbors[gather], counts

    def _dense_row_table(self, probe_count: int) -> np.ndarray | None:
        """Lazy id->row table for :meth:`load_rows` (None when too sparse).

        Built at most once per partition generation (invalidated by
        :meth:`adopt_partition`) so the hot batched-load
        path resolves rows with one gather instead of a binary search per
        node.  Only the *build* is memoized: a borderline domain that a
        tiny first batch left table-less is re-evaluated (the check is
        O(1)) when a larger batch arrives.
        """
        if self._dense_rows is None and dense_table_profitable(
            self._ids, probe_count
        ):
            self._dense_rows = dense_position_table(self._ids)
        return self._dense_rows

    def has_label(self, node_id: int, label: str) -> bool:
        """Local Index.hasLabel for a node stored on this machine."""
        return self.label_index.has_label(node_id, label)

    # -- introspection -------------------------------------------------------

    @property
    def node_count(self) -> int:
        """Number of (distinct) nodes stored on this machine."""
        return len(self._ids)

    def memory_footprint_entries(self) -> int:
        """Approximate store size in entries (cells + adjacency + index)."""
        return (
            len(self._ids) + len(self._neighbors) + self.label_index.size_in_entries()
        )

    def storage_nbytes(self) -> int:
        """Bytes held by the partition's CSR arrays and label index."""
        return (
            self._ids.nbytes
            + self._label_ids.nbytes
            + self._offsets.nbytes
            + self._neighbors.nbytes
            + self.label_index.storage_nbytes()
        )

    def _row_of(self, node_id: int) -> int | None:
        # Scalar counterpart of utils.arrays.sorted_lookup (kept inline: this
        # sits under per-node load() and an array round-trip per call
        # would dominate).
        position = int(np.searchsorted(self._ids, node_id))
        if position < len(self._ids) and int(self._ids[position]) == node_id:
            return position
        return None

    def __repr__(self) -> str:
        return f"Machine(id={self.machine_id}, nodes={self.node_count})"
