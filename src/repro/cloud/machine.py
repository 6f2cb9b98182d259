"""One simulated machine of the memory cloud (columnar CSR partition store).

Each machine owns a disjoint partition of the data graph: for every local
node it stores a cell (label + full neighbor ID list, mirroring Trinity's
flat cell store), and it is the paper's local string index over those cells
— ``Index.getID(label)`` (:meth:`Machine.get_ids_array`, a per-label ID
array cached on first use) and ``Index.hasLabel(id, label)``
(:meth:`Machine.has_label`), both read off the partition's own ID and label
columns.  The index is linear in the partition size, which is the property
Table 1 highlights (:meth:`Machine.index_size_in_entries`).  Neighbor lists
include *remote* neighbors — the cell knows the IDs of its neighbors
regardless of where those neighbors live, exactly as in Trinity.

Instead of one Python ``NodeCell`` object per node, the partition is four
``numpy`` arrays (sorted local node IDs, parallel label IDs, CSR offsets,
and one flat neighbor array).  :meth:`adopt_partition` is the only way in:
it adopts the cloud installer's CSR columns without copying, and from then
on the machine is read-only — graph updates go through the snapshot delta
log and a reload, never through a per-cell write.  :meth:`neighbor_slice`
returns a zero-copy view for the per-node operators; :meth:`load_rows` is
the batched path's CSR gather, over rows the cloud resolved.  A machine
keeps no lookup table beyond its partition: the cloud's per-node columns
are the only per-node lookup tables.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.errors import NodeNotFoundError
from repro.graph.label_table import NO_LABEL, LabelTable
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
        self._ids = np.empty(0, dtype=NODE_DTYPE)
        self._label_ids = np.empty(0, dtype=LABEL_DTYPE)
        self._offsets = np.zeros(1, dtype=OFFSET_DTYPE)
        self._neighbors = np.empty(0, dtype=NODE_DTYPE)
        self._by_label: Dict[int, np.ndarray] = {}

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
        self._by_label = {}

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

    def load_rows(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Batched neighbor gather of many CSR rows of this partition.

        Returns ``(neighbors, counts)`` where ``neighbors`` is the
        concatenation of each row's sorted neighbor IDs and ``counts`` the
        per-row neighbor counts (parallel to ``rows``).  A pure gather: the
        cloud resolved the node IDs to rows (its per-node row column) and
        checked that this machine owns them, so nothing is checked here.
        """
        starts = self._offsets[rows]
        counts = self._offsets[rows + 1] - starts
        out_offsets = np.zeros(len(rows) + 1, dtype=OFFSET_DTYPE)
        np.cumsum(counts, out=out_offsets[1:])
        gather = (
            np.arange(out_offsets[-1], dtype=OFFSET_DTYPE)
            + np.repeat(starts - out_offsets[:-1], counts)
        )
        return self._neighbors[gather], counts

    # -- label index ---------------------------------------------------------

    def get_ids_array(self, label: str) -> np.ndarray:
        """Local Index.getID: sorted local node IDs carrying ``label``.

        The array is cached per label until the next :meth:`adopt_partition`
        and returned without a copy; treat it as read-only.
        """
        label_id = self.label_table.id_of(label)
        if label_id == NO_LABEL:
            return np.empty(0, dtype=NODE_DTYPE)
        cached = self._by_label.get(label_id)
        if cached is None:
            cached = self._by_label[label_id] = self._ids[self._label_ids == label_id]
        return cached

    def has_label(self, node_id: int, label: str) -> bool:
        """Local Index.hasLabel: True if local node ``node_id`` carries ``label``."""
        label_id = self.label_table.id_of(label)
        if label_id == NO_LABEL:
            return False
        row = self._row_of(node_id)
        return row is not None and int(self._label_ids[row]) == label_id

    def label_of(self, node_id: int) -> str | None:
        """The label of a local node, or None if it is not stored here."""
        row = self._row_of(node_id)
        if row is None:
            return None
        return self.label_table.label_of(int(self._label_ids[row]))

    # -- introspection -------------------------------------------------------

    @property
    def node_count(self) -> int:
        """Number of (distinct) nodes stored on this machine."""
        return len(self._ids)

    def index_size_in_entries(self) -> int:
        """Label index size in entries: one per local node plus one per
        distinct local label (Table 1's index-size column)."""
        return len(self._ids) + len(np.unique(self._label_ids))

    def storage_nbytes(self) -> int:
        """Bytes held by the four CSR columns and the cached per-label IDs."""
        return sum(
            array.nbytes
            for array in (
                self._ids, self._label_ids, self._offsets, self._neighbors,
                *self._by_label.values(),
            )
        )

    def _row_of(self, node_id: int) -> int | None:
        # The per-node oracle's own scalar binary search (the batched path
        # resolves rows through the cloud's NodeIndex; an array round-trip
        # per call would dominate here).
        position = int(np.searchsorted(self._ids, node_id))
        if position < len(self._ids) and int(self._ids[position]) == node_id:
            return position
        return None

    def __repr__(self) -> str:
        return f"Machine(id={self.machine_id}, nodes={self.node_count})"
