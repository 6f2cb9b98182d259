"""One simulated machine of the memory cloud: an owner over the cloud's CSR.

The cloud's image is one global CSR in node-ID order (sorted node IDs,
parallel label IDs, offsets, one flat neighbor array) plus the partition
map ``assignment/machines``.  A :class:`Machine` is a view of it: its ID
plus those columns, owning the rows the partition map gives it.  It holds
no array of its own beyond the per-label ID arrays its index caches.  For
every owned node it serves the cell (label + full neighbor ID list,
mirroring Trinity's flat cell store), and it is the paper's local string
index over those cells — ``Index.getID(label)`` (:meth:`Machine.get_ids_array`)
and ``Index.hasLabel(id, label)`` (:meth:`Machine.has_label`).  The index
is linear in the partition size, which is the property Table 1 highlights
(:meth:`Machine.index_size_in_entries`).  Neighbor lists include *remote*
neighbors — the cell knows the IDs of its neighbors regardless of where
those neighbors live, exactly as in Trinity.

A machine is read-only: the cloud installs a fresh set of machines with
every image, and graph updates go through the snapshot delta log and a
reload.  The per-node calls here (:meth:`load`, :meth:`neighbor_slice`,
:meth:`has_label`, :meth:`label_of`) are the oracle the batched cloud
operators are tested against; the engine's loads gather straight from the
global CSR (:meth:`MemoryCloud.load_cells
<repro.cloud.cluster.MemoryCloud.load_cells>`).
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

import numpy as np

from repro.errors import NodeNotFoundError
from repro.graph.label_table import NO_LABEL, LabelTable
from repro.graph.labeled_graph import (
    LABEL_DTYPE,
    NODE_DTYPE,
    OFFSET_DTYPE,
    NodeCell,
)
from repro.graph.partition import MACHINE_DTYPE

#: The image a cloud holds before anything is loaded: no nodes.
EMPTY_IMAGE: Mapping[str, np.ndarray] = {
    "graph/node_ids": np.empty(0, dtype=NODE_DTYPE),
    "graph/label_ids": np.empty(0, dtype=LABEL_DTYPE),
    "graph/offsets": np.zeros(1, dtype=OFFSET_DTYPE),
    "graph/neighbors": np.empty(0, dtype=NODE_DTYPE),
    "assignment/machines": np.empty(0, dtype=MACHINE_DTYPE),
}

_NO_IDS = np.empty(0, dtype=NODE_DTYPE)


class Machine:
    """The cells and label index of one cluster machine, over the cloud's image.

    ``columns`` holds the image's global CSR and partition map (see
    :data:`EMPTY_IMAGE` for the names).  ``by_label`` is the per-label ID
    cache every machine of one image shares: the first ``getID`` of a label
    on any machine splits that label's nodes by owner in one pass.
    """

    def __init__(
        self,
        machine_id: int,
        columns: Mapping[str, np.ndarray] = EMPTY_IMAGE,
        label_table: LabelTable | None = None,
        by_label: Dict[int, Dict[int, np.ndarray]] | None = None,
    ) -> None:
        self.machine_id = machine_id
        self.label_table = label_table if label_table is not None else LabelTable()
        self._ids = columns["graph/node_ids"]
        self._label_ids = columns["graph/label_ids"]
        self._offsets = columns["graph/offsets"]
        self._neighbors = columns["graph/neighbors"]
        self._owners = columns["assignment/machines"]
        self._by_label = {} if by_label is None else by_label
        self._counts: Tuple[int, int] | None = None

    # -- local access ------------------------------------------------------

    def load(self, node_id: int) -> NodeCell:
        """Return the locally stored cell for ``node_id``.

        Raises:
            NodeNotFoundError: if the node is not stored on this machine.
        """
        neighbors = self.neighbor_slice(node_id)
        return NodeCell(node_id, self.label_of(node_id), tuple(neighbors.tolist()))

    def neighbor_slice(self, node_id: int) -> np.ndarray:
        """Zero-copy view of the stored neighbor IDs of ``node_id``.

        Raises:
            NodeNotFoundError: if the node is not stored on this machine.
        """
        row = self._row_of(node_id)
        if row is None:
            raise NodeNotFoundError(node_id, f"machine {self.machine_id}")
        return self._neighbors[self._offsets[row] : self._offsets[row + 1]]

    # -- label index ---------------------------------------------------------

    def get_ids_array(self, label: str) -> np.ndarray:
        """Local Index.getID: sorted local node IDs carrying ``label``.

        Cached per label for the life of the image and returned without a
        copy; treat it as read-only.
        """
        label_id = self.label_table.id_of(label)
        if label_id == NO_LABEL:
            return _NO_IDS
        split = self._by_label.get(label_id)
        if split is None:
            rows = np.flatnonzero(self._label_ids == label_id)
            owners = self._owners[rows]
            split = self._by_label[label_id] = {
                machine: self._ids[rows[owners == machine]]
                for machine in np.unique(owners).tolist()
            }
        return split.get(self.machine_id, _NO_IDS)

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
        return self._local_counts()[0]

    def index_size_in_entries(self) -> int:
        """Label index size in entries: one per local node plus one per
        distinct local label (Table 1's index-size column)."""
        local = self._owners == self.machine_id
        return self.node_count + len(np.unique(self._label_ids[local]))

    def storage_nbytes(self) -> int:
        """Bytes this machine's partition would take as its own CSR (IDs,
        labels, offsets and neighbors of its nodes) plus its cached
        per-label IDs."""
        nodes, neighbors = self._local_counts()
        cached = sum(
            split[self.machine_id].nbytes
            for split in self._by_label.values()
            if self.machine_id in split
        )
        return (
            nodes * (self._ids.itemsize + self._label_ids.itemsize)
            + (nodes + 1) * self._offsets.itemsize
            + neighbors * self._neighbors.itemsize
            + cached
        )

    def _local_counts(self) -> Tuple[int, int]:
        """``(nodes, neighbor entries)`` this machine owns, counted once."""
        if self._counts is None:
            local = np.flatnonzero(self._owners == self.machine_id)
            degrees = self._offsets[local + 1] - self._offsets[local]
            self._counts = (len(local), int(degrees.sum()))
        return self._counts

    def _row_of(self, node_id: int) -> int | None:
        # The per-node oracle's own scalar binary search (the batched path
        # resolves rows through the cloud's NodeIndex; an array round-trip
        # per call would dominate here).
        row = int(np.searchsorted(self._ids, node_id))
        if (
            row < len(self._ids)
            and int(self._ids[row]) == node_id
            and int(self._owners[row]) == self.machine_id
        ):
            return row
        return None

    def __repr__(self) -> str:
        return f"Machine(id={self.machine_id}, nodes={self.node_count})"
