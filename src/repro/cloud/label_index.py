"""Per-machine label index (the paper's "string index"), array-backed.

The only index the STwig approach uses: a mapping from a label to the IDs of
*local* nodes carrying that label, plus a reverse lookup from a local node ID
to its label.  Both are linear in the partition size, which is the property
Table 1 highlights.

Labels are interned through a shared
:class:`~repro.graph.label_table.LabelTable` and the index itself is two
parallel sorted ``numpy`` arrays (local node IDs + their label IDs), so

* ``hasLabel`` is a binary search plus one integer comparison, and
* ``getID`` returns a cached sorted per-label ID array.

The batched ``hasLabel`` the STwig matcher uses is cluster-wide: one
gather from the cloud's per-node label/owner tags
(:meth:`MemoryCloud.labels_and_owners <repro.cloud.cluster.MemoryCloud.labels_and_owners>`;
:meth:`~repro.cloud.cluster.MemoryCloud.batch_has_label` for arbitrary IDs).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.graph.label_table import NO_LABEL, LabelTable
from repro.graph.labeled_graph import LABEL_DTYPE, NODE_DTYPE


class LabelIndex:
    """Label -> local node IDs index for one machine's partition."""

    def __init__(self, label_table: LabelTable | None = None) -> None:
        self.label_table = label_table if label_table is not None else LabelTable()
        self._ids = np.empty(0, dtype=NODE_DTYPE)
        self._label_ids = np.empty(0, dtype=LABEL_DTYPE)
        self._by_label: Dict[int, np.ndarray] = {}

    # -- loading -----------------------------------------------------------

    def adopt(self, node_ids: np.ndarray, label_ids: np.ndarray) -> None:
        """Adopt pre-built parallel arrays (``node_ids`` sorted ascending).

        Label IDs must come from this index's :attr:`label_table`.  This is
        the only way in (via :meth:`Machine.adopt_partition
        <repro.cloud.machine.Machine.adopt_partition>`); the index is
        read-only afterwards.
        """
        self._ids = node_ids
        self._label_ids = label_ids
        self._by_label.clear()

    # -- lookups -----------------------------------------------------------

    def get_ids_array(self, label: str) -> np.ndarray:
        """Sorted local node IDs carrying ``label`` (cached array, no copy)."""
        label_id = self.label_table.id_of(label)
        if label_id == NO_LABEL:
            return np.empty(0, dtype=NODE_DTYPE)
        cached = self._by_label.get(label_id)
        if cached is None:
            cached = self._ids[self._label_ids == label_id]
            self._by_label[label_id] = cached
        return cached

    def has_label(self, node_id: int, label: str) -> bool:
        """True if the local node ``node_id`` carries ``label``."""
        label_id = self.label_table.id_of(label)
        if label_id == NO_LABEL:
            return False
        row = self._row_of(node_id)
        return row is not None and int(self._label_ids[row]) == label_id

    def label_of(self, node_id: int) -> Optional[str]:
        """Return the label of a local node, or None if not local."""
        row = self._row_of(node_id)
        if row is None:
            return None
        return self.label_table.label_of(int(self._label_ids[row]))

    # -- statistics --------------------------------------------------------

    def labels(self) -> Tuple[str, ...]:
        """Return the sorted distinct labels present on this machine."""
        return tuple(
            sorted(
                self.label_table.label_of(int(label_id))
                for label_id in np.unique(self._label_ids)
            )
        )

    def label_frequency(self, label: str) -> int:
        """Number of local nodes carrying ``label``."""
        return len(self.get_ids_array(label))

    @property
    def node_count(self) -> int:
        """Number of (distinct) local nodes indexed."""
        return len(self._ids)

    def size_in_entries(self) -> int:
        """Index size measured in entries (for the Table 1 index-size column)."""
        return len(self._ids) + len(np.unique(self._label_ids))

    def storage_nbytes(self) -> int:
        """Bytes held by the index arrays."""
        return self._ids.nbytes + self._label_ids.nbytes

    def _row_of(self, node_id: int) -> Optional[int]:
        # Scalar counterpart of utils.arrays.sorted_lookup (kept inline: this
        # sits under per-node has_label()/label_of() calls).
        position = int(np.searchsorted(self._ids, node_id))
        if position < len(self._ids) and int(self._ids[position]) == node_id:
            return position
        return None
