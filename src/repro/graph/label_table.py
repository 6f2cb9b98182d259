"""Shared label interning: text labels <-> dense integer label IDs.

Graphs at the paper's scale repeat a small set of labels across millions of
nodes, so storing one Python string per node wastes memory and makes label
comparison a string comparison.  :class:`LabelTable` interns every distinct
label once and hands out dense ``int`` IDs; the CSR storage layer
(:class:`~repro.graph.labeled_graph.LabeledGraph`, the per-machine stores)
keeps only ``int32`` label-ID arrays and shares one table per graph, so a
label comparison anywhere in the hot path is an integer comparison.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

#: Sentinel returned by :meth:`LabelTable.id_of` for unknown labels.
NO_LABEL = -1


class LabelTable:
    """Append-only bidirectional mapping between labels and dense IDs.

    IDs are assigned in first-intern order and never change, so arrays of
    label IDs built at different times against the same table stay
    comparable (interning stability).
    """

    __slots__ = ("_labels", "_ids")

    def __init__(self, labels: Iterable[str] = ()) -> None:
        self._labels: List[str] = []
        self._ids: Dict[str, int] = {}
        for label in labels:
            self.intern(label)

    def intern(self, label: str) -> int:
        """Return the ID of ``label``, assigning the next free ID if new."""
        label_id = self._ids.get(label)
        if label_id is None:
            label_id = len(self._labels)
            self._labels.append(label)
            self._ids[label] = label_id
        return label_id

    def id_of(self, label: str) -> int:
        """Return the ID of ``label``, or :data:`NO_LABEL` if never interned."""
        return self._ids.get(label, NO_LABEL)

    def label_of(self, label_id: int) -> str:
        """Return the label text for ``label_id``.

        Raises:
            IndexError: if ``label_id`` was never assigned.
        """
        if label_id < 0:
            raise IndexError(f"invalid label ID {label_id}")
        return self._labels[label_id]

    def labels(self) -> Tuple[str, ...]:
        """All interned labels, in ID order."""
        return tuple(self._labels)

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: object) -> bool:
        return label in self._ids

    def __repr__(self) -> str:
        return f"LabelTable(size={len(self._labels)})"
