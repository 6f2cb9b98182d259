"""Sparse-ID remapping: external node IDs <-> the dense domain ``0..n-1``.

Every node lookup of the engine goes through one
:class:`~repro.utils.arrays.NodeIndex`, and its hot paths — the cloud's
label/owner tags and partition rows, the graph builder, the label-pair
pass — read a node's position as the ID itself, with no table and no
search, only when the node IDs are exactly ``0..n-1``; a gapped domain
pays a position-table gather and a sparse one a binary search.  Synthetic generators
produce ``0..n-1`` by construction; real datasets do not: DBLP author keys
are strings, SNAP edge lists have gaps, and hashed IDs span the full 64-bit
range.  Rather than teaching every lookup table about sparse domains, the
ingestion layer remaps external IDs to dense ones **once, at load time**,
and keeps the bijection around so results are reported in the caller's
original IDs.

:class:`IdMap` is that bijection.  It is an array, not a dict: the sorted
external-ID array *is* the map — the dense ID of an external ID is its rank
(one ``searchsorted`` per batch), and the external ID of a dense ID is one
gather.  Both directions are vectorized, and both kinds of external domain
(64-bit integers and strings) ride the same representation.  The map
serializes into the PR-8 snapshot manifest (see :meth:`snapshot_arrays` /
:meth:`from_manifest`), so an ingested graph round-trips through
``save_snapshot``/``open_snapshot`` with its original IDs intact.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Union

import numpy as np

from repro.errors import GraphError
from repro.graph.labeled_graph import NODE_DTYPE, OFFSET_DTYPE
from repro.utils.arrays import fast_unique

#: External-ID kinds an :class:`IdMap` can hold.
INT_KIND = "int"
STR_KIND = "str"

#: Values accepted on the external side of the map.
ExternalValues = Union[np.ndarray, Sequence[int], Sequence[str]]


class IdMap:
    """A bijection between external node IDs and dense IDs ``0..n-1``.

    The dense ID of an external ID is its rank in the sorted external
    domain, so one sorted array backs both directions:

    * ``to_dense(values)`` — ``np.searchsorted`` of the values against the
      sorted externals (binary search per batch element);
    * ``to_external(dense)`` — one fancy-indexing gather.

    Construct via :meth:`from_external`; the raw constructor adopts an
    already-sorted, duplicate-free array without copying.
    """

    __slots__ = ("_externals", "kind")

    def __init__(self, externals: np.ndarray, kind: str) -> None:
        if kind not in (INT_KIND, STR_KIND):
            raise GraphError(f"unknown IdMap kind {kind!r}")
        self._externals = externals
        self.kind = kind

    # -- construction ------------------------------------------------------

    @classmethod
    def from_external(cls, values: ExternalValues) -> "IdMap":
        """Build a map from external IDs (any order; duplicates collapse).

        Integer inputs (arrays or sequences of ints) produce an ``int``
        map; anything else is treated as strings and produces a ``str``
        map.  The dense domain is assigned by sorted rank, so two calls
        over the same ID set build the same map.
        """
        if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
            externals = fast_unique(np.asarray(values, dtype=NODE_DTYPE))
            return cls(externals, INT_KIND)
        materialized = list(values) if not isinstance(values, np.ndarray) else values
        if len(materialized) == 0:
            return cls(np.empty(0, dtype=NODE_DTYPE), INT_KIND)
        if all(isinstance(value, (int, np.integer)) for value in materialized):
            externals = fast_unique(np.asarray(materialized, dtype=NODE_DTYPE))
            return cls(externals, INT_KIND)
        externals = np.unique(np.asarray([str(value) for value in materialized]))
        return cls(externals, STR_KIND)

    @classmethod
    def identity(cls, count: int) -> "IdMap":
        """The identity map over ``0..count-1`` (dense external domain)."""
        return cls(np.arange(count, dtype=NODE_DTYPE), INT_KIND)

    # -- mapping -----------------------------------------------------------

    def to_dense(self, values: ExternalValues) -> np.ndarray:
        """Map external IDs to dense IDs (vectorized; raises on unknowns).

        Raises:
            GraphError: naming the first value not in the external domain.
        """
        values = self._coerce(values)
        if len(values) == 0:
            return np.empty(0, dtype=NODE_DTYPE)
        positions = np.searchsorted(self._externals, values)
        clamped = np.minimum(positions, max(len(self._externals) - 1, 0))
        if len(self._externals) == 0 or not (self._externals[clamped] == values).all():
            missing = (
                values[~(self._externals[clamped] == values)]
                if len(self._externals)
                else values
            )
            raise GraphError(f"external ID {missing[0]!r} is not in the IdMap")
        return clamped.astype(NODE_DTYPE)

    def to_external(self, dense: np.ndarray) -> np.ndarray:
        """Map dense IDs of any shape back to external IDs (one gather).

        Raises:
            GraphError: when any dense ID is outside ``0..len(self)-1``.
        """
        dense = np.asarray(dense, dtype=np.int64)
        if len(dense) and (
            (dense < 0).any() or (dense >= len(self._externals)).any()
        ):
            bad = dense[(dense < 0) | (dense >= len(self._externals))]
            raise GraphError(
                f"dense ID {int(bad[0])} is outside the IdMap domain "
                f"[0, {len(self._externals)})"
            )
        return self._externals[dense]

    def external_of(self, dense: int):
        """External ID of one dense ID, as a Python scalar."""
        value = self.to_external(np.asarray([dense]))[0]
        return str(value) if self.kind == STR_KIND else int(value)

    def dense_of(self, external) -> int:
        """Dense ID of one external ID, as a Python int."""
        return int(self.to_dense(np.asarray([external]))[0])

    @property
    def is_identity(self) -> bool:
        """True when external IDs already are ``0..n-1`` (remap is a no-op)."""
        externals = self._externals
        return self.kind == INT_KIND and (
            len(externals) == 0
            or (
                int(externals[0]) == 0
                and int(externals[-1]) == len(externals) - 1
            )
        )

    def external_array(self) -> np.ndarray:
        """The sorted external-ID array, indexed by dense ID (read-only)."""
        return self._externals

    # -- snapshot round-trip ----------------------------------------------

    def snapshot_arrays(self) -> Dict[str, np.ndarray]:
        """Arrays persisting this map inside a snapshot's column file.

        Integer maps store the sorted external IDs verbatim; string maps
        store a UTF-8 byte blob plus offsets (a CSR of strings), keeping
        the column file purely numeric and relocatable.
        """
        if self.kind == INT_KIND:
            return {"idmap/external_ids": self._externals}
        encoded = [value.encode("utf-8") for value in self._externals.tolist()]
        offsets = np.zeros(len(encoded) + 1, dtype=OFFSET_DTYPE)
        if encoded:
            np.cumsum([len(blob) for blob in encoded], out=offsets[1:])
        blob = np.frombuffer(b"".join(encoded), dtype=np.uint8).copy()
        return {"idmap/external_bytes": blob, "idmap/external_offsets": offsets}

    def manifest_meta(self) -> Dict[str, object]:
        """The manifest's ``id_map`` section describing this map."""
        return {"kind": self.kind, "count": len(self._externals)}

    @classmethod
    def from_manifest(cls, meta: Mapping[str, object], attach) -> "IdMap":
        """Rebuild a map from its manifest section.

        Args:
            meta: the manifest's ``id_map`` dict (:meth:`manifest_meta`).
            attach: callable resolving an array name to its view (the
                snapshot reader's ``attach``).
        """
        kind = str(meta.get("kind", INT_KIND))
        if kind == INT_KIND:
            externals = np.asarray(attach("idmap/external_ids"), dtype=NODE_DTYPE)
            return cls(externals, INT_KIND)
        blob = np.asarray(attach("idmap/external_bytes"), dtype=np.uint8)
        offsets = np.asarray(attach("idmap/external_offsets"), dtype=OFFSET_DTYPE)
        raw = blob.tobytes()
        strings = [
            raw[int(offsets[i]) : int(offsets[i + 1])].decode("utf-8")
            for i in range(len(offsets) - 1)
        ]
        return cls(np.asarray(strings), STR_KIND)

    # -- dunder ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._externals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IdMap):
            return NotImplemented
        return self.kind == other.kind and np.array_equal(
            self._externals, other._externals
        )

    def __repr__(self) -> str:
        return f"IdMap(kind={self.kind!r}, count={len(self._externals)})"

    # -- helpers -----------------------------------------------------------

    def _coerce(self, values: ExternalValues) -> np.ndarray:
        """Coerce a batch of external values to this map's array dtype."""
        if self.kind == INT_KIND:
            array = np.asarray(values)
            if array.dtype.kind not in "iu":
                raise GraphError(
                    f"IdMap holds integer external IDs, got dtype {array.dtype}"
                )
            return array.astype(NODE_DTYPE, copy=False)
        if isinstance(values, np.ndarray) and values.dtype.kind in "US":
            return values.astype(self._externals.dtype, copy=False)
        return np.asarray([str(value) for value in values]).astype(
            self._externals.dtype, copy=False
        )
