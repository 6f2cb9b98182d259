"""In-memory labeled graph container (CSR storage).

:class:`LabeledGraph` is the single-machine substrate that everything else
builds on: generators produce one, the partitioner splits one across the
simulated memory cloud, and the baselines run directly against one.

The representation mirrors the access pattern of Trinity's cell store as
described in the paper, but is laid out CSR-style for compactness: node IDs,
interned label IDs (see :class:`~repro.graph.label_table.LabelTable`), and a
single flat neighbor array addressed through an offset array.  Looking up a
node returns its label and the IDs of its neighbors (the "cell"); the hot
paths read zero-copy ``numpy`` slices instead of per-node Python objects.
Graphs are treated as undirected vertex-labeled graphs, matching the paper's
examples (Figure 1) and its definition of subgraph matching (Definition 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import GraphError, NodeNotFoundError
from repro.graph.label_table import NO_LABEL, LabelTable

#: dtype of node-ID arrays (IDs may be arbitrary Python ints up to 2**63).
NODE_DTYPE = np.int64
#: dtype of label-ID arrays (distinct label counts are small).
LABEL_DTYPE = np.int32
#: dtype of CSR offset arrays.
OFFSET_DTYPE = np.int64


@dataclass(frozen=True)
class NodeCell:
    """A node "cell": the unit returned by a single store lookup.

    Attributes:
        node_id: the node's integer ID.
        label: the node's label.
        neighbors: IDs of adjacent nodes (sorted, duplicate-free).
    """

    node_id: int
    label: str
    neighbors: Tuple[int, ...]

    @property
    def degree(self) -> int:
        """Number of neighbors of the node."""
        return len(self.neighbors)


class LabeledGraph:
    """An undirected, vertex-labeled graph with integer node IDs.

    The graph is immutable once constructed: :meth:`from_arrays` builds it
    from endpoint arrays in one bulk pass, :meth:`from_edges` from a label
    mapping and an edge list through the same pass, and the constructor
    adopts ready CSR columns (a snapshot's).  All query-time structures (the
    memory cloud, the baselines) only read from it.

    Internally the graph is four arrays plus a shared label table:

    * ``node_id_array()`` — sorted node IDs,
    * ``label_id_array()`` — per-node interned label IDs (parallel),
    * ``offset_array()`` / ``neighbor_array()`` — CSR adjacency whose rows
      are sorted, duplicate-free neighbor *node IDs*.

    The tuple/str accessors (``neighbors``, ``label``, ``nodes_with_label``)
    serve the VF2/Ullmann oracles and ``query/generators.py``; the engine
    reads the arrays.
    """

    def __init__(
        self,
        label_table: LabelTable,
        node_ids: np.ndarray,
        label_ids: np.ndarray,
        offsets: np.ndarray,
        neighbors: np.ndarray,
        edge_count: int,
    ) -> None:
        """Adopt CSR columns as they are (no copies, no checks).

        ``node_ids`` must be sorted ascending and each CSR row sorted.
        :meth:`from_arrays` and :meth:`from_edges` build consistent columns
        from an edge list; a snapshot adopts its saved ones.
        """
        self._label_table = label_table
        self._node_ids = node_ids
        self._label_ids = label_ids
        self._offsets = offsets
        self._neighbors = neighbors
        self._edge_count = int(edge_count)
        # node ID -> CSR row, built lazily (see _row_of): a memmap-backed
        # graph adopted from a snapshot must not pay an O(n) Python dict
        # build before the first per-node lookup actually needs it.
        self._row_of_cache: Dict[int, int] | None = None
        self._nodes_by_label: Dict[int, np.ndarray] = {}
        #: Optional provenance record set by the synthetic generators (see
        #: :class:`repro.graph.stats.GenerationReport`).
        self.generation = None
        #: Optional external->dense ID bijection attached by the ingestion
        #: layer (see :class:`repro.ingest.IdMap`); ``None`` means node IDs
        #: are the caller's own IDs.
        self.id_map = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_arrays(
        cls,
        label_table: LabelTable,
        node_ids: np.ndarray,
        label_ids: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        assume_unique: bool = False,
    ) -> "LabeledGraph":
        """Bulk-ingest a graph from ``(src, dst)`` edge arrays.

        This is the array-native loading path the vectorized generators feed:
        the CSR offset/neighbor columns are assembled in one buffer of both
        edge directions with one sort over the whole edge set (and one more
        over half of it to collapse duplicates) instead of a Python call per
        edge, each intermediate freed once used.

        Args:
            label_table: shared label-interning table for ``label_ids``.
            node_ids: node IDs (any order, duplicates rejected).
            label_ids: interned label IDs, parallel to ``node_ids``.
            src / dst: endpoint arrays of the undirected edge list (each
                edge listed once, either direction).
            assume_unique: skip duplicate-edge collapsing when the caller
                guarantees the canonicalized edge list is duplicate-free.

        Raises:
            GraphError: on self-loops, duplicate node IDs, mismatched array
                lengths, or edge endpoints missing from ``node_ids``.
        """
        from repro.utils.arrays import NodeIndex

        # The graph's own copies: nothing the caller does later reaches it.
        node_ids = np.array(node_ids, dtype=NODE_DTYPE)
        label_ids = np.array(label_ids, dtype=LABEL_DTYPE)
        if node_ids.shape != label_ids.shape:
            raise GraphError(
                f"node_ids and label_ids must be parallel, got "
                f"{len(node_ids)} vs {len(label_ids)}"
            )
        if len(node_ids) > 1 and not (node_ids[1:] > node_ids[:-1]).all():
            order = np.argsort(node_ids, kind="stable")
            node_ids = node_ids[order]
            label_ids = label_ids[order]
            if not (node_ids[1:] > node_ids[:-1]).all():
                duplicate = node_ids[1:][node_ids[1:] == node_ids[:-1]]
                raise GraphError(f"duplicate node ID {int(duplicate[0])}")

        src = np.asarray(src, dtype=NODE_DTYPE).ravel()
        dst = np.asarray(dst, dtype=NODE_DTYPE).ravel()
        if src.shape != dst.shape:
            raise GraphError(
                f"src and dst must be parallel, got {len(src)} vs {len(dst)}"
            )
        if (src == dst).any():
            raise GraphError(
                f"self-loop on node {int(src[np.argmax(src == dst)])} is not allowed"
            )

        n = len(node_ids)
        index = NodeIndex(node_ids)
        rows_u, found_u = index.find(src)
        rows_v, found_v = index.find(dst)
        found = found_u & found_v
        if not found.all():
            at = int(np.argmin(found))
            bad = int(src[at]) if not found_u[at] else int(dst[at])
            raise GraphError(f"edge endpoint {bad} has no label")
        del found, found_u, found_v

        # One buffer holds both directions of every edge.  Its first half
        # gets the canonical (low row * n + high row) keys — rows, not IDs,
        # keep a key < n**2 — collapsed by one sort when duplicates may
        # exist; the mirrored keys (high * n + low) follow them.
        buffer = np.empty(2 * len(src), dtype=np.int64)
        keys = buffer[: len(src)]
        np.minimum(rows_u, rows_v, out=keys)
        np.maximum(rows_u, rows_v, out=buffer[len(src) :])
        del rows_u, rows_v
        keys *= n
        keys += buffer[len(src) :]
        if not assume_unique and len(keys) > 1:
            keys.sort()
            first = np.empty(len(keys), dtype=bool)
            first[0] = True
            np.not_equal(keys[1:], keys[:-1], out=first[1:])
            if not first.all():
                # Compact in place, then move to a buffer of the new size.
                count = int(np.count_nonzero(first))
                keys[:count] = keys[first]
                buffer = np.empty(2 * count, dtype=np.int64)
                buffer[:count] = keys[:count]
                keys = buffer[:count]
            del first
        edge_count = len(keys)
        mirrored = buffer[edge_count:]
        np.remainder(keys, n, out=mirrored)
        mirrored *= n
        mirrored += keys // n
        del keys, mirrored

        # Sort once into CSR row order: a (source * n + target) key orders by
        # source row first, then by target row — and target rows ascend with
        # neighbor IDs, which is exactly the CSR invariant.  Row r's entries
        # are the keys in [r * n, (r + 1) * n); what is left of each key
        # after the source is its target row.
        buffer.sort()
        offsets = np.searchsorted(buffer, np.arange(n + 1, dtype=np.int64) * n)
        np.remainder(buffer, n, out=buffer)
        neighbors = buffer if index.is_identity else node_ids[buffer]
        return cls(label_table, node_ids, label_ids, offsets, neighbors, edge_count)

    @classmethod
    def from_edges(
        cls,
        labels: Mapping[int, str],
        edges: Iterable[Tuple[int, int]],
    ) -> "LabeledGraph":
        """Build a graph from a node-ID -> label mapping and an edge iterable.

        Labels are interned in ascending node-ID order; self-loops are
        rejected and duplicate edges collapsed (by :meth:`from_arrays`).

        Raises:
            GraphError: on a node ID that is not an ``int``, an edge endpoint
                that is not a key of ``labels``, or a self-loop.
        """
        for node_id in labels:
            if not isinstance(node_id, int):
                raise GraphError(f"node IDs must be ints, got {type(node_id).__name__}")
        ordered = sorted(labels)
        table = LabelTable()
        label_ids = [table.intern(labels[node_id]) for node_id in ordered]
        pairs = [(u, v) for u, v in edges]
        # Checked here, not left to from_arrays: the int64 cast below would
        # truncate an endpoint such as 0.5 to a labeled node.
        unlabeled = [node for pair in pairs for node in pair if node not in labels]
        if unlabeled:
            raise GraphError(f"edge endpoint {unlabeled[0]!r} has no label")
        endpoints = np.array(pairs, dtype=NODE_DTYPE).reshape(-1, 2)
        return cls.from_arrays(
            table,
            np.array(ordered, dtype=NODE_DTYPE),
            np.array(label_ids, dtype=LABEL_DTYPE),
            endpoints[:, 0],
            endpoints[:, 1],
        )

    # -- basic accessors --------------------------------------------------

    @property
    def _row_of(self) -> Dict[int, int]:
        """The node ID -> CSR row dict, materialized on first use."""
        cache = self._row_of_cache
        if cache is None:
            cache = {node: row for row, node in enumerate(self._node_ids.tolist())}
            self._row_of_cache = cache
        return cache

    @property
    def node_count(self) -> int:
        """Number of nodes in the graph."""
        return len(self._node_ids)

    @property
    def edge_count(self) -> int:
        """Number of (undirected) edges in the graph."""
        return self._edge_count

    def nodes(self) -> Iterator[int]:
        """Iterate over node IDs (ascending)."""
        return iter(self._node_ids.tolist())

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over undirected edges as (u, v) with u < v."""
        counts = np.diff(self._offsets)
        sources = np.repeat(self._node_ids, counts)
        forward = sources < self._neighbors
        yield from zip(sources[forward].tolist(), self._neighbors[forward].tolist())

    def has_edge(self, u: int, v: int) -> bool:
        """True if there is an edge between ``u`` and ``v``."""
        row = self._row_of.get(u)
        if row is None:
            return False
        slice_ = self._neighbors[self._offsets[row] : self._offsets[row + 1]]
        position = int(np.searchsorted(slice_, v))
        return position < len(slice_) and int(slice_[position]) == v

    def label(self, node_id: int) -> str:
        """Return the label of ``node_id``.

        Raises:
            NodeNotFoundError: if the node does not exist.
        """
        row = self._row_of.get(node_id)
        if row is None:
            raise NodeNotFoundError(node_id)
        return self._label_table.label_of(int(self._label_ids[row]))

    def neighbors(self, node_id: int) -> Tuple[int, ...]:
        """Return the sorted tuple of neighbors of ``node_id``."""
        return tuple(self.neighbor_slice(node_id).tolist())

    def degree(self, node_id: int) -> int:
        """Return the degree of ``node_id``."""
        row = self._row_of.get(node_id)
        if row is None:
            raise NodeNotFoundError(node_id)
        return int(self._offsets[row + 1] - self._offsets[row])

    def cell(self, node_id: int) -> NodeCell:
        """Return the :class:`NodeCell` for ``node_id`` (label + neighbors)."""
        return NodeCell(node_id, self.label(node_id), self.neighbors(node_id))

    # -- array accessors (zero-copy hot path) -----------------------------

    @property
    def label_table(self) -> LabelTable:
        """The shared label-interning table of this graph."""
        return self._label_table

    def node_id_array(self) -> np.ndarray:
        """Sorted node IDs as an ``int64`` array (do not mutate)."""
        return self._node_ids

    def label_id_array(self) -> np.ndarray:
        """Per-node interned label IDs, parallel to :meth:`node_id_array`."""
        return self._label_ids

    def offset_array(self) -> np.ndarray:
        """CSR offsets (length ``node_count + 1``)."""
        return self._offsets

    def neighbor_array(self) -> np.ndarray:
        """Flat CSR neighbor-ID array (length ``2 * edge_count``)."""
        return self._neighbors

    def neighbor_slice(self, node_id: int) -> np.ndarray:
        """Zero-copy view of the sorted neighbor IDs of ``node_id``."""
        row = self._row_of.get(node_id)
        if row is None:
            raise NodeNotFoundError(node_id)
        return self._neighbors[self._offsets[row] : self._offsets[row + 1]]

    def storage_nbytes(self) -> int:
        """Bytes held by the CSR arrays (excludes the label table)."""
        return (
            self._node_ids.nbytes
            + self._label_ids.nbytes
            + self._offsets.nbytes
            + self._neighbors.nbytes
        )

    # -- label helpers ----------------------------------------------------

    def labels(self) -> Dict[int, str]:
        """Return a copy of the node-ID -> label mapping."""
        names = self._label_table.labels()
        return {
            node: names[label_id]
            for node, label_id in zip(
                self._node_ids.tolist(), self._label_ids.tolist()
            )
        }

    def distinct_labels(self) -> Tuple[str, ...]:
        """Return the sorted tuple of distinct labels used in the graph."""
        present = np.unique(self._label_ids)
        return tuple(
            sorted(self._label_table.label_of(int(label_id)) for label_id in present)
        )

    def nodes_with_label(self, label: str) -> Tuple[int, ...]:
        """Return the sorted tuple of node IDs carrying ``label``."""
        return tuple(self.nodes_with_label_array(label).tolist())

    def nodes_with_label_array(self, label: str) -> np.ndarray:
        """Sorted node IDs carrying ``label`` as an array (cached, no copy)."""
        label_id = self._label_table.id_of(label)
        if label_id == NO_LABEL:
            return np.empty(0, dtype=NODE_DTYPE)
        cached = self._nodes_by_label.get(label_id)
        if cached is None:
            cached = self._node_ids[self._label_ids == label_id]
            self._nodes_by_label[label_id] = cached
        return cached

    def label_frequencies(self) -> Dict[str, int]:
        """Return a mapping label -> number of nodes with that label."""
        counts = np.bincount(self._label_ids, minlength=len(self._label_table))
        return {
            self._label_table.label_of(label_id): int(count)
            for label_id, count in enumerate(counts.tolist())
            if count
        }

    # -- misc ---------------------------------------------------------------

    def subgraph(self, node_ids: Sequence[int]) -> "LabeledGraph":
        """Return the induced subgraph on ``node_ids`` (IDs preserved)."""
        keep = set(node_ids)
        unknown = keep - self._row_of.keys()
        if unknown:
            raise NodeNotFoundError(sorted(unknown)[0])
        labels = {node: self.label(node) for node in keep}
        edges = [
            (u, v)
            for u in keep
            for v in self.neighbor_slice(u).tolist()
            if u < v and v in keep
        ]
        return LabeledGraph.from_edges(labels, edges)

    def to_networkx(self):  # pragma: no cover - convenience for notebooks
        """Return a ``networkx.Graph`` view (labels stored as 'label' attr)."""
        import networkx as nx

        nx_graph = nx.Graph()
        for node_id, label in self.labels().items():
            nx_graph.add_node(node_id, label=label)
        nx_graph.add_edges_from(self.edges())
        return nx_graph

    def __contains__(self, node_id: object) -> bool:
        return node_id in self._row_of

    def __len__(self) -> int:
        return len(self._node_ids)

    def __repr__(self) -> str:
        return (
            f"LabeledGraph(nodes={self.node_count}, edges={self.edge_count}, "
            f"labels={len(np.unique(self._label_ids))})"
        )
