"""Graph partitioning across the machines of the simulated memory cloud.

The paper explicitly does *not* rely on a sophisticated partitioner: "our
performance results are obtained in the setting where the graph is randomly
partitioned (each node in the data graph is assigned to a machine by a
hashing function)".  :class:`HashPartitioner` reproduces that policy;
:class:`RoundRobinPartitioner` and :class:`BlockPartitioner` are provided so
ablation benchmarks can check that the engine's results are partition
invariant.

A partitioner reads nothing but the sorted node IDs and returns their
machines as one parallel array, computed vectorized — so loading a
million-node graph builds no Python dict.  :func:`place_nodes` is the one
call site: it checks that array once, and the cloud stores it in its image
as ``assignment/machines``, the partition map a snapshot reopens with.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.errors import PartitionError
from repro.graph.labeled_graph import OFFSET_DTYPE, LabeledGraph
from repro.utils.arrays import NodeIndex, fast_unique, membership_mask
from repro.utils.validation import require_positive

#: dtype of machine-ID arrays.
MACHINE_DTYPE = np.int32


def place_nodes(
    partitioner: Partitioner, node_ids: np.ndarray, machine_count: int
) -> np.ndarray:
    """The machine of every node in ``node_ids``, checked once.

    The one way a cloud places nodes (a graph load and the delta-log
    overlay both come here): runs ``partitioner`` and returns its output
    as a ``MACHINE_DTYPE`` array parallel to ``node_ids``.

    Raises:
        PartitionError: unless the output is an integer array of
            ``len(node_ids)`` machines, each in ``[0, machine_count)``.
    """
    machines = np.asarray(partitioner.assign(node_ids, machine_count))
    name = type(partitioner).__name__
    if machines.shape != (len(node_ids),) or machines.dtype.kind not in "iu":
        raise PartitionError(
            f"{name} returned a {machines.dtype} array of shape {machines.shape} "
            f"for {len(node_ids)} nodes"
        )
    if len(machines) and not (0 <= machines.min() and machines.max() < machine_count):
        raise PartitionError(f"{name} placed a node outside machines [0, {machine_count})")
    return machines.astype(MACHINE_DTYPE, copy=False)


#: Label-pair metadata: ``(base, {(machine_lo, machine_hi): sorted keys})``.
PackedLabelPairs = Tuple[int, Dict[Tuple[int, int], np.ndarray]]


def pack_label_pairs(
    label_ids: np.ndarray,
    machines: np.ndarray,
    source_rows: np.ndarray,
    target_rows: np.ndarray,
    label_count: int,
    machine_count: int,
) -> PackedLabelPairs:
    """Packed label-pair keys per machine pair, from edge-endpoint rows.

    Each undirected edge is given once, as the rows of its two endpoints in
    the parallel ``label_ids`` / ``machines`` columns.  Only edges between
    two machines count (the paper's cluster graph, Section 5.3, has no
    self-loops), so ``machine_lo < machine_hi`` in every entry of the
    returned :data:`PackedLabelPairs`; ``base = max(label_count, 1)`` and
    each key is :func:`label_pair_keys`' ``label_lo * base + label_hi``.
    """
    machine_count = max(machine_count, 1)
    label_count = max(label_count, 1)
    pair_span = label_count * label_count
    machine_u, machine_v = machines[source_rows], machines[target_rows]
    label_u, label_v = label_ids[source_rows], label_ids[target_rows]
    # ((machine_lo * M + machine_hi) * L + label_lo) * L + label_hi, folded
    # into one int64 array so a million-edge load holds one wide temporary.
    packed = np.minimum(machine_u, machine_v).astype(np.int64)
    packed *= machine_count
    packed += np.maximum(machine_u, machine_v)
    packed *= label_count
    packed += np.minimum(label_u, label_v)
    packed *= label_count
    packed += np.maximum(label_u, label_v)
    packed = fast_unique(packed)
    # ``packed`` is sorted, so all keys of one machine pair are one
    # contiguous run; slice per distinct machine pair instead of looping
    # over every (machine pair, label pair) combination in Python.
    machine_keys = packed // pair_span
    label_keys = packed % pair_span
    pairs: Dict[Tuple[int, int], np.ndarray] = {}
    for machine_key in np.unique(machine_keys).tolist():
        low, high = divmod(machine_key, machine_count)
        if low < high:  # an edge inside one machine is no cluster-graph edge
            start, stop = np.searchsorted(machine_keys, [machine_key, machine_key + 1])
            pairs[low, high] = label_keys[start:stop]
    return label_count, pairs


def label_pair_keys(label_a: np.ndarray, label_b: np.ndarray, base: int) -> np.ndarray:
    """The packed key ``label_lo * base + label_hi`` of each label-ID pair:
    what :func:`pack_label_pairs` stores and the cluster-graph probe seeks."""
    keys = np.minimum(label_a, label_b).astype(np.int64)
    keys *= base
    keys += np.maximum(label_a, label_b)
    return keys


def merge_label_pairs(stored: PackedLabelPairs, fresh: PackedLabelPairs) -> PackedLabelPairs:
    """The union of two packed label-pair sets, in ``fresh``'s base (the
    label count, so ``stored`` is re-encoded when labels were added).  A
    machine pair ``fresh`` adds no key to keeps ``stored``'s very array."""
    stored_base, stored_pairs = stored
    base, fresh_pairs = fresh
    pairs = {
        pair: keys if base == stored_base
        else keys // stored_base * base + keys % stored_base
        for pair, keys in stored_pairs.items()
    }
    for pair, keys in fresh_pairs.items():
        held = pairs.get(pair, keys[:0])
        unseen = keys[~membership_mask(held, keys)]
        if len(unseen):
            pairs[pair] = np.insert(held, np.searchsorted(held, unseen), unseen)
    return base, pairs


#: Neighbor entries :func:`cross_machine_label_pairs` reads per row block:
#: its temporaries stay a few MB whatever the graph's size.
LABEL_PAIR_BLOCK = 1 << 18


def cross_machine_label_pairs(
    graph: LabeledGraph, machine_of_row: np.ndarray, machine_count: int
) -> PackedLabelPairs:
    """Label pairs connected by an edge, per (unordered) machine pair.

    The load-time metadata the paper builds the query-specific *cluster
    graph* from (Section 5.3).  ``machine_of_row`` is the owner of each row
    of ``graph``.  Reads every undirected edge's endpoints off the CSR, in
    row blocks of about :data:`LABEL_PAIR_BLOCK` neighbor entries (a row is
    never split), packs each block's keys and returns their union
    (:func:`merge_label_pairs`).
    """
    label_count = max(len(graph.label_table), 1)
    if machine_count < 2:  # no machine pair, so no edge is read
        return label_count, {}
    node_ids = graph.node_id_array()
    label_ids = graph.label_id_array()
    offsets = graph.offset_array()
    neighbors = graph.neighbor_array()
    # Neighbors are graph nodes, so their rows resolve without a miss check.
    index = NodeIndex(node_ids)
    # The row holding every LABEL_PAIR_BLOCK-th neighbor entry starts a block.
    firsts = np.searchsorted(
        offsets, np.arange(0, offsets[-1], LABEL_PAIR_BLOCK), side="right"
    ) - 1
    bounds = np.append(np.unique(firsts), len(node_ids)).tolist()
    pairs: PackedLabelPairs = (label_count, {})
    for low, high in zip(bounds[:-1], bounds[1:]):
        block = offsets[low : high + 1]
        source_rows = np.repeat(np.arange(low, high, dtype=OFFSET_DTYPE), np.diff(block))
        targets = neighbors[block[0] : block[-1]]
        forward = node_ids[source_rows] < targets
        targets = targets[forward]
        pairs = merge_label_pairs(
            pairs,
            pack_label_pairs(
                label_ids, machine_of_row, source_rows[forward],
                index.positions(targets), label_count, machine_count,
            ),
        )
    return pairs


class Partitioner:
    """Strategy interface mapping every node to a machine."""

    def assign(self, node_ids: np.ndarray, machine_count: int) -> np.ndarray:
        """The machine, one of ``machine_count``, of every node in ``node_ids``.

        ``node_ids`` is sorted ascending; the result is an integer array
        parallel to it (:func:`place_nodes` checks it).
        """
        raise NotImplementedError


class HashPartitioner(Partitioner):
    """The paper's default: assign each node by hashing its ID.

    A small multiplicative hash is used instead of Python's identity hash on
    ints so nodes with consecutive IDs spread across machines.
    """

    _MULTIPLIER = 2654435761  # Knuth's multiplicative hash constant.

    def assign(self, node_ids: np.ndarray, machine_count: int) -> np.ndarray:
        require_positive(machine_count, "machine_count")
        return (
            ((node_ids * self._MULTIPLIER) >> 16) % machine_count
        ).astype(MACHINE_DTYPE)


class RoundRobinPartitioner(Partitioner):
    """Assign nodes to machines cyclically in sorted-ID order."""

    def assign(self, node_ids: np.ndarray, machine_count: int) -> np.ndarray:
        require_positive(machine_count, "machine_count")
        return (
            np.arange(len(node_ids), dtype=np.int64) % machine_count
        ).astype(MACHINE_DTYPE)


class BlockPartitioner(Partitioner):
    """Assign contiguous ID ranges to machines (worst-case locality skew)."""

    def assign(self, node_ids: np.ndarray, machine_count: int) -> np.ndarray:
        require_positive(machine_count, "machine_count")
        block = max(1, (len(node_ids) + machine_count - 1) // machine_count)
        return np.minimum(
            np.arange(len(node_ids), dtype=np.int64) // block, machine_count - 1
        ).astype(MACHINE_DTYPE)


#: Stable names of the built-in partitioners, as snapshot manifests record them.
PARTITIONERS: Dict[str, type] = {
    "hash": HashPartitioner,
    "round_robin": RoundRobinPartitioner,
    "block": BlockPartitioner,
}


def partitioner_name(partitioner: Partitioner) -> str:
    """Manifest name of ``partitioner`` (``"custom"`` when not built in)."""
    for name, cls in PARTITIONERS.items():
        if type(partitioner) is cls:
            return name
    return "custom"


def partitioner_from_name(name: str) -> Partitioner:
    """The partitioner a manifest names; unknown names get the paper's hash.

    Falling back is safe because query results are partition invariant: a
    snapshot written with a custom partitioner merely repartitions.
    """
    return PARTITIONERS.get(name, HashPartitioner)()
