"""Graph partitioning across the machines of the simulated memory cloud.

The paper explicitly does *not* rely on a sophisticated partitioner: "our
performance results are obtained in the setting where the graph is randomly
partitioned (each node in the data graph is assigned to a machine by a
hashing function)".  :class:`HashPartitioner` reproduces that policy;
:class:`RoundRobinPartitioner` and :class:`BlockPartitioner` are provided so
ablation benchmarks can check that the engine's results are partition
invariant.

Assignments are two parallel arrays and nothing else — sorted node IDs and
their machine IDs, computed vectorized from the graph's CSR columns — so
loading a million-node graph builds no Python dict; a loaded cloud stores
the machine array in its image and :meth:`from_arrays` takes it back.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import PartitionError
from repro.graph.labeled_graph import NODE_DTYPE, OFFSET_DTYPE, LabeledGraph
from repro.utils.arrays import (
    dense_position_table,
    dense_table_profitable,
    dense_value_table,
    fast_unique,
    sorted_lookup,
    table_position_lookup,
)
from repro.utils.validation import require_positive

#: dtype of machine-ID arrays.
MACHINE_DTYPE = np.int32


class PartitionAssignment:
    """The result of partitioning: node -> machine, array-backed."""

    def __init__(
        self, machine_count: int, *, sorted_ids: np.ndarray, machines: np.ndarray
    ) -> None:
        """Adopt ``sorted_ids`` (ascending, duplicate-free) and the parallel
        ``machines`` array; neither is copied when its dtype already fits."""
        self.machine_count = machine_count
        self._sorted_ids = np.asarray(sorted_ids, dtype=NODE_DTYPE)
        self._machines = np.asarray(machines, dtype=MACHINE_DTYPE)
        self._dense_cache: Optional[tuple] = None

    @classmethod
    def from_arrays(
        cls, machine_count: int, sorted_ids: np.ndarray, machines: np.ndarray
    ) -> "PartitionAssignment":
        """Adopt pre-built (sorted node IDs, machine IDs) arrays (no copies)."""
        return cls(machine_count, sorted_ids=sorted_ids, machines=machines)

    def machine_array_for(self, node_ids: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`machine_of` over an array of node IDs.

        Dense (0..n-ish) ID domains — every generator produces them — are
        answered with one fancy-indexing gather off a node->machine table;
        sparse domains fall back to binary search.

        Raises:
            PartitionError: if any ID in ``node_ids`` has no assignment.
        """
        dense = self._dense_table()
        if dense is not None and len(node_ids):
            values = np.asarray(node_ids)
            owners, found = table_position_lookup(dense, values)
            if found.all():
                return owners
            missing = values[~found]
            raise PartitionError(
                f"node {int(missing[0])} has no machine assignment"
            )
        positions, found = sorted_lookup(self._sorted_ids, node_ids)
        if len(node_ids) and not found.all():
            missing = np.asarray(node_ids)[~found]
            raise PartitionError(
                f"node {int(missing[0])} has no machine assignment"
            )
        return self._machines[positions]

    def _dense_table(self):
        """Lazy node->machine table (-1 = unassigned), None when too sparse."""
        if self._dense_cache is None:
            if dense_table_profitable(self._sorted_ids, probe_count=0):
                self._dense_cache = (
                    dense_value_table(
                        self._sorted_ids, self._machines, dtype=MACHINE_DTYPE
                    ),
                )
            else:
                self._dense_cache = (None,)
        return self._dense_cache[0]

    def nodes_of(self, machine_id: int) -> List[int]:
        """Return the sorted node IDs assigned to ``machine_id``."""
        if not 0 <= machine_id < self.machine_count:
            raise PartitionError(
                f"machine {machine_id} out of range [0, {self.machine_count})"
            )
        return self._sorted_ids[self._machines == machine_id].tolist()

    def machine_of(self, node_id: int) -> int:
        """Return the machine that owns ``node_id`` (O(1) on dense domains)."""
        dense = self._dense_table()
        if dense is not None:
            if 0 <= node_id < len(dense):
                machine = int(dense[node_id])
                if machine >= 0:
                    return machine
            raise PartitionError(f"node {node_id} has no machine assignment")
        positions, found = sorted_lookup(
            self._sorted_ids, np.array([node_id], dtype=NODE_DTYPE)
        )
        if not found[0]:
            raise PartitionError(f"node {node_id} has no machine assignment")
        return int(self._machines[positions[0]])

    def sizes(self) -> List[int]:
        """Return the number of nodes on each machine, indexed by machine ID."""
        return np.bincount(
            self._machines, minlength=self.machine_count
        ).tolist()


def pack_label_pairs(
    label_u: np.ndarray,
    label_v: np.ndarray,
    machine_u: np.ndarray,
    machine_v: np.ndarray,
    label_count: int,
    machine_count: int,
) -> Tuple[int, Dict[Tuple[int, int], np.ndarray]]:
    """Packed label-pair keys per machine pair, from edge-endpoint arrays.

    Each undirected edge is given once as the (label ID, machine) of both
    endpoints, in either orientation.  Returns ``(base, {(machine_lo,
    machine_hi): sorted packed keys})`` with each key ``label_lo * base +
    label_hi`` and ``base = max(label_count, 1)``.  Fully vectorized: every
    edge is reduced to a packed ``(machine pair, label pair)`` integer and
    deduplicated in one pass.
    """
    machine_count = max(machine_count, 1)
    label_count = max(label_count, 1)
    pair_span = label_count * label_count
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
        start, stop = np.searchsorted(machine_keys, [machine_key, machine_key + 1])
        pair = (machine_key // machine_count, machine_key % machine_count)
        pairs[pair] = label_keys[start:stop]
    return label_count, pairs


def cross_machine_label_pairs(
    graph: LabeledGraph, machine_of_row: np.ndarray, machine_count: int
) -> Tuple[int, Dict[Tuple[int, int], np.ndarray]]:
    """Label pairs connected by an edge, per (unordered) machine pair.

    The load-time metadata the paper builds the query-specific *cluster
    graph* from (Section 5.3).  ``machine_of_row`` is the owner of each row
    of ``graph``.  Reads every undirected edge's endpoints off the CSR and
    returns them in :func:`pack_label_pairs` form.
    """
    node_ids = graph.node_id_array()
    label_ids = graph.label_id_array()
    neighbors = graph.neighbor_array()
    counts = np.diff(graph.offset_array())
    source_rows = np.repeat(np.arange(len(node_ids), dtype=OFFSET_DTYPE), counts)
    forward = node_ids[source_rows] < neighbors
    source_rows = source_rows[forward]
    targets = neighbors[forward]
    # Neighbors are graph nodes, so their rows resolve without a miss check:
    # a contiguous 0..n-1 domain (every generator, every ingest) makes the
    # row the ID itself; otherwise one gather off a dense table where the
    # domain allows, and only then a binary search per edge.
    if len(node_ids) and node_ids[0] == 0 and node_ids[-1] == len(node_ids) - 1:
        target_rows = targets
    elif dense_table_profitable(node_ids, probe_count=len(targets)):
        target_rows = dense_position_table(node_ids)[targets]
    else:
        target_rows = np.searchsorted(node_ids, targets)
    return pack_label_pairs(
        label_ids[source_rows],
        label_ids[target_rows],
        machine_of_row[source_rows],
        machine_of_row[target_rows],
        len(graph.label_table),
        machine_count,
    )


class Partitioner:
    """Strategy interface mapping every node of a graph to a machine."""

    def assign(self, graph: LabeledGraph, machine_count: int) -> PartitionAssignment:
        """Assign every node of ``graph`` to one of ``machine_count`` machines."""
        raise NotImplementedError


class HashPartitioner(Partitioner):
    """The paper's default: assign each node by hashing its ID.

    A small multiplicative hash is used instead of Python's identity hash on
    ints so nodes with consecutive IDs spread across machines.
    """

    _MULTIPLIER = 2654435761  # Knuth's multiplicative hash constant.

    def assign(self, graph: LabeledGraph, machine_count: int) -> PartitionAssignment:
        require_positive(machine_count, "machine_count")
        node_ids = graph.node_id_array()
        machines = (
            ((node_ids * self._MULTIPLIER) >> 16) % machine_count
        ).astype(MACHINE_DTYPE)
        return PartitionAssignment.from_arrays(machine_count, node_ids, machines)


class RoundRobinPartitioner(Partitioner):
    """Assign nodes to machines cyclically in sorted-ID order."""

    def assign(self, graph: LabeledGraph, machine_count: int) -> PartitionAssignment:
        require_positive(machine_count, "machine_count")
        node_ids = graph.node_id_array()
        machines = (
            np.arange(len(node_ids), dtype=np.int64) % machine_count
        ).astype(MACHINE_DTYPE)
        return PartitionAssignment.from_arrays(machine_count, node_ids, machines)


class BlockPartitioner(Partitioner):
    """Assign contiguous ID ranges to machines (worst-case locality skew)."""

    def assign(self, graph: LabeledGraph, machine_count: int) -> PartitionAssignment:
        require_positive(machine_count, "machine_count")
        node_ids = graph.node_id_array()
        block = max(1, (len(node_ids) + machine_count - 1) // machine_count)
        machines = np.minimum(
            np.arange(len(node_ids), dtype=np.int64) // block, machine_count - 1
        ).astype(MACHINE_DTYPE)
        return PartitionAssignment.from_arrays(machine_count, node_ids, machines)


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
