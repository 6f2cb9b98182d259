"""The simulated memory cloud: a cluster of partition-holding machines.

:class:`MemoryCloud` reproduces the Trinity API surface the paper's
algorithms are written against:

* ``Cloud.Load(id)``     -> :meth:`MemoryCloud.load`
* ``Index.getID(label)`` -> :meth:`MemoryCloud.get_local_ids` (per machine,
  local nodes only, exactly as in the paper)
* ``Index.hasLabel(id, label)`` -> :meth:`MemoryCloud.has_label`

Every call is issued *by* a machine (the ``requester``); when the requested
cell lives on a different machine the access is charged to the
:class:`~repro.cloud.metrics.CloudMetrics` as network traffic.  During graph
loading the cloud also records, for every pair of machines, the set of label
pairs connected by a cross-machine edge — the preprocessing the paper uses
to build the query-specific *cluster graph* without touching the data graph
at query time (Section 5.3).
"""

from __future__ import annotations

import copy
import threading
import time
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

import numpy as np

from repro.cloud.config import ClusterConfig
from repro.cloud.machine import Machine
from repro.cloud.metrics import CloudMetrics
from repro.errors import CloudError, NodeNotFoundError
from repro.graph.label_table import LabelTable
from repro.graph.labeled_graph import NODE_DTYPE, OFFSET_DTYPE, LabeledGraph, NodeCell
from repro.graph.partition import PartitionAssignment
from repro.utils.arrays import (
    dense_table_profitable,
    dense_value_table,
    fast_unique,
    sorted_lookup,
    table_position_lookup,
)


class MemoryCloud:
    """A cluster of :class:`Machine` objects holding one partitioned graph."""

    def __init__(self, config: ClusterConfig | None = None) -> None:
        self.config = config or ClusterConfig()
        self.config.validate()
        self.machines: List[Machine] = [
            Machine(machine_id) for machine_id in range(self.config.machine_count)
        ]
        self.metrics = CloudMetrics()
        self.loading_seconds: float = 0.0
        self._assignment: PartitionAssignment | None = None
        # Per machine pair: sorted packed (label_lo * base + label_hi) keys.
        # Decoded into label-string sets lazily (see label_pairs_between);
        # the packed form is what the cluster-graph probe binary-searches.
        self._label_pairs_packed: Dict[Tuple[int, int], np.ndarray] = {}
        self._label_pairs_cache: Dict[Tuple[int, int], Set[FrozenSet[str]]] = {}
        self._label_pair_base = 1
        self._graph_node_count = 0
        self._graph_edge_count = 0
        # Cluster-wide sorted node IDs + parallel label IDs (set by
        # load_graph).  The per-machine label indexes answer the same
        # queries; these arrays let batch_has_label answer a whole candidate
        # array with one binary search while the *accounting* stays
        # per-owner-machine.
        self._global_node_ids: np.ndarray | None = None
        self._global_label_ids: np.ndarray | None = None
        self._label_table = None
        # Dense node->label-ID table (-1 = absent) for O(1) batched probes
        # on the usual contiguous ID domains; None when IDs are too sparse.
        self._label_by_node: np.ndarray | None = None
        # Runtime resources (process pools, shared-memory publications)
        # registered against this cloud; close() tears them down.
        self._runtime_resources: List = []
        # Metrics-scoped views (with_metrics) point back at the cloud they
        # were cloned from; runtime publications and locked metric merges
        # key on that owner, never on a short-lived view.
        self._metrics_parent: "MemoryCloud | None" = None
        self._metrics_lock = threading.Lock()
        # Bumped by every load_graph so runtime publications keyed on this
        # cloud can detect a reload and republish instead of serving the
        # previous graph's shared-memory state.
        self._load_generation = 0
        # Set by load_snapshot's fast path: picklable mmap specs for every
        # published array, letting publish_cloud ship file-backed state to
        # worker processes without copying it into shared memory first.
        self._storage_specs: Dict[str, object] | None = None
        self._storage_handles: List = []
        # External->dense ID map of an ingested graph (repro.ingest.IdMap);
        # carried so result materialization reports the caller's IDs.
        self._id_map = None

    # -- construction --------------------------------------------------------

    @classmethod
    def from_graph(
        cls, graph: LabeledGraph, config: ClusterConfig | None = None
    ) -> "MemoryCloud":
        """Partition ``graph`` and load it into a fresh memory cloud."""
        cloud = cls(config)
        cloud.load_graph(graph)
        return cloud

    def load_graph(self, graph: LabeledGraph) -> float:
        """Partition and load ``graph``; returns the wall-clock loading seconds.

        Loading performs exactly the work Table 2 measures: assigning every
        node to a machine, materializing its cell (label + neighbor IDs) in
        that machine's store, building the per-machine label index, and
        recording cross-machine label-pair metadata.
        """
        started = time.perf_counter()
        self._load_generation += 1
        # An in-RAM load supersedes any snapshot backing; workers must get
        # fresh shm publications, not stale file-backed specs.
        self._storage_specs = None
        self._storage_handles = []
        assignment = self.config.partitioner.assign(graph, self.config.machine_count)
        self._assignment = assignment
        self._graph_node_count = graph.node_count
        self._graph_edge_count = graph.edge_count
        self._id_map = getattr(graph, "id_map", None)

        node_ids = graph.node_id_array()
        label_ids = graph.label_id_array()
        offsets = graph.offset_array()
        neighbors = graph.neighbor_array()
        counts = np.diff(offsets)
        machine_of_row = assignment.machine_array_for(node_ids)

        # Every machine shares the graph's label table, so label IDs stay
        # comparable cluster-wide and CSR slices can be adopted verbatim.
        for machine in self.machines:
            local = machine_of_row == machine.machine_id
            local_ids = node_ids[local]
            local_labels = label_ids[local]
            local_counts = counts[local]
            local_offsets = np.zeros(len(local_ids) + 1, dtype=OFFSET_DTYPE)
            np.cumsum(local_counts, out=local_offsets[1:])
            starts = offsets[:-1][local]
            # Gather each local row out of the graph's flat neighbor array.
            gather = (
                np.arange(local_offsets[-1], dtype=OFFSET_DTYPE)
                + np.repeat(starts - local_offsets[:-1], local_counts)
            )
            machine.label_table = graph.label_table
            machine.label_index.label_table = graph.label_table
            machine.adopt_partition(
                local_ids, local_labels, local_offsets, neighbors[gather]
            )

        self._global_node_ids = node_ids
        self._global_label_ids = label_ids
        self._label_table = graph.label_table
        if dense_table_profitable(node_ids, probe_count=0):
            self._label_by_node = dense_value_table(
                node_ids, label_ids, dtype=np.int32
            )
        else:
            self._label_by_node = None

        if self.config.track_label_pairs:
            self._record_label_pairs(graph, machine_of_row)

        self.loading_seconds = time.perf_counter() - started
        return self.loading_seconds

    @classmethod
    def from_partition_state(
        cls,
        config: ClusterConfig,
        label_table: LabelTable,
        machine_arrays: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
        assignment: PartitionAssignment,
        global_node_ids: np.ndarray,
        global_label_ids: np.ndarray,
        node_count: int,
        edge_count: int,
    ) -> "MemoryCloud":
        """Reconstruct a cloud from already-partitioned CSR state.

        This is the worker-side constructor of the multiprocess runtime:
        ``machine_arrays`` holds one ``(ids, label_ids, offsets, neighbors)``
        tuple per machine — typically zero-copy shared-memory views published
        by :meth:`~repro.cloud.machine.Machine.csr_arrays` — and the arrays
        are adopted without copying.  Label-pair metadata is not rebuilt
        (cluster graphs are planned on the driver), and the dense
        node->label table is re-derived lazily per process so every worker
        owns its own caches.
        """
        if len(machine_arrays) != config.machine_count:
            raise CloudError(
                f"{len(machine_arrays)} machine partitions for "
                f"{config.machine_count} machines"
            )
        cloud = cls(config)
        for machine, (ids, label_ids, offsets, neighbors) in zip(
            cloud.machines, machine_arrays
        ):
            machine.label_table = label_table
            machine.label_index.label_table = label_table
            machine.adopt_partition(ids, label_ids, offsets, neighbors)
        cloud._assignment = assignment
        cloud._global_node_ids = global_node_ids
        cloud._global_label_ids = global_label_ids
        cloud._label_table = label_table
        cloud._graph_node_count = node_count
        cloud._graph_edge_count = edge_count
        if dense_table_profitable(global_node_ids, probe_count=0):
            cloud._label_by_node = dense_value_table(
                global_node_ids, global_label_ids, dtype=np.int32
            )
        return cloud

    def _record_label_pairs(
        self, graph: LabeledGraph, machine_of_row: np.ndarray
    ) -> None:
        """Record label pairs per machine pair for cluster-graph construction.

        Fully vectorized: every undirected edge is reduced to a packed
        ``(machine pair, label pair)`` integer, deduplicated with
        ``np.unique``, and only the distinct combinations are converted back
        to Python objects.
        """
        node_ids = graph.node_id_array()
        label_ids = graph.label_id_array()
        neighbors = graph.neighbor_array()
        counts = np.diff(graph.offset_array())
        source_rows = np.repeat(
            np.arange(len(node_ids), dtype=OFFSET_DTYPE), counts
        )
        forward = node_ids[source_rows] < neighbors
        source_rows = source_rows[forward]
        target_rows = np.searchsorted(node_ids, neighbors[forward])

        machine_u = machine_of_row[source_rows].astype(np.int64)
        machine_v = machine_of_row[target_rows].astype(np.int64)
        label_u = label_ids[source_rows].astype(np.int64)
        label_v = label_ids[target_rows].astype(np.int64)
        machine_lo = np.minimum(machine_u, machine_v)
        machine_hi = np.maximum(machine_u, machine_v)
        label_lo = np.minimum(label_u, label_v)
        label_hi = np.maximum(label_u, label_v)

        machine_count = max(self.config.machine_count, 1)
        label_count = max(len(graph.label_table), 1)
        pair_span = label_count * label_count
        packed = fast_unique(
            (machine_lo * machine_count + machine_hi) * pair_span
            + label_lo * label_count
            + label_hi
        )
        # ``packed`` is sorted, so all keys of one machine pair are one
        # contiguous run; slice per distinct machine pair instead of looping
        # over every (machine pair, label pair) combination in Python.
        machine_keys = packed // pair_span
        label_keys = packed % pair_span
        self._label_pairs_packed = {}
        self._label_pairs_cache = {}
        self._label_pair_base = label_count
        for machine_key in np.unique(machine_keys).tolist():
            start, stop = np.searchsorted(
                machine_keys, [machine_key, machine_key + 1]
            )
            pair = (machine_key // machine_count, machine_key % machine_count)
            self._label_pairs_packed[pair] = label_keys[start:stop]

    # -- persistent snapshots -------------------------------------------------

    #: Column names of one machine partition inside a snapshot.
    _MACHINE_COLUMNS = ("node_ids", "label_ids", "offsets", "neighbors")

    def save_snapshot(self, directory, *, generation: int = 1):
        """Persist the loaded graph *and* its partition state to ``directory``.

        Beyond the ``graph/*`` CSR columns a cloud snapshot stores the
        partition map, each machine's CSR partition, and the packed
        cross-machine label-pair metadata, so :meth:`load_snapshot` can
        reopen on the fast path — adopting ``np.memmap`` views without
        re-partitioning or re-deriving anything.  Returns the
        :class:`~repro.storage.snapshot.SnapshotManifest` written.
        """
        from repro.storage.snapshot import write_snapshot

        if self._assignment is None or self._label_table is None:
            raise CloudError("no graph has been loaded into the cloud")
        self.flush_staged()
        node_ids = self._global_node_ids
        label_ids = self._global_label_ids

        # Reconstruct the global CSR by scattering every machine's rows
        # back into global row order (the inverse of load_graph's gather).
        machine_columns = [machine.csr_arrays() for machine in self.machines]
        total = len(node_ids)
        counts = np.zeros(total, dtype=OFFSET_DTYPE)
        for ids_m, _labels_m, offsets_m, _neighbors_m in machine_columns:
            if len(ids_m):
                counts[np.searchsorted(node_ids, ids_m)] = np.diff(offsets_m)
        offsets = np.zeros(total + 1, dtype=OFFSET_DTYPE)
        np.cumsum(counts, out=offsets[1:])
        neighbors = np.empty(int(offsets[-1]), dtype=NODE_DTYPE)
        for ids_m, _labels_m, offsets_m, neighbors_m in machine_columns:
            if not len(ids_m):
                continue
            rows = np.searchsorted(node_ids, ids_m)
            starts = offsets[:-1][rows]
            local_counts = np.diff(offsets_m)
            scatter = (
                np.arange(int(offsets_m[-1]), dtype=OFFSET_DTYPE)
                + np.repeat(starts - offsets_m[:-1], local_counts)
            )
            neighbors[scatter] = neighbors_m

        arrays = {
            "graph/node_ids": node_ids,
            "graph/label_ids": label_ids,
            "graph/offsets": offsets,
            "graph/neighbors": neighbors,
        }
        assignment_ids, assignment_machines = self._assignment.as_arrays()
        arrays["assignment/ids"] = assignment_ids
        arrays["assignment/machines"] = assignment_machines
        for machine, columns in zip(self.machines, machine_columns):
            for column_name, column in zip(self._MACHINE_COLUMNS, columns):
                arrays[f"machine{machine.machine_id}/{column_name}"] = column
        label_pair_keys = []
        for (low, high), packed in sorted(self._label_pairs_packed.items()):
            arrays[f"labelpairs/{low}_{high}"] = packed
            label_pair_keys.append([int(low), int(high)])
        cloud_meta = {
            "machine_count": self.machine_count,
            "partitioner": _partitioner_name(self.config.partitioner),
            "track_label_pairs": self.config.track_label_pairs,
            "label_pair_base": int(self._label_pair_base),
            "label_pairs": label_pair_keys,
        }
        return write_snapshot(
            directory,
            arrays,
            node_count=self._graph_node_count,
            edge_count=self._graph_edge_count,
            labels=self._label_table.labels(),
            cloud=cloud_meta,
            generation=generation,
            id_map=self._id_map,
        )

    def load_snapshot(self, directory, *, verify: bool = False) -> float:
        """(Re)load this cloud from a snapshot directory.

        When the snapshot stores cloud state for this machine count and its
        delta log is empty, every array — partition map, machine CSR
        columns, global label arrays, packed label pairs — is adopted as a
        read-only ``np.memmap`` view: opening costs file metadata, not a
        data scan, and the picklable mmap specs are retained so the process
        executor publishes them to workers without an shm copy.  Otherwise
        (pending deltas, graph-only snapshot, or a different machine count)
        the graph is opened with the delta overlay replayed and loaded via
        :meth:`load_graph`.

        Either way ``load_generation`` is bumped, so plan caches and worker
        publications keyed on this cloud invalidate.  Returns the loading
        wall-clock seconds (recorded in :attr:`loading_seconds`).
        """
        from repro.storage.delta import DeltaLog
        from repro.storage.snapshot import open_graph_snapshot, read_manifest

        started = time.perf_counter()
        manifest = read_manifest(directory, verify=verify)
        pending_deltas = DeltaLog(directory).count()
        if (
            pending_deltas
            or not manifest.has_cloud_state
            or manifest.machine_count != self.config.machine_count
        ):
            graph = open_graph_snapshot(directory, replay=True)
            return self.load_graph(graph)

        self._load_generation += 1
        handles: List = []

        def attach(name: str):
            handle, view = manifest.attach(name)
            handles.append(handle)
            return view

        label_table = LabelTable(manifest.labels)
        assignment_ids = attach("assignment/ids")
        assignment_machines = attach("assignment/machines")
        self._assignment = PartitionAssignment.from_arrays(
            manifest.machine_count, assignment_ids, assignment_machines
        )
        for machine in self.machines:
            columns = [
                attach(f"machine{machine.machine_id}/{column_name}")
                for column_name in self._MACHINE_COLUMNS
            ]
            machine.label_table = label_table
            machine.label_index.label_table = label_table
            machine.adopt_partition(*columns)
        self._global_node_ids = attach("graph/node_ids")
        self._global_label_ids = attach("graph/label_ids")
        self._label_table = label_table
        self._graph_node_count = manifest.node_count
        self._graph_edge_count = manifest.edge_count
        if dense_table_profitable(self._global_node_ids, probe_count=0):
            self._label_by_node = dense_value_table(
                self._global_node_ids, self._global_label_ids, dtype=np.int32
            )
        else:
            self._label_by_node = None

        cloud_meta = manifest.cloud
        self._label_pairs_packed = {}
        self._label_pairs_cache = {}
        self._label_pair_base = int(cloud_meta.get("label_pair_base", 1))
        if self.config.track_label_pairs:
            for low, high in cloud_meta.get("label_pairs", ()):
                self._label_pairs_packed[(int(low), int(high))] = attach(
                    f"labelpairs/{low}_{high}"
                )

        self._id_map = manifest.load_id_map()
        self._storage_handles = handles
        self._storage_specs = {
            "machines": tuple(
                tuple(
                    manifest.spec(f"machine{machine.machine_id}/{column_name}")
                    for column_name in self._MACHINE_COLUMNS
                )
                for machine in self.machines
            ),
            "global_nodes": manifest.spec("graph/node_ids"),
            "global_labels": manifest.spec("graph/label_ids"),
            "assignment_ids": manifest.spec("assignment/ids"),
            "assignment_machines": manifest.spec("assignment/machines"),
        }
        self.loading_seconds = time.perf_counter() - started
        return self.loading_seconds

    @classmethod
    def open_snapshot(
        cls, directory, config: ClusterConfig | None = None, *, verify: bool = False
    ) -> "MemoryCloud":
        """Open a snapshot as a fresh cloud (``MemoryCloud``'s third constructor).

        Without an explicit ``config`` the cluster shape (machine count,
        partitioner) recorded in the snapshot manifest is used, so a cloud
        round-trips through ``save_snapshot``/``open_snapshot`` unchanged.
        """
        if config is None:
            from repro.storage.snapshot import read_manifest

            manifest = read_manifest(directory)
            config = (
                cluster_config_from_manifest(manifest)
                if manifest.has_cloud_state
                else ClusterConfig()
            )
        cloud = cls(config)
        cloud.load_snapshot(directory, verify=verify)
        return cloud

    @property
    def storage_publication(self) -> Dict[str, object] | None:
        """Mmap specs of a snapshot-backed cloud (``None`` after RAM loads).

        The process-executor publication path checks this first: when the
        cloud's arrays already live in a file, workers attach the file
        instead of copying everything through shared memory.
        """
        return self._storage_specs

    # -- Trinity-style operators ----------------------------------------------

    def load(self, node_id: int, requester: int | None = None) -> NodeCell:
        """``Cloud.Load(id)``: fetch the cell for ``node_id``.

        Args:
            node_id: global node ID.
            requester: machine issuing the request; ``None`` means the query
                proxy/client, which is always charged as a remote access.
        """
        owner = self.owner_of(node_id)
        cell = self.machines[owner].load(node_id)
        requester_id = owner if requester is None else requester
        if requester is None:
            # Client access: count one remote round trip from a virtual proxy.
            self.metrics.record_load(-1, owner, len(cell.neighbors))
        else:
            self.metrics.record_load(requester_id, owner, len(cell.neighbors))
        return cell

    def load_neighbors(self, node_id: int, requester: int | None = None) -> np.ndarray:
        """``Cloud.Load(id)`` returning a zero-copy neighbor-ID array slice.

        Metrics accounting is identical to :meth:`load`; only the returned
        representation differs (no per-call ``NodeCell``/tuple allocation),
        which is what the STwig matcher's batched filtering consumes.
        """
        owner = self.owner_of(node_id)
        neighbors = self.machines[owner].neighbor_slice(node_id)
        if requester is None:
            self.metrics.record_load(-1, owner, len(neighbors))
        else:
            self.metrics.record_load(requester, owner, len(neighbors))
        return neighbors

    def load_neighbors_batch(
        self, node_ids: np.ndarray, requester: int, owner: int | None = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched ``Cloud.Load`` of many cells' neighbor lists.

        Returns ``(neighbors, counts)``: the concatenated neighbor IDs of
        every requested cell (in input order) plus each cell's neighbor
        count.  One load is charged per cell against its owner machine, with
        the same message/byte accounting as :meth:`load`.

        Pass ``owner`` when every requested cell is known to live on one
        machine (the STwig matcher's root loads: roots are local by
        construction) to skip per-node owner resolution; the accounting is
        unchanged, owner resolution was never charged.
        """
        if self._assignment is None:
            raise CloudError("no graph has been loaded into the cloud")
        if len(node_ids) == 0:
            return (
                np.empty(0, dtype=NODE_DTYPE),
                np.empty(0, dtype=OFFSET_DTYPE),
            )
        if owner is not None:
            neighbors, counts = self.machines[owner].load_rows(node_ids)
            self.metrics.record_loads(
                requester, owner, len(node_ids), int(counts.sum())
            )
            return neighbors, counts
        owners = self._assignment.machine_array_for(node_ids)
        distinct = np.unique(owners).tolist()
        if len(distinct) == 1:
            owner = distinct[0]
            neighbors, counts = self.machines[owner].load_rows(node_ids)
            self.metrics.record_loads(
                requester, owner, len(node_ids), int(counts.sum())
            )
            return neighbors, counts
        counts = np.zeros(len(node_ids), dtype=OFFSET_DTYPE)
        parts: Dict[int, np.ndarray] = {}
        for owner in distinct:
            selector = owners == owner
            part_neighbors, part_counts = self.machines[owner].load_rows(
                node_ids[selector]
            )
            counts[selector] = part_counts
            parts[owner] = part_neighbors
            self.metrics.record_loads(
                requester, owner, int(selector.sum()), int(part_counts.sum())
            )
        # Reassemble the per-owner gathers back into input order.
        offsets = np.zeros(len(node_ids) + 1, dtype=OFFSET_DTYPE)
        np.cumsum(counts, out=offsets[1:])
        neighbors = np.empty(int(offsets[-1]), dtype=NODE_DTYPE)
        for owner in distinct:
            selector = owners == owner
            starts = offsets[:-1][selector]
            owner_counts = counts[selector]
            span = np.zeros(len(owner_counts) + 1, dtype=OFFSET_DTYPE)
            np.cumsum(owner_counts, out=span[1:])
            scatter = (
                np.arange(span[-1], dtype=OFFSET_DTYPE)
                + np.repeat(starts - span[:-1], owner_counts)
            )
            neighbors[scatter] = parts[owner]
        return neighbors, counts

    def batch_has_label(
        self,
        node_ids: np.ndarray,
        label: str,
        requester: int,
        owners: np.ndarray | None = None,
    ) -> np.ndarray:
        """Batched ``Index.hasLabel``: a boolean mask over ``node_ids``.

        The metrics record one hasLabel probe per candidate, charged against
        each candidate's owner machine exactly as if each had been probed
        individually; only the Python call overhead is batched away.  Pass
        ``owners`` (from :meth:`owners_of_array`) to reuse a precomputed
        owner array across several probes of the same candidates.

        IDs that are not nodes of the loaded graph yield ``False`` (when
        ``owners`` is precomputed) or raise ``PartitionError`` (when owner
        resolution runs here); neighbor lists always contain graph nodes.
        """
        if self._assignment is None:
            raise CloudError("no graph has been loaded into the cloud")
        if len(node_ids) == 0:
            return np.empty(0, dtype=bool)
        if owners is None:
            owners = self._assignment.machine_array_for(node_ids)
        for owner, count in enumerate(
            np.bincount(owners, minlength=len(self.machines)).tolist()
        ):
            self.metrics.record_label_probes(requester, owner, count)
        if self._global_node_ids is None or len(self._global_node_ids) == 0:
            mask = np.zeros(len(node_ids), dtype=bool)
            for owner in np.unique(owners).tolist():
                selector = owners == owner
                mask[selector] = self.machines[owner].label_index.has_label_mask(
                    node_ids[selector], label
                )
            return mask
        label_id = self._label_table.id_of(label) if self._label_table else -1
        if label_id < 0:
            return np.zeros(len(node_ids), dtype=bool)
        if self._label_by_node is not None:
            # Dense ID domain: one gather + compare instead of a binary
            # search per candidate (absent/out-of-range IDs read as -1).
            labels, found = table_position_lookup(self._label_by_node, node_ids)
            return found & (labels == label_id)
        positions, found = sorted_lookup(self._global_node_ids, node_ids)
        return found & (self._global_label_ids[positions] == label_id)

    def filter_neighbors_by_label(
        self, node_ids: np.ndarray, label: str, requester: int
    ) -> np.ndarray:
        """Batched ``Index.hasLabel`` keeping the IDs whose label matches.

        Same accounting as :meth:`batch_has_label`; input order preserved.
        """
        if len(node_ids) == 0:
            return np.empty(0, dtype=NODE_DTYPE)
        return node_ids[self.batch_has_label(node_ids, label, requester)]

    def get_local_ids(self, machine_id: int, label: str) -> Tuple[int, ...]:
        """``Index.getID(label)`` on one machine: IDs of *local* nodes with ``label``."""
        return tuple(self.get_local_ids_array(machine_id, label).tolist())

    def get_local_ids_array(self, machine_id: int, label: str) -> np.ndarray:
        """``Index.getID(label)`` as a sorted ``NODE_DTYPE`` array (no copy).

        Identical accounting to :meth:`get_local_ids` — one index lookup —
        but the per-label array cached by the machine's label index is
        returned directly, which is what the batched STwig matcher consumes.
        Treat the array as read-only.
        """
        machine = self._machine(machine_id)
        ids = machine.label_index.get_ids_array(label)
        self.metrics.record_index_lookup(machine_id, len(ids))
        return ids

    def get_ids(self, label: str) -> Tuple[int, ...]:
        """Global label lookup: union of every machine's local index (sorted)."""
        ids: List[int] = []
        for machine in self.machines:
            ids.extend(self.get_local_ids(machine.machine_id, label))
        return tuple(sorted(ids))

    def has_label(self, node_id: int, label: str, requester: int | None = None) -> bool:
        """``Index.hasLabel(id, label)``: check a (possibly remote) node's label."""
        owner = self.owner_of(node_id)
        requester_id = owner if requester is None else requester
        self.metrics.record_label_probe(requester_id, owner)
        return self.machines[owner].has_label(node_id, label)

    def label_of(self, node_id: int, requester: int | None = None) -> str:
        """Return the label of ``node_id`` (charged like a label probe)."""
        owner = self.owner_of(node_id)
        requester_id = owner if requester is None else requester
        self.metrics.record_label_probe(requester_id, owner)
        label = self.machines[owner].label_index.label_of(node_id)
        if label is None:
            raise NodeNotFoundError(node_id, f"machine {owner}")
        return label

    def explore_neighborhood(
        self, node_id: int, hops: int, requester: int | None = None
    ) -> Dict[int, int]:
        """Breadth-first exploration of the ``hops``-hop neighborhood of a node.

        Reproduces the access pattern behind the paper's Trinity claim that
        "exploring the entire 3-hop neighborhood of any node ... takes less
        than 100 milliseconds": every visited node's cell is loaded through
        :meth:`load` (charging local/remote accesses), and the mapping
        ``node_id -> distance`` of all nodes within ``hops`` hops is
        returned.

        Args:
            node_id: the start node.
            hops: how many hops to expand (0 returns just the start node).
            requester: machine driving the exploration; defaults to the
                owner of ``node_id`` (exploration started where the data is).
        """
        if hops < 0:
            raise CloudError(f"hops must be non-negative, got {hops}")
        origin = self.owner_of(node_id) if requester is None else requester
        distances: Dict[int, int] = {node_id: 0}
        frontier = [node_id]
        for depth in range(1, hops + 1):
            next_frontier: List[int] = []
            for current in frontier:
                cell = self.load(current, requester=origin)
                for neighbor in cell.neighbors:
                    if neighbor not in distances:
                        distances[neighbor] = depth
                        next_frontier.append(neighbor)
            frontier = next_frontier
        return distances

    # -- topology ----------------------------------------------------------------

    def owner_of(self, node_id: int) -> int:
        """Return the machine ID that stores ``node_id``."""
        if self._assignment is None:
            raise CloudError("no graph has been loaded into the cloud")
        return self._assignment.machine_of(node_id)

    def owners_of_array(self, node_ids: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`owner_of` over an array of node IDs."""
        if self._assignment is None:
            raise CloudError("no graph has been loaded into the cloud")
        return self._assignment.machine_array_for(node_ids)

    def label_pairs_between(self, machine_a: int, machine_b: int) -> Set[FrozenSet[str]]:
        """Label pairs connected by at least one edge between two machines.

        Includes ``machine_a == machine_b`` (intra-machine edges).  Returns
        an empty set when label-pair tracking is disabled.  The packed keys
        are decoded to label-string sets on first access and cached.
        """
        key = (machine_a, machine_b) if machine_a <= machine_b else (machine_b, machine_a)
        cached = self._label_pairs_cache.get(key)
        if cached is None:
            packed = self._label_pairs_packed.get(key)
            if packed is None or self._label_table is None:
                cached = set()
            else:
                names = self._label_table.labels()
                base = self._label_pair_base
                cached = {
                    frozenset((names[value // base], names[value % base]))
                    for value in packed.tolist()
                }
            self._label_pairs_cache[key] = cached
        return set(cached)

    def machines_share_label_pairs(
        self, machine_a: int, machine_b: int, label_pairs: Set[FrozenSet[str]]
    ) -> bool:
        """True if any of ``label_pairs`` crosses between the two machines.

        The membership probe the cluster-graph build runs per machine pair:
        a handful of query label pairs binary-searched against the packed
        key array, without ever decoding the (potentially huge) pair set.
        """
        key = (machine_a, machine_b) if machine_a <= machine_b else (machine_b, machine_a)
        packed = self._label_pairs_packed.get(key)
        if packed is None or len(packed) == 0 or self._label_table is None:
            return False
        base = self._label_pair_base
        probes = []
        for pair in label_pairs:
            items = tuple(pair)
            first = self._label_table.id_of(items[0])
            second = self._label_table.id_of(items[-1])
            if first < 0 or second < 0:
                continue
            lo, hi = (first, second) if first <= second else (second, first)
            probes.append(lo * base + hi)
        if not probes:
            return False
        _, found = sorted_lookup(packed, np.asarray(probes, dtype=np.int64))
        return bool(found.any())

    @property
    def machine_count(self) -> int:
        """Number of machines in the cluster."""
        return self.config.machine_count

    @property
    def node_count(self) -> int:
        """Number of nodes loaded into the cloud."""
        return self._graph_node_count

    @property
    def edge_count(self) -> int:
        """Number of edges of the loaded graph."""
        return self._graph_edge_count

    def partition_sizes(self) -> List[int]:
        """Number of nodes per machine."""
        return [machine.node_count for machine in self.machines]

    def memory_footprint_entries(self) -> int:
        """Total store size across machines, in entries (Table 1 index-size proxy)."""
        return sum(machine.memory_footprint_entries() for machine in self.machines)

    def global_label_frequencies(self) -> Dict[str, int]:
        """Label -> total node count across the whole cluster.

        The planner uses these global statistics for the ``f(v)`` ranking;
        in a real deployment they are aggregated once at load time.
        """
        frequencies: Dict[str, int] = {}
        for machine in self.machines:
            for label in machine.label_index.labels():
                frequencies[label] = (
                    frequencies.get(label, 0) + machine.label_index.label_frequency(label)
                )
        return frequencies

    @property
    def label_table(self) -> LabelTable | None:
        """The label table shared by every machine (None before loading)."""
        return self._label_table

    @property
    def id_map(self):
        """External->dense :class:`~repro.ingest.IdMap` of an ingested graph.

        ``None`` when the loaded graph's node IDs are the caller's own (the
        synthetic-generator case).  The engine reads this at result
        materialization so matches report original external IDs.
        """
        return self._id_map

    @property
    def load_generation(self) -> int:
        """Monotonic counter of :meth:`load_graph` calls.

        Runtime publications snapshot this value; a mismatch later means
        the cloud was reloaded and the published state is stale.
        """
        return self._load_generation

    @property
    def assignment(self) -> PartitionAssignment:
        """The node -> machine assignment of the loaded graph."""
        if self._assignment is None:
            raise CloudError("no graph has been loaded into the cloud")
        return self._assignment

    def global_label_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Cluster-wide ``(sorted node IDs, parallel label IDs)`` arrays.

        The batched ``hasLabel`` substrate; published to worker processes by
        the multiprocess runtime.  Treat as read-only.
        """
        if self._global_node_ids is None or self._global_label_ids is None:
            raise CloudError("no graph has been loaded into the cloud")
        return self._global_node_ids, self._global_label_ids

    def with_metrics(self, metrics: CloudMetrics) -> "MemoryCloud":
        """A shallow view of this cloud recording into ``metrics``.

        Machines, the partition map, and every cached array are shared; only
        the metrics sink differs.  The executors run each per-machine task
        against its own scoped view and merge the isolated counters back in
        machine-ID order, so concurrent backends aggregate to exactly the
        serial model's metrics.  The engine gives every *query* such a view
        too, so overlapping queries never read each other's counters.

        Views remember their owning cloud (:attr:`runtime_owner`): runtime
        publications key on the owner, not on the view.
        """
        clone = copy.copy(self)
        clone.metrics = metrics
        clone._metrics_parent = self.runtime_owner
        return clone

    @property
    def runtime_owner(self) -> "MemoryCloud":
        """The long-lived cloud behind this instance.

        For a metrics-scoped view this is the cloud it was cloned from; for
        a regular cloud it is the cloud itself.  Process executors key their
        shared-memory publication on this identity so that per-query views
        of one resident cloud reuse one publication.
        """
        return self if self._metrics_parent is None else self._metrics_parent

    def merge_metrics(self, metrics: CloudMetrics) -> None:
        """Fold an isolated per-query metrics sink into the shared counters.

        Serialized by a lock on the owning cloud: concurrent queries each
        record into their own sink and merge exactly once, so the shared
        totals stay consistent (``CloudMetrics.merge`` is not atomic).
        """
        owner = self.runtime_owner
        with owner._metrics_lock:
            owner.metrics.merge(metrics)

    def reset_metrics(self) -> None:
        """Zero the communication counters (between benchmark runs)."""
        self.metrics.reset()

    def flush_staged(self) -> None:
        """Flush every machine's staged cell/index data into CSR arrays.

        Concurrency-safety barrier for the query service: the lazy merges
        reassign arrays non-atomically, so they must complete before
        machines are read in parallel.  Serialized on
        the owning cloud so overlapping queries cannot run two merges of the
        same machine at once (the common case — nothing staged — only takes
        an uncontended lock).
        """
        owner = self.runtime_owner
        with owner._metrics_lock:
            for machine in self.machines:
                machine.flush_staged()

    # -- runtime lifecycle ---------------------------------------------------

    def register_runtime_resource(self, resource) -> None:
        """Register a closeable runtime resource (executor, shm publication).

        Registered resources are closed by :meth:`close`; each must expose
        an idempotent ``close()``.
        """
        if resource not in self._runtime_resources:
            self._runtime_resources.append(resource)

    def deregister_runtime_resource(self, resource) -> None:
        """Forget a runtime resource that now belongs to another cloud."""
        if resource in self._runtime_resources:
            self._runtime_resources.remove(resource)

    def close(self) -> None:
        """Tear down every registered runtime resource (idempotent).

        Process pools are terminated and all shared-memory segments the
        runtime published for this cloud are unlinked — after ``close()``
        returns, no segment created on this cloud's behalf remains in the
        system.  The cloud itself stays usable for serial execution.
        """
        resources, self._runtime_resources = self._runtime_resources, []
        for resource in resources:
            resource.close()

    def __enter__(self) -> "MemoryCloud":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _machine(self, machine_id: int) -> Machine:
        if not 0 <= machine_id < len(self.machines):
            raise CloudError(f"machine {machine_id} out of range [0, {len(self.machines)})")
        return self.machines[machine_id]

    def __repr__(self) -> str:
        return (
            f"MemoryCloud(machines={self.machine_count}, nodes={self.node_count}, "
            f"edges={self.edge_count})"
        )


def _partitioner_name(partitioner) -> str:
    """Stable manifest name of a partitioner (``"custom"`` when unknown)."""
    from repro.graph.partition import (
        BlockPartitioner,
        HashPartitioner,
        RoundRobinPartitioner,
    )

    for name, cls in (
        ("hash", HashPartitioner),
        ("round_robin", RoundRobinPartitioner),
        ("block", BlockPartitioner),
    ):
        if type(partitioner) is cls:
            return name
    return "custom"


def cluster_config_from_manifest(manifest) -> ClusterConfig:
    """Rebuild a :class:`ClusterConfig` from a snapshot manifest's cloud section.

    Unknown (custom) partitioner names fall back to the paper-default hash
    partitioner — compaction repartitions with it in that case, which is
    safe because query results are partition invariant.
    """
    from repro.graph.partition import (
        BlockPartitioner,
        HashPartitioner,
        RoundRobinPartitioner,
    )

    cloud_meta = manifest.cloud or {}
    partitioners = {
        "hash": HashPartitioner,
        "round_robin": RoundRobinPartitioner,
        "block": BlockPartitioner,
    }
    partitioner_cls = partitioners.get(
        cloud_meta.get("partitioner", "hash"), HashPartitioner
    )
    return ClusterConfig(
        machine_count=manifest.machine_count or ClusterConfig().machine_count,
        partitioner=partitioner_cls(),
        track_label_pairs=bool(cloud_meta.get("track_label_pairs", True)),
    )
