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
from repro.graph.labeled_graph import OFFSET_DTYPE, LabeledGraph, NodeCell
from repro.graph.partition import PartitionAssignment, cross_machine_label_pairs
from repro.utils.arrays import (
    dense_table_profitable,
    dense_value_table,
    sorted_lookup,
    table_position_lookup,
)


#: Column names of one machine's CSR partition inside the cloud image.
MACHINE_COLUMNS = ("node_ids", "label_ids", "offsets", "neighbors")


def column_names(machine_count: int) -> Tuple[str, ...]:
    """Names of every array in a ``machine_count``-machine cloud's image.

    These are the snapshot manifest's array names; :meth:`MemoryCloud.columns`,
    the worker-publication handle and ``storage_publication`` all key on them.
    """
    return (
        "graph/node_ids",
        "graph/label_ids",
        "assignment/machines",
        *(
            f"machine{machine_id}/{column}"
            for machine_id in range(machine_count)
            for column in MACHINE_COLUMNS
        ),
    )


class MemoryCloud:
    """A cluster of :class:`Machine` objects holding one partitioned graph.

    A loaded cloud *is* its :meth:`columns`: an immutable set of named
    arrays, installed in one place (:meth:`_install`) whether they come
    from partitioning a graph, from a snapshot file, or from another
    process's publication.  Nothing writes to a loaded cloud; graph updates
    go through the snapshot delta log and a reload.
    """

    def __init__(self, config: ClusterConfig | None = None) -> None:
        self.config = config or ClusterConfig()
        self.config.validate()
        self.machines: List[Machine] = [
            Machine(machine_id) for machine_id in range(self.config.machine_count)
        ]
        self.metrics = CloudMetrics()
        self.loading_seconds: float = 0.0
        # Runtime resources (process pools, shared-memory publications)
        # registered against this cloud; close() tears them down.
        self._runtime_resources: List = []
        # Metrics-scoped views (with_metrics) point back at the cloud they
        # were cloned from; runtime publications and locked metric merges
        # key on that owner, never on a short-lived view.
        self._metrics_parent: "MemoryCloud | None" = None
        self._metrics_lock = threading.Lock()
        # The loaded state: nothing until _install (which documents each).
        self._load_generation = 0
        self._columns: Dict[str, np.ndarray] | None = None
        self._assignment: PartitionAssignment | None = None
        self._global_node_ids: np.ndarray | None = None
        self._global_label_ids: np.ndarray | None = None
        self._label_by_node: np.ndarray | None = None
        self._label_table: LabelTable | None = None
        self._graph_node_count = 0
        self._graph_edge_count = 0
        self._id_map = None
        self._label_pair_base = 1
        self._label_pairs_packed: Dict[Tuple[int, int], np.ndarray] = {}
        self._label_pairs_cache: Dict[Tuple[int, int], Set[FrozenSet[str]]] = {}
        self._backing: List = []
        self._file_specs: Dict[str, object] | None = None

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
        assignment = self.config.partitioner.assign(graph, self.config.machine_count)
        node_ids = graph.node_id_array()
        label_ids = graph.label_id_array()
        offsets = graph.offset_array()
        neighbors = graph.neighbor_array()
        counts = np.diff(offsets)
        machine_of_row = assignment.machine_array_for(node_ids)

        columns: Dict[str, np.ndarray] = {
            "graph/node_ids": node_ids,
            "graph/label_ids": label_ids,
            "assignment/machines": machine_of_row,
        }
        for machine_id in range(self.config.machine_count):
            local = machine_of_row == machine_id
            local_counts = counts[local]
            local_offsets = np.zeros(len(local_counts) + 1, dtype=OFFSET_DTYPE)
            np.cumsum(local_counts, out=local_offsets[1:])
            starts = offsets[:-1][local]
            # Gather each local row out of the graph's flat neighbor array.
            gather = (
                np.arange(local_offsets[-1], dtype=OFFSET_DTYPE)
                + np.repeat(starts - local_offsets[:-1], local_counts)
            )
            partition = (
                node_ids[local], label_ids[local], local_offsets, neighbors[gather]
            )
            for column, array in zip(MACHINE_COLUMNS, partition):
                columns[f"machine{machine_id}/{column}"] = array

        label_pairs = (
            cross_machine_label_pairs(graph, machine_of_row, self.config.machine_count)
            if self.config.track_label_pairs
            else (1, {})
        )
        # Every machine shares the graph's label table, so label IDs stay
        # comparable cluster-wide and CSR slices are adopted verbatim.
        self._install(
            columns,
            label_table=graph.label_table,
            edge_count=graph.edge_count,
            id_map=getattr(graph, "id_map", None),
            label_pairs=label_pairs,
        )
        self.loading_seconds = time.perf_counter() - started
        return self.loading_seconds

    def _install(
        self,
        columns: Dict[str, np.ndarray],
        *,
        label_table: LabelTable,
        edge_count: int,
        id_map=None,
        label_pairs: Tuple[int, Dict[Tuple[int, int], np.ndarray]] = (1, {}),
        backing: Sequence = (),
        file_specs: Dict[str, object] | None = None,
    ) -> None:
        """Make ``columns`` this cloud's loaded state — the one way in.

        Called by :meth:`load_graph` (freshly partitioned arrays), by
        :mod:`repro.storage.cloud_snapshot` (``np.memmap`` views) and by
        :func:`repro.runtime.shared_cloud.rebuild_cloud` (worker-side
        shm/mmap views).  ``columns`` holds one array per
        :func:`column_names` entry, adopted without copying; ``label_pairs``
        is in :meth:`packed_label_pairs` form.  ``backing`` is whatever must
        stay referenced while the views are alive (attach handles);
        ``file_specs`` the per-column mmap specs when the arrays live in a
        snapshot file.
        """
        # Runtime publications and plan caches keyed on this cloud compare
        # generations to detect a reload.
        self._load_generation += 1
        self._columns = {
            name: columns[name] for name in column_names(self.config.machine_count)
        }
        self._assignment = PartitionAssignment.from_arrays(
            self.config.machine_count,
            columns["graph/node_ids"],
            columns["assignment/machines"],
        )
        for machine in self.machines:
            machine.label_table = machine.label_index.label_table = label_table
            machine.adopt_partition(
                *(
                    columns[f"machine{machine.machine_id}/{column}"]
                    for column in MACHINE_COLUMNS
                )
            )
        # Cluster-wide sorted node IDs + parallel label IDs: batch_has_label
        # answers a whole candidate array with one lookup (a dense
        # node->label-ID table when the ID domain allows, else a binary
        # search) while the *accounting* stays per-owner-machine.
        node_ids = self._global_node_ids = columns["graph/node_ids"]
        label_ids = self._global_label_ids = columns["graph/label_ids"]
        self._label_by_node = (
            dense_value_table(node_ids, label_ids, dtype=np.int32)
            if dense_table_profitable(node_ids, probe_count=0)
            else None
        )
        self._label_table = label_table
        self._graph_node_count = len(node_ids)
        self._graph_edge_count = int(edge_count)
        # External->dense IdMap of an ingested graph: result materialization
        # reports the caller's IDs through it.
        self._id_map = id_map
        # Per machine pair, sorted packed (label_lo * base + label_hi) keys:
        # the form the cluster-graph probe binary-searches; decoded into
        # label-string sets lazily (label_pairs_between).
        self._label_pair_base = int(label_pairs[0])
        self._label_pairs_packed = dict(label_pairs[1])
        self._label_pairs_cache = {}
        self._backing = list(backing)
        self._file_specs = file_specs

    def columns(self) -> Dict[str, np.ndarray]:
        """The loaded cloud as named arrays — its whole bulk state.

        Keys are the snapshot manifest's array names (:func:`column_names`):
        ``assignment/machines`` (each node's owner, parallel to
        ``graph/node_ids``: the partition map),
        ``machine{i}/node_ids|label_ids|offsets|neighbors`` (each machine's
        CSR partition) and ``graph/node_ids|label_ids`` (the cluster-wide
        label arrays).  No two entries are the same array.  Snapshot save
        and worker publication both consume exactly this map, and feeding
        it back through the installer yields an equivalent cloud.  Treat
        the arrays as read-only.
        """
        if self._columns is None:
            raise CloudError("no graph has been loaded into the cloud")
        return dict(self._columns)

    def packed_label_pairs(self) -> Tuple[int, Dict[Tuple[int, int], np.ndarray]]:
        """``(base, {(machine_lo, machine_hi): sorted packed keys})``.

        The label-pair metadata in the form snapshots persist it; each key
        is ``label_lo * base + label_hi`` over label-table IDs.
        """
        return self._label_pair_base, dict(self._label_pairs_packed)

    # -- persistent snapshots -------------------------------------------------

    def save_snapshot(self, directory, *, generation: int = 1):
        """Persist this cloud's image to ``directory``; returns the manifest.

        See :func:`repro.storage.cloud_snapshot.save_cloud_snapshot`.
        """
        from repro.storage.cloud_snapshot import save_cloud_snapshot

        return save_cloud_snapshot(self, directory, generation=generation)

    @classmethod
    def open_snapshot(
        cls, directory, config: ClusterConfig | None = None, *, verify: bool = False
    ) -> "MemoryCloud":
        """Open a snapshot as a fresh cloud (``MemoryCloud``'s other constructor).

        See :func:`repro.storage.cloud_snapshot.open_cloud_snapshot`.
        """
        from repro.storage.cloud_snapshot import open_cloud_snapshot

        return open_cloud_snapshot(directory, config, verify=verify)

    @property
    def storage_publication(self) -> Dict[str, object] | None:
        """``{column name: mmap spec}`` of a file-backed cloud, else ``None``.

        Observed, not chosen: set when the installed columns are views into
        a snapshot's data file, so worker publication ships these specs
        instead of copying the arrays into shared memory; ``None`` after any
        in-RAM load, including a snapshot opened with pending deltas or a
        graph-only one (the merged columns, or its partition map, live in RAM).
        """
        return self._file_specs

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
        # Client access counts one remote round trip from a virtual proxy.
        self.metrics.record_load(
            -1 if requester is None else requester, owner, len(cell.neighbors)
        )
        return cell

    def load_neighbors(self, node_id: int, requester: int | None = None) -> np.ndarray:
        """``Cloud.Load(id)`` returning a zero-copy neighbor-ID array slice.

        Metrics accounting is identical to :meth:`load`; only the returned
        representation differs (no per-call ``NodeCell``/tuple allocation),
        which is what the STwig matcher's batched filtering consumes.
        """
        owner = self.owner_of(node_id)
        neighbors = self.machines[owner].neighbor_slice(node_id)
        self.metrics.record_load(
            -1 if requester is None else requester, owner, len(neighbors)
        )
        return neighbors

    def load_neighbors_batch(
        self, node_ids: np.ndarray, requester: int, owner: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched ``Cloud.Load`` of many cells stored on machine ``owner``.

        Returns ``(neighbors, counts)``: the concatenated neighbor IDs of
        every requested cell (in input order) plus each cell's neighbor
        count.  One load is charged per cell against ``owner``, with the
        same message/byte accounting as :meth:`load`.  The STwig matcher's
        root loads are local by construction, so the caller always knows
        the owner; owner resolution was never charged.

        Raises:
            NodeNotFoundError: if any ID is not stored on ``owner``.
        """
        neighbors, counts = self.machines[owner].load_rows(node_ids)
        self.metrics.record_loads(
            requester, owner, len(node_ids), int(counts.sum())
        )
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
        if self._global_label_ids is None:
            return {}
        # One pass over the cluster-wide label column, not one ID-array
        # materialization per (machine, label).
        counts = np.bincount(self._global_label_ids)
        return {
            self._label_table.label_of(label_id): int(counts[label_id])
            for label_id in np.flatnonzero(counts).tolist()
        }

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
        """Monotonic counter of loads (graph, snapshot, or published image).

        Runtime publications snapshot this value; a mismatch later means
        the cloud was reloaded and the published state is stale.
        """
        return self._load_generation

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
