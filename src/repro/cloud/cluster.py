"""The simulated memory cloud: a cluster of partition-holding machines.

:class:`MemoryCloud` reproduces the Trinity API surface the paper's
algorithms are written against:

* ``Cloud.Load(id)``     -> :meth:`MemoryCloud.load`
* ``Index.getID(label)`` -> :meth:`MemoryCloud.get_local_ids_array` (per
  machine, local nodes only, exactly as in the paper)
* ``Index.hasLabel(id, label)`` -> :meth:`MemoryCloud.has_label`

Each fact of the loaded image has one owner.  The image is one global CSR
in node-ID order (``graph/node_ids|label_ids|offsets|neighbors``); a cloud
built from a graph adopts the graph's own arrays, so it holds no second
copy of the adjacency.  The partition map is the ``assignment/machines``
column, placed once by the configured partitioner
(:func:`~repro.graph.partition.place_nodes`); each :class:`Machine` is an
owner over those columns and answers the local index calls; the cloud's
per-node columns answer the cluster-wide probes: one :class:`NodeIndex`
over the sorted node IDs turns an ID into its row, and at that row sit the
node's tag (label and owner in one integer) and its CSR slice.

Every call is issued *by* a machine (the ``requester``); when the requested
cell lives on a different machine the access is charged to the
:class:`~repro.cloud.metrics.CloudMetrics` as network traffic.  During graph
loading the cloud also records, for every pair of distinct machines, the
set of label pairs connected by an edge between them — the preprocessing
the paper uses to build the query-specific *cluster graph* without touching
the data graph at query time (Section 5.3).
"""

from __future__ import annotations

import copy
import threading
import time
from typing import Dict, FrozenSet, List, Set, Tuple

import numpy as np

from repro.cloud.config import ClusterConfig
from repro.cloud.machine import EMPTY_IMAGE, Machine
from repro.cloud.metrics import CloudMetrics
from repro.errors import CloudError, NodeNotFoundError, PartitionError
from repro.graph.label_table import LabelTable
from repro.graph.labeled_graph import NODE_DTYPE, OFFSET_DTYPE, LabeledGraph, NodeCell
from repro.graph.partition import (
    PackedLabelPairs,
    cross_machine_label_pairs,
    label_pair_keys,
    place_nodes,
)
from repro.utils.arrays import NodeIndex, membership_mask


def _tag_dtype(tag_count: int) -> np.dtype:
    """The smallest signed dtype holding tags ``0..tag_count - 1``."""
    for dtype in (np.int8, np.int16, np.int32):
        if tag_count <= np.iinfo(dtype).max + 1:
            return np.dtype(dtype)
    return np.dtype(np.int64)


#: Names of the arrays of a cloud's image, in order: the global CSR and the
#: partition map.  These are the snapshot manifest's array names;
#: :meth:`MemoryCloud.columns` keys on them.
IMAGE_COLUMNS: Tuple[str, ...] = tuple(EMPTY_IMAGE)


class MemoryCloud:
    """A cluster of :class:`Machine` objects holding one partitioned graph.

    A loaded cloud *is* its :meth:`columns`: an immutable set of named
    arrays, installed in one place (:meth:`_install`) whether they come
    from partitioning a graph or from a snapshot file.  Nothing writes to a
    loaded cloud; graph updates go through the snapshot delta log and a
    reload.
    """

    def __init__(self, config: ClusterConfig | None = None) -> None:
        self.config = config or ClusterConfig()
        self.config.validate()
        self.machines: List[Machine] = [
            Machine(machine_id) for machine_id in range(self.config.machine_count)
        ]
        self.metrics = CloudMetrics()
        self.loading_seconds: float = 0.0
        # Runtime resources (the process backend's workers) registered
        # against this cloud; close() tears them down.
        self._runtime_resources: List = []
        # Metrics-scoped views (with_metrics) point back at the cloud they
        # were cloned from; runtime workers and locked metric merges key on
        # that owner, never on a short-lived view.
        self._metrics_parent: "MemoryCloud | None" = None
        self._metrics_lock = threading.Lock()
        # The loaded state: nothing until _install (which documents each).
        self._load_generation = 0
        self._columns: Dict[str, np.ndarray] | None = None
        self._global_label_ids: np.ndarray | None = None
        self._index = NodeIndex(np.empty(0, dtype=NODE_DTYPE))
        self._tags: np.ndarray | None = None
        self._label_table: LabelTable | None = None
        self._graph_node_count = 0
        self._graph_edge_count = 0
        self._id_map = None
        self._label_pairs: PackedLabelPairs = (1, {})

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

        Loading performs the work Table 2 measures that a shared-memory
        image still needs: assigning every node to a machine and recording
        cross-machine label-pair metadata.  The graph's CSR arrays become
        the image as they are (no copy), so every machine's cells are its
        owned rows of the graph's own adjacency.
        """
        started = time.perf_counter()
        machines = place_nodes(
            self.config.partitioner, graph.node_id_array(), self.config.machine_count
        )
        columns = {
            "graph/node_ids": graph.node_id_array(),
            "graph/label_ids": graph.label_id_array(),
            "graph/offsets": graph.offset_array(),
            "graph/neighbors": graph.neighbor_array(),
            "assignment/machines": machines,
        }
        # Every machine shares the graph's label table, so label IDs stay
        # comparable cluster-wide.
        self._install(
            columns,
            label_table=graph.label_table,
            edge_count=graph.edge_count,
            id_map=getattr(graph, "id_map", None),
            label_pairs=cross_machine_label_pairs(
                graph, machines, self.config.machine_count
            ),
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
        label_pairs: PackedLabelPairs,
    ) -> None:
        """Make ``columns`` this cloud's loaded state — the one way in.

        Called by :meth:`load_graph` (the graph's arrays and a fresh
        partition map) and by :mod:`repro.storage.cloud_snapshot`
        (``np.memmap`` views, with the columns a pending delta log changed
        in RAM).  ``columns`` holds one array per :data:`IMAGE_COLUMNS`
        entry, adopted without copying; ``label_pairs`` is in
        :meth:`packed_label_pairs` form.
        """
        # Runtime workers and plan caches keyed on this cloud compare
        # generations to detect a reload.
        self._load_generation += 1
        self._columns = {name: columns[name] for name in IMAGE_COLUMNS}
        # Each machine is its owner ID over the image; the per-label ID
        # arrays the machines' index calls cache are split in one dict.
        by_label: Dict[int, Dict[int, np.ndarray]] = {}
        self.machines = [
            Machine(machine_id, self._columns, label_table, by_label)
            for machine_id in range(self.config.machine_count)
        ]
        # The per-node tag column, parallel to the sorted node IDs that
        # _index resolves: label_id * machine_count + owner, so a neighbor's
        # label (for hasLabel) and owner (for charging the probe) come out
        # of one gather.
        node_ids = columns["graph/node_ids"]
        label_ids = self._global_label_ids = columns["graph/label_ids"]
        machine_count = self.config.machine_count
        self._index = NodeIndex(node_ids)
        dtype = _tag_dtype(len(label_table) * machine_count)
        tags = label_ids.astype(dtype)
        tags *= machine_count
        tags += columns["assignment/machines"].astype(dtype, copy=False)
        self._tags = tags
        self._label_table = label_table
        self._graph_node_count = len(node_ids)
        self._graph_edge_count = int(edge_count)
        # External->dense IdMap of an ingested graph: result materialization
        # reports the caller's IDs through it.
        self._id_map = id_map
        # Per machine pair i < j, sorted packed label-pair keys: the form
        # the cluster-graph probe binary-searches.
        self._label_pairs = (int(label_pairs[0]), dict(label_pairs[1]))

    def columns(self) -> Dict[str, np.ndarray]:
        """The loaded cloud as named arrays — its whole bulk state.

        Keys are the snapshot manifest's array names (:data:`IMAGE_COLUMNS`):
        ``graph/node_ids|label_ids|offsets|neighbors`` (the global CSR, in
        node-ID order) and ``assignment/machines`` (each node's owner,
        parallel to ``graph/node_ids``: the partition map).  No two entries
        are the same array.  Snapshot save consumes exactly this map, and
        feeding it back through the installer yields an equivalent cloud.
        A graph-built cloud's CSR entries are the graph's own arrays; a
        snapshot-opened cloud's entries are ``np.memmap`` views of the file,
        except the columns a merged delta log changed and a graph-only
        snapshot's partition map.  Treat the arrays as read-only.
        """
        if self._columns is None:
            raise CloudError("no graph has been loaded into the cloud")
        return dict(self._columns)

    def packed_label_pairs(self) -> PackedLabelPairs:
        """``(base, {(machine_lo, machine_hi): sorted packed keys})``.

        The label-pair metadata in the form snapshots persist it: an entry
        per machine pair ``machine_lo < machine_hi`` joined by an edge (see
        :func:`~repro.graph.partition.pack_label_pairs`).
        """
        return self._label_pairs[0], dict(self._label_pairs[1])

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

    def load_cells(
        self, node_ids: np.ndarray, cuts: np.ndarray, requester: int | None = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched ``Cloud.Load`` of the cells ``node_ids[cuts[m] : cuts[m + 1]]``
        stored on each machine ``m``.

        Returns ``(neighbors, counts)``: every cell's neighbor IDs, in input
        order, and each cell's neighbor count.  One load is charged per cell
        against its machine, issued by ``requester`` (``None``: the machine
        itself, a local load, as the STwig matcher's root loads are), with
        the accounting of :meth:`load`.  Each ID is resolved once, its owner
        checked off its tag, and every cell gathered out of the global CSR in
        one pass.

        Raises:
            CloudError: if ``cuts`` is not one range per machine covering
                ``node_ids``.
            NodeNotFoundError: if any ID is not stored on its range's machine.
        """
        node_ids = np.asarray(node_ids)
        cuts = np.asarray(cuts)
        machine_count = self.machine_count
        sizes = cuts[1:] - cuts[:-1]
        if len(cuts) != machine_count + 1 or cuts[0] != 0 or cuts[-1] != len(node_ids) or (
            sizes < 0
        ).any():
            raise CloudError(
                f"cuts {cuts.tolist()} do not cut {len(node_ids)} cells into one range "
                f"per machine of {machine_count}"
            )
        owners = np.repeat(np.arange(machine_count), sizes)
        rows, found = self._index.find(node_ids)
        if found.any():  # else the column may be empty: no tag to read
            found &= self._tags[rows] % machine_count == owners
        if not found.all():
            first = int(np.flatnonzero(~found)[0])
            raise NodeNotFoundError(int(node_ids[first]), f"machine {owners[first]}")
        offsets = self._columns["graph/offsets"]
        starts = offsets[rows]
        counts = offsets[rows + 1] - starts
        cells = np.zeros(len(rows) + 1, dtype=OFFSET_DTYPE)
        np.cumsum(counts, out=cells[1:])
        gather = np.arange(cells[-1], dtype=OFFSET_DTYPE) + np.repeat(
            starts - cells[:-1], counts
        )
        for machine in np.flatnonzero(sizes).tolist():
            start, stop = int(cuts[machine]), int(cuts[machine + 1])
            self.metrics.record_loads(
                machine if requester is None else requester,
                machine,
                stop - start,
                int(cells[stop] - cells[start]),
            )
        return self._columns["graph/neighbors"][gather], counts

    def labels_and_owners(self, node_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(label IDs, owners)`` of graph nodes, from one tag gather.

        The STwig matcher's probe path: every ID must be a node of the loaded
        graph — CSR neighbor lists are, by construction — so no domain check
        runs, and on a contiguous ID domain the IDs are the tag positions.
        Charges nothing; pair with :meth:`charge_label_probes`.
        """
        return np.divmod(self._tags[self._index.positions(node_ids)], self.machine_count)

    def charge_label_probes(self, requesters, owners: np.ndarray) -> None:
        """Charge one hasLabel probe per entry of ``owners``, issued by the
        parallel ``requesters`` (or one machine ID for all), with the
        accounting of that many :meth:`has_label` calls: one ``bincount``
        over (requester, owner) pairs counts them all."""
        machine_count = self.machine_count
        pairs = np.bincount(np.asarray(requesters) * machine_count + owners)
        for pair in np.flatnonzero(pairs).tolist():
            requester, owner = divmod(pair, machine_count)
            self.metrics.record_label_probes(requester, owner, int(pairs[pair]))

    def get_local_ids_array(self, machine_id: int, label: str) -> np.ndarray:
        """``Index.getID(label)`` on one machine: its *local* nodes with ``label``.

        One index lookup is charged.  The sorted ``NODE_DTYPE`` array the
        machine caches is returned directly (no copy), which is what the
        batched STwig matcher consumes.  Treat it as read-only.
        """
        ids = self._machine(machine_id).get_ids_array(label)
        self.metrics.record_index_lookup()
        return ids

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
        label = self.machines[owner].label_of(node_id)
        if label is None:
            raise NodeNotFoundError(node_id, f"machine {owner}")
        return label

    # -- topology ----------------------------------------------------------------

    def owner_of(self, node_id: int) -> int:
        """Return the machine ID that stores ``node_id``."""
        return int(self.owners_of_array(np.array([node_id], dtype=NODE_DTYPE))[0])

    def owners_of_array(self, node_ids: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`owner_of` over an array of node IDs.

        Raises:
            PartitionError: if any ID is not a node of the loaded graph.
        """
        if self._tags is None:
            raise CloudError("no graph has been loaded into the cloud")
        node_ids = np.asarray(node_ids, dtype=NODE_DTYPE)
        positions, found = self._index.find(node_ids)
        if not found.all():
            missing = node_ids[~found]
            raise PartitionError(f"node {int(missing[0])} has no machine assignment")
        return self._tags[positions] % self.machine_count

    def machines_share_label_pairs(
        self, machine_a: int, machine_b: int, label_pairs: Set[FrozenSet[str]]
    ) -> bool:
        """True if any of ``label_pairs`` crosses between the two machines.

        The membership probe the cluster-graph build runs per machine pair:
        a handful of query label pairs binary-searched against the packed
        key array.  A machine shares no pair with itself (no key is kept).
        """
        base, pairs = self._label_pairs
        packed = pairs.get((min(machine_a, machine_b), max(machine_a, machine_b)))
        if packed is None:
            return False
        ids = np.array(
            [[self._label_table.id_of(label) for label in (min(pair), max(pair))]
             for pair in label_pairs],
            dtype=np.int64,
        ).reshape(-1, 2)
        ids = ids[(ids >= 0).all(axis=1)]  # a label the graph lacks crosses nowhere
        probes = label_pair_keys(ids[:, 0], ids[:, 1], base)
        return bool(membership_mask(packed, probes).any())

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
        """Monotonic counter of loads (graph or snapshot).

        The process backend's workers are forked at one value; a mismatch
        later means the cloud was reloaded and they hold a stale copy.
        """
        return self._load_generation

    def with_metrics(self, metrics: CloudMetrics) -> "MemoryCloud":
        """A shallow view of this cloud recording into ``metrics``.

        Machines, the partition map, and every cached array are shared; only
        the metrics sink differs.  The executors run each exploration chunk
        against its own scoped view and merge the isolated counters back in
        chunk order, so concurrent backends aggregate to the serial model's
        metrics, all of them, with or without a row limit.  The engine gives
        every *query* such a view too, so overlapping queries never read
        each other's counters.

        Views remember their owning cloud (:attr:`runtime_owner`): runtime
        workers key on the owner, not on the view.
        """
        clone = copy.copy(self)
        clone.metrics = metrics
        clone._metrics_parent = self.runtime_owner
        return clone

    @property
    def runtime_owner(self) -> "MemoryCloud":
        """The long-lived cloud behind this instance.

        For a metrics-scoped view this is the cloud it was cloned from; for
        a regular cloud it is the cloud itself.  Process executors fork
        their workers from this cloud, so that per-query views of one
        resident cloud share one set of workers.
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
        """Register a closeable runtime resource (an executor's workers).

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

        Process workers forked from this cloud are terminated and reaped.
        The cloud itself stays usable for serial execution.
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
