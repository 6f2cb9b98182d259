"""Persisting a loaded :class:`~repro.cloud.cluster.MemoryCloud`: save and open.

The cloud exposes its image (:meth:`MemoryCloud.columns
<repro.cloud.cluster.MemoryCloud.columns>` plus a little plain metadata);
this module persists it.  A snapshot stores the image once, under the
names :data:`~repro.cloud.cluster.IMAGE_COLUMNS` lists — one global CSR in
node-ID order plus the partition map — and the packed
``labelpairs/{a}_{b}`` keys of every machine pair ``a < b``, which the
planner needs at open and which would cost a pass over the graph to
derive.

Every reader opens a snapshot one way (:func:`_open_image`): attach the
image's columns as read-only ``np.memmap`` views and merge a pending delta
log into them (:func:`_overlay`: the log plus one copy of each column it
changes; every other column stays the file view).  A cloud of the stored
machine count installs that image; a cloud of another machine count places
the nodes afresh over the same columns and re-derives the label pairs;
:func:`~repro.storage.snapshot.open_graph_snapshot` adopts the columns as
a graph's CSR.

:meth:`MemoryCloud.save_snapshot` and :meth:`MemoryCloud.open_snapshot`
are the public spellings of the save and the open here.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.graph.label_table import LabelTable
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.partition import (
    PackedLabelPairs,
    cross_machine_label_pairs,
    merge_label_pairs,
    pack_label_pairs,
    partitioner_from_name,
    partitioner_name,
    place_nodes,
)
from repro.storage.delta import (
    DeltaLog,
    DeltaRecord,
    NormalizedLog,
    normalize_records,
    splice_csr,
)
from repro.storage.provider import attach_columns
from repro.storage.snapshot import (
    SnapshotManifest,
    covering_id_map,
    read_manifest,
    write_snapshot,
)


def cluster_config_from_manifest(manifest: SnapshotManifest) -> ClusterConfig:
    """Rebuild a :class:`ClusterConfig` from a manifest's cloud section.

    An unknown (custom) partitioner name falls back to the paper-default
    hash partitioner.
    """
    return ClusterConfig(
        machine_count=manifest.machine_count,
        partitioner=partitioner_from_name(manifest.cloud.get("partitioner", "hash")),
    )


#: The image's global CSR columns, in :class:`LabeledGraph` argument order.
_CSR_COLUMNS = ("graph/node_ids", "graph/label_ids", "graph/offsets", "graph/neighbors")


def _csr_graph(
    columns: Dict[str, np.ndarray], label_table: LabelTable, edge_count: int
) -> LabeledGraph:
    """The graph an image holds: its global CSR columns, adopted as they are."""
    return LabeledGraph(
        label_table, *(columns[name] for name in _CSR_COLUMNS), edge_count
    )


def save_cloud_snapshot(
    cloud: MemoryCloud, directory: str | Path, *, generation: int = 1
) -> SnapshotManifest:
    """Persist ``cloud``'s image to ``directory``; returns the manifest written.

    Raises:
        CloudError: when no graph has been loaded into ``cloud``.
    """
    arrays = cloud.columns()
    # The label-pair keys are derived from the image but stored with it:
    # the planner needs them at open, and deriving them costs O(graph).
    base, label_pairs = cloud.packed_label_pairs()
    pairs = sorted(label_pairs)
    for low, high in pairs:
        arrays[f"labelpairs/{low}_{high}"] = label_pairs[low, high]
    cloud_meta = {
        "machine_count": cloud.machine_count,
        "partitioner": partitioner_name(cloud.config.partitioner),
        "label_pair_base": int(base),
        "label_pairs": [[int(low), int(high)] for low, high in pairs],
    }
    return write_snapshot(
        directory,
        arrays,
        node_count=cloud.node_count,
        edge_count=cloud.edge_count,
        labels=cloud.label_table.labels(),
        cloud=cloud_meta,
        generation=generation,
        id_map=cloud.id_map,
    )


def _open_image(
    manifest: SnapshotManifest,
    records: Sequence[DeltaRecord],
    config: ClusterConfig,
    *,
    with_label_pairs: bool = True,
) -> Tuple[Dict[str, np.ndarray], dict]:
    """Attach ``manifest``'s image in its stored shape and merge ``records``.

    The one way every reader opens a snapshot.  Returns the columns and the
    rest of :meth:`MemoryCloud._install`'s keywords.  ``config`` places the
    nodes the log adds (its partitioner); its machine count is not
    consulted.  A graph reader passes ``with_label_pairs=False``: it gets
    no label-pair keys, and none are attached or derived for it.
    """
    columns = manifest.attach_image()
    label_table = LabelTable(manifest.labels)
    edge_count = manifest.edge_count
    delta = None
    if records:
        columns, delta, edge_count = _overlay(config, manifest, records, columns)
        label_table = delta.label_table
    id_map = covering_id_map(manifest, columns["graph/node_ids"])
    state = dict(label_table=label_table, edge_count=edge_count, id_map=id_map)
    if with_label_pairs:
        state["label_pairs"] = _image_label_pairs(
            manifest, delta, columns, label_table, edge_count
        )
    return columns, state


def parsed_snapshot_graph(
    manifest: SnapshotManifest, records: Sequence[DeltaRecord]
) -> LabeledGraph:
    """The graph of an already-parsed snapshot, ``records`` merged in: the
    image opened in its stored shape (:func:`_open_image`), its CSR adopted."""
    columns, state = _open_image(
        manifest, records, cluster_config_from_manifest(manifest),
        with_label_pairs=False,
    )
    graph = _csr_graph(columns, state["label_table"], state["edge_count"])
    graph.id_map = state["id_map"]
    return graph


def open_parsed_snapshot(
    manifest: SnapshotManifest,
    records: Sequence[DeltaRecord],
    config: ClusterConfig | None = None,
) -> MemoryCloud:
    """A fresh cloud over an already-parsed manifest and delta log.

    The body of :func:`open_cloud_snapshot`, for callers that have parsed
    ``manifest.json`` and ``deltas.log`` themselves (compaction needs both
    for its own decisions and must not parse twice).
    """
    cloud = MemoryCloud(config or cluster_config_from_manifest(manifest))
    if manifest.machine_count != cloud.machine_count:
        # Another cluster shape: no stored partitioning describes the cloud
        # asked for, so place the nodes afresh over the image's own columns.
        cloud.load_graph(parsed_snapshot_graph(manifest, records))
        return cloud
    started = time.perf_counter()
    columns, state = _open_image(manifest, records, cloud.config)
    cloud._install(columns, **state)
    cloud.loading_seconds = time.perf_counter() - started
    return cloud


def _overlay(
    config: ClusterConfig,
    manifest: SnapshotManifest,
    records: Sequence[DeltaRecord],
    columns: Dict[str, np.ndarray],
) -> Tuple[Dict[str, np.ndarray], NormalizedLog, int]:
    """Splice pending ``records`` into the attached image of ``manifest``.

    Returns the merged columns, the normalized log and the merged edge
    count.  Costs the log plus one block copy of each column the log
    changes; every other column stays the ``np.memmap`` view it was
    attached as:

    * The global CSR takes the node records and half-edges in one
      :func:`splice_csr`: ``graph/node_ids`` is copied only when the log
      adds nodes, ``graph/label_ids`` only for them or a relabel, and
      ``graph/offsets|neighbors`` only when it adds nodes or edges.
    * Assignment is sticky: a node the snapshot holds keeps its stored
      machine (as on a clean open); only nodes the log adds are placed, by
      ``config``'s partitioner, and ``assignment/machines`` is copied only
      for them.
    """
    base_ids = columns["graph/node_ids"]
    delta = normalize_records(
        records, manifest.labels, base_ids, columns["graph/label_ids"]
    )
    csr, added = splice_csr(
        tuple(columns[name] for name in _CSR_COLUMNS),
        delta.node_ids, delta.label_ids, delta.sources, delta.targets,
    )
    machines = columns["assignment/machines"]
    new_ids = delta.node_ids[delta.is_new]
    if len(new_ids):
        placed = place_nodes(config.partitioner, new_ids, manifest.machine_count)
        machines = np.insert(machines, np.searchsorted(base_ids, new_ids), placed)
    merged = {**dict(zip(_CSR_COLUMNS, csr)), "assignment/machines": machines}
    # The stored CSR is symmetric, so new half-edges come in mirrored pairs.
    return merged, delta, manifest.edge_count + added // 2


def _image_label_pairs(
    manifest: SnapshotManifest,
    delta: NormalizedLog | None,
    columns: Dict[str, np.ndarray],
    label_table: LabelTable,
    edge_count: int,
) -> PackedLabelPairs:
    """The opened image's packed label pairs; ``delta`` is the merged log.

    Nodes keep their machine and (unless relabelled) their label, so every
    stored key of a machine pair ``a < b`` stays true (an older writer's
    ``a_a`` arrays are never attached): the result is those keys united
    with the log's (:func:`merge_label_pairs`).  After a relabel, and for a
    snapshot an older writer saved with ``"track_label_pairs": false``, the
    keys are re-derived from the merged CSR, the one O(graph) step an open
    can take; a one-machine image has none to derive.
    """
    machine_count = manifest.machine_count
    if (
        machine_count == 1
        or not manifest.cloud.get("track_label_pairs", True)
        or (delta is not None and not delta.is_new.all())
    ):
        return cross_machine_label_pairs(
            _csr_graph(columns, label_table, edge_count),
            columns["assignment/machines"],
            machine_count,
        )
    stored = (
        int(manifest.cloud.get("label_pair_base", 1)),
        attach_columns(
            {
                (low, high): manifest.spec(f"labelpairs/{low}_{high}")
                for low, high in manifest.cloud.get("label_pairs", ())
                if low < high
            }
        ),
    )
    if delta is None:
        return stored
    node_ids = columns["graph/node_ids"]
    forward = delta.sources < delta.targets
    fresh = pack_label_pairs(
        columns["graph/label_ids"], columns["assignment/machines"],
        np.searchsorted(node_ids, delta.sources[forward]),
        np.searchsorted(node_ids, delta.targets[forward]),
        len(label_table), machine_count,
    )
    return merge_label_pairs(stored, fresh)


def open_cloud_snapshot(
    directory: str | Path,
    config: ClusterConfig | None = None,
    *,
    verify: bool = False,
) -> MemoryCloud:
    """Open a snapshot as a fresh cloud.

    Without an explicit ``config`` the cluster shape (machine count,
    partitioner) recorded in the manifest is used, so a cloud round-trips
    through save/open unchanged.  For that machine count the image is
    installed as opened (:func:`_open_image`): its columns are the file's
    ``np.memmap`` views, except those a pending delta log changed, a
    graph-only snapshot's partition map and a version 2 image's scattered
    adjacency, which live in RAM.  Another machine count places the nodes
    afresh over the same columns (a new partition map and label pairs, no
    copy of the CSR).  ``manifest.json`` and ``deltas.log`` are each parsed
    once.
    """
    manifest = read_manifest(directory, verify=verify)
    return open_parsed_snapshot(manifest, DeltaLog(manifest.directory).read(), config)
