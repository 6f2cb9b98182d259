"""Persisting a loaded :class:`~repro.cloud.cluster.MemoryCloud`: save and open.

The cloud exposes its image (:meth:`MemoryCloud.columns
<repro.cloud.cluster.MemoryCloud.columns>` plus a little plain metadata);
this module persists it.  A snapshot stores the image once, under the
names :func:`~repro.cloud.cluster.column_names` lists, plus the packed
``labelpairs/{a}_{b}`` keys, which the planner needs at open and which
would cost a pass over the graph to derive.  It stores no global CSR: each
adjacency list lives in its owner's partition only.

Every reader opens a snapshot one way (:func:`_open_image`): attach the
image's columns as read-only ``np.memmap`` views, in their stored shape,
and merge a pending delta log into them (:func:`_overlay`: the log plus one
copy of each column it changes; every other column stays the file view).
A cloud of the stored machine count installs that image; whatever needs
the graph — :func:`~repro.storage.snapshot.open_graph_snapshot`, a cloud of
another machine count — derives it through :func:`image_graph`.

:meth:`MemoryCloud.save_snapshot` and :meth:`MemoryCloud.open_snapshot`
are the public spellings of the save and the open here.
"""

from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.cloud.cluster import MACHINE_COLUMNS, MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.graph.label_table import LabelTable
from repro.graph.labeled_graph import NODE_DTYPE, OFFSET_DTYPE, LabeledGraph
from repro.graph.partition import (
    cross_machine_label_pairs,
    pack_label_pairs,
    partitioner_from_name,
    partitioner_name,
)
from repro.storage.delta import (
    DeltaLog,
    DeltaRecord,
    NormalizedLog,
    normalize_records,
    splice_csr,
    upsert_rows,
)
from repro.storage.provider import attach_columns
from repro.storage.snapshot import (
    SnapshotManifest,
    covering_id_map,
    read_manifest,
    write_snapshot,
)
from repro.utils.arrays import membership_mask


def cluster_config_from_manifest(manifest: SnapshotManifest) -> ClusterConfig:
    """Rebuild a :class:`ClusterConfig` from a manifest's cloud section.

    An unknown (custom) partitioner name falls back to the paper-default
    hash partitioner.
    """
    return ClusterConfig(
        machine_count=manifest.machine_count,
        partitioner=partitioner_from_name(manifest.cloud.get("partitioner", "hash")),
        track_label_pairs=bool(manifest.cloud.get("track_label_pairs", True)),
    )


def image_graph(
    columns: Dict[str, np.ndarray],
    machine_count: int,
    label_table: LabelTable,
    edge_count: int,
) -> LabeledGraph:
    """The graph an image holds — the one way from a cloud image to a
    :class:`LabeledGraph`, for every reader that needs the graph rather
    than the cloud.

    One O(graph) pass, the inverse of ``load_graph``'s per-machine gather:
    every machine's rows land at their position in global (sorted node ID)
    row order.  A lone machine's partition already is the graph's CSR, so
    its columns are adopted as they are.
    """
    node_ids = columns["graph/node_ids"]
    partitions = [
        tuple(columns[f"machine{machine_id}/{column}"] for column in MACHINE_COLUMNS)
        for machine_id in range(machine_count)
    ]
    if machine_count == 1:
        return LabeledGraph.from_csr(
            label_table, node_ids, columns["graph/label_ids"],
            *partitions[0][2:], edge_count,
        )
    # Global row of every machine-local row (empty partitions index nothing).
    rows = [np.searchsorted(node_ids, ids_m) for ids_m, *_ in partitions]
    counts = np.zeros(len(node_ids), dtype=OFFSET_DTYPE)
    for rows_m, (_ids_m, _labels_m, offsets_m, _neighbors_m) in zip(rows, partitions):
        counts[rows_m] = np.diff(offsets_m)
    offsets = np.zeros(len(node_ids) + 1, dtype=OFFSET_DTYPE)
    np.cumsum(counts, out=offsets[1:])
    neighbors = np.empty(int(offsets[-1]), dtype=NODE_DTYPE)
    for rows_m, (_ids_m, _labels_m, offsets_m, neighbors_m) in zip(rows, partitions):
        local_counts = np.diff(offsets_m)
        scatter = np.arange(int(offsets_m[-1]), dtype=OFFSET_DTYPE) + np.repeat(
            offsets[:-1][rows_m] - offsets_m[:-1], local_counts
        )
        neighbors[scatter] = neighbors_m
    return LabeledGraph.from_csr(
        label_table, node_ids, columns["graph/label_ids"],
        offsets, neighbors, edge_count,
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
    label_pair_base, label_pairs = cloud.packed_label_pairs()
    label_pair_keys = []
    for (low, high), packed in sorted(label_pairs.items()):
        arrays[f"labelpairs/{low}_{high}"] = packed
        label_pair_keys.append([int(low), int(high)])
    cloud_meta = {
        "machine_count": cloud.machine_count,
        "partitioner": partitioner_name(cloud.config.partitioner),
        "track_label_pairs": cloud.config.track_label_pairs,
        "label_pair_base": int(label_pair_base),
        "label_pairs": label_pair_keys,
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
) -> Tuple[Dict[str, np.ndarray], dict]:
    """Attach ``manifest``'s image in its stored shape and merge ``records``.

    The one way every reader opens a snapshot.  Returns the columns and the
    rest of :meth:`MemoryCloud._install`'s keywords.  ``config`` places the
    nodes the log adds (its partitioner) and says whether label pairs are
    wanted (its ``track_label_pairs``); its machine count is not consulted.
    """
    columns, handles = manifest.attach_image()
    label_pairs: Dict[Tuple[int, int], np.ndarray] = {}
    if config.track_label_pairs:
        label_pairs, pair_handles = attach_columns(
            {
                (int(low), int(high)): manifest.spec(f"labelpairs/{low}_{high}")
                for low, high in manifest.cloud.get("label_pairs", ())
            }
        )
        handles += pair_handles
    label_table = LabelTable(manifest.labels)
    edge_count = manifest.edge_count
    packed_pairs = (int(manifest.cloud.get("label_pair_base", 1)), label_pairs)
    if records:
        columns, label_table, edge_count, packed_pairs = _overlay(
            config, manifest, records, columns, packed_pairs
        )
    elif config.track_label_pairs and not manifest.cloud.get("track_label_pairs", True):
        # Installing the (absent) stored keys would tell the planner that no
        # label pair crosses machines, and it would prune every load set.
        packed_pairs = _derived_label_pairs(
            columns, manifest.machine_count, label_table, edge_count
        )
    return columns, dict(
        label_table=label_table,
        edge_count=edge_count,
        id_map=covering_id_map(manifest, columns["graph/node_ids"]),
        label_pairs=packed_pairs,
        backing=handles,
    )


def parsed_snapshot_graph(
    manifest: SnapshotManifest, records: Sequence[DeltaRecord]
) -> LabeledGraph:
    """The graph of an already-parsed snapshot, ``records`` merged in: the
    image opened in its stored shape (:func:`_open_image`), then
    :func:`image_graph`."""
    config = replace(cluster_config_from_manifest(manifest), track_label_pairs=False)
    columns, state = _open_image(manifest, records, config)
    graph = image_graph(
        columns, manifest.machine_count, state["label_table"], state["edge_count"]
    )
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
        # asked for, so make one from the graph the image holds.
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
    packed_pairs: Tuple[int, Dict[Tuple[int, int], np.ndarray]],
) -> Tuple[Dict[str, np.ndarray], LabelTable, int, Tuple[int, Dict]]:
    """Splice pending ``records`` into the attached image of ``manifest``.

    Returns the merged ``(columns, label table, edge count, packed label
    pairs)``.  Costs the log plus one block copy of each column the log
    changes; every other column stays the ``np.memmap`` view it was
    attached as:

    * Assignment is sticky: a node the snapshot holds keeps its stored
      machine (as on a clean open); only nodes the log adds are placed, by
      ``config``'s partitioner.  ``assignment/machines`` and
      ``graph/node_ids`` are copied only when there are such nodes,
      ``graph/label_ids`` only for them or a relabel.
    * Each machine's partition takes the node records it owns and the
      half-edges leaving its nodes through :func:`splice_csr`, so a machine
      no record touches keeps all four of its columns file-backed.
    * Label pairs: see :func:`_overlay_label_pairs`.
    """
    machine_count = manifest.machine_count
    delta = normalize_records(
        records, manifest.labels, columns["graph/node_ids"], columns["graph/label_ids"]
    )
    node_ids, label_ids, inserted = upsert_rows(
        columns["graph/node_ids"], columns["graph/label_ids"],
        delta.node_ids, delta.label_ids,
    )
    machines = columns["assignment/machines"]
    columns = {**columns, "graph/label_ids": label_ids}
    if len(inserted):
        new_ids = delta.node_ids[delta.is_new]
        new_nodes = LabeledGraph.from_csr(
            delta.label_table, new_ids, delta.label_ids[delta.is_new],
            np.zeros(len(new_ids) + 1, dtype=OFFSET_DTYPE),
            np.empty(0, dtype=NODE_DTYPE), 0,
        )
        placed = config.partitioner.assign(new_nodes, machine_count)
        machines = np.insert(machines, inserted, placed.machine_array_for(new_ids))
        columns["graph/node_ids"] = node_ids
        columns["assignment/machines"] = machines

    named_owner = machines[np.searchsorted(node_ids, delta.node_ids)]
    source_owner = machines[np.searchsorted(node_ids, delta.sources)]
    added = 0
    for machine_id in range(machine_count):
        names = [f"machine{machine_id}/{column}" for column in MACHINE_COLUMNS]
        named_here = named_owner == machine_id
        leaving = source_owner == machine_id
        if not (named_here.any() or leaving.any()):
            continue
        partition, added_here = splice_csr(
            tuple(columns[name] for name in names),
            delta.node_ids[named_here], delta.label_ids[named_here],
            delta.sources[leaving], delta.targets[leaving],
        )
        columns.update(zip(names, partition))
        added += added_here
    # The stored CSR is symmetric, so new half-edges come in mirrored pairs.
    edge_count = manifest.edge_count + added // 2

    label_pairs: Tuple[int, Dict] = (1, {})
    if config.track_label_pairs:
        label_pairs = _overlay_label_pairs(
            manifest, delta, columns, edge_count, packed_pairs
        )
    return columns, delta.label_table, edge_count, label_pairs


def _derived_label_pairs(
    columns: Dict[str, np.ndarray],
    machine_count: int,
    label_table: LabelTable,
    edge_count: int,
) -> Tuple[int, Dict[Tuple[int, int], np.ndarray]]:
    """Packed label pairs re-derived from an image's partitions: O(graph)."""
    return cross_machine_label_pairs(
        image_graph(columns, machine_count, label_table, edge_count),
        columns["assignment/machines"],
        machine_count,
    )


def _overlay_label_pairs(
    manifest: SnapshotManifest,
    delta: NormalizedLog,
    columns: Dict[str, np.ndarray],
    edge_count: int,
    packed_pairs: Tuple[int, Dict[Tuple[int, int], np.ndarray]],
) -> Tuple[int, Dict[Tuple[int, int], np.ndarray]]:
    """The merged image's packed label pairs, derived from the log alone.

    Nodes keep their machine and (unless relabelled) their label, so every
    stored key stays true: the result is the stored keys — re-encoded when
    the log interned a label, because the packing base is the label count —
    united with the keys of the log's edges; a machine pair the log adds
    nothing to keeps its file-backed array.  Only a relabelled node can make
    a stored key vanish; then, and when the snapshot stored no keys at all
    (it was saved without tracking), they are re-derived from the merged
    partitions, which is the one O(graph) step an overlay can take.
    """
    machine_count = manifest.machine_count
    node_ids, label_ids = columns["graph/node_ids"], columns["graph/label_ids"]
    machines = columns["assignment/machines"]
    if not delta.is_new.all() or not manifest.cloud.get("track_label_pairs", True):
        return _derived_label_pairs(
            columns, machine_count, delta.label_table, edge_count
        )

    forward = delta.sources < delta.targets
    source_rows = np.searchsorted(node_ids, delta.sources[forward])
    target_rows = np.searchsorted(node_ids, delta.targets[forward])
    base, fresh_pairs = pack_label_pairs(
        label_ids[source_rows], label_ids[target_rows],
        machines[source_rows], machines[target_rows],
        len(delta.label_table), machine_count,
    )
    stored_base, stored_pairs = packed_pairs
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
    ``np.memmap`` views, except those a pending delta log changed (and a
    graph-only snapshot's partition map), which live in RAM.  Another
    machine count is partitioned afresh from the image's graph.  ``manifest.json`` and ``deltas.log`` are each parsed
    once.
    """
    manifest = read_manifest(directory, verify=verify)
    return open_parsed_snapshot(manifest, DeltaLog(manifest.directory).read(), config)
