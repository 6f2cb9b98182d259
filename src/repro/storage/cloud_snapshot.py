"""Persisting a loaded :class:`~repro.cloud.cluster.MemoryCloud`: save, load, open.

The cloud exposes its image (:meth:`MemoryCloud.columns
<repro.cloud.cluster.MemoryCloud.columns>` plus a little plain metadata);
this module persists it.  Beyond the image a cloud snapshot stores what is
derived from it — the global ``graph/offsets|neighbors`` CSR (so the
directory is also a plain graph snapshot) and the packed
``labelpairs/{a}_{b}`` keys — under the names :mod:`repro.storage.snapshot`
documents.  Opening attaches the image's columns by name as read-only
``np.memmap`` views and hands them to the cloud's one installer, so opening
costs file metadata, not a data scan.

:meth:`MemoryCloud.save_snapshot`, ``.load_snapshot`` and ``.open_snapshot``
are the public spellings of the three functions here.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from repro.cloud.cluster import MACHINE_COLUMNS, MemoryCloud, column_names
from repro.cloud.config import ClusterConfig
from repro.graph.label_table import LabelTable
from repro.graph.labeled_graph import NODE_DTYPE, OFFSET_DTYPE
from repro.graph.partition import partitioner_from_name, partitioner_name
from repro.storage.delta import DeltaLog
from repro.storage.provider import attach_columns
from repro.storage.snapshot import (
    GRAPH_ARRAY_NAMES,
    SnapshotManifest,
    graph_from_manifest,
    read_manifest,
    write_snapshot,
)


def cluster_config_from_manifest(manifest: SnapshotManifest) -> ClusterConfig:
    """Rebuild a :class:`ClusterConfig` from a manifest's cloud section.

    A graph-only manifest yields the default config; an unknown (custom)
    partitioner name falls back to the paper-default hash partitioner.
    """
    cloud_meta = manifest.cloud or {}
    return ClusterConfig(
        machine_count=manifest.machine_count or ClusterConfig().machine_count,
        partitioner=partitioner_from_name(cloud_meta.get("partitioner", "hash")),
        track_label_pairs=bool(cloud_meta.get("track_label_pairs", True)),
    )


def _global_csr(
    columns: Dict[str, np.ndarray], machine_count: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Global ``(offsets, neighbors)`` scattered back from machine partitions.

    The inverse of ``load_graph``'s per-machine gather: every machine's
    rows land at their position in global (sorted node ID) row order.
    """
    node_ids = columns["graph/node_ids"]
    partitions = [
        tuple(columns[f"machine{machine_id}/{column}"] for column in MACHINE_COLUMNS)
        for machine_id in range(machine_count)
    ]
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
    return offsets, neighbors


def save_cloud_snapshot(
    cloud: MemoryCloud, directory: str | Path, *, generation: int = 1
) -> SnapshotManifest:
    """Persist ``cloud``'s image to ``directory``; returns the manifest written.

    Raises:
        CloudError: when no graph has been loaded into ``cloud``.
    """
    columns = cloud.columns()
    # The four graph columns lead the file (the layout every snapshot since
    # version 1 has), then the rest of the image in its own order.
    arrays = {**dict.fromkeys(GRAPH_ARRAY_NAMES), **columns}
    arrays["graph/offsets"], arrays["graph/neighbors"] = _global_csr(
        columns, cloud.machine_count
    )
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


def _load(cloud: MemoryCloud, manifest: SnapshotManifest) -> float:
    """Load ``cloud`` from an already-parsed manifest; parses the log once."""
    records = DeltaLog(manifest.directory).read()
    if (
        records
        or not manifest.has_cloud_state
        or manifest.machine_count != cloud.machine_count
    ):
        # Pending deltas, a graph-only snapshot, or another cluster shape:
        # the stored partitions do not describe the cloud asked for.
        return cloud.load_graph(graph_from_manifest(manifest, records))

    started = time.perf_counter()
    specs = {
        name: manifest.spec(name) for name in column_names(manifest.machine_count)
    }
    columns, handles = attach_columns(specs)
    label_pairs: Dict[Tuple[int, int], np.ndarray] = {}
    if cloud.config.track_label_pairs:
        label_pairs, pair_handles = attach_columns(
            {
                (int(low), int(high)): manifest.spec(f"labelpairs/{low}_{high}")
                for low, high in manifest.cloud.get("label_pairs", ())
            }
        )
        handles += pair_handles
    cloud._install(
        columns,
        label_table=LabelTable(manifest.labels),
        edge_count=manifest.edge_count,
        id_map=manifest.load_id_map(),
        label_pairs=(int(manifest.cloud.get("label_pair_base", 1)), label_pairs),
        backing=handles,
        file_specs=specs,
    )
    cloud.loading_seconds = time.perf_counter() - started
    return cloud.loading_seconds


def load_cloud_snapshot(
    cloud: MemoryCloud, directory: str | Path, *, verify: bool = False
) -> float:
    """(Re)load ``cloud`` from a snapshot directory; returns the loading seconds.

    When the snapshot stores cloud state for this machine count and its
    delta log is empty, every column is adopted as a read-only ``np.memmap``
    view and the cloud reports the mmap specs as its
    :attr:`~repro.cloud.cluster.MemoryCloud.storage_publication`.  Otherwise
    (pending deltas, graph-only snapshot, or a different machine count) the
    graph is rebuilt with the delta overlay replayed and partitioned afresh.
    Either way ``load_generation`` is bumped.  ``manifest.json`` and
    ``deltas.log`` are each parsed once.
    """
    return _load(cloud, read_manifest(directory, verify=verify))


def open_cloud_snapshot(
    directory: str | Path,
    config: ClusterConfig | None = None,
    *,
    verify: bool = False,
) -> MemoryCloud:
    """Open a snapshot as a fresh cloud.

    Without an explicit ``config`` the cluster shape (machine count,
    partitioner) recorded in the manifest is used, so a cloud round-trips
    through save/open unchanged.
    """
    manifest = read_manifest(directory, verify=verify)
    cloud = MemoryCloud(config or cluster_config_from_manifest(manifest))
    _load(cloud, manifest)
    return cloud
