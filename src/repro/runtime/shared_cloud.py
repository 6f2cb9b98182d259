"""Publishing a loaded :class:`MemoryCloud` to worker processes, and back.

The process executor's contract is that the graph is **never pickled per
task**.  Instead:

* :func:`publish_cloud` turns the cloud's image — the named arrays of
  :meth:`MemoryCloud.columns` — into a name -> spec map.  A cloud whose
  columns already live in a snapshot file (``storage_publication``) ships
  the manifest's own mmap specs and copies nothing; otherwise each column
  is published once into ``multiprocessing`` shared memory;
* :func:`rebuild_cloud` runs inside each worker process, attaches every
  spec by name — shm and mmap specs go through the same
  :func:`~repro.storage.provider.attach_spec` dispatch — and hands the
  views to the cloud's one installer.  Dense lookup tables — the
  node->row, node->machine, and node->label acceleration structures — are
  deliberately *not* shipped: each worker derives its own, so the caches
  live in per-process memory while the billion-edge-shaped payload stays
  shared.

Only the graph passes through here: result tables, bindings and roots are
shipped by the executor itself (see :mod:`repro.runtime.executors`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.graph.label_table import LabelTable
from repro.storage.provider import ArraySpec, attach_columns
from repro.utils.shm import SegmentRegistry


@dataclass(frozen=True)
class CloudHandle:
    """Picklable description of a published cloud: its image, by name.

    ``specs`` maps every :func:`~repro.cloud.cluster.column_names` entry to
    the storage spec of that column — shm or mmap, workers attach either —
    and the rest is the small plain-data state (label strings, machine
    count, edge count).  Each worker receives the handle once, when it is
    started.
    """

    machine_count: int
    labels: Tuple[str, ...]
    edge_count: int
    specs: Dict[str, ArraySpec]


def publish_cloud(cloud: MemoryCloud) -> Tuple[CloudHandle, SegmentRegistry]:
    """Publish ``cloud``'s image for worker processes.

    Returns the worker-facing :class:`CloudHandle` and the
    :class:`SegmentRegistry` owning any published blocks; closing it
    unlinks every segment.  Called once per (executor, cloud) pair.

    For a file-backed cloud the returned registry is empty: nothing is
    copied, and there is nothing to unlink — the file outlives every
    process by design.
    """
    registry = SegmentRegistry()
    specs = cloud.storage_publication
    if specs is None:
        try:
            specs = {
                name: registry.publish(column)
                for name, column in cloud.columns().items()
            }
        except Exception:
            registry.close()
            raise
    handle = CloudHandle(
        machine_count=cloud.machine_count,
        labels=cloud.label_table.labels(),
        edge_count=cloud.edge_count,
        specs=specs,
    )
    return handle, registry


def rebuild_cloud(handle: CloudHandle) -> MemoryCloud:
    """Worker-side: reconstruct a cloud over zero-copy views of its image.

    The rebuilt cloud keeps its attached segments referenced (they stay
    mapped for the worker's lifetime) and owns fresh per-process lazy
    caches; label-pair metadata is absent because plans — including load
    sets — are computed on the driver and shipped with each task.
    """
    columns, segments = attach_columns(handle.specs)
    cloud = MemoryCloud(
        ClusterConfig(machine_count=handle.machine_count, track_label_pairs=False)
    )
    cloud._install(
        columns,
        label_table=LabelTable(handle.labels),
        edge_count=handle.edge_count,
        backing=segments,
    )
    return cloud
