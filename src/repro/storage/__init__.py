"""Zero-copy column storage: snapshots, the delta log, mmap specs.

The persistent snapshot store lays a cloud's columns out in one file and
reopens them as ``np.memmap`` views: each array is described by an
:class:`~repro.storage.provider.MmapArraySpec`, and
:func:`~repro.storage.provider.attach_spec` maps it back into a view
(:mod:`repro.storage.provider`).

* :mod:`repro.storage.snapshot` — the snapshot format: a versioned
  manifest over one column file holding a
  :class:`~repro.cloud.cluster.MemoryCloud`'s image, reopened in
  near-constant time; a graph is derived from the image;
* :mod:`repro.storage.cloud_snapshot` — saving a loaded cloud's
  ``columns()`` and opening a snapshot: the one way its image is attached
  and a pending log merged in, for clouds and graphs alike;
* :mod:`repro.storage.delta` — a log-structured write path: an append-only
  edge/label delta log merged into the image at open time, with explicit
  compaction into a new base generation.
"""

from repro.storage.provider import (
    MmapArraySpec,
    MmapColumnWriter,
    attach_spec,
)
from repro.storage.snapshot import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    SnapshotManifest,
    open_graph_snapshot,
    read_manifest,
    snapshot_exists,
)
from repro.storage.delta import (
    DeltaLog,
    DeltaRecord,
    compact_snapshot,
)

__all__ = [
    "MmapArraySpec",
    "MmapColumnWriter",
    "attach_spec",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "SnapshotManifest",
    "open_graph_snapshot",
    "read_manifest",
    "snapshot_exists",
    "DeltaLog",
    "DeltaRecord",
    "compact_snapshot",
]
