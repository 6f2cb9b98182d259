"""Zero-copy column storage: snapshots, the delta log, shm and mmap specs.

Two mechanisms in this codebase hand numpy arrays across an ownership
boundary without copying per element: the multiprocess cluster runtime
publishes every machine's CSR columns into POSIX shared memory
(:mod:`repro.utils.shm`), and the persistent snapshot store lays the same
columns out in a file and reopens them via ``np.memmap``.  Both describe an
array by a picklable spec, and :func:`~repro.storage.provider.attach_spec`
maps either kind back into a view (:mod:`repro.storage.provider`).

On the mmap side:

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
    ArraySpec,
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
    "ArraySpec",
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
