"""Unified zero-copy column storage: one provider API, shm + mmap backends.

Two mechanisms in this codebase hand numpy arrays across an ownership
boundary without copying per element:

* the multiprocess cluster runtime publishes every machine's CSR columns
  into POSIX shared memory (:mod:`repro.utils.shm`), and
* the persistent snapshot store lays the same columns out in a file and
  reopens them via ``np.memmap``.

Both are the same operation — *expose a named typed array as a zero-copy
view* — so both live behind one :class:`~repro.storage.provider.StorageProvider`
abstraction: a provider turns arrays into picklable
:class:`~repro.storage.provider.ArraySpec` descriptions, and
:func:`~repro.storage.provider.attach_spec` maps any spec (shm or mmap)
back into a view.  The cluster runtime ships specs to worker processes;
the snapshot layer records them in a versioned manifest with checksums.

Layered on the mmap backend:

* :mod:`repro.storage.snapshot` — persistent CSR snapshots: save a
  :class:`~repro.graph.labeled_graph.LabeledGraph` once, reopen in
  near-constant time;
* :mod:`repro.storage.cloud_snapshot` — the same for a loaded
  :class:`~repro.cloud.cluster.MemoryCloud`: persists its ``columns()``
  and reopens them through the cloud's installer (imported on demand —
  it depends on :mod:`repro.cloud`);
* :mod:`repro.storage.delta` — a log-structured write path: an append-only
  edge/label delta log replayed over the base snapshot at open time, with
  explicit compaction into a new base generation.
"""

from repro.storage.provider import (
    ArraySpec,
    MmapArraySpec,
    MmapStorageProvider,
    ShmStorageProvider,
    StorageProvider,
    attach_spec,
)
from repro.storage.snapshot import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    SnapshotManifest,
    open_graph_snapshot,
    read_manifest,
    save_graph_snapshot,
    snapshot_exists,
)
from repro.storage.delta import (
    DeltaLog,
    DeltaRecord,
    compact_snapshot,
    replay_deltas,
)

__all__ = [
    "ArraySpec",
    "MmapArraySpec",
    "MmapStorageProvider",
    "ShmStorageProvider",
    "StorageProvider",
    "attach_spec",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "SnapshotManifest",
    "open_graph_snapshot",
    "read_manifest",
    "save_graph_snapshot",
    "snapshot_exists",
    "DeltaLog",
    "DeltaRecord",
    "compact_snapshot",
    "replay_deltas",
]
