"""Persistent CSR snapshots: versioned manifest + one aligned column file.

A snapshot is a directory holding the graph's columns exactly as they live
in RAM:

``manifest.json``
    Versioned description of everything else: format name/version, a
    monotonically increasing *generation* (bumped by compaction), node and
    edge counts, the interned label table, and one entry per stored array
    (name, byte offset, shape, dtype, CRC32).  Offsets are relative to the
    data file, so a snapshot directory can be moved or copied freely.
``columns.bin``
    Every array appended at a 64-byte-aligned offset by
    :class:`~repro.storage.provider.MmapStorageProvider`.  Reopening
    attaches ``np.memmap`` views — no bytes are read until faulted in, so
    opening a million-node graph costs file metadata, not array scans.
``deltas.log``
    Optional append-only edge/label log (see :mod:`repro.storage.delta`)
    replayed over the base columns at open time.

Array names are namespaced.  A graph-only snapshot stores the four
``graph/*`` CSR columns (:data:`GRAPH_ARRAY_NAMES`).  A snapshot saved from
a :class:`~repro.cloud.cluster.MemoryCloud` stores the cloud's image
instead — ``graph/node_ids|label_ids``, ``assignment/machines`` (the
partition map), ``machine{i}/*`` (each machine's CSR partition) — plus
``labelpairs/{a}_{b}`` (packed cross-machine label-pair keys).  Each
adjacency list is stored once, in its owner's partition; a graph read from
a cloud snapshot is derived from the image (:func:`graph_from_manifest`).
Version 1 cloud snapshots also stored a global ``graph/offsets|neighbors``
copy and an ``assignment/ids`` alias; readers ignore both.

Both writes (``columns.bin`` then ``manifest.json``) go through temporary
files and ``os.replace``, so a crashed save or compaction never leaves a
readable-but-wrong snapshot behind: the manifest is the commit point.  A
save that fails removes its temporaries, leaving the directory as it was.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import StorageError
from repro.storage.provider import (
    MmapArraySpec,
    MmapStorageProvider,
    attach_spec,
    verify_checksum,
)

#: Format tag stored in (and required of) every manifest.
SNAPSHOT_FORMAT = "repro-csr-snapshot"
#: Highest manifest version this reader understands.
SNAPSHOT_VERSION = 2

#: File names inside a snapshot directory.
MANIFEST_NAME = "manifest.json"
DATA_NAME = "columns.bin"
DELTA_LOG_NAME = "deltas.log"

#: The four arrays of a graph-only snapshot (the single-machine CSR columns).
GRAPH_ARRAY_NAMES: Tuple[str, ...] = (
    "graph/node_ids",
    "graph/label_ids",
    "graph/offsets",
    "graph/neighbors",
)


def _required_arrays(cloud: Optional[dict]) -> Tuple[str, ...]:
    """Arrays a snapshot must store: a cloud snapshot derives the CSR."""
    return GRAPH_ARRAY_NAMES[:2] if cloud is not None else GRAPH_ARRAY_NAMES


@dataclass
class SnapshotManifest:
    """Parsed ``manifest.json`` with specs resolved against the directory.

    Attributes:
        directory: the snapshot directory (absolute).
        version: manifest format version.
        generation: base-snapshot generation; compaction writes
            ``generation + 1`` so readers can tell bases apart.
        node_count / edge_count: totals of the stored graph.
        labels: interned label table contents, in label-ID order.
        arrays: name -> :class:`MmapArraySpec` bound to this directory's
            data file (picklable; ship them to worker processes as-is).
        checksums: name -> CRC32 recorded at write time.
        cloud: cloud-state section (machine count, partitioner name, packed
            label-pair metadata) or ``None`` for graph-only snapshots.
        id_map: ``id_map`` manifest section (external-ID kind and count;
            see :class:`repro.ingest.IdMap`) or ``None`` when the stored
            node IDs are the caller's own.
    """

    directory: Path
    version: int
    generation: int
    node_count: int
    edge_count: int
    labels: Tuple[str, ...]
    arrays: Dict[str, MmapArraySpec] = field(default_factory=dict)
    checksums: Dict[str, int] = field(default_factory=dict)
    cloud: Optional[dict] = None
    id_map: Optional[dict] = None

    def spec(self, name: str) -> MmapArraySpec:
        """The spec of array ``name``; raises StorageError when absent."""
        spec = self.arrays.get(name)
        if spec is None:
            raise StorageError(
                f"snapshot {self.directory} has no array {name!r}"
            )
        return spec

    def attach(self, name: str):
        """Attach array ``name``, returning ``(handle, view)``."""
        return attach_spec(self.spec(name))

    @property
    def has_cloud_state(self) -> bool:
        """True when the snapshot stores partitioned cloud state."""
        return self.cloud is not None

    @property
    def machine_count(self) -> int:
        """Machines in the stored cloud state (0 for graph-only snapshots)."""
        return int(self.cloud["machine_count"]) if self.cloud else 0

    def verify(self) -> None:
        """Re-read every array and compare checksums.

        Raises:
            StorageError: naming the first corrupt array.
        """
        for name, spec in self.arrays.items():
            if not verify_checksum(spec, self.checksums.get(name, 0)):
                raise StorageError(
                    f"checksum mismatch for array {name!r} in snapshot "
                    f"{self.directory}"
                )

    def load_id_map(self):
        """Rebuild the persisted :class:`~repro.ingest.IdMap`, or ``None``.

        The map's arrays are copied out of the data file (they are small
        relative to the CSR columns), so the returned map holds no open
        mappings.
        """
        if self.id_map is None:
            return None
        from repro.ingest.idmap import IdMap

        def attach_copy(name: str) -> np.ndarray:
            handle, view = self.attach(name)
            try:
                return np.array(view)
            finally:
                handle.close()

        return IdMap.from_manifest(self.id_map, attach_copy)


def covering_id_map(manifest: SnapshotManifest, node_ids: np.ndarray):
    """The persisted :class:`~repro.ingest.IdMap` if it covers ``node_ids``.

    ``node_ids`` are the sorted IDs of the graph being opened.  When deltas
    appended nodes the persisted map never saw, external-ID translation
    would be wrong: a warning is issued and ``None`` returned, so the
    reopened graph reports its stored (dense) IDs until the dataset is
    re-ingested.  ``None`` also when the snapshot persists no map.
    """
    id_map = manifest.load_id_map()
    if id_map is None or not len(node_ids) or int(node_ids[-1]) < len(id_map):
        return id_map
    warnings.warn(
        f"snapshot {manifest.directory} has nodes beyond its id_map "
        f"({int(node_ids[-1])} >= {len(id_map)}); "
        "dropping the external-ID mapping",
        stacklevel=3,
    )
    return None


def snapshot_exists(directory: str | Path) -> bool:
    """True when ``directory`` holds a readable snapshot manifest."""
    return (Path(directory) / MANIFEST_NAME).is_file()


def write_snapshot(
    directory: str | Path,
    arrays: Mapping[str, np.ndarray],
    *,
    node_count: int,
    edge_count: int,
    labels: Sequence[str],
    cloud: Optional[dict] = None,
    generation: int = 1,
    id_map=None,
) -> SnapshotManifest:
    """Write a snapshot directory from named arrays (the low-level writer).

    ``arrays`` must include every :data:`GRAPH_ARRAY_NAMES` entry, or only
    ``graph/node_ids|label_ids`` when a ``cloud`` section is given; callers
    wanting the one-liner for a plain graph use :func:`save_graph_snapshot`,
    and :meth:`MemoryCloud.save_snapshot
    <repro.cloud.cluster.MemoryCloud.save_snapshot>` adds the cloud section.
    Data and manifest are written to temporaries and moved into place, so
    a concurrent reader sees either the old snapshot or the new one; on any
    failure the temporaries are removed before the error propagates.
    """
    for name in _required_arrays(cloud):
        if name not in arrays:
            raise StorageError(f"snapshot is missing required array {name!r}")
    if id_map is not None and id_map.is_identity:
        # Identity maps carry no information worth the extra columns.
        id_map = None
    if id_map is not None:
        arrays = {**arrays, **id_map.snapshot_arrays()}
    target = Path(directory).resolve()
    target.mkdir(parents=True, exist_ok=True)
    data_tmp = target / (DATA_NAME + ".tmp")
    manifest_tmp = target / (MANIFEST_NAME + ".tmp")
    try:
        entries: List[dict] = []
        with MmapStorageProvider(data_tmp, create=True) as provider:
            for name, array in arrays.items():
                spec = provider.publish(np.asarray(array))
                entries.append({"name": name, "offset": spec.offset,
                                "shape": list(spec.shape), "dtype": spec.dtype})
            for entry, crc in zip(entries, provider.checksums()):
                entry["crc32"] = crc

        manifest_doc = {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "generation": int(generation),
            "created_unix": time.time(),
            "node_count": int(node_count),
            "edge_count": int(edge_count),
            "labels": list(labels),
            "data_file": DATA_NAME,
            "arrays": entries,
        }
        if cloud is not None:
            manifest_doc["cloud"] = cloud
        if id_map is not None:
            manifest_doc["id_map"] = id_map.manifest_meta()
        manifest_tmp.write_text(json.dumps(manifest_doc, indent=1) + "\n")
        # Data first, manifest last: the manifest is the commit point.
        os.replace(data_tmp, target / DATA_NAME)
        os.replace(manifest_tmp, target / MANIFEST_NAME)
    except BaseException:
        data_tmp.unlink(missing_ok=True)
        manifest_tmp.unlink(missing_ok=True)
        raise
    return _manifest_from_doc(target, manifest_doc)


def read_manifest(directory: str | Path, verify: bool = False) -> SnapshotManifest:
    """Parse and validate ``manifest.json`` under ``directory``.

    Args:
        directory: snapshot directory.
        verify: additionally re-read every array and check its CRC32.

    Raises:
        StorageError: missing/unparsable manifest, wrong format tag, a
            version newer than this reader, a missing data file, one too
            short to hold an array the manifest lists, or (with ``verify``)
            a checksum mismatch.
    """
    target = Path(directory).resolve()
    manifest_path = target / MANIFEST_NAME
    if not manifest_path.is_file():
        raise StorageError(f"no snapshot manifest at {manifest_path}")
    try:
        doc = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise StorageError(f"unreadable snapshot manifest {manifest_path}: {error}")
    manifest = _manifest_from_doc(target, doc)
    if verify:
        manifest.verify()
    return manifest


def _manifest_from_doc(target: Path, doc: dict) -> SnapshotManifest:
    """Validate a parsed manifest document and bind it to ``target``."""
    manifest_path = target / MANIFEST_NAME
    if doc.get("format") != SNAPSHOT_FORMAT:
        raise StorageError(
            f"{manifest_path} is not a {SNAPSHOT_FORMAT} manifest "
            f"(format={doc.get('format')!r})"
        )
    version = int(doc.get("version", 0))
    if not 1 <= version <= SNAPSHOT_VERSION:
        raise StorageError(
            f"snapshot version {version} is not supported "
            f"(this reader understands 1..{SNAPSHOT_VERSION})"
        )
    data_path = target / doc.get("data_file", DATA_NAME)
    if not data_path.is_file():
        raise StorageError(f"snapshot data file {data_path} is missing")

    data_size = data_path.stat().st_size
    arrays: Dict[str, MmapArraySpec] = {}
    checksums: Dict[str, int] = {}
    for entry in doc.get("arrays", ()):
        name = entry["name"]
        spec = arrays[name] = MmapArraySpec(
            path=str(data_path),
            offset=int(entry["offset"]),
            shape=tuple(int(dim) for dim in entry["shape"]),
            dtype=str(entry["dtype"]),
        )
        extent = spec.offset + spec.nbytes
        if extent > data_size:
            # A torn data file: attaching would fail inside np.memmap.
            raise StorageError(
                f"snapshot array {name!r} ends at byte {extent} but data file "
                f"{data_path} holds {data_size} bytes"
            )
        checksums[name] = int(entry.get("crc32", 0))

    manifest = SnapshotManifest(
        directory=target,
        version=version,
        generation=int(doc.get("generation", 1)),
        node_count=int(doc["node_count"]),
        edge_count=int(doc["edge_count"]),
        labels=tuple(doc.get("labels", ())),
        arrays=arrays,
        checksums=checksums,
        cloud=doc.get("cloud"),
        id_map=doc.get("id_map"),
    )
    for name in _required_arrays(manifest.cloud):
        if name not in manifest.arrays:
            raise StorageError(
                f"snapshot {target} is missing required array {name!r}"
            )
    return manifest


def save_graph_snapshot(
    graph,
    directory: str | Path,
    *,
    generation: int = 1,
) -> SnapshotManifest:
    """Persist a :class:`~repro.graph.labeled_graph.LabeledGraph`'s columns.

    Stores only the ``graph/*`` section; saving from a cloud (which adds
    partition state) is :meth:`MemoryCloud.save_snapshot
    <repro.cloud.cluster.MemoryCloud.save_snapshot>`.
    """
    arrays = {
        "graph/node_ids": graph.node_id_array(),
        "graph/label_ids": graph.label_id_array(),
        "graph/offsets": graph.offset_array(),
        "graph/neighbors": graph.neighbor_array(),
    }
    return write_snapshot(
        directory,
        arrays,
        node_count=graph.node_count,
        edge_count=graph.edge_count,
        labels=graph.label_table.labels(),
        generation=generation,
        id_map=getattr(graph, "id_map", None),
    )


def open_graph_snapshot(
    directory: str | Path,
    *,
    replay: bool = True,
    verify: bool = False,
):
    """Reopen a snapshot as a :class:`~repro.graph.labeled_graph.LabeledGraph`.

    The base columns are adopted as read-only ``np.memmap`` views — the
    graph is usable immediately and pages fault in on first access.  With
    ``replay`` (the default) a non-empty delta log is spliced into the base
    (see :func:`repro.storage.delta.replay_deltas`): the columns it changes
    are copied into RAM, the others stay memmap views; pass ``replay=False``
    to read the base generation only.

    Returns the graph; its ``snapshot_manifest`` attribute carries the
    parsed :class:`SnapshotManifest` for callers that need the metadata.
    """
    manifest = read_manifest(directory, verify=verify)
    records = ()
    if replay:
        from repro.storage.delta import DeltaLog

        records = DeltaLog(manifest.directory).read()
    return graph_from_manifest(manifest, records)


def graph_from_manifest(manifest: SnapshotManifest, records: Sequence = ()):
    """The graph of an already-parsed snapshot, ``records`` replayed over it.

    The body of :func:`open_graph_snapshot`, for callers that have parsed
    ``manifest.json`` and ``deltas.log`` themselves (a cloud open or a
    compaction needs both for its own decisions and must not parse twice).
    A graph-only snapshot's CSR columns are adopted as they are; a cloud
    snapshot stores no global CSR, so its graph is derived from the image
    (:func:`repro.storage.cloud_snapshot.image_graph`, one O(graph) pass).
    """
    from repro.graph.label_table import LabelTable
    from repro.graph.labeled_graph import LabeledGraph

    label_table = LabelTable(manifest.labels)
    if manifest.has_cloud_state:
        from repro.cloud.cluster import column_names
        from repro.storage.cloud_snapshot import image_graph

        columns = {
            name: manifest.attach(name)[1]
            for name in column_names(manifest.machine_count)
        }
        graph = image_graph(
            columns, manifest.machine_count, label_table, manifest.edge_count
        )
    else:
        graph = LabeledGraph.from_csr(
            label_table,
            *(manifest.attach(name)[1] for name in GRAPH_ARRAY_NAMES),
            manifest.edge_count,
        )
    if records:
        from repro.storage.delta import replay_deltas

        graph = replay_deltas(graph, records)
    graph.id_map = covering_id_map(manifest, graph.node_id_array())
    graph.snapshot_manifest = manifest
    return graph
