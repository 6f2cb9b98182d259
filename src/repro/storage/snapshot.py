"""Persistent snapshots: versioned manifest + one aligned column file.

A snapshot is a directory holding a :class:`~repro.cloud.cluster.MemoryCloud`'s
image exactly as it lives in RAM:

``manifest.json``
    Versioned description of everything else: format name/version, a
    monotonically increasing *generation* (bumped by compaction), node and
    edge counts, the interned label table, the cloud section (machine
    count, partitioner, label-pair metadata) and one entry per stored array
    (name, byte offset, shape, dtype, CRC32).  Offsets are relative to the
    data file, so a snapshot directory can be moved or copied freely.
``columns.bin``
    Every array appended at a 64-byte-aligned offset by
    :class:`~repro.storage.provider.MmapColumnWriter`.  Reopening attaches
    ``np.memmap`` views — no bytes are read until faulted in, so opening a
    million-node graph costs file metadata, not array scans.
``deltas.log``
    Optional append-only edge/label log (see :mod:`repro.storage.delta`)
    merged into the image at open time.

Arrays are named as the image's columns
(:func:`~repro.cloud.cluster.column_names`), plus ``labelpairs/{a}_{b}``
(packed cross-machine label-pair keys).  Version 1 snapshots also stored a
global ``graph/offsets|neighbors`` copy and an ``assignment/ids`` alias;
readers ignore both.  A directory of the retired graph-only kind (the four
``graph/*`` CSR columns, no cloud section) is read at parse as a
one-machine image: its CSR is ``machine0/*``, and its all-zero partition
map is built in RAM (:attr:`SnapshotManifest.resident`).  Nothing after
the parse tells the two apart.

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

from repro.cloud.cluster import MACHINE_COLUMNS, column_names
from repro.errors import StorageError
from repro.graph.partition import MACHINE_DTYPE
from repro.storage.provider import (
    MmapArraySpec,
    MmapColumnWriter,
    attach_columns,
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

#: The cloud section a graph-only manifest is read with (no label-pair keys).
GRAPH_ONLY_CLOUD = {"machine_count": 1, "partitioner": "hash", "track_label_pairs": False}


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
            data file.
        checksums: name -> CRC32 recorded at write time.
        cloud: cloud section (machine count, partitioner name, packed
            label-pair metadata).
        id_map: ``id_map`` manifest section (external-ID kind and count;
            see :class:`repro.ingest.IdMap`) or ``None`` when the stored
            node IDs are the caller's own.
        resident: image columns the data file does not hold, built at
            parse (only a graph-only snapshot's partition map).
    """

    directory: Path
    version: int
    generation: int
    node_count: int
    edge_count: int
    labels: Tuple[str, ...]
    arrays: Dict[str, MmapArraySpec] = field(default_factory=dict)
    checksums: Dict[str, int] = field(default_factory=dict)
    cloud: dict = field(default_factory=dict)
    id_map: Optional[dict] = None
    resident: Dict[str, np.ndarray] = field(default_factory=dict)

    def spec(self, name: str) -> MmapArraySpec:
        """The spec of array ``name``; raises StorageError when absent."""
        spec = self.arrays.get(name)
        if spec is None:
            raise StorageError(f"snapshot {self.directory} has no array {name!r}")
        return spec

    def attach(self, name: str):
        """Attach array ``name``, returning ``(handle, view)``."""
        return attach_spec(self.spec(name))

    def attach_image(self) -> Tuple[Dict[str, np.ndarray], List]:
        """Attach every image column as a read-only view: ``(views, handles)``.

        The :attr:`resident` columns are the in-RAM arrays themselves.
        """
        views, handles = attach_columns(
            {
                name: self.spec(name)
                for name in column_names(self.machine_count)
                if name not in self.resident
            }
        )
        views.update(self.resident)
        return views, handles

    @property
    def machine_count(self) -> int:
        """Machines in the stored image."""
        return int(self.cloud["machine_count"])

    def id_map_covers(self, node_id: int) -> bool:
        """False only for a node ID outside the persisted id_map's dense
        domain (``0 <= id < len(map)``): its external ID is unknown."""
        return self.id_map is None or 0 <= node_id < int(self.id_map["count"])

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
    added nodes the persisted map never saw (see
    :meth:`SnapshotManifest.id_map_covers`), external-ID translation would
    be wrong: a warning is issued and ``None`` returned, so the reopened
    graph reports its stored (dense) IDs until the dataset is re-ingested.
    ``None`` also when the snapshot persists no map.
    """
    id_map = manifest.load_id_map()
    if id_map is None or not len(node_ids):
        return id_map
    low, high = int(node_ids[0]), int(node_ids[-1])
    if manifest.id_map_covers(low) and manifest.id_map_covers(high):
        return id_map
    reason = f"{low} < 0" if low < 0 else f"{high} >= {len(id_map)}"
    warnings.warn(
        f"snapshot {manifest.directory} has nodes beyond its id_map "
        f"({reason}); dropping the external-ID mapping",
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
    cloud: dict,
    generation: int = 1,
    id_map=None,
) -> SnapshotManifest:
    """Write a snapshot directory from named arrays (the low-level writer).

    ``arrays`` must include every image column of the ``cloud`` section's
    machine count (:func:`~repro.cloud.cluster.column_names`); the one
    caller is :meth:`MemoryCloud.save_snapshot
    <repro.cloud.cluster.MemoryCloud.save_snapshot>`.  Data and manifest are
    written to temporaries and moved into place, so a concurrent reader
    sees either the old snapshot or the new one; on any failure the
    temporaries are removed before the error propagates.
    """
    for name in column_names(int(cloud["machine_count"])):
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
        with MmapColumnWriter(data_tmp) as writer:
            for name, array in arrays.items():
                spec = writer.publish(np.asarray(array))
                entries.append({"name": name, "offset": spec.offset,
                                "shape": list(spec.shape), "dtype": spec.dtype})
            for entry, crc in zip(entries, writer.checksums()):
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
            "cloud": cloud,
        }
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

    cloud = doc.get("cloud")
    resident: Dict[str, np.ndarray] = {}
    if cloud is None:
        # Graph-only: one machine whose partition is the whole CSR.
        cloud = dict(GRAPH_ONLY_CLOUD)
        for column in MACHINE_COLUMNS:
            name = f"graph/{column}"
            if name not in arrays:
                raise _missing_array(target, name)
            arrays[f"machine0/{column}"] = arrays[name]
            checksums[f"machine0/{column}"] = checksums[name]
        resident["assignment/machines"] = np.zeros(
            arrays["graph/node_ids"].shape, dtype=MACHINE_DTYPE
        )
    manifest = SnapshotManifest(
        directory=target,
        version=version,
        generation=int(doc.get("generation", 1)),
        node_count=int(doc["node_count"]),
        edge_count=int(doc["edge_count"]),
        labels=tuple(doc.get("labels", ())),
        arrays=arrays,
        checksums=checksums,
        cloud=cloud,
        id_map=doc.get("id_map"),
        resident=resident,
    )
    for name in column_names(manifest.machine_count):
        if name not in arrays and name not in resident:
            raise _missing_array(target, name)
    return manifest


def _missing_array(target: Path, name: str) -> StorageError:
    return StorageError(f"snapshot {target} is missing required array {name!r}")


def open_graph_snapshot(directory: str | Path, *, verify: bool = False):
    """Reopen a snapshot as a :class:`~repro.graph.labeled_graph.LabeledGraph`.

    The image is opened as every reader opens it — attached, a pending
    delta log merged in (:func:`repro.storage.cloud_snapshot.parsed_snapshot_graph`)
    — and the graph derived from it.  Columns the derivation does not
    change (node and label IDs; a one-machine image's whole CSR) stay
    read-only ``np.memmap`` views.

    Returns the graph; its ``snapshot_manifest`` attribute carries the
    parsed :class:`SnapshotManifest` for callers that need the metadata.
    """
    from repro.storage.cloud_snapshot import parsed_snapshot_graph
    from repro.storage.delta import DeltaLog

    manifest = read_manifest(directory, verify=verify)
    graph = parsed_snapshot_graph(manifest, DeltaLog(manifest.directory).read())
    graph.snapshot_manifest = manifest
    return graph
