"""Log-structured writes over a base snapshot: append, replay, compact.

A snapshot's base columns are immutable (readers hold ``np.memmap`` views
into them), so updates take the log-structured route instead of mutating
in place — the same discipline LogBase applies to its cloud storage:

* **append** — :class:`DeltaLog` appends edge/label records to a plain
  text ``deltas.log`` next to the manifest; an append is one ``write``
  syscall, never a rewrite of the columns.
* **replay** — :func:`replay_deltas` merges the log over a base graph at
  open time, producing the up-to-date graph as an in-RAM overlay (the
  vectorized bulk-ingest path of
  :meth:`~repro.graph.labeled_graph.LabeledGraph.from_arrays` does the
  heavy lifting).
* **compact** — :func:`compact_snapshot` folds the log into a new base
  generation and truncates it, restoring near-constant reopen cost.

The log is idempotent by construction: re-adding an edge the base already
has collapses in the duplicate-edge dedup of the bulk loader, and a node
record for an existing ID is a relabel.  A crash between the compacted
base landing and the log truncating therefore replays harmlessly.

Record grammar (tab-separated, one record per line; ``#`` comments and
blank lines ignored)::

    edge<TAB>u<TAB>v
    node<TAB>id<TAB>label
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.errors import GraphError, StorageError
from repro.storage.snapshot import (
    DELTA_LOG_NAME,
    SnapshotManifest,
    graph_from_manifest,
    read_manifest,
    save_graph_snapshot,
)


@dataclass(frozen=True)
class DeltaRecord:
    """One log record: either an undirected edge or a node (re)label.

    Attributes:
        op: ``"edge"`` or ``"node"``.
        node_id: first endpoint (edge) or the labeled node (node).
        other: second endpoint for edge records, 0 otherwise.
        label: node label for node records, ``""`` otherwise.
    """

    op: str
    node_id: int
    other: int = 0
    label: str = ""

    def line(self) -> str:
        """The record's serialized log line (no newline)."""
        if self.op == "edge":
            return f"edge\t{self.node_id}\t{self.other}"
        return f"node\t{self.node_id}\t{self.label}"


class DeltaLog:
    """The append-only edge/label log of one snapshot directory."""

    def __init__(self, directory: str | Path) -> None:
        self._path = Path(directory).resolve() / DELTA_LOG_NAME

    @property
    def path(self) -> Path:
        """Path of the log file (may not exist until the first append)."""
        return self._path

    def exists(self) -> bool:
        """True when the log file exists (even if empty)."""
        return self._path.is_file()

    def size_bytes(self) -> int:
        """Size of the log file in bytes (0 when absent)."""
        return self._path.stat().st_size if self.exists() else 0

    def append(self, records: Iterable[DeltaRecord]) -> int:
        """Append records (one ``open``/``write`` for the whole batch).

        Returns the number of records appended.
        """
        lines = [record.line() for record in records]
        if not lines:
            return 0
        with open(self._path, "a", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        return len(lines)

    def append_edges(self, edges: Iterable[Tuple[int, int]]) -> int:
        """Append undirected edges as ``edge`` records."""
        return self.append(
            DeltaRecord("edge", int(u), int(v)) for u, v in edges
        )

    def append_nodes(self, nodes: Iterable[Tuple[int, str]]) -> int:
        """Append ``(node_id, label)`` pairs as ``node`` records."""
        return self.append(
            DeltaRecord("node", int(node_id), label=str(label))
            for node_id, label in nodes
        )

    def read(self) -> List[DeltaRecord]:
        """Parse the whole log, in append order.

        Raises:
            StorageError: on a malformed record, naming ``path:line``.
        """
        if not self.exists():
            return []
        records: List[DeltaRecord] = []
        with open(self._path, "r", encoding="utf-8") as handle:
            for number, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split("\t")
                try:
                    if parts[0] == "edge" and len(parts) == 3:
                        records.append(
                            DeltaRecord("edge", int(parts[1]), int(parts[2]))
                        )
                        continue
                    if parts[0] == "node" and len(parts) == 3:
                        records.append(
                            DeltaRecord("node", int(parts[1]), label=parts[2])
                        )
                        continue
                except ValueError:
                    pass
                raise StorageError(
                    f"{self._path}:{number}: malformed delta record {line!r}"
                )
        return records

    def count(self) -> int:
        """Number of records currently in the log."""
        return len(self.read())

    def clear(self) -> None:
        """Truncate the log (after compaction folded it into the base)."""
        if self.exists():
            self._path.unlink()


def replay_deltas(base, records: Sequence[DeltaRecord]):
    """Merge log records over ``base``, returning the up-to-date graph.

    Node records for unknown IDs add nodes; for existing IDs they relabel.
    Edge records for edges the base already has are no-ops (the bulk
    loader collapses duplicates).  The result is a fresh in-RAM
    :class:`~repro.graph.labeled_graph.LabeledGraph`; ``base`` (possibly
    memmap-backed) is never mutated.

    Raises:
        StorageError: when a record is inconsistent with the graph (edge
            endpoint without a label, self-loop).
    """
    from repro.graph.label_table import LabelTable
    from repro.graph.labeled_graph import LABEL_DTYPE, NODE_DTYPE, LabeledGraph

    if not records:
        return base
    node_ids = np.asarray(base.node_id_array())
    # Copy: relabels scatter into it, and the base may be a read-only view.
    label_ids = np.array(base.label_id_array(), dtype=LABEL_DTYPE)
    table = LabelTable(base.label_table.labels())

    added: dict = {}  # id -> label_id, later records win
    edge_sources: List[int] = []
    edge_targets: List[int] = []
    for record in records:
        if record.op == "edge":
            edge_sources.append(record.node_id)
            edge_targets.append(record.other)
            continue
        label_id = table.intern(record.label)
        row = int(np.searchsorted(node_ids, record.node_id))
        if row < len(node_ids) and int(node_ids[row]) == record.node_id:
            label_ids[row] = label_id
        else:
            added[record.node_id] = label_id

    all_ids = np.concatenate(
        (node_ids, np.fromiter(added.keys(), dtype=NODE_DTYPE, count=len(added)))
    )
    all_labels = np.concatenate(
        (
            label_ids,
            np.fromiter(added.values(), dtype=LABEL_DTYPE, count=len(added)),
        )
    )
    counts = np.diff(base.offset_array())
    neighbors = base.neighbor_array()
    sources = np.repeat(node_ids, counts)
    forward = sources < neighbors
    src = np.concatenate(
        (sources[forward], np.asarray(edge_sources, dtype=NODE_DTYPE))
    )
    dst = np.concatenate(
        (neighbors[forward], np.asarray(edge_targets, dtype=NODE_DTYPE))
    )
    try:
        return LabeledGraph.from_arrays(table, all_ids, all_labels, src, dst)
    except GraphError as error:
        raise StorageError(f"delta log replay failed: {error}")


def compact_snapshot(directory: str | Path, verify: bool = False) -> SnapshotManifest:
    """Fold the delta log into a new base snapshot generation.

    Replays the log over the base, rewrites the snapshot in place (data
    file then manifest, each atomically replaced) with ``generation + 1``,
    and truncates the log.  A snapshot that stored cloud state is
    re-partitioned with the partitioner recorded in its manifest, so the
    compacted base reopens on the fast path again.  With an empty log this
    is a no-op returning the current manifest.  ``manifest.json`` and
    ``deltas.log`` are each parsed once.

    Callers holding an open cloud over this directory should reopen (or
    :meth:`~repro.cloud.cluster.MemoryCloud.load_snapshot`, which bumps
    ``load_generation`` and thereby invalidates plan caches).
    """
    manifest = read_manifest(directory, verify=verify)
    log = DeltaLog(manifest.directory)
    records = log.read()
    if not records:
        return manifest
    merged = graph_from_manifest(manifest, records)
    generation = manifest.generation + 1
    if manifest.has_cloud_state:
        from repro.cloud.cluster import MemoryCloud
        from repro.storage.cloud_snapshot import cluster_config_from_manifest

        cloud = MemoryCloud.from_graph(merged, cluster_config_from_manifest(manifest))
        new_manifest = cloud.save_snapshot(directory, generation=generation)
    else:
        new_manifest = save_graph_snapshot(
            merged, directory, generation=generation
        )
    log.clear()
    return new_manifest
