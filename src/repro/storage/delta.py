"""Log-structured writes over a base snapshot: append, merge, compact.

A snapshot's base columns are immutable (readers hold ``np.memmap`` views
into them), so updates take the log-structured route instead of mutating
in place — the same discipline LogBase applies to its cloud storage:

* **append** — :class:`DeltaLog` appends edge/label records to a plain
  text ``deltas.log`` next to the manifest; an append is one ``write``
  syscall, never a rewrite of the columns.
* **merge** — one way, for every reader, and not a rebuild:
  :func:`normalize_records` digests the log (the only Python loop, and it
  is over the log), and :mod:`repro.storage.cloud_snapshot` splices it into
  the attached image's global CSR with one :func:`splice_csr` —
  only the rows an endpoint touches are searched, each changed column is
  written in one block copy, and every other column stays the very array
  (``np.memmap`` view) it was.  Cost: the log, plus a copy of what it
  changes.
* **compact** — :func:`compact_snapshot` opens the snapshot that way, writes
  the result as a new base generation and truncates the log, restoring a
  fully file-backed reopen.

The log is idempotent by construction: an edge its row already holds is
dropped by the splice, and a node record for an existing ID is a relabel.
A crash between the compacted base landing and the log truncating therefore
replays harmlessly.

Record grammar (tab-separated, one record per line; ``#`` comments and
blank lines ignored)::

    edge<TAB>u<TAB>v
    node<TAB>id<TAB>label

A label is written only if that grammar reads it back unchanged: not empty,
no leading or trailing whitespace, no tab, CR or LF (:meth:`DeltaRecord.line`).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.errors import StorageError
from repro.graph.label_table import LabelTable
from repro.graph.labeled_graph import LABEL_DTYPE, NODE_DTYPE, OFFSET_DTYPE
from repro.storage.snapshot import DELTA_LOG_NAME, SnapshotManifest, read_manifest
from repro.utils.arrays import membership_mask, sorted_lookup


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
        """The record's serialized log line (no newline).

        Raises:
            StorageError: for a self-loop edge, which no merge accepts, or
                a node label the line grammar cannot read back — empty,
                padded with whitespace, or holding a tab, CR or LF.
        """
        if self.op == "edge":
            if self.node_id == self.other:
                raise StorageError(
                    f"edge {self.node_id}-{self.other}: a self-loop cannot be "
                    "written to a delta log"
                )
            return f"edge\t{self.node_id}\t{self.other}"
        label = self.label
        if not label or label != label.strip() or any(c in label for c in "\t\r\n"):
            raise StorageError(
                f"node {self.node_id}: label {label!r} cannot be written to a "
                "delta log (empty, leading/trailing whitespace, or tab/CR/LF)"
            )
        return f"node\t{self.node_id}\t{label}"


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

        Every record is serialized before the file is opened, so a record
        that cannot be (see :meth:`DeltaRecord.line`) leaves the log as it
        was.  Returns the number of records appended.
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


class NormalizedLog(NamedTuple):
    """A parsed log, normalized against the node IDs it is merged into.

    Attributes:
        label_table: the base's labels plus every label the log interned,
            in record order.
        node_ids: sorted IDs a node record adds or relabels (the latest
            record of an ID wins; one restating the base's label is dropped).
        label_ids: their labels, parallel.
        is_new: which of ``node_ids`` the base does not hold.
        sources / targets: the edge records as directed half-edges (both
            orientations), sorted by ``(source, target)`` and duplicate-free.
    """

    label_table: LabelTable
    node_ids: np.ndarray
    label_ids: np.ndarray
    is_new: np.ndarray
    sources: np.ndarray
    targets: np.ndarray


def normalize_records(
    records: Sequence[DeltaRecord],
    labels: Sequence[str],
    node_ids: np.ndarray,
    label_ids: np.ndarray,
) -> NormalizedLog:
    """Digest ``records`` against a base's sorted ``node_ids`` / ``label_ids``.

    The only Python-level loop of a merge, and it is over the log.  Every
    check a rebuild of the graph would make happens here, before anything
    is spliced.

    Raises:
        StorageError: on a self-loop, or an edge endpoint that neither the
            base nor a node record anywhere in the log labels.
    """
    table = LabelTable(labels)
    labelled: dict = {}  # id -> label_id, later records win
    edges: List[Tuple[int, int]] = []
    for record in records:
        if record.op == "edge":
            edges.append((record.node_id, record.other))
        else:
            labelled[record.node_id] = table.intern(record.label)
    named = np.fromiter(labelled.keys(), dtype=NODE_DTYPE, count=len(labelled))
    named_labels = np.fromiter(
        labelled.values(), dtype=LABEL_DTYPE, count=len(labelled)
    )
    order = np.argsort(named)
    named, named_labels = named[order], named_labels[order]
    rows, held = sorted_lookup(node_ids, named)
    effective = ~held
    effective[held] = label_ids[rows[held]] != named_labels[held]
    named, named_labels, held = named[effective], named_labels[effective], held[effective]

    first, second = np.asarray(edges, dtype=NODE_DTYPE).reshape(-1, 2).T
    loops = first == second
    if loops.any():
        raise StorageError(
            "delta log replay failed: self-loop on node "
            f"{int(first[np.argmax(loops)])} is not allowed"
        )
    new_ids = named[~held]
    first_missing, second_missing = (
        ~(membership_mask(node_ids, end) | membership_mask(new_ids, end))
        for end in (first, second)
    )
    missing = first_missing | second_missing
    if missing.any():
        at = int(np.argmax(missing))
        bad = int(first[at]) if first_missing[at] else int(second[at])
        raise StorageError(
            f"delta log replay failed: edge endpoint {bad} has no label"
        )

    sources = np.concatenate((first, second))
    targets = np.concatenate((second, first))
    order = np.lexsort((targets, sources))
    sources, targets = sources[order], targets[order]
    distinct = np.ones(len(sources), dtype=bool)
    distinct[1:] = (sources[1:] != sources[:-1]) | (targets[1:] != targets[:-1])
    return NormalizedLog(
        table, named, named_labels, ~held, sources[distinct], targets[distinct]
    )


def _positions_in_rows(
    neighbors: np.ndarray, starts: np.ndarray, stops: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """``searchsorted`` of each target inside its own ``neighbors[start:stop]``.

    A lock-step bisection over all targets at once: as many vectorized
    rounds as the longest touched row has bits, and no element of
    ``neighbors`` outside the touched rows is read.
    """
    low, high = starts.copy(), stops.copy()
    active = low < high
    while active.any():
        middle = (low + high) >> 1
        right = active.copy()
        right[active] = neighbors[middle[active]] < targets[active]
        low = np.where(right, middle + 1, low)
        high = np.where(active & ~right, middle, high)
        active = low < high
    return low


def splice_csr(
    csr: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    named: np.ndarray,
    named_labels: np.ndarray,
    sources: np.ndarray,
    targets: np.ndarray,
) -> Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], int]:
    """Splice node records and half-edges into a ``(node_ids, label_ids,
    offsets, neighbors)`` CSR; returns the new quadruple and the number of
    half-edges it did not already hold.

    ``named`` / ``named_labels`` are sorted node records: an ID the columns
    hold is relabelled, any other becomes a row.  ``sources`` / ``targets``
    are directed half-edges
    sorted by ``(source, target)`` and duplicate-free, every source a row
    of the result.  Only the touched rows are searched; a half-edge its row
    already holds is dropped.  Each column that changes is written in one
    pass (``np.insert``, offsets by ``cumsum``) and each column that does
    not is returned as the very object handed in, so ``np.memmap`` views
    stay file-backed.
    """
    base_ids, label_ids, offsets, neighbors = csr
    node_ids = base_ids
    rows, held = sorted_lookup(base_ids, named)
    if held.any():
        label_ids = np.array(label_ids)  # the base may be a read-only view
        label_ids[rows[held]] = named_labels[held]
    inserted = np.searchsorted(base_ids, named[~held])
    if len(inserted):
        node_ids = np.insert(base_ids, inserted, named[~held])
        label_ids = np.insert(label_ids, inserted, named_labels[~held])
    # Row of each source in the old columns (for a new node: where its row
    # goes, an empty row) bounds the slice its target is searched in.
    old_rows = np.searchsorted(base_ids, sources)
    starts = offsets[old_rows]
    stops = offsets[old_rows + membership_mask(base_ids, sources)]
    positions = _positions_in_rows(neighbors, starts, stops, targets)
    inside = np.flatnonzero(positions < stops)
    fresh = np.ones(len(targets), dtype=bool)
    fresh[inside] = neighbors[positions[inside]] != targets[inside]
    added = int(fresh.sum())
    if added:
        # Equal positions keep their (source, target) order, which is row
        # order and then neighbor order: exactly the CSR invariant.
        neighbors = np.insert(neighbors, positions[fresh], targets[fresh])
    if added or len(inserted):
        counts = np.diff(offsets)
        if len(inserted):
            counts = np.insert(counts, inserted, 0)
        counts += np.bincount(
            np.searchsorted(node_ids, sources[fresh]), minlength=len(counts)
        )
        offsets = np.zeros(len(counts) + 1, dtype=OFFSET_DTYPE)
        np.cumsum(counts, out=offsets[1:])
    return (node_ids, label_ids, offsets, neighbors), added


def compact_snapshot(directory: str | Path, verify: bool = False) -> SnapshotManifest:
    """Fold the delta log into a new base snapshot generation.

    Opens the snapshot exactly as a reader would (the log merged into the
    image, which keeps its partitioning; see
    :func:`repro.storage.cloud_snapshot.open_cloud_snapshot`), rewrites it in
    place (data file then manifest, each atomically replaced) with
    ``generation + 1`` in the current format, and truncates the log, so
    the compacted base reopens with every column file-backed again.  A
    graph-only snapshot is rewritten as a one-machine cloud snapshot.  With
    an empty log this is a no-op returning the current manifest.  A failed
    write leaves the directory, log included, as it was.
    ``manifest.json`` and ``deltas.log`` are each parsed once.

    Callers holding an open cloud over this directory should reopen it.

    Raises:
        StorageError: when the log adds a node outside the snapshot's
            persisted ``id_map`` (:meth:`SnapshotManifest.id_map_covers`).
            Opening such a snapshot serves dense IDs with a warning;
            folding it would drop the caller's external IDs for good, so
            nothing is written.
    """
    from repro.storage.cloud_snapshot import open_parsed_snapshot, save_cloud_snapshot

    manifest = read_manifest(directory, verify=verify)
    log = DeltaLog(manifest.directory)
    records = log.read()
    if not records:
        return manifest
    for record in records:
        if record.op == "node" and not manifest.id_map_covers(record.node_id):
            raise StorageError(
                f"cannot compact snapshot {manifest.directory}: node "
                f"{record.node_id} lies outside its id_map "
                f"({manifest.id_map['count']} external IDs); re-ingest the "
                "dataset instead"
            )
    new_manifest = save_cloud_snapshot(
        open_parsed_snapshot(manifest, records),
        directory,
        generation=manifest.generation + 1,
    )
    log.clear()
    return new_manifest
