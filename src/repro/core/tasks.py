"""Task-graph primitives of the executor API: tasks, results, table handles.

The runtime's :meth:`~repro.runtime.Executor.run` interface is a uniform
task graph: the engine describes *what* to compute — one
:class:`ExploreTask` per (stage, machine), one :class:`JoinTask` per
machine — and backends differ only in *scheduling* (inline, or a process
pool with work stealing).  Results reference their data through
:class:`TableHandle`, the single-part descriptor that keeps exploration
tables in shared memory end to end.  Its single part is a factorized
:class:`~repro.core.result.STwigTable` packed into one int64 buffer (roots,
then each slot's bounds and values; a tuple of lengths locates them) — no
STwig row is ever published:

* a worker that produced a large table publishes that buffer once
  (through the :mod:`repro.storage` provider layer) and returns only the
  handle;
* the join phase attaches the very same pages zero-copy — the driver never
  materializes intermediate tables, matching the paper's premise that the
  cluster exchanges only small control messages while bulk data stays
  resident;
* small tables stay inline (the buffer itself riding the handle), so the
  serial backend pays no publication cost at all.

Handles are *owning* descriptors: whoever holds the last reference to a
published handle must call :meth:`TableHandle.release` (the engine does,
after the join phase) or the shared-memory block leaks until interpreter
exit.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.result import STwigTable
from repro.core.stwig import STwig
from repro.errors import ExecutionError
from repro.graph.labeled_graph import NODE_DTYPE
from repro.storage.provider import attach_spec, discard_spec


class TableHandle:
    """An :class:`STwigTable`'s packed columns, described without copying them.

    Always **single-part**: ``part`` is ``None`` (empty table), a live 1-D
    int64 buffer (inline), or one storage spec (published — shm or mmap,
    both attach through :func:`~repro.storage.provider.attach_spec`);
    ``lengths`` (root count, then each slot's entry count) locate the
    columns inside it (:meth:`STwigTable.pack`).  Single-part is what makes
    the join phase's attachment zero-copy: a worker maps exactly one segment
    per table, never reassembles chunks, and the tables it yields are values
    over those very (read-only) pages.
    """

    __slots__ = ("columns", "groups", "row_count", "lengths", "part")

    def __init__(
        self,
        columns: Sequence[str],
        groups: Sequence[Tuple[int, ...]],
        row_count: int,
        lengths: Sequence[int],
        part,
    ) -> None:
        self.columns: Tuple[str, ...] = tuple(columns)
        self.groups = tuple(groups)
        self.row_count = int(row_count)
        self.lengths = tuple(lengths)
        self.part = part

    # -- constructors ------------------------------------------------------

    @classmethod
    def of(cls, table: STwigTable) -> "TableHandle":
        """Pack ``table`` inline (one copy of its slot columns, no rows)."""
        if table.row_count == 0:
            return cls.empty(table.columns)
        buffer, lengths = table.pack()
        return cls(table.columns, table.groups, table.row_count, lengths, buffer)

    @classmethod
    def empty(cls, columns: Sequence[str]) -> "TableHandle":
        """Handle of a zero-row table."""
        return cls(columns, (), 0, (), None)

    # -- access ------------------------------------------------------------

    def _table(self, buffer: np.ndarray) -> STwigTable:
        return STwigTable.unpack(
            self.columns, self.groups, self.row_count, buffer, self.lengths
        )

    @contextmanager
    def attach(self) -> Iterator[STwigTable]:
        """Zero-copy :class:`STwigTable` over the handle's data.

        Published handles map their segment for the duration of the
        ``with`` block only; anything derived from the yielded table that
        outlives the block must be copied first.
        """
        if self.part is None:
            if self.row_count:
                raise ExecutionError(
                    f"table handle for {self.columns} was already released"
                )
            yield STwigTable(self.columns)
        elif isinstance(self.part, np.ndarray):
            yield self._table(self.part)
        else:
            handle, view = attach_spec(self.part)
            try:
                yield self._table(view)
            finally:
                handle.close()

    def materialize(self) -> STwigTable:
        """A table safe to keep: inline data is wrapped, published data copied."""
        with self.attach() as table:
            if self.part is None or isinstance(self.part, np.ndarray):
                return table
            return self._table(table.pack()[0])

    def release(self) -> None:
        """Retire published storage (idempotent; empty and inline handles no-op)."""
        if self.part is not None and not isinstance(self.part, np.ndarray):
            part, self.part = self.part, None
            discard_spec(part)

    def __repr__(self) -> str:
        kind = (
            "empty"
            if self.part is None
            else ("inline" if isinstance(self.part, np.ndarray) else "published")
        )
        return (
            f"TableHandle(columns={self.columns}, rows={self.row_count}, {kind})"
        )


#: The join phase's input: handles[machine_id][stwig_index].
TableMatrix = Sequence[Sequence[TableHandle]]


@contextmanager
def attached_matrix(handles: TableMatrix) -> Iterator[List[List[STwigTable]]]:
    """Attach a whole handle matrix, yielding zero-copy ``STwigTable``s.

    Attachment-scoped like :meth:`TableHandle.attach`: rows taken out of the
    yielded tables must be copied before the ``with`` block exits.
    """
    with ExitStack() as stack:
        yield [
            [stack.enter_context(handle.attach()) for handle in machine]
            for machine in handles
        ]


def release_matrix(handles: TableMatrix) -> None:
    """Release every handle in the matrix (idempotent)."""
    for machine in handles:
        for handle in machine:
            handle.release()


@dataclass
class ExploreTask:
    """One machine's share of one exploration stage.

    ``roots`` is this machine's owner-partitioned root candidate array (the
    driver computes and charges the partition once per stage); backends may
    split it further into chunks for work stealing — chunked sub-results
    concatenate in chunk order to exactly the unchunked table, because
    ``match_stwig`` keeps root order and charges per root/neighbor.
    """

    machine_id: int
    stwig: STwig
    query: object
    bindings: object
    roots: np.ndarray


@dataclass
class JoinTask:
    """One machine's gather+join over the exploration handle matrix.

    Join tasks are **never** split for work stealing: the cooperative
    budget's exact-prefix guarantee is per machine-ordered task, and all
    join tasks of one :meth:`~repro.runtime.Executor.run` call share one
    budget (``row_limit`` must agree across them).
    """

    machine_id: int
    plan: object
    tables: TableMatrix
    bindings: object
    row_limit: Optional[int] = None


@dataclass
class ExploreResult:
    """One :class:`ExploreTask`'s outcome: the table handle plus its
    per-column sorted-distinct arrays (the binding contribution the proxy
    merges — shipped instead of the table itself, so the driver can update
    bindings without ever materializing worker tables)."""

    machine_id: int
    table: TableHandle
    distincts: Dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class JoinResult:
    """One :class:`JoinTask`'s outcome: final-column-ordered result rows."""

    machine_id: int
    rows: np.ndarray


def explore_result(machine_id: int, table: STwigTable) -> ExploreResult:
    """Package a ``match_stwig`` table (every backend's one way to): its
    inline handle and its per-column distincts."""
    distincts = table.distincts() if table.row_count else {}
    return ExploreResult(machine_id, TableHandle.of(table), distincts)


def empty_rows(width: int) -> np.ndarray:
    """A zero-row result-row block of the given width."""
    return np.empty((0, width), dtype=NODE_DTYPE)
