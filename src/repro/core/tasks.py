"""Task-graph primitives of the executor API: tasks and their results.

The runtime's :meth:`~repro.runtime.Executor.run` interface is a uniform
task graph: the engine describes *what* to compute — one
:class:`ExploreTask` per (stage, machine), one :class:`JoinTask` per
machine — and backends differ only in *scheduling* (inline, or worker
processes with work stealing).  Tasks and results are plain values: an
exploration result carries its factorized
:class:`~repro.core.result.STwigTable` itself (no STwig row exists yet), and
the process backend pickles them down and back up its pipes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.result import STwigTable
from repro.core.stwig import STwig
from repro.graph.labeled_graph import NODE_DTYPE

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
    """One machine's gather+join over the exploration table matrix.

    Join tasks are **never** split for work stealing: the cooperative
    budget's exact-prefix guarantee is per machine-ordered task, and all
    join tasks of one :meth:`~repro.runtime.Executor.run` call share one
    budget (``row_limit`` must agree across them).
    """

    machine_id: int
    plan: object
    tables: Sequence[Sequence[STwigTable]]  # [machine_id][stwig_index]
    bindings: object
    row_limit: Optional[int] = None


@dataclass
class ExploreResult:
    """One :class:`ExploreTask`'s outcome: the factorized table plus its
    per-column sorted-distinct arrays (the binding contribution the proxy
    merges, computed where the table was built)."""

    machine_id: int
    table: STwigTable
    distincts: Dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class JoinResult:
    """One :class:`JoinTask`'s outcome: final-column-ordered result rows."""

    machine_id: int
    rows: np.ndarray


def explore_result(machine_id: int, table: STwigTable) -> ExploreResult:
    """Package a ``match_stwig`` table (every backend's one way to) with its
    per-column distincts."""
    distincts = table.distincts() if table.row_count else {}
    return ExploreResult(machine_id, table, distincts)


def empty_rows(width: int) -> np.ndarray:
    """A zero-row result-row block of the given width."""
    return np.empty((0, width), dtype=NODE_DTYPE)
