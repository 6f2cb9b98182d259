"""Task-graph primitives of the executor API: tasks and their results.

The runtime's :meth:`~repro.runtime.Executor.run` interface runs one task at
a time: the engine describes *what* to compute — one :class:`ExploreTask`
per exploration stage, one :class:`JoinTask` per query — and backends differ
only in *scheduling* (inline, or worker processes with work stealing).  A
backend cuts a task into units: a stage into chunks of its roots, by its
own worker count (a stage's simulated machines are ranges of its roots,
not units), a join into one unit per machine.  Tasks and results are plain
values: an exploration result is the stage's factorized
:class:`~repro.core.result.StageTable` (no STwig row exists yet), a join
result the machines' final-column-ordered rows in machine order, and the
process backend pickles them down and back up its pipes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.result import StageTable
from repro.core.stwig import STwig
from repro.graph.labeled_graph import NODE_DTYPE


@dataclass
class ExploreTask:
    """One exploration stage: ``stwig`` over all of the stage's roots.

    ``roots`` are owner-ordered, machine ``m``'s being ``roots[cuts[m] :
    cuts[m + 1]]`` (the driver computes and charges the partition once per
    stage).  Backends may cut ``roots`` into consecutive chunks for work
    stealing, on any boundary: chunk results concatenate in chunk order to
    exactly the unchunked stage, because the kernel keeps root order and
    charges per root/neighbor.
    """

    stwig: STwig
    query: object
    bindings: object
    roots: np.ndarray
    cuts: np.ndarray


@dataclass
class JoinTask:
    """One query's gather+join over its exploration stage tables.

    Its units are the machines, never split for work stealing: the
    cooperative budget's exact-prefix guarantee is per machine, and every
    machine joins against its own view of one budget of ``row_limit`` rows.
    """

    plan: object
    tables: Sequence[StageTable]  # [stwig_index]
    bindings: object
    row_limit: Optional[int] = None


def empty_rows(width: int) -> np.ndarray:
    """A zero-row result-row block of the given width."""
    return np.empty((0, width), dtype=NODE_DTYPE)
