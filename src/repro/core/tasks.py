"""The executor API's one task: an exploration stage.

The runtime's :meth:`~repro.runtime.Executor.run` interface runs one
:class:`ExploreTask` at a time: the engine describes *what* to compute, one
task per exploration stage, and backends differ only in *scheduling*
(inline, or worker processes with work stealing).  A backend cuts a stage
into chunks of its roots, by its own worker count (a stage's simulated
machines are ranges of its roots, not units).  Tasks and results are plain
values: the result is the stage's factorized
:class:`~repro.core.result.StageTable` (no STwig row exists yet), and the
process backend pickles them down and back up its pipes.  The join is not
a task: :func:`~repro.core.distributed.assemble_results` runs it in the
calling process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.stwig import STwig


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
