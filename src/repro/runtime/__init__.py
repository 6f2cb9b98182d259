"""Cluster execution runtime: pluggable task-graph executors.

The engine's exploration phase, one :class:`ExploreTask` per stage, is
submitted through the uniform :meth:`Executor.run` loop; the two backends
(serial / worker processes forked from the loaded cloud, with work stealing
over root chunks) differ only in how the loop's units get run while
preserving, exactly, the serial model's results and counters.  The graph
never leaves the process that loaded it: workers inherit it, and only tasks
and their results (factorized stage tables) cross the workers' pipes.  The
join runs in the calling process on every backend
(:func:`~repro.core.distributed.assemble_results`).  See
:mod:`repro.runtime.executors` for the backends and :mod:`repro.core.tasks`
for the task type.

Backend selection::

    matcher = SubgraphMatcher(cloud, executor="process")        # explicit
    matcher = SubgraphMatcher(cloud)        # REPRO_EXECUTOR env, or serial
"""

from repro.cloud.config import (
    EXECUTOR_BACKENDS,
    EXECUTOR_ENV_VAR,
    RuntimeConfig,
    resolve_backend,
)
from repro.core.tasks import ExploreTask
from repro.runtime.executors import (
    Executor,
    ExecutorSpec,
    ProcessExecutor,
    SerialExecutor,
    create_executor,
)

__all__ = [
    "EXECUTOR_BACKENDS",
    "EXECUTOR_ENV_VAR",
    "Executor",
    "ExecutorSpec",
    "ExploreTask",
    "ProcessExecutor",
    "RuntimeConfig",
    "SerialExecutor",
    "create_executor",
    "resolve_backend",
]
