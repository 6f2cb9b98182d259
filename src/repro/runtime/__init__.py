"""Cluster execution runtime: pluggable task-graph executors.

The engine's two distributed phases — STwig exploration and the per-machine
gather+join — are described as batches of :class:`ExploreTask` /
:class:`JoinTask` and submitted through the uniform
:meth:`Executor.run` loop; the two backends (serial / worker processes
forked from the loaded cloud, with work stealing) differ only in how the
loop's units get run while preserving, exactly, the serial model's results
and communication counters.  The graph never leaves the process that
loaded it: workers inherit it, and only tasks and their results (factorized
STwig tables, result rows) cross the workers' pipes.  See
:mod:`repro.runtime.executors` for the backends and :mod:`repro.core.tasks`
for the task/result types.

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
from repro.core.tasks import (
    ExploreResult,
    ExploreTask,
    JoinResult,
    JoinTask,
)
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
    "ExploreResult",
    "ExploreTask",
    "JoinResult",
    "JoinTask",
    "ProcessExecutor",
    "RuntimeConfig",
    "SerialExecutor",
    "create_executor",
    "resolve_backend",
]
