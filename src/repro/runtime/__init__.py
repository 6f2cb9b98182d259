"""Cluster execution runtime: pluggable task-graph executors.

The engine's two distributed phases — STwig exploration and the per-machine
gather+join — are described as batches of :class:`ExploreTask` /
:class:`JoinTask` and submitted through the uniform
:meth:`Executor.run` loop; the two backends (serial / worker processes
over shared-memory CSR partitions, with work stealing) differ only in how the
loop's units get run while preserving, exactly, the serial model's results
and communication counters.  Results carry their tables as zero-copy
:class:`TableHandle`\\ s end to end.  See :mod:`repro.runtime.executors`
for the backends, :mod:`repro.core.tasks` for the task/handle types, and
:mod:`repro.runtime.shared_cloud` for the graph publication layer.

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
    TableHandle,
)
from repro.runtime.executors import (
    Executor,
    ExecutorSpec,
    ProcessExecutor,
    SerialExecutor,
    create_executor,
)
from repro.runtime.shared_cloud import (
    CloudHandle,
    publish_cloud,
    rebuild_cloud,
)

__all__ = [
    "EXECUTOR_BACKENDS",
    "EXECUTOR_ENV_VAR",
    "CloudHandle",
    "Executor",
    "ExecutorSpec",
    "ExploreResult",
    "ExploreTask",
    "JoinResult",
    "JoinTask",
    "ProcessExecutor",
    "RuntimeConfig",
    "SerialExecutor",
    "TableHandle",
    "create_executor",
    "publish_cloud",
    "rebuild_cloud",
    "resolve_backend",
]
