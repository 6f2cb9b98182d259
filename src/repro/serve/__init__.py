"""The always-on serving layer: a resident cloud behind a concurrent API.

:class:`~repro.serve.service.QueryService` keeps one loaded
:class:`~repro.cloud.cluster.MemoryCloud` resident (for the process backend,
with its workers forked from it) and multiplexes many concurrent queries over
one shared matcher — thread-safe ``submit``, an asyncio front-end, per-query
admission control, and a drain-before-teardown shutdown.
"""

from repro.serve.service import QueryService, ServiceConfig, ServiceStats

__all__ = ["QueryService", "ServiceConfig", "ServiceStats"]
