"""The always-on serving layer: a resident cloud behind a concurrent API.

:class:`~repro.serve.service.QueryService` keeps one loaded (and, for the
process backend, shared-memory-published) :class:`~repro.cloud.cluster.MemoryCloud`
resident and multiplexes many concurrent queries over one shared matcher —
thread-safe ``submit``, an asyncio front-end, per-query admission control,
and a drain-before-teardown shutdown.  :mod:`repro.serve.bench` drives a
service from N client threads and reduces the latencies for benchmarks.
"""

from repro.serve.bench import (
    ClientRecord,
    ServiceRun,
    percentile,
    run_concurrent_clients,
)
from repro.serve.service import QueryService, ServiceConfig, ServiceStats

__all__ = [
    "ClientRecord",
    "QueryService",
    "ServiceConfig",
    "ServiceRun",
    "ServiceStats",
    "percentile",
    "run_concurrent_clients",
]
