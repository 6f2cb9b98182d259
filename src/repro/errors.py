"""Exception hierarchy for the repro library.

All library-specific errors derive from :class:`ReproError` so callers can
catch a single base class.  Individual subsystems raise the more specific
subclasses below.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Raised for malformed graphs or invalid graph operations."""


class NodeNotFoundError(GraphError):
    """Raised when a node ID is not present in a graph or partition."""

    def __init__(self, node_id: int, where: str = "graph") -> None:
        super().__init__(f"node {node_id} not found in {where}")
        self.node_id = node_id
        self.where = where


class QueryError(ReproError):
    """Raised for malformed or unsupported query graphs."""


class DecompositionError(ReproError):
    """Raised when a query cannot be decomposed into STwigs."""


class PlanningError(ReproError):
    """Raised when query planning (ordering, head selection) fails."""


class ExecutionError(ReproError):
    """Raised when distributed query execution fails."""


class CloudError(ReproError):
    """Raised for memory-cloud level failures (bad machine, bad cell...)."""


class PartitionError(CloudError):
    """Raised when graph partitioning is inconsistent."""


class ConfigurationError(ReproError):
    """Raised for invalid cluster or engine configuration."""


class StorageError(ReproError):
    """Raised for storage-provider and snapshot failures (bad manifest,
    checksum mismatch, unknown spec, malformed delta log)."""


class ServiceError(ReproError):
    """Raised for query-service lifecycle failures (closed, drain timeout)."""


class AdmissionError(ServiceError):
    """Raised when the query service's admission control rejects a query."""
