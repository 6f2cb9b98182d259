"""Simulated Trinity-style memory cloud: partitioned in-memory graph store."""

from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig, NetworkModel
from repro.cloud.machine import Machine
from repro.cloud.metrics import CloudMetrics

__all__ = [
    "MemoryCloud",
    "ClusterConfig",
    "NetworkModel",
    "Machine",
    "CloudMetrics",
]
