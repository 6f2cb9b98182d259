"""Labeled-graph substrate: containers, IO, statistics, partitioning."""

from repro.graph.label_table import LabelTable
from repro.graph.labeled_graph import LabeledGraph, NodeCell
from repro.graph.partition import (
    BlockPartitioner,
    HashPartitioner,
    Partitioner,
    RoundRobinPartitioner,
)
from repro.graph.stats import GraphStats, compute_stats

__all__ = [
    "LabeledGraph",
    "LabelTable",
    "NodeCell",
    "GraphStats",
    "compute_stats",
    "Partitioner",
    "HashPartitioner",
    "RoundRobinPartitioner",
    "BlockPartitioner",
]
