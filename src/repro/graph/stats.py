"""Descriptive statistics over labeled graphs.

Used by the bench harness to report workload characteristics (Table 1 data
columns, degree distributions of the look-alike datasets) and by the query
planner, which needs global label frequencies to compute the paper's
``f(v) = deg(v) / freq(label(v))`` selectivity ranking.

Also home of :class:`GenerationReport`, the record every synthetic generator
attaches to its output graph: rejection sampling (duplicate edges,
self-loops) can make the achieved edge count undershoot the requested
``node_count * average_degree / 2`` target, and before this record existed
the shortfall left no trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.graph.labeled_graph import LabeledGraph


@dataclass(frozen=True)
class GenerationReport:
    """How a synthetic generator arrived at its edge set.

    Attributes:
        model: generator name (``"rmat"``, ``"chung-lu"``, ``"gnm"``, ...).
        target_edges: the edge count the parameters asked for.
        achieved_edges: the edge count actually produced.
        sampling_rounds: resampling rounds (scalar generators report their
            attempt loop as one round).
        rejected_self_loops: endpoint draws discarded as self-loops.
        rejected_duplicates: endpoint draws discarded as duplicate edges.
    """

    model: str
    target_edges: int
    achieved_edges: int
    sampling_rounds: int = 1
    rejected_self_loops: int = 0
    rejected_duplicates: int = 0

    @property
    def shortfall(self) -> int:
        """Edges the retry budget gave up on (0 when the target was met)."""
        return max(0, self.target_edges - self.achieved_edges)

    @property
    def achieved_ratio(self) -> float:
        """``achieved_edges / target_edges`` (1.0 for an empty target)."""
        if self.target_edges <= 0:
            return 1.0
        return self.achieved_edges / self.target_edges

    def as_row(self) -> Dict[str, object]:
        """Flat dict for table rendering."""
        return {
            "model": self.model,
            "target_edges": self.target_edges,
            "achieved_edges": self.achieved_edges,
            "shortfall": self.shortfall,
            "achieved_ratio": round(self.achieved_ratio, 4),
            "sampling_rounds": self.sampling_rounds,
            "rejected_self_loops": self.rejected_self_loops,
            "rejected_duplicates": self.rejected_duplicates,
        }


def attach_generation_report(graph: LabeledGraph, report: GenerationReport) -> LabeledGraph:
    """Record ``report`` on ``graph`` (readable via :func:`generation_report`)."""
    graph.generation = report
    return graph


def generation_report(graph: LabeledGraph) -> Optional[GenerationReport]:
    """Return the :class:`GenerationReport` of ``graph`` if a generator set one."""
    return getattr(graph, "generation", None)


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics of a labeled graph."""

    node_count: int
    edge_count: int
    label_count: int
    min_degree: int
    max_degree: int
    average_degree: float
    label_density: float
    #: Edge target the generator was asked for (``None`` for non-generated
    #: graphs); with :attr:`edge_count` this exposes rejection shortfall.
    target_edge_count: Optional[int] = None

    @property
    def achieved_edge_ratio(self) -> Optional[float]:
        """``edge_count / target_edge_count`` when the target is known.

        ``None`` for non-generated graphs; 1.0 for an empty (zero-edge)
        target, mirroring :attr:`GenerationReport.achieved_ratio`.
        """
        if self.target_edge_count is None:
            return None
        if self.target_edge_count <= 0:
            return 1.0
        return self.edge_count / self.target_edge_count

    def as_row(self) -> Dict[str, float]:
        """Return the statistics as a flat dict for table rendering."""
        row = {
            "nodes": self.node_count,
            "edges": self.edge_count,
            "labels": self.label_count,
            "min_degree": self.min_degree,
            "max_degree": self.max_degree,
            "avg_degree": round(self.average_degree, 3),
            "label_density": self.label_density,
        }
        if self.target_edge_count is not None:
            row["target_edges"] = self.target_edge_count
            row["achieved_edge_ratio"] = round(self.achieved_edge_ratio, 4)
        return row


def compute_stats(graph: LabeledGraph) -> GraphStats:
    """Compute :class:`GraphStats` for ``graph`` (one vectorized pass)."""
    degrees = np.diff(graph.offset_array())
    label_count = len(np.unique(graph.label_id_array())) if graph.node_count else 0
    node_count = graph.node_count
    report = generation_report(graph)
    return GraphStats(
        node_count=node_count,
        edge_count=graph.edge_count,
        label_count=label_count,
        min_degree=int(degrees.min()) if len(degrees) else 0,
        max_degree=int(degrees.max()) if len(degrees) else 0,
        average_degree=(2.0 * graph.edge_count / node_count) if node_count else 0.0,
        label_density=(label_count / node_count) if node_count else 0.0,
        target_edge_count=report.target_edges if report is not None else None,
    )


def degree_summary(graph: LabeledGraph) -> Dict[str, float]:
    """Summary statistics of the degree sequence (used by parity tests).

    Returns mean, standard deviation, max, and the 50/90/99th percentiles —
    the distribution facts the scalar-vs-vectorized generator equivalence is
    judged on.
    """
    degrees = np.diff(graph.offset_array())
    if not len(degrees):
        return {"mean": 0.0, "std": 0.0, "max": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0}
    p50, p90, p99 = np.percentile(degrees, (50, 90, 99))
    return {
        "mean": float(degrees.mean()),
        "std": float(degrees.std()),
        "max": float(degrees.max()),
        "p50": float(p50),
        "p90": float(p90),
        "p99": float(p99),
    }

