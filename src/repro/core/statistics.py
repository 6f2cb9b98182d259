"""Optional data statistics for statistics-aware query optimization.

The paper's optimization deliberately assumes *no* data statistics beyond
global label frequencies, but notes that "such statistics can be used
directly to further improve the optimization strategy" (Section 1.3).  This
module implements that extension: :class:`EdgeStatistics` records how many
data edges connect each unordered pair of labels, and the decomposition
uses those counts to pick the most selective query edges first whenever the
planner is given them (``SubgraphMatcher(cloud, statistics=...)``).

Statistics are collected once from the
:class:`~repro.graph.labeled_graph.LabeledGraph`; they are O(#labels²) in
size — still tiny compared to any structural index.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping

from repro.graph.labeled_graph import LabeledGraph


class EdgeStatistics:
    """Label frequencies plus label-pair edge counts of one data graph."""

    def __init__(
        self,
        label_frequencies: Mapping[str, int],
        pair_frequencies: Mapping[FrozenSet[str], int],
        edge_count: int,
    ) -> None:
        self._label_frequencies = dict(label_frequencies)
        self._pair_frequencies = dict(pair_frequencies)
        self._edge_count = max(1, edge_count)

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_graph(cls, graph: LabeledGraph) -> "EdgeStatistics":
        """Collect statistics with one pass over the graph's edges."""
        pairs: Dict[FrozenSet[str], int] = {}
        for u, v in graph.edges():
            key = frozenset((graph.label(u), graph.label(v)))
            pairs[key] = pairs.get(key, 0) + 1
        return cls(graph.label_frequencies(), pairs, graph.edge_count)

    # -- lookups -------------------------------------------------------------

    def label_frequency(self, label: str) -> int:
        """Number of nodes with ``label`` (0 if unseen)."""
        return self._label_frequencies.get(label, 0)

    def pair_frequency(self, label_a: str, label_b: str) -> int:
        """Number of data edges whose endpoint labels are {label_a, label_b}."""
        return self._pair_frequencies.get(frozenset((label_a, label_b)), 0)

    @property
    def total_edges(self) -> int:
        """Number of edges the statistics were collected from."""
        return self._edge_count

    def size_in_entries(self) -> int:
        """Statistics footprint (labels + label pairs) — stays tiny."""
        return len(self._label_frequencies) + len(self._pair_frequencies)
