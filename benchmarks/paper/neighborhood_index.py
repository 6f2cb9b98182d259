"""Neighborhood-signature filter-and-verify baseline (GraphQL / Zhao & Han style).

Category 4 of Table 1: every data node is indexed with a *signature*
summarizing the labels found within radius ``r`` of it.  At query time,
candidates for a query node are the data nodes whose signature dominates the
query node's own signature (every required label appears at least as often);
surviving candidates are then verified with backtracking search.

The index size grows as ``O(n * d^r)`` — the super-linear cost Table 1
criticizes — which :func:`benchmarks.paper.cost_models` quantifies and the
Table 1 benchmark measures directly on graphs small enough to index.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional

from repro.graph.labeled_graph import LabeledGraph
from repro.query.query_graph import QueryGraph


class NeighborhoodSignatureIndex:
    """Per-node multiset of labels within radius ``r``."""

    def __init__(self, graph: LabeledGraph, radius: int = 1) -> None:
        if radius < 1:
            raise ValueError("radius must be >= 1")
        self._graph = graph
        self.radius = radius
        self._signatures: Dict[int, Counter] = {}
        for node in graph.nodes():
            self._signatures[node] = self._signature_of(node)

    def _signature_of(self, node: int) -> Counter:
        frontier = {node}
        seen = {node}
        signature: Counter = Counter()
        for _ in range(self.radius):
            next_frontier = set()
            for current in frontier:
                for neighbor in self._graph.neighbors(current):
                    if neighbor not in seen:
                        seen.add(neighbor)
                        next_frontier.add(neighbor)
                        signature[self._graph.label(neighbor)] += 1
            frontier = next_frontier
        return signature

    def signature(self, node: int) -> Counter:
        """The stored signature of ``node``."""
        return Counter(self._signatures[node])

    def candidates(self, graph_label: str, required: Counter) -> List[int]:
        """Nodes with ``graph_label`` whose signature dominates ``required``."""
        result = []
        for node in self._graph.nodes_with_label(graph_label):
            signature = self._signatures[node]
            if all(signature[label] >= count for label, count in required.items()):
                result.append(node)
        return result

    def size_in_entries(self) -> int:
        """Total signature entries (Table 1 index-size column)."""
        return sum(len(signature) for signature in self._signatures.values())


def signature_match(
    graph: LabeledGraph,
    query: QueryGraph,
    index: Optional[NeighborhoodSignatureIndex] = None,
    limit: Optional[int] = None,
) -> List[Dict[str, int]]:
    """Filter-and-verify subgraph matching using a neighborhood-signature index."""
    index = index or NeighborhoodSignatureIndex(graph, radius=1)
    candidates: Dict[str, List[int]] = {}
    for qnode in query.nodes():
        # Direct-neighbor label requirements; with radius > 1 this remains a
        # valid (weaker) filter since the signature only grows with radius.
        required = Counter(query.label(neighbor) for neighbor in query.neighbors(qnode))
        candidates[qnode] = index.candidates(query.label(qnode), required)
        if not candidates[qnode]:
            return []

    order = sorted(query.nodes(), key=lambda q: len(candidates[q]))
    results: List[Dict[str, int]] = []
    assignment: Dict[str, int] = {}
    used: set[int] = set()

    def backtrack(depth: int) -> bool:
        if depth == len(order):
            results.append(dict(assignment))
            return limit is not None and len(results) >= limit
        qnode = order[depth]
        for data_node in candidates[qnode]:
            if data_node in used:
                continue
            if any(
                qneighbor in assignment
                and not graph.has_edge(data_node, assignment[qneighbor])
                for qneighbor in query.neighbors(qnode)
            ):
                continue
            assignment[qnode] = data_node
            used.add(data_node)
            if backtrack(depth + 1):
                return True
            used.discard(data_node)
            del assignment[qnode]
        return False

    backtrack(0)
    return results
