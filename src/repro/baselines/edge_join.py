"""Edge-index multi-way join baseline (the RDF-3X / BitMat strategy).

Category 2 of Table 1: build an index over distinct edges keyed by the
(unordered) label pair of their endpoints, decompose the query into its
edges, look every query edge up in the index, and assemble answers with
multi-way joins.  This is the "join only, no exploration" counterpoint to
the STwig engine — correct, index size O(m), but it materializes one
candidate table per query edge and pays for every join.

The intermediate-result accounting (:class:`EdgeJoinStats`) is what the
exploration-vs-join benchmarks report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.join import multiway_join, select_join_order
from repro.core.result import MatchTable
from repro.graph.labeled_graph import LabeledGraph
from repro.query.query_graph import QueryGraph


class EdgeIndex:
    """Index of data edges keyed by the unordered label pair of their endpoints."""

    def __init__(self, graph: LabeledGraph) -> None:
        self._graph = graph
        self._by_label_pair: Dict[Tuple[str, str], List[Tuple[int, int]]] = {}
        for u, v in graph.edges():
            key = self._key(graph.label(u), graph.label(v))
            self._by_label_pair.setdefault(key, []).append((u, v))

    @staticmethod
    def _key(label_a: str, label_b: str) -> Tuple[str, str]:
        return (label_a, label_b) if label_a <= label_b else (label_b, label_a)

    def edges_for(self, label_a: str, label_b: str) -> List[Tuple[int, int]]:
        """All data edges whose endpoint labels are {label_a, label_b}."""
        return list(self._by_label_pair.get(self._key(label_a, label_b), ()))

    def size_in_entries(self) -> int:
        """Number of indexed edge entries (the Table 1 index-size column)."""
        return sum(len(edges) for edges in self._by_label_pair.values())


@dataclass
class EdgeJoinStats:
    """Execution statistics of one edge-join query."""

    edge_tables: int = 0
    intermediate_rows: int = 0
    table_sizes: List[int] = field(default_factory=list)


def edge_join_match(
    graph: LabeledGraph,
    query: QueryGraph,
    index: Optional[EdgeIndex] = None,
    limit: Optional[int] = None,
    stats: Optional[EdgeJoinStats] = None,
) -> List[Dict[str, int]]:
    """Answer ``query`` by joining per-edge candidate tables.

    Args:
        graph: the data graph.
        query: the query pattern.
        index: a prebuilt :class:`EdgeIndex` (built on the fly if omitted).
        limit: stop after this many matches.
        stats: optional accumulator for intermediate-result accounting.
    """
    index = index or EdgeIndex(graph)
    tables: List[MatchTable] = []
    for qu, qv in query.edges():
        label_u = query.label(qu)
        label_v = query.label(qv)
        rows: List[Tuple[int, int]] = []
        for u, v in index.edges_for(label_u, label_v):
            if graph.label(u) == label_u and graph.label(v) == label_v:
                rows.append((u, v))
            if graph.label(v) == label_u and graph.label(u) == label_v:
                rows.append((v, u))
        table = MatchTable((qu, qv), rows)
        tables.append(table)
        if stats is not None:
            stats.table_sizes.append(table.row_count)
    if stats is not None:
        stats.edge_tables = len(tables)
        stats.intermediate_rows = sum(stats.table_sizes)

    if not tables:
        # Single-node query: every node with the right label is a match.
        node = query.nodes()[0]
        matches = [
            {node: data_node} for data_node in graph.nodes_with_label(query.label(node))
        ]
        return matches[:limit] if limit is not None else matches

    if any(table.row_count == 0 for table in tables):
        return []

    # The baseline has no binding sets: a column's distinct count is taken as
    # its label's node count, an upper bound in every edge table.
    distinct_counts = {
        node: len(graph.nodes_with_label_array(query.label(node)))
        for node in query.nodes()
    }
    order = select_join_order(tables, distinct_counts)
    joined = multiway_join(
        tables, order=order, row_limit=limit, block_size=None, columns=query.nodes()
    )
    return joined.as_dicts()
