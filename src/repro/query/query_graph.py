"""Query graph model.

A subgraph query ``q = (Vq, Eq, Tq)`` (Definition 1): a connected, labeled,
undirected pattern.  Query nodes carry their own identity (a string such as
``"u0"``) *and* a label constraint; several query nodes may share a label,
so bindings in the matching engine are always keyed by query node, not by
label.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Tuple

from repro.errors import QueryError


class QueryGraph:
    """A connected, vertex-labeled, undirected query pattern."""

    def __init__(
        self,
        labels: Mapping[str, str],
        edges: Iterable[Tuple[str, str]],
        require_connected: bool = True,
    ) -> None:
        """Create a query graph.

        Args:
            labels: mapping from query-node name to required label.
            edges: undirected edges between query-node names.
            require_connected: raise if the pattern is not connected
                (the paper only considers connected queries).
        """
        if not labels:
            raise QueryError("a query must have at least one node")
        self._labels: Dict[str, str] = dict(labels)
        self._adjacency: Dict[str, set] = {name: set() for name in self._labels}
        edge_set: set[Tuple[str, str]] = set()
        for u, v in edges:
            if u not in self._labels or v not in self._labels:
                raise QueryError(f"edge ({u!r}, {v!r}) references an undeclared query node")
            if u == v:
                raise QueryError(f"self-loop on query node {u!r} is not allowed")
            self._adjacency[u].add(v)
            self._adjacency[v].add(u)
            edge_set.add((u, v) if u < v else (v, u))
        self._edges: Tuple[Tuple[str, str], ...] = tuple(sorted(edge_set))
        if require_connected and not self._is_connected():
            raise QueryError("query graph must be connected")

    # -- accessors -----------------------------------------------------------

    @property
    def node_count(self) -> int:
        """Number of query nodes."""
        return len(self._labels)

    @property
    def edge_count(self) -> int:
        """Number of query edges."""
        return len(self._edges)

    def nodes(self) -> Tuple[str, ...]:
        """Sorted query node names."""
        return tuple(sorted(self._labels))

    def edges(self) -> Tuple[Tuple[str, str], ...]:
        """Sorted undirected query edges (u < v)."""
        return self._edges

    def label(self, node: str) -> str:
        """Label constraint of a query node."""
        try:
            return self._labels[node]
        except KeyError:
            raise QueryError(f"unknown query node {node!r}") from None

    def labels(self) -> Dict[str, str]:
        """Copy of the node -> label mapping."""
        return dict(self._labels)

    def neighbors(self, node: str) -> Tuple[str, ...]:
        """Sorted neighbors of a query node."""
        if node not in self._adjacency:
            raise QueryError(f"unknown query node {node!r}")
        return tuple(sorted(self._adjacency[node]))

    def degree(self, node: str) -> int:
        """Degree of a query node."""
        return len(self.neighbors(node))

    def has_edge(self, u: str, v: str) -> bool:
        """True if the query contains edge (u, v)."""
        return v in self._adjacency.get(u, ())

    def distinct_labels(self) -> Tuple[str, ...]:
        """Sorted distinct labels used by the query."""
        return tuple(sorted(set(self._labels.values())))

    # -- algorithms ------------------------------------------------------------

    def shortest_path_lengths(self) -> Dict[Tuple[str, str], int]:
        """All-pairs shortest path lengths (hop counts) within the query.

        Uses Floyd–Warshall exactly as the paper does for head-STwig
        selection; queries are tiny so the cubic cost is irrelevant.
        """
        nodes = self.nodes()
        infinity = len(nodes) + 1
        dist: Dict[Tuple[str, str], int] = {}
        for u in nodes:
            for v in nodes:
                if u == v:
                    dist[(u, v)] = 0
                elif self.has_edge(u, v):
                    dist[(u, v)] = 1
                else:
                    dist[(u, v)] = infinity
        for k in nodes:
            for i in nodes:
                dik = dist[(i, k)]
                if dik >= infinity:
                    continue
                for j in nodes:
                    through_k = dik + dist[(k, j)]
                    if through_k < dist[(i, j)]:
                        dist[(i, j)] = through_k
        return dist

    def copy(self) -> "QueryGraph":
        """Return a copy of this query graph."""
        return QueryGraph(self._labels, self._edges, require_connected=False)

    def _is_connected(self) -> bool:
        nodes = list(self._labels)
        if not nodes:
            return True
        seen = {nodes[0]}
        frontier: List[str] = [nodes[0]]
        while frontier:
            current = frontier.pop()
            for neighbor in self._adjacency[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return len(seen) == len(nodes)

    def __iter__(self) -> Iterator[str]:
        return iter(self.nodes())

    def __repr__(self) -> str:
        return f"QueryGraph(nodes={self.node_count}, edges={self.edge_count})"
