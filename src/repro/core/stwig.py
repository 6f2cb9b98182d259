"""STwig: the paper's basic unit of query decomposition.

An STwig is a two-level tree ``q = (r, L)``: a root and a set of child
(leaf) nodes.  The paper identifies STwigs by labels because it assumes
uniquely-labeled query nodes "for presentation simplicity"; this
implementation keys STwigs by *query node names* so queries with repeated
labels are handled correctly, and derives the label view from the query
graph when needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import DecompositionError
from repro.query.query_graph import QueryGraph


@dataclass(frozen=True)
class STwig:
    """A two-level tree rooted at ``root`` with children ``leaves``.

    The covered query edges are exactly ``(root, leaf)`` for each leaf.
    ``leaves`` may be empty only for the degenerate single-node query.
    """

    root: str
    leaves: Tuple[str, ...]

    def __post_init__(self) -> None:
        if self.root in self.leaves:
            raise DecompositionError(f"STwig root {self.root!r} cannot also be a leaf")
        if len(set(self.leaves)) != len(self.leaves):
            raise DecompositionError(f"STwig rooted at {self.root!r} has duplicate leaves")

    @property
    def nodes(self) -> Tuple[str, ...]:
        """Root followed by leaves — the column order of its result table."""
        return (self.root, *self.leaves)

    @property
    def size(self) -> int:
        """Number of query nodes the STwig touches."""
        return 1 + len(self.leaves)

    def covered_edges(self) -> Tuple[Tuple[str, str], ...]:
        """Query edges covered by this STwig, normalized as (min, max)."""
        return tuple(
            (self.root, leaf) if self.root < leaf else (leaf, self.root)
            for leaf in self.leaves
        )

    def __repr__(self) -> str:
        leaves = ", ".join(self.leaves)
        return f"STwig({self.root} -> [{leaves}])"


def validate_cover(query: QueryGraph, stwigs: Tuple[STwig, ...] | list) -> None:
    """Check that ``stwigs`` form an STwig cover of ``query``.

    Every query edge must be covered by exactly one STwig, and every STwig
    edge must exist in the query.

    Raises:
        DecompositionError: if the cover is invalid.
    """
    query_edges = set(query.edges())
    seen: dict[Tuple[str, str], str] = {}
    for stwig in stwigs:
        for edge in stwig.covered_edges():
            if edge not in query_edges:
                raise DecompositionError(
                    f"{stwig} covers edge {edge} which is not a query edge"
                )
            if edge in seen:
                raise DecompositionError(
                    f"edge {edge} covered by both {seen[edge]} and {stwig.root}"
                )
            seen[edge] = stwig.root
    if query.edge_count == 0:
        # Single-node query: the cover must still mention the node.
        covered_nodes = {node for stwig in stwigs for node in stwig.nodes}
        if covered_nodes != set(query.nodes()):
            raise DecompositionError("single-node query must be covered by one root-only STwig")
        return
    missing = query_edges - set(seen)
    if missing:
        raise DecompositionError(f"{len(missing)} query edges not covered (e.g. {sorted(missing)[:3]})")
