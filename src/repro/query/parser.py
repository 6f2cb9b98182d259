"""Tiny textual query format used by the examples and the test suite.

Syntax (one declaration per line, ``#`` starts a comment)::

    node <name> <label>
    edge <name> <name>

Example::

    # triangle with an antenna
    node u person
    node v person
    node w company
    node x person
    edge u v
    edge v w
    edge w u
    edge u x
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import QueryError
from repro.query.query_graph import QueryGraph


def parse_query(text: str) -> QueryGraph:
    """Parse the textual query format into a :class:`QueryGraph`."""
    labels: Dict[str, str] = {}
    edges: List[Tuple[str, str]] = []
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        keyword = parts[0].lower()
        if keyword == "node":
            if len(parts) != 3:
                raise QueryError(f"line {line_number}: expected 'node <name> <label>', got {raw_line!r}")
            name, label = parts[1], parts[2]
            if name in labels and labels[name] != label:
                raise QueryError(f"line {line_number}: node {name!r} redeclared with a different label")
            labels[name] = label
        elif keyword == "edge":
            if len(parts) != 3:
                raise QueryError(f"line {line_number}: expected 'edge <name> <name>', got {raw_line!r}")
            edges.append((parts[1], parts[2]))
        else:
            raise QueryError(f"line {line_number}: unknown keyword {keyword!r}")
    if not labels:
        raise QueryError("query text declares no nodes")
    return QueryGraph(labels, edges)


def format_query(query: QueryGraph) -> str:
    """Render a :class:`QueryGraph` back into the textual format.

    Raises:
        QueryError: for a node name or label that :func:`parse_query` would
            not read back as the same token: empty, holding whitespace, or
            holding ``#`` (which starts a comment).
    """
    for name in query.nodes():
        for token in (name, query.label(name)):
            if "#" in token or token.split() != [token]:
                raise QueryError(
                    f"query node {name!r}: {token!r} is not a single token "
                    "(empty, whitespace, or '#')"
                )
    lines = [f"node {name} {query.label(name)}" for name in query.nodes()]
    lines.extend(f"edge {u} {v}" for u, v in query.edges())
    return "\n".join(lines) + "\n"
