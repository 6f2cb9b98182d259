"""Plain-text persistence for labeled graphs.

Two simple formats are supported:

* **label file** — one ``node_id<TAB>label`` pair per line.
* **edge file** — one ``u<TAB>v`` pair per line (undirected).

:func:`save_graph` / :func:`load_graph` combine both under a common path
prefix (``<prefix>.labels`` / ``<prefix>.edges``), which is all the bench
harness needs to cache generated datasets between runs.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterator, List, Tuple

from repro.errors import GraphError
from repro.graph.labeled_graph import LabeledGraph


def write_label_file(path: str | Path, labels: Dict[int, str]) -> None:
    """Write a ``node_id<TAB>label`` file.

    Raises:
        GraphError: before anything is written, for a label the reader
            would not give back unchanged: empty, holding a tab, CR or LF,
            or with leading or trailing whitespace.
    """
    for node_id, label in labels.items():
        if not label or label != label.strip() or any(c in label for c in "\t\r\n"):
            raise GraphError(
                f"node {node_id}: label {label!r} does not survive a label file "
                "(empty, tab, CR, LF, or leading/trailing whitespace)"
            )
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for node_id in sorted(labels):
            handle.write(f"{node_id}\t{labels[node_id]}\n")


def read_label_file(path: str | Path) -> Dict[int, str]:
    """Read a ``node_id<TAB>label`` file.

    A node ID may repeat with the same label; with a different one it is an
    error naming the line.
    """
    labels: Dict[int, str] = {}
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise GraphError(f"{path}:{line_number}: expected 'id<TAB>label', got {line!r}")
            try:
                node_id = int(parts[0])
            except ValueError:
                raise GraphError(
                    f"{path}:{line_number}: node ID {parts[0]!r} is not an integer"
                )
            if labels.setdefault(node_id, parts[1]) != parts[1]:
                raise GraphError(
                    f"{path}:{line_number}: node {node_id} relabeled from "
                    f"{labels[node_id]!r} to {parts[1]!r}"
                )
    return labels


def write_edge_file(path: str | Path, edges: Iterator[Tuple[int, int]]) -> None:
    """Write a ``u<TAB>v`` edge file."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for u, v in edges:
            handle.write(f"{u}\t{v}\n")


def read_edge_file(path: str | Path) -> List[Tuple[int, int]]:
    """Read a ``u<TAB>v`` edge file."""
    edges: List[Tuple[int, int]] = []
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise GraphError(f"{path}:{line_number}: expected 'u<TAB>v', got {line!r}")
            try:
                edges.append((int(parts[0]), int(parts[1])))
            except ValueError:
                raise GraphError(
                    f"{path}:{line_number}: edge endpoints must be integers, got {line!r}"
                )
    return edges


def save_graph(prefix: str | Path, graph: LabeledGraph) -> Tuple[Path, Path]:
    """Persist ``graph`` under ``<prefix>.labels`` and ``<prefix>.edges``.

    Returns the two paths written.
    """
    # Append the suffixes rather than Path.with_suffix(), which *replaces*
    # anything after the last dot: a prefix like "graph.v1" must map to
    # "graph.v1.labels", not collide every version onto "graph.labels".
    label_path = Path(f"{prefix}.labels")
    edge_path = Path(f"{prefix}.edges")
    write_label_file(label_path, graph.labels())
    write_edge_file(edge_path, graph.edges())
    return label_path, edge_path


def load_graph(prefix: str | Path) -> LabeledGraph:
    """Load a graph previously written by :func:`save_graph`."""
    labels = read_label_file(Path(f"{prefix}.labels"))
    edges = read_edge_file(Path(f"{prefix}.edges"))
    return LabeledGraph.from_edges(labels, edges)
