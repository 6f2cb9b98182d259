"""Canned data graphs used by the examples, tests, and benchmarks.

Each factory returns a deterministic graph (fixed seed) at a scale chosen so
the full benchmark suite completes in minutes on a laptop while preserving
the characteristics each paper experiment depends on.  The ``scale``
arguments can be raised for longer, more faithful runs.
"""

from __future__ import annotations

from functools import lru_cache

from repro.graph.generators.lookalike import patents_like, wordnet_like
from repro.graph.generators.rmat import generate_rmat
from repro.graph.labeled_graph import LabeledGraph

#: Default seed for every canned dataset, so benchmark runs are reproducible.
DEFAULT_SEED = 20120827  # VLDB 2012 started on August 27.


@lru_cache(maxsize=None)
def tiny_example_graph() -> LabeledGraph:
    """The small Figure-1(a)-style data graph used in docs and unit tests.

    Nodes 1, 2 carry label ``a``; 3, 6 carry ``b``; 4 carries ``c``; 5
    carries ``d``.  Querying the triangle-with-tail pattern
    (a-b, a-c, b-c, c-d) yields exactly two matches, mirroring the paper's
    introductory example.
    """
    labels = {
        1: "a", 2: "a",
        3: "b",
        4: "c",
        5: "d",
        6: "b",
    }
    edges = [
        (1, 3), (1, 4),
        (2, 3), (2, 4),
        (3, 4),
        (4, 5),
        (5, 6),
    ]
    return LabeledGraph.from_edges(labels, edges)


@lru_cache(maxsize=None)
def paper_figure5_graph() -> LabeledGraph:
    """A Figure-5-inspired multi-label graph (22 nodes, labels a–f).

    Node IDs encode the figure's naming: label index * 100 + suffix, e.g.
    ``a2`` -> 102.  The layout is used by tests of STwig matching and of the
    cluster-graph machinery; exact ground truth is always recomputed with
    the VF2 baseline rather than transcribed from the paper.
    """
    label_codes = {"a": 1, "b": 2, "c": 3, "d": 4, "e": 5, "f": 6}

    def node(name: str) -> int:
        return label_codes[name[0]] * 100 + int(name[1:])

    names = [
        "a1", "a2", "a3",
        "b1", "b2", "b3", "b4",
        "c1", "c2", "c3",
        "d1", "d2", "d3", "d4",
        "e1", "e2", "e3", "e4",
        "f1", "f2", "f3", "f4",
    ]
    labels = {node(name): name[0] for name in names}
    edge_names = [
        ("a1", "b1"), ("a1", "b4"), ("a1", "c1"),
        ("a2", "b1"), ("a2", "b2"), ("a2", "c1"), ("a2", "c2"), ("a2", "c3"),
        ("a3", "b2"), ("a3", "c2"), ("a3", "c3"),
        ("b1", "c1"), ("b1", "c2"), ("b1", "c3"),
        ("b2", "c1"), ("b2", "c2"), ("b2", "c3"),
        ("b1", "e1"), ("b2", "e2"), ("b4", "e1"),
        ("b1", "f1"), ("b2", "f2"),
        ("d1", "b1"), ("d1", "c1"), ("d1", "e1"), ("d1", "f1"),
        ("d2", "b2"), ("d2", "c2"), ("d2", "e2"), ("d2", "f2"),
        ("d3", "b4"), ("d3", "c3"), ("d3", "e3"), ("d3", "f3"),
        ("d4", "e4"), ("d4", "f4"), ("d4", "b3"), ("d4", "c3"),
        ("e1", "f1"), ("e2", "f2"), ("e3", "f3"), ("e4", "f4"),
    ]
    edges = [(node(u), node(v)) for u, v in edge_names]
    return LabeledGraph.from_edges(labels, edges)


@lru_cache(maxsize=None)
def patents_small(scale: float = 0.003) -> LabeledGraph:
    """US-Patents-like graph at benchmark scale (~11K nodes by default)."""
    return patents_like(scale=scale, seed=DEFAULT_SEED)


@lru_cache(maxsize=None)
def wordnet_small(scale: float = 0.15) -> LabeledGraph:
    """WordNet-like graph at benchmark scale (~12K nodes by default)."""
    return wordnet_like(scale=scale, seed=DEFAULT_SEED)


@lru_cache(maxsize=None)
def rmat_graph(
    node_count: int = 8192,
    average_degree: float = 16.0,
    label_density: float = 0.01,
) -> LabeledGraph:
    """R-MAT graph matching the synthetic experiments' default shape."""
    return generate_rmat(
        node_count=node_count,
        average_degree=average_degree,
        label_density=label_density,
        seed=DEFAULT_SEED,
    )
