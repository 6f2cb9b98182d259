"""Pattern search over a synthetic knowledge graph.

The paper motivates subgraph matching with knowledge-base queries (NAGA,
Probase).  This example builds a small synthetic "academic" knowledge graph
with typed entities — people, papers, venues, institutions, topics — and
answers natural pattern queries such as "two co-authors from the same
institution who published at the same venue".

Run with::

    python examples/knowledge_graph_search.py
"""

from __future__ import annotations

import random

from repro import ClusterConfig, MemoryCloud, SubgraphMatcher
from repro.core.planner import MatcherConfig
from repro.graph.labeled_graph import LabeledGraph
from repro.query.query_graph import QueryGraph


def build_knowledge_graph(
    people: int = 3000,
    papers: int = 4000,
    venues: int = 40,
    institutions: int = 80,
    topics: int = 120,
    seed: int = 7,
) -> LabeledGraph:
    """Generate a typed academic knowledge graph.

    Edge semantics (undirected, as in the paper's data model):
    person-paper (authorship), paper-venue (published at), person-institution
    (affiliation), paper-topic (about).
    """
    rng = random.Random(seed)
    ids = {}
    offset = 0
    for kind, count in [
        ("person", people),
        ("paper", papers),
        ("venue", venues),
        ("institution", institutions),
        ("topic", topics),
    ]:
        ids[kind] = list(range(offset, offset + count))
        offset += count
    labels = {node: kind for kind, nodes in ids.items() for node in nodes}

    edges = []
    for person in ids["person"]:
        edges.append((person, rng.choice(ids["institution"])))
    for paper in ids["paper"]:
        author_count = rng.randint(1, 4)
        for author in rng.sample(ids["person"], author_count):
            edges.append((paper, author))
        edges.append((paper, rng.choice(ids["venue"])))
        for topic in rng.sample(ids["topic"], rng.randint(1, 3)):
            edges.append((paper, topic))
    return LabeledGraph.from_edges(labels, edges)


def coauthors_same_institution_query() -> QueryGraph:
    """Two authors of one paper who share an institution."""
    return QueryGraph(
        {
            "author1": "person",
            "author2": "person",
            "paper": "paper",
            "inst": "institution",
        },
        [
            ("author1", "paper"),
            ("author2", "paper"),
            ("author1", "inst"),
            ("author2", "inst"),
        ],
    )


def interdisciplinary_paper_query() -> QueryGraph:
    """A paper connecting two topics, published at a venue by some author."""
    return QueryGraph(
        {
            "paper": "paper",
            "topic_a": "topic",
            "topic_b": "topic",
            "venue": "venue",
            "author": "person",
        },
        [
            ("paper", "topic_a"),
            ("paper", "topic_b"),
            ("paper", "venue"),
            ("paper", "author"),
        ],
    )


def main() -> None:
    graph = build_knowledge_graph()
    print(f"knowledge graph: {graph.node_count} entities, {graph.edge_count} relations")

    cloud = MemoryCloud.from_graph(graph, ClusterConfig(machine_count=4))
    # Knowledge graphs have few, very skewed types: cap STwig width so
    # exploration tables stay small (see DESIGN.md, engineering adaptations).
    matcher = SubgraphMatcher(cloud, MatcherConfig(max_stwig_leaves=3))

    for name, query in [
        ("co-authors from the same institution", coauthors_same_institution_query()),
        ("interdisciplinary papers", interdisciplinary_paper_query()),
    ]:
        result = matcher.match(query, limit=1024)
        print(f"\npattern: {name}")
        print(f"  STwigs: {result.stats.stwig_count}, "
              f"matches: {result.match_count} (limit 1024), "
              f"time: {result.wall_seconds * 1000:.1f} ms")
        for assignment in result.as_dicts()[:3]:
            print("  example:", assignment)


if __name__ == "__main__":
    main()
