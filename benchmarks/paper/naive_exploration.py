"""Naive graph-exploration matching over the memory cloud (Section 3).

The paper contrasts three strategies: pure joins over an edge index, *naive
graph exploration* (walk the graph query-edge by query-edge, backtracking),
and the STwig hybrid it proposes.  This module implements the naive
exploration strategy directly against the :class:`MemoryCloud` operators so
its cost — cell loads, label probes, cross-machine traffic — is measured by
the same accounting as the STwig engine, making the Section 3 trade-off
quantifiable (see ``bench_ablations.py``).  :func:`explore_neighborhood`
walks the same per-cell operators breadth-first, k hops out (the paper's
Trinity 3-hop claim, ``bench_substrate.py``).

The algorithm: pick a starting query node (most selective label), seed its
candidates from the label index, and extend the partial embedding one query
node at a time, always choosing an unmatched query node adjacent to the
matched region and enumerating the data neighbors of its matched anchor.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.cloud.cluster import MemoryCloud
from repro.errors import CloudError
from repro.query.query_graph import QueryGraph


def naive_exploration_match(
    cloud: MemoryCloud,
    query: QueryGraph,
    limit: Optional[int] = None,
) -> List[Dict[str, int]]:
    """Answer ``query`` by pure backtracking exploration over the cloud.

    Args:
        cloud: the memory cloud holding the data graph.
        query: the query pattern.
        limit: stop after this many matches (None = enumerate all).

    Returns:
        A list of assignments (query node -> data node), identical in
        content to the STwig engine's output.
    """
    order = _exploration_order(cloud, query)
    results: List[Dict[str, int]] = []
    assignment: Dict[str, int] = {}
    used: set[int] = set()

    start_label = query.label(order[0])
    start_candidates = _ids_with_label(cloud, start_label)

    def extend(depth: int) -> bool:
        if depth == len(order):
            results.append(dict(assignment))
            return limit is not None and len(results) >= limit
        qnode = order[depth]
        for candidate in _candidates_for(cloud, query, assignment, qnode, start_candidates, depth):
            if candidate in used:
                continue
            if not _consistent(cloud, query, assignment, qnode, candidate):
                continue
            assignment[qnode] = candidate
            used.add(candidate)
            if extend(depth + 1):
                return True
            used.discard(candidate)
            del assignment[qnode]
        return False

    extend(0)
    return results


def explore_neighborhood(
    cloud: MemoryCloud, node_id: int, hops: int, requester: int | None = None
) -> Dict[int, int]:
    """Breadth-first exploration of the ``hops``-hop neighborhood of a node.

    Reproduces the access pattern behind the paper's Trinity claim that
    "exploring the entire 3-hop neighborhood of any node ... takes less
    than 100 milliseconds": every visited node's cell is loaded through
    :meth:`MemoryCloud.load` (charging local/remote accesses), and the
    mapping ``node_id -> distance`` of all nodes within ``hops`` hops is
    returned.

    Args:
        cloud: the memory cloud holding the data graph.
        node_id: the start node.
        hops: how many hops to expand (0 returns just the start node).
        requester: machine driving the exploration; defaults to the
            owner of ``node_id`` (exploration started where the data is).
    """
    if hops < 0:
        raise CloudError(f"hops must be non-negative, got {hops}")
    origin = cloud.owner_of(node_id) if requester is None else requester
    distances: Dict[int, int] = {node_id: 0}
    frontier = [node_id]
    for depth in range(1, hops + 1):
        next_frontier: List[int] = []
        for current in frontier:
            cell = cloud.load(current, requester=origin)
            for neighbor in cell.neighbors:
                if neighbor not in distances:
                    distances[neighbor] = depth
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return distances


def _ids_with_label(cloud: MemoryCloud, label: str) -> List[int]:
    """Global ``Index.getID``: every machine's local IDs for ``label``, sorted.

    One index lookup is charged per machine.
    """
    return np.sort(
        np.concatenate(
            [
                cloud.get_local_ids_array(machine_id, label)
                for machine_id in range(cloud.machine_count)
            ]
        )
    ).tolist()


def _exploration_order(cloud: MemoryCloud, query: QueryGraph) -> List[str]:
    """Query-node visit order: rare start label, then stay connected."""
    frequencies = cloud.global_label_frequencies()

    def rank(qnode: str) -> tuple:
        return (frequencies.get(query.label(qnode), 0), -query.degree(qnode), qnode)

    remaining = set(query.nodes())
    order = [min(remaining, key=rank)]
    remaining.discard(order[0])
    while remaining:
        frontier = [
            qnode
            for qnode in remaining
            if any(neighbor in order for neighbor in query.neighbors(qnode))
        ]
        chosen = min(frontier or sorted(remaining), key=rank)
        order.append(chosen)
        remaining.discard(chosen)
    return order


def _candidates_for(
    cloud: MemoryCloud,
    query: QueryGraph,
    assignment: Dict[str, int],
    qnode: str,
    start_candidates,
    depth: int,
):
    """Candidate data nodes for ``qnode`` given the current partial embedding."""
    if depth == 0:
        return start_candidates
    anchors = [
        assignment[neighbor]
        for neighbor in query.neighbors(qnode)
        if neighbor in assignment
    ]
    if not anchors:
        # Disconnected exploration step (cannot happen for connected queries,
        # but keep the fallback total): scan the label index globally.
        return _ids_with_label(cloud, query.label(qnode))
    # Explore from the first matched anchor: load its cell and keep neighbors
    # with the right label.
    anchor = anchors[0]
    cell = cloud.load(anchor, requester=cloud.owner_of(anchor))
    label = query.label(qnode)
    return [
        neighbor
        for neighbor in cell.neighbors
        if cloud.has_label(neighbor, label, requester=cloud.owner_of(anchor))
    ]


def _consistent(
    cloud: MemoryCloud,
    query: QueryGraph,
    assignment: Dict[str, int],
    qnode: str,
    candidate: int,
) -> bool:
    """Check edges between the candidate and all already-matched neighbors."""
    matched_neighbors = [
        assignment[qneighbor]
        for qneighbor in query.neighbors(qnode)
        if qneighbor in assignment
    ]
    if not matched_neighbors:
        return True
    cell = cloud.load(candidate, requester=cloud.owner_of(candidate))
    neighbor_set = set(cell.neighbors)
    return all(matched in neighbor_set for matched in matched_neighbors)
