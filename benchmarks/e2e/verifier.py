"""Correctness gate, written against plain graph arrays (not ``repro.core``).

Soundness is checked row by row from the :class:`workloads.Truth` arrays
the benchmark built itself: every returned row must carry the query's
labels, contain every query edge and be injective, and
``external_rows()`` must be the ID-map image of ``rows``.  Completeness
comes from row counts pinned in ``expected.json`` and, for the
``cold_update`` motifs, from VF2 (``repro.baselines.vf2``) on an induced
sample.  Every function returns a list of human-readable problems; an
empty list means the check passed.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.query.query_graph import QueryGraph


def check_rows(truth, query: QueryGraph, columns: Sequence[str], rows) -> List[str]:
    """Label match, presence of every query edge, injectivity — per row."""
    if len(rows) == 0:
        return []
    table = np.asarray(rows, dtype=np.int64)
    if table.ndim != 2 or table.shape[1] != len(columns):
        return [f"rows have shape {table.shape}, expected width {len(columns)}"]
    if table.min() < 0 or table.max() >= truth.node_count:
        return [f"row holds a node ID outside [0, {truth.node_count})"]
    problems: List[str] = []
    column_of = {name: index for index, name in enumerate(columns)}
    if sorted(column_of) != sorted(query.nodes()):
        return [f"columns {tuple(columns)} are not the query nodes {query.nodes()}"]
    for name, index in column_of.items():
        wanted = truth.label_names.index(query.label(name))
        wrong = np.flatnonzero(truth.labels[table[:, index]] != wanted)
        if len(wrong):
            problems.append(
                f"row {int(wrong[0])}: node {int(table[wrong[0], index])} bound to "
                f"{name} does not carry label {query.label(name)!r}"
            )
    for u, v in query.edges():
        a, b = table[:, column_of[u]], table[:, column_of[v]]
        keys = np.minimum(a, b) * truth.node_count + np.maximum(a, b)
        at = np.minimum(np.searchsorted(truth.edge_keys, keys), len(truth.edge_keys) - 1)
        missing = np.flatnonzero(truth.edge_keys[at] != keys)
        if len(missing):
            row = int(missing[0])
            problems.append(
                f"row {row}: data edge ({int(a[row])}, {int(b[row])}) for query "
                f"edge ({u}, {v}) is not in the graph"
            )
    for i in range(len(columns)):
        for j in range(i + 1, len(columns)):
            same = np.flatnonzero(table[:, i] == table[:, j])
            if len(same):
                problems.append(
                    f"row {int(same[0])}: {columns[i]} and {columns[j]} bound to the "
                    f"same node {int(table[same[0], i])}"
                )
    return problems


def check_external(truth, rows, external_rows) -> List[str]:
    """``external_rows`` must be the ID-map image of ``rows``."""
    if len(rows) != len(external_rows):
        return [f"{len(external_rows)} external rows for {len(rows)} rows"]
    if len(rows) == 0:
        return []
    dense = np.asarray(rows, dtype=np.int64)
    external = np.asarray(external_rows, dtype=np.int64)
    image = dense if truth.externals is None else truth.externals[dense]
    wrong = np.flatnonzero((image != external).any(axis=1))
    if len(wrong):
        return [f"external row {int(wrong[0])} is not the ID-map image of its row"]
    return []


def check_count(
    rows: int, truncated: bool, limit: Optional[int], pinned_rows: int, pinned_truncated: bool
) -> List[str]:
    """Row count and ``truncated`` flag against the pinned answer."""
    problems = []
    if rows != pinned_rows:
        problems.append(f"{rows} rows returned, {pinned_rows} pinned")
    if truncated != pinned_truncated:
        problems.append(f"truncated={truncated}, pinned {pinned_truncated}")
    return problems + check_limit(rows, truncated, limit, None)


def check_limit(rows: int, truncated: bool, limit: Optional[int], total: Optional[int]) -> List[str]:
    """A limited op returns ``min(limit, total)`` rows, flagged consistently."""
    problems = []
    if limit is None:
        if truncated:
            problems.append("unlimited query flagged truncated")
    else:
        if rows > limit:
            problems.append(f"{rows} rows exceed limit {limit}")
        if truncated and rows != limit:
            problems.append(f"truncated with {rows} rows under limit {limit}")
    if total is not None:
        wanted = total if limit is None else min(limit, total)
        if rows != wanted:
            problems.append(f"{rows} rows returned, min(limit, total) = {wanted}")
        if truncated != (limit is not None and total > limit):
            problems.append(f"truncated={truncated} with total {total}, limit {limit}")
    return problems


def vf2_sample_check(truth, motifs, sample_size: int, seed: int) -> List[str]:
    """Completeness on an induced sample: engine rows == VF2 rows, as sets.

    The sample is a breadth-first ball (seeded start) so that it keeps
    enough edges for the motifs to match; it is rebuilt from the truth
    arrays, handed to the program as a fresh graph, and the program's
    unlimited answer must equal VF2's.
    """
    import repro.api as api
    from repro.baselines.vf2 import vf2_match
    from repro.graph.label_table import LabelTable
    from repro.graph.labeled_graph import LabeledGraph

    count = truth.node_count
    low, high = truth.edge_keys // count, truth.edge_keys % count
    order = np.argsort(np.concatenate((low, high)), kind="stable")
    targets = np.concatenate((high, low))[order]
    offsets = np.concatenate(
        ([0], np.cumsum(np.bincount(np.concatenate((low, high)), minlength=count)))
    )
    rng = np.random.default_rng(seed)
    picked = np.zeros(count, dtype=bool)
    frontier = [int(rng.integers(count))]
    picked[frontier[0]] = True
    taken = 1
    while frontier and taken < sample_size:
        nxt = []
        for node in frontier:
            for neighbor in targets[offsets[node] : offsets[node + 1]].tolist():
                if not picked[neighbor] and taken < sample_size:
                    picked[neighbor] = True
                    taken += 1
                    nxt.append(neighbor)
        frontier = nxt
    nodes = np.flatnonzero(picked)
    inside = picked[low] & picked[high]
    sample = LabeledGraph.from_arrays(
        LabelTable(truth.label_names),
        np.arange(len(nodes)),
        truth.labels[nodes],
        np.searchsorted(nodes, low[inside]),
        np.searchsorted(nodes, high[inside]),
    )
    problems: List[str] = []
    with api.connect(sample, machines=4, executor="serial") as db:
        for motif in motifs:
            query = motif.query
            result = db.query(query)
            got = sorted(result.rows)
            want = sorted(
                tuple(match[name] for name in result.columns)
                for match in vf2_match(sample, query)
            )
            if got != want:
                problems.append(
                    f"{motif.klass}: {len(got)} rows on the {len(nodes)}-node sample, "
                    f"VF2 finds {len(want)}"
                )
    return problems
