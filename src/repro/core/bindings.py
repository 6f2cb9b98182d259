"""Binding information carried between STwig matching steps.

After an STwig is processed, every query node it touches becomes *bound*:
the set ``H_x`` of data nodes that matched query node ``x`` in some STwig
result.  Later STwigs only consider candidates inside the binding sets,
which is the exploration-side pruning at the heart of the paper's method
(Section 4.2, step 2).  Unbound query nodes carry ``None`` — "the set of all
nodes that match the label" — rather than a materialized set.

Bindings are arrays and nothing else: one sorted, duplicate-free
``NODE_DTYPE`` array per bound query node (:meth:`BindingTable.candidates_array`).
Narrowing is ``np.intersect1d`` over two sorted-unique arrays, and the
matcher's and the gather's vectorized filters ask
:meth:`BindingTable.membership_mask`.  :meth:`BindingTable.bind` accepts any
iterable of node IDs — that is input normalisation, not a second
representation.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Union

import numpy as np

from repro.errors import QueryError
from repro.graph.labeled_graph import NODE_DTYPE
from repro.query.query_graph import QueryGraph
from repro.utils.arrays import (
    dense_membership_table,
    dense_table_profitable,
    fast_unique,
    membership_mask,
    table_membership_mask,
)

#: Anything accepted as a candidate collection by bind.
NodesLike = Union[Iterable[int], np.ndarray]


def _as_sorted_unique(data_nodes: NodesLike) -> np.ndarray:
    """Normalize ``data_nodes`` into a sorted, duplicate-free NODE_DTYPE array.

    Arrays that are already strictly ascending (the common case: the merged
    distincts handed over by the exploration loop, or an intersection result)
    are adopted as-is with one O(n) check instead of re-sorting.
    """
    if not isinstance(data_nodes, np.ndarray):
        data_nodes = list(data_nodes)
    array = np.asarray(data_nodes, dtype=NODE_DTYPE)
    if array.ndim != 1:
        array = array.ravel()
    if len(array) > 1 and not bool(np.all(array[1:] > array[:-1])):
        array = fast_unique(array)
    return array


class BindingTable:
    """Per-query-node sorted candidate arrays (``None`` = unbound)."""

    def __init__(self, query: QueryGraph) -> None:
        self._query = query
        self._bindings: Dict[str, Optional[np.ndarray]] = {
            node: None for node in query.nodes()
        }
        self._mask_cache: Dict[str, np.ndarray] = {}

    def is_bound(self, node: str) -> bool:
        """True if ``node`` has an explicit candidate set."""
        self._check(node)
        return self._bindings[node] is not None

    def candidates_array(self, node: str) -> Optional[np.ndarray]:
        """The candidate set of ``node`` as a sorted array (None when unbound).

        This is the primary representation — no conversion or copy happens.
        The array is duplicate-free and ascending, ready for
        ``np.searchsorted``-style membership filters; treat it as read-only.
        """
        self._check(node)
        return self._bindings[node]

    def membership_mask(self, node: str, values: np.ndarray) -> np.ndarray:
        """Boolean mask marking which ``values`` lie in the binding of ``node``.

        The matcher's leaf filters and exploration's final binding filter
        probe the same binding against many large candidate arrays; on the
        usual dense ID domains the answers come from a cached O(1) lookup
        table (built once per binding generation), falling back to binary
        search over the sorted array when the domain is sparse.  ``node``
        must be bound.
        """
        self._check(node)
        array = self._bindings[node]
        if array is None:
            raise QueryError(f"query node {node!r} is unbound")
        table = self._mask_cache.get(node)
        if table is None and len(array) and dense_table_profitable(array, len(values)):
            # Only the build is memoized; a domain that a small first probe
            # left table-less is re-checked (O(1)) on every later probe.
            table = dense_membership_table(array)
            self._mask_cache[node] = table
        if table is not None:
            return table_membership_mask(table, values)
        return membership_mask(array, values)

    def bind(self, node: str, data_nodes: NodesLike) -> None:
        """Bind (or narrow) ``node`` to ``data_nodes``.

        If the node is already bound, the new binding is the intersection —
        a data node must survive every STwig that mentions the query node.
        Both sides are sorted-unique arrays, so narrowing is one
        ``np.intersect1d(..., assume_unique=True)`` merge; the result seeds
        the binding directly, and downstream membership filters reuse it
        without re-sorting.
        """
        self._check(node)
        array = _as_sorted_unique(data_nodes)
        current = self._bindings[node]
        if current is None:
            self._bindings[node] = array
        else:
            self._bindings[node] = np.intersect1d(current, array, assume_unique=True)
        self._mask_cache.pop(node, None)

    def any_empty(self) -> bool:
        """True if any bound query node has an empty candidate set."""
        return any(
            array is not None and len(array) == 0
            for array in self._bindings.values()
        )

    def copy(self) -> "BindingTable":
        """Independent copy of the table.

        Binding arrays are never mutated in place (``bind`` replaces
        them), so the copy can share them safely.
        """
        clone = BindingTable(self._query)
        clone._bindings = dict(self._bindings)
        return clone

    def __getstate__(self) -> dict:
        """Pickle only the query and the binding arrays.

        The dense-mask cache is a per-process acceleration structure:
        shipping it to runtime workers would inflate every task payload,
        and each worker rebuilds it lazily against its own memory anyway.
        """
        return {"query": self._query, "bindings": self._bindings}

    def __setstate__(self, state: dict) -> None:
        self._query = state["query"]
        self._bindings = state["bindings"]
        self._mask_cache = {}

    def _check(self, node: str) -> None:
        if node not in self._bindings:
            raise QueryError(f"unknown query node {node!r} in binding table")

    def __repr__(self) -> str:
        bound = {
            node: len(array)
            for node, array in self._bindings.items()
            if array is not None
        }
        return f"BindingTable(bound={bound})"
