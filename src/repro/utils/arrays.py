"""Shared array primitives for the CSR storage layer.

The storage substrate answers almost every membership question the same
way: binary-search a sorted ID array and check the landing position.  The
helpers here centralize that idiom (including the empty-array and
past-the-end edge cases) so the index, machine store, partition map, and
matcher do not each hand-roll it.  :class:`NodeIndex` is the one place
that decides how a node ID becomes a position in a sorted ID column.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def fast_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an integer array, via sort + diff mask.

    Equivalent to ``np.unique(values)`` but markedly faster on large int64
    inputs (``np.unique`` routes through a hash table on recent numpy; one
    ``sort`` plus a neighbour-inequality mask is ~50x quicker at the
    million-element scale the generators dedup at).
    """
    if len(values) <= 1:
        return values.copy()
    ordered = np.sort(values)
    keep = np.empty(len(ordered), dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def inverse_cdf_sample(
    cumulative: np.ndarray, count: int, gen: np.random.Generator
) -> np.ndarray:
    """Draw ``count`` indices from the distribution with CDF ``cumulative``.

    Uniforms are sorted before the ``searchsorted`` (sequential needles keep
    the binary searches cache-resident, ~4x faster at millions of draws)
    and the results are shuffled back into an i.i.d. order — a uniformly
    permuted i.i.d. sample is distributed identically to the unsorted one.
    """
    draws = gen.random(count)
    draws.sort()
    indices = np.searchsorted(cumulative, draws, side="left")
    return indices[gen.permutation(count)]


def sorted_lookup(
    sorted_ids: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Locate ``values`` in ``sorted_ids`` (ascending, duplicate-free).

    Returns ``(positions, found)``: for each value, a clamped candidate
    index into ``sorted_ids`` and a boolean saying whether the value is
    actually present there.  Safe for empty inputs on either side.
    """
    if len(sorted_ids) == 0 or len(values) == 0:
        return (
            np.zeros(len(values), dtype=np.int64),
            np.zeros(len(values), dtype=bool),
        )
    positions = np.searchsorted(sorted_ids, values)
    positions = np.minimum(positions, len(sorted_ids) - 1)
    return positions, sorted_ids[positions] == values


def membership_mask(sorted_ids: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Boolean mask marking which ``values`` appear in ``sorted_ids``."""
    _, found = sorted_lookup(sorted_ids, values)
    return found


def dense_table_profitable(
    sorted_ids: np.ndarray, probe_count: int, factor: int = 16
) -> bool:
    """Whether a dense O(1) lookup table beats binary search for ``sorted_ids``.

    A dense table costs O(max_id) to build and O(1) per probe; binary search
    costs O(log n) per probe.  The table pays off when the ID domain is not
    too sparse relative to the work: ``max_id`` within ``factor`` times the
    combined table/probe size.  Negative IDs (never produced by the
    generators, but allowed by the graph API) always fall back.
    """
    if len(sorted_ids) == 0:
        return False
    low = int(sorted_ids[0])
    high = int(sorted_ids[-1])
    if low < 0:
        return False
    return high + 1 <= factor * (len(sorted_ids) + probe_count)


def dense_membership_table(sorted_ids: np.ndarray) -> np.ndarray:
    """Dense boolean table ``t`` with ``t[i] == (i in sorted_ids)``.

    Only call when :func:`dense_table_profitable` approved the domain; the
    table spans ``[0, sorted_ids[-1]]`` and answers membership with one
    fancy-indexing gather instead of a binary search per probe.
    """
    table = np.zeros(int(sorted_ids[-1]) + 1, dtype=bool)
    table[sorted_ids] = True
    return table


def table_membership_mask(table: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Membership of ``values`` in a :func:`dense_membership_table` table.

    Values outside the table's domain (including negatives) are absent.
    """
    if len(values) == 0:
        return np.zeros(0, dtype=bool)
    within = (values >= 0) & (values < len(table))
    if within.all():
        # The overwhelmingly common case: every probe lands in-domain
        # (neighbor IDs of a loaded graph), one gather and done.
        return table[values]
    mask = np.zeros(len(values), dtype=bool)
    mask[within] = table[values[within]]
    return mask


class NodeIndex:
    """Where each value sits in one sorted, duplicate-free ID column.

    The one owner of "how a node ID becomes a position": the cloud's tag and
    row columns, the graph builder and the label-pair pass all resolve IDs
    through it.  The mode is picked once, at construction:

    * identity when the column is exactly ``0..n-1`` (every generator and
      every ingest): a value *is* its position;
    * a dense position table (-1 = absent) spanning ``[0, max ID]`` when
      :func:`dense_table_profitable` approves the domain on its own size;
    * binary search (:func:`sorted_lookup`) otherwise.
    """

    def __init__(self, sorted_ids: np.ndarray) -> None:
        self._ids = sorted_ids
        count = len(sorted_ids)
        self._identity = count > 0 and int(sorted_ids[0]) == 0 and int(sorted_ids[-1]) == count - 1
        self._table: np.ndarray | None = None
        if not self._identity and dense_table_profitable(sorted_ids, probe_count=0):
            self._table = np.full(int(sorted_ids[-1]) + 1, -1, dtype=np.int64)
            self._table[sorted_ids] = np.arange(count, dtype=np.int64)

    @property
    def is_identity(self) -> bool:
        """Whether every value is its own position (the column is ``0..n-1``)."""
        return self._identity

    def find(self, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(positions, found)`` of ``values``, with :func:`sorted_lookup`'s
        contract: a position is valid wherever ``found`` is True, and an
        in-range index otherwise."""
        if not self._identity and self._table is None:
            return sorted_lookup(self._ids, values)
        values = np.asarray(values)
        domain = len(self._ids) if self._identity else len(self._table)
        within = (values >= 0) & (values < domain)
        if self._identity:
            # The common case (neighbor IDs of a loaded graph) returns the
            # values themselves: no gather, no copy.
            return (values, within) if within.all() else (np.where(within, values, 0), within)
        if within.all():
            positions = self._table[values]
        else:
            positions = np.full(len(values), -1, dtype=np.int64)
            positions[within] = self._table[values[within]]
        found = positions >= 0
        return (positions, found) if found.all() else (np.where(found, positions, 0), found)

    def positions(self, values: np.ndarray) -> np.ndarray:
        """Positions of ``values``, every one of which is in the column.

        Checks nothing: an absent value gets an arbitrary position (or, on
        the table and identity paths, an ``IndexError``).
        """
        if self._identity:
            return values
        if self._table is not None:
            return self._table[values]
        return np.searchsorted(self._ids, values)
