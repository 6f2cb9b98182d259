"""Property tests: the join's pair masks and single write vs the row-sort oracle.

``multiway_join`` masks injectivity per (earlier column, new column) pair of
equal label, drops within-row repeats of its inputs up front, and emits the
final stage's blocks once, in the caller's column order.  The oracle
(:func:`tests.helpers.oracle_join`) does none of that: it expands every
stage in full and sorts every row.  Both must produce the same array —
row for row, in the same order — for any labels, tables, join order, block
size and limit.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.join import (
    _distinct_rows,
    _within_row_pairs,
    multiway_join,
)
from repro.core.result import MatchTable
from repro.graph.labeled_graph import NODE_DTYPE
from tests.helpers import injective_mask, oracle_join

RELAXED = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

COLUMNS = ("a", "b", "c", "d", "e")

#: Data nodes ``0..LABEL_COUNT * PER_LABEL - 1``; node ``v`` carries label
#: ``v % LABEL_COUNT``, so columns of different labels can never share a node.
LABEL_COUNT = len(COLUMNS)
PER_LABEL = 3


@st.composite
def column_labels(draw):
    """A label per column: all distinct, all equal, or mixed."""
    kind = draw(st.sampled_from(("distinct", "equal", "mixed")))
    if kind == "distinct":
        picks = draw(st.permutations(range(LABEL_COUNT)))
    elif kind == "equal":
        picks = [draw(st.integers(0, LABEL_COUNT - 1))] * len(COLUMNS)
    else:
        picks = [draw(st.integers(0, 1)) for _ in COLUMNS]
    return dict(zip(COLUMNS, picks))


def nodes_of(label: int):
    return st.integers(0, PER_LABEL - 1).map(lambda k: label + LABEL_COUNT * k)


@st.composite
def labeled_tables(draw, respect_labels: bool = True):
    """``(labels, tables)``: 1-3 tables over random column subsets.

    With ``respect_labels`` every column only holds nodes of its label (the
    engine's situation); without, values are arbitrary and ``labels`` is
    ``None`` (the hand-made-table situation: every pair may collide).
    """
    labels = draw(column_labels())
    tables = []
    for _ in range(draw(st.integers(1, 3))):
        columns = draw(
            st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=3, unique=True)
        )
        cell = [
            nodes_of(labels[column]) if respect_labels else st.integers(0, 4)
            for column in columns
        ]
        rows = draw(st.lists(st.tuples(*cell), max_size=8))
        tables.append(MatchTable(tuple(columns), rows))
    return (labels if respect_labels else None), tables


def joined_columns(tables, order):
    names = []
    for index in order:
        names.extend(c for c in tables[index].columns if c not in names)
    return names


class TestPairMaskEqualsRowSortOracle:
    @RELAXED
    @given(
        labels=column_labels(),
        width=st.integers(0, len(COLUMNS)),
        data=st.data(),
    )
    def test_pair_mask_keeps_exactly_the_injective_rows(self, labels, width, data):
        columns = COLUMNS[:width]
        cell = [nodes_of(labels[column]) for column in columns]
        rows = data.draw(st.lists(st.tuples(*cell), max_size=12))
        array = np.array(rows, dtype=NODE_DTYPE).reshape(len(rows), width)
        kept = _distinct_rows(array, _within_row_pairs(columns, labels))
        assert np.array_equal(kept, array[injective_mask(array)])

    @RELAXED
    @given(rows=st.lists(st.tuples(*[st.integers(0, 3)] * 3), max_size=12))
    def test_without_labels_every_pair_is_compared(self, rows):
        array = np.array(rows, dtype=NODE_DTYPE).reshape(len(rows), 3)
        kept = _distinct_rows(array, _within_row_pairs(("a", "b", "c"), None))
        assert np.array_equal(kept, array[injective_mask(array)])

    def test_no_pairs_no_mask_no_copy(self):
        array = np.array([[1, 1], [2, 3]], dtype=NODE_DTYPE)
        labels = {"a": "x", "b": "y"}
        assert _within_row_pairs(("a", "b"), labels) == []
        assert _distinct_rows(array, []) is array


class TestJoinEqualsOracle:
    @RELAXED
    @given(
        drawn=st.one_of(labeled_tables(), labeled_tables(respect_labels=False)),
        block_size=st.sampled_from([None, 1, 2, 1024]),
        limit=st.one_of(st.none(), st.integers(0, 12)),
        data=st.data(),
    )
    def test_rows_and_order_match_the_oracle(self, drawn, block_size, limit, data):
        labels, tables = drawn
        order = data.draw(st.permutations(range(len(tables))))
        columns = data.draw(st.permutations(joined_columns(tables, order)))
        expected = oracle_join(tables, order, columns)
        joined = multiway_join(
            tables,
            order=order,
            row_limit=limit,
            block_size=block_size,
            labels=labels,
            columns=columns,
        )
        assert joined.columns == tuple(columns)
        assert np.array_equal(joined.to_array(), expected[:limit])
        # The answer is the join's own array, whatever path produced it.
        for table in tables:
            assert not np.shares_memory(joined.to_array(), table.to_array())

    @RELAXED
    @given(drawn=labeled_tables(), data=st.data())
    def test_default_column_order_is_the_join_order(self, drawn, data):
        labels, tables = drawn
        order = data.draw(st.permutations(range(len(tables))))
        joined = multiway_join(tables, order=order, labels=labels)
        assert joined.columns == tuple(joined_columns(tables, order))
        assert np.array_equal(joined.to_array(), oracle_join(tables, order))
