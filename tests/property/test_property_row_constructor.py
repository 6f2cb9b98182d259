"""Property tests for the batched STwig row constructor.

The reference is the nested-loop builder in ``tests/helpers.py`` (roots in
order, first leaf slowest, one tuple per candidate row, ``len(set(...))``
for injectivity).  The matcher's ``_row_blocks`` must reproduce it row for
row *in order* for every leaf count, whatever the block size, and
``match_stwig`` must hand those rows out unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.bindings import BindingTable
from repro.core.matcher import _BLOCK_ROWS, _row_blocks, match_stwig
from repro.core.stwig import STwig
from repro.errors import ExecutionError
from repro.graph.labeled_graph import NODE_DTYPE, OFFSET_DTYPE, LabeledGraph
from repro.query.query_graph import QueryGraph
from repro.utils.arrays import fast_unique

from tests.helpers import hub_graph, make_cloud, nested_loop_stwig_rows, star_of
from tests.property.strategies import LABELS, labeled_graphs

RELAXED = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: Data node ``v`` carries label ``v % 2``: with two labels over ten nodes,
#: same-label leaves, shared candidates and the root inside a slot abound.
NODE_COUNT = 10
LABEL_COUNT = 2


def csr_slots(slots_per_root, leaf_count):
    """Per-root candidate lists -> the constructor's ``(values, bounds)`` columns."""
    values, bounds = [], []
    for leaf in range(leaf_count):
        lists = [slots[leaf] for slots in slots_per_root]
        values.append(
            np.array([v for chunk in lists for v in chunk], dtype=NODE_DTYPE)
        )
        column_bounds = np.zeros(len(lists) + 1, dtype=OFFSET_DTYPE)
        np.cumsum([len(chunk) for chunk in lists], out=column_bounds[1:])
        bounds.append(column_bounds)
    return values, bounds


def build(roots, values, bounds, pairs, block_rows=_BLOCK_ROWS):
    """All blocks of one constructor run, plus the concatenated rows."""
    stwig = STwig("r", tuple(f"l{i}" for i in range(len(values))))
    blocks = list(
        _row_blocks(
            np.array(roots, dtype=NODE_DTYPE), values, bounds, pairs, stwig, block_rows
        )
    )
    return blocks, [tuple(row) for block in blocks for row in block.tolist()]


@st.composite
def labeled_slots(draw):
    """``(roots, column labels, per-root slot lists)`` over the labeled nodes.

    Every column only ever holds nodes of its own label — what the label
    index and the binding tables guarantee the real matcher.
    """
    leaf_count = draw(st.integers(min_value=0, max_value=5))
    labels = draw(
        st.lists(
            st.integers(0, LABEL_COUNT - 1),
            min_size=leaf_count + 1,
            max_size=leaf_count + 1,
        )
    )

    def nodes_of(label):
        return [v for v in range(NODE_COUNT) if v % LABEL_COUNT == label]

    roots = draw(st.lists(st.sampled_from(nodes_of(labels[0])), max_size=5))
    slots_per_root = [
        [
            draw(st.lists(st.sampled_from(nodes_of(label)), max_size=3))
            for label in labels[1:]
        ]
        for _ in roots
    ]
    return roots, labels, slots_per_root


def same_label_pairs(labels):
    return [
        (low, high)
        for high in range(len(labels))
        for low in range(high)
        if labels[low] == labels[high]
    ]


class TestRowBlocksAgainstNestedLoops:
    @RELAXED
    @given(case=labeled_slots())
    def test_rows_equal_oracle_in_order(self, case):
        roots, labels, slots_per_root = case
        values, bounds = csr_slots(slots_per_root, len(labels) - 1)
        expected = nested_loop_stwig_rows(roots, slots_per_root)
        _, rows = build(roots, values, bounds, same_label_pairs(labels))
        assert rows == expected
        # Checking every column pair is the same answer, only more compares.
        every_pair = same_label_pairs([0] * len(labels))
        _, rows = build(roots, values, bounds, every_pair)
        assert rows == expected

    @RELAXED
    @given(case=labeled_slots(), block_rows=st.sampled_from([1, 3]))
    def test_block_size_changes_nothing_but_the_cuts(self, case, block_rows):
        roots, labels, slots_per_root = case
        values, bounds = csr_slots(slots_per_root, len(labels) - 1)
        pairs = same_label_pairs(labels)
        _, whole = build(roots, values, bounds, pairs)
        blocks, rows = build(roots, values, bounds, pairs, block_rows)
        assert rows == whole
        for block in blocks:
            assert block.dtype == NODE_DTYPE
            assert block.shape[1] == len(labels)
            assert len(block) <= block_rows

    def test_unlabeled_collisions_need_every_pair(self):
        # Slots that ignore labels (a duck-typed caller): the pair list is
        # what enforces injectivity, nothing else in the constructor does.
        values, bounds = csr_slots([[[1, 2], [2, 1, 7]]], 2)
        _, rows = build([7], values, bounds, [(0, 1), (0, 2), (1, 2)])
        assert rows == [(7, 1, 2), (7, 2, 1)]
        _, rows = build([7], values, bounds, [])
        assert len(rows) == 6


@st.composite
def star_cases(draw):
    """A small labeled graph, a star query of 0-5 leaves, optional bindings."""
    graph = draw(labeled_graphs(min_nodes=2, max_nodes=12))
    leaf_count = draw(st.integers(min_value=0, max_value=5))
    names = ["r"] + [f"l{i}" for i in range(leaf_count)]
    labels = {name: draw(st.sampled_from(LABELS)) for name in names}
    query = QueryGraph(labels, [("r", leaf) for leaf in names[1:]])
    bound = {}
    for leaf in names[1:]:
        if draw(st.booleans()):
            continue
        candidates = [n for n in graph.nodes() if graph.label(n) == labels[leaf]]
        bound[leaf] = draw(st.lists(st.sampled_from(candidates), unique=True)) if candidates else []
    machine_count = draw(st.integers(min_value=1, max_value=3))
    return graph, query, STwig("r", tuple(names[1:])), bound, machine_count


def oracle_rows(graph: LabeledGraph, cloud, machine_id, query, stwig, bound):
    roots = [
        node
        for node in sorted(graph.nodes())
        if graph.label(node) == query.label(stwig.root)
        and cloud.owner_of(node) == machine_id
    ]
    slots_per_root = [
        [
            [
                neighbor
                for neighbor in graph.neighbors(root)
                if graph.label(neighbor) == query.label(leaf)
                and (leaf not in bound or neighbor in bound[leaf])
            ]
            for leaf in stwig.leaves
        ]
        for root in roots
    ]
    return nested_loop_stwig_rows(roots, slots_per_root)


class TestMatchSTwigAgainstNestedLoops:
    @RELAXED
    @given(case=star_cases())
    def test_nested_loop_rows(self, case):
        graph, query, stwig, bound, machine_count = case
        cloud = make_cloud(graph, machine_count=machine_count)
        bindings = None
        if bound:
            bindings = BindingTable(query)
            for leaf, candidates in bound.items():
                bindings.bind(leaf, candidates)
        for machine_id in range(machine_count):
            expected = oracle_rows(graph, cloud, machine_id, query, stwig, bound)
            full = match_stwig(cloud, machine_id, stwig, query, bindings)
            assert full.rows == expected


class TestHubRoots:
    def test_uncountable_product_is_a_typed_error(self):
        # 10^4 same-label neighbours under five leaves: 10^20 candidate rows
        # would wrap an int64 row index; it must fail loudly instead.
        cloud = make_cloud(hub_graph(10_000), machine_count=1)
        query, stwig = star_of(5)
        with pytest.raises(ExecutionError, match=r"r -> \[l0, .*under root 0"):
            match_stwig(cloud, 0, stwig, query)


class TestFastUnique:
    @RELAXED
    @given(
        rows=st.lists(
            st.tuples(*[st.integers(-50, 50)] * 3), min_size=0, max_size=40
        ),
        column=st.integers(0, 2),
    )
    def test_matches_np_unique_on_strided_column_views(self, rows, column):
        data = np.array(rows, dtype=NODE_DTYPE).reshape(len(rows), 3)
        view = data[:, column]
        result = fast_unique(view)
        assert result.dtype == view.dtype
        assert result.tolist() == np.unique(view).tolist()

    @pytest.mark.parametrize("values", [[], [4]])
    def test_empty_and_single_inputs(self, values):
        array = np.array(values, dtype=NODE_DTYPE)
        result = fast_unique(array)
        assert result.tolist() == values
        result[...] = -1  # a copy: the input is untouched
        assert array.tolist() == values
