"""Property tests for the batched STwig row constructor and the factorized table.

The reference is the nested-loop builder in ``tests/helpers.py`` (roots in
order, first leaf slowest, one tuple per candidate row, ``len(set(...))``
for injectivity).  ``_row_blocks`` must reproduce it row for row *in order*
for every leaf count, whatever the block size, and the factorized
``STwigTable`` that ``match_stwig`` returns must *be* that table by contract:
same rows when built, same row count and distincts without building, and
filtering / concatenating its slots must equal filtering / concatenating
the rows.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.bindings import BindingTable
from repro.core.matcher import match_stwig
from repro.core.result import _BLOCK_ROWS, STwigTable, _row_blocks
from repro.core.tasks import TableHandle
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
    blocks = list(
        _row_blocks(np.array(roots, dtype=NODE_DTYPE), values, bounds, pairs, block_rows)
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


def assert_is_flat_table(table: STwigTable, expected) -> np.ndarray:
    """``table`` is ``expected`` (oracle rows, in order) by every slot-side reading."""
    width = len(table.columns)
    flat = np.array(expected, dtype=NODE_DTYPE).reshape(len(expected), width)
    assert np.array_equal(table.to_array(), flat)
    assert table.row_count == len(flat)
    # Every root left in the table owns a row, and they stay ascending.
    assert np.array_equal(table.roots, fast_unique(flat[:, 0]))
    if len(flat):
        distincts = table.distincts()
        for index, column in enumerate(table.columns):
            assert np.array_equal(distincts[column], fast_unique(flat[:, index]))
    for block_rows in (1, 3, _BLOCK_ROWS):
        blocks = list(table.row_blocks(block_rows))
        assert all(len(block) <= block_rows for block in blocks)
        assert np.array_equal(np.concatenate(blocks + [flat[:0]]), flat)
    packed = TableHandle.of(table).materialize()
    assert packed.row_count == table.row_count
    assert np.array_equal(packed.to_array(), flat)
    return flat


def row_mask(flat: np.ndarray, kept_values) -> np.ndarray:
    """Today's row filter: a row survives iff every column's value is kept."""
    keep = np.ones(len(flat), dtype=bool)
    for index, allowed in enumerate(kept_values):
        if allowed is not None:
            keep &= np.isin(flat[:, index], allowed)
    return keep


class TestFactorizedTableAgainstNestedLoops:
    @RELAXED
    @given(case=star_cases(), data=st.data())
    def test_slot_side_answers_equal_the_flat_table(self, case, data):
        graph, query, stwig, bound, machine_count = case
        cloud = make_cloud(graph, machine_count=machine_count)
        bindings = None
        if bound:  # an empty candidate list empties that slot everywhere
            bindings = BindingTable(query)
            for leaf, candidates in bound.items():
                bindings.bind(leaf, candidates)
        for machine_id in range(machine_count):
            table = match_stwig(cloud, machine_id, stwig, query, bindings)
            expected = oracle_rows(graph, cloud, machine_id, query, stwig, bound)
            flat = assert_is_flat_table(table, expected)
            # filter-then-expand is expand-then-filter, row for row.
            kept_values = [
                None
                if data.draw(st.booleans())
                else data.draw(st.lists(st.sampled_from(sorted(graph.nodes())), unique=True))
                for _ in table.columns
            ]
            masks = [
                None if allowed is None else np.isin(column, allowed)
                for allowed, column in zip(kept_values, (table.roots, *table.slot_values))
            ]
            filtered = table.select(masks[0], masks[1:])
            survivors = flat[row_mask(flat, kept_values)]
            assert_is_flat_table(filtered, [tuple(row) for row in survivors.tolist()])

    @RELAXED
    @given(case=star_cases(), cuts=st.lists(st.integers(0, 12), max_size=3))
    def test_chunk_tables_concatenate_to_the_unchunked_table(self, case, cuts):
        graph, query, stwig, bound, _ = case
        cloud = make_cloud(graph, machine_count=1)
        whole = match_stwig(cloud, 0, stwig, query)
        roots = cloud.get_local_ids_array(0, query.label(stwig.root))
        chunks = np.split(roots, sorted(min(cut, len(roots)) for cut in cuts))
        joined = STwigTable.concatenate(
            [match_stwig(cloud, 0, stwig, query, roots=chunk) for chunk in chunks]
        )
        assert joined.row_count == whole.row_count
        assert np.array_equal(joined.roots, whole.roots)
        for slot in range(len(stwig.leaves)):
            assert np.array_equal(joined.slot_values[slot], whole.slot_values[slot])
            assert np.array_equal(joined.slot_bounds[slot], whole.slot_bounds[slot])
        assert np.array_equal(joined.to_array(), whole.to_array())

    @pytest.mark.parametrize("leaves", [1, 2, 3, 4])
    def test_hub_root_counts_same_label_tuples_without_rows(self, leaves):
        # Every leaf carries label x: pairs, triples and a quadruple of
        # equal-label slots under one hub root — the inclusion-exclusion's job.
        spokes = 7
        query, stwig = star_of(leaves)
        table = match_stwig(make_cloud(hub_graph(spokes)), 0, stwig, query)
        expected = nested_loop_stwig_rows([0], [[list(range(1, spokes + 1))] * leaves])
        assert table.row_count == len(expected) == int(np.prod(range(spokes, spokes - leaves, -1)))
        assert_is_flat_table(table, expected)

    def test_tight_roots_lose_the_values_a_sibling_crowds_out(self):
        # Root 0: leaf a may be {1}, leaf b {1, 2}: only (0, 1, 2) is injective,
        # so 1 never appears under b.  Root 5: a = b = {6} is dead.
        table = STwigTable.from_slots(
            ("r", "a", "b"),
            [(1, 2)],
            np.array([0, 5], dtype=NODE_DTYPE),
            *csr_slots([[[1], [1, 2]], [[6], [6]]], 2),
        )
        assert table.roots.tolist() == [0]
        assert_is_flat_table(table, [(0, 1, 2)])

    def test_root_inside_its_own_slot_is_a_collision(self):
        # The graph layer rejects self-loops, so only a hand-made table can
        # offer a root to its own same-label leaf; the contract still holds.
        slots_per_root = [[[4, 2, 6]], [[4]], [[4]]]
        table = STwigTable.from_slots(
            ("r", "l"), [(0, 1)], np.array([2, 4, 6], dtype=NODE_DTYPE),
            *csr_slots(slots_per_root, 1),
        )
        assert_is_flat_table(table, nested_loop_stwig_rows([2, 4, 6], slots_per_root))
        assert table.roots.tolist() == [2, 6]

    def test_sparse_ids_are_ranked_before_they_are_packed_into_keys(self):
        # (root, value) no longer fits one int64 key: the counts must not wrap.
        far = 1 << 61
        slots_per_root = [[[far, 3, -far], [3, -far]], [[far], [far]]]
        table = STwigTable.from_slots(
            ("r", "a", "b"), [(1, 2)], np.array([10, 11], dtype=NODE_DTYPE),
            *csr_slots(slots_per_root, 2),
        )
        assert_is_flat_table(table, nested_loop_stwig_rows([10, 11], slots_per_root))

    def test_no_row_array_exists_until_one_is_asked_for(self):
        query, stwig = star_of(3)
        table = match_stwig(make_cloud(hub_graph(60)), 0, stwig, query)
        assert table.row_count == 60 * 59 * 58
        held = [getattr(table, name) for name in STwigTable.__slots__]
        arrays = [a for item in held for a in (item if isinstance(item, tuple) else (item,))]
        assert not any(isinstance(a, np.ndarray) and a.ndim == 2 for a in arrays)
        assert sum(a.size for a in arrays if isinstance(a, np.ndarray)) < 4 * 61


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
