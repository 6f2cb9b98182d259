"""Property-based tests for data structures: graphs, tables, joins, partitions."""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.join import multiway_join
from repro.core.result import MatchTable
from repro.graph.partition import HashPartitioner, RoundRobinPartitioner
from tests.helpers import pair_join
from tests.property.strategies import labeled_graphs

RELAXED = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestGraphProperties:
    @RELAXED
    @given(graph=labeled_graphs())
    def test_adjacency_is_symmetric(self, graph):
        for node in graph.nodes():
            for neighbor in graph.neighbors(node):
                assert node in graph.neighbors(neighbor)

    @RELAXED
    @given(graph=labeled_graphs())
    def test_handshake_lemma(self, graph):
        assert sum(graph.degree(n) for n in graph.nodes()) == 2 * graph.edge_count

    @RELAXED
    @given(graph=labeled_graphs())
    def test_label_frequencies_sum_to_node_count(self, graph):
        assert sum(graph.label_frequencies().values()) == graph.node_count

    @RELAXED
    @given(graph=labeled_graphs())
    def test_edges_listed_once(self, graph):
        edges = list(graph.edges())
        assert len(edges) == len(set(edges)) == graph.edge_count


class TestPartitionProperties:
    @RELAXED
    @given(graph=labeled_graphs(), machine_count=st.integers(min_value=1, max_value=6))
    def test_hash_partition_total(self, graph, machine_count):
        machines = HashPartitioner().assign(graph.node_id_array(), machine_count)
        assert np.bincount(machines, minlength=machine_count).sum() == graph.node_count

    @RELAXED
    @given(graph=labeled_graphs(), machine_count=st.integers(min_value=1, max_value=6))
    def test_round_robin_balance(self, graph, machine_count):
        machines = RoundRobinPartitioner().assign(graph.node_id_array(), machine_count)
        sizes = np.bincount(machines, minlength=machine_count)
        assert sizes.max() - sizes.min() <= 1


# -- join strategies ---------------------------------------------------------

small_rows = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=15
)


def dedup(rows):
    return list(dict.fromkeys(rows))


class TestJoinProperties:
    @RELAXED
    @given(left_rows=small_rows, right_rows=small_rows)
    def test_pairwise_join_equals_nested_loop(self, left_rows, right_rows):
        left = MatchTable(("a", "b"), dedup(left_rows))
        right = MatchTable(("b", "c"), dedup(right_rows))
        joined = pair_join(left, right)
        expected = set()
        for a, b in left.rows:
            for b2, c in right.rows:
                if b == b2 and len({a, b, c}) == 3:
                    expected.add((a, b, c))
        assert set(joined.rows) == expected

    @RELAXED
    @given(left_rows=small_rows, right_rows=small_rows)
    def test_join_commutative_up_to_column_order(self, left_rows, right_rows):
        left = MatchTable(("a", "b"), dedup(left_rows))
        right = MatchTable(("b", "c"), dedup(right_rows))
        lr = {tuple(sorted(d.items())) for d in pair_join(left, right).as_dicts()}
        rl = {tuple(sorted(d.items())) for d in pair_join(right, left).as_dicts()}
        assert lr == rl

    @RELAXED
    @given(
        left_rows=small_rows,
        mid_rows=small_rows,
        right_rows=small_rows,
        block_size=st.sampled_from([None, 1, 2, 7]),
    )
    def test_multiway_join_invariant_to_block_size(
        self, left_rows, mid_rows, right_rows, block_size
    ):
        tables = [
            MatchTable(("a", "b"), dedup(left_rows)),
            MatchTable(("b", "c"), dedup(mid_rows)),
            MatchTable(("c", "d"), dedup(right_rows)),
        ]
        reference = multiway_join(tables, order=[0, 1, 2], block_size=None)
        variant = multiway_join(tables, order=[0, 1, 2], block_size=block_size)
        assert sorted(reference.rows) == sorted(variant.rows)

    @RELAXED
    @given(left_rows=small_rows, right_rows=small_rows)
    def test_join_row_limit_is_prefix_of_full_join(self, left_rows, right_rows):
        left = MatchTable(("a", "b"), dedup(left_rows))
        right = MatchTable(("b", "c"), dedup(right_rows))
        full = pair_join(left, right)
        limited = pair_join(left, right, row_limit=3)
        assert limited.row_count <= 3
        assert set(limited.rows) <= set(full.rows)
