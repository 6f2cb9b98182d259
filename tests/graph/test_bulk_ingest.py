"""Property tests for the bulk CSR ingest path.

``LabeledGraph.from_arrays`` must produce byte-identical CSR structures to
``LabeledGraph.from_edges`` on the same pairs, and every graph they build
must satisfy the CSR invariants: node IDs sorted, each neighbor row sorted
and duplicate-free, edges symmetric, and the offsets summing to
``2 * edge_count``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph.label_table import LabelTable
from repro.graph.generators import generate_power_law
from repro.graph.labeled_graph import LABEL_DTYPE, NODE_DTYPE, LabeledGraph

from tests.helpers import traced


def edge_arrays(node_count: int, max_edges: int = 60):
    """Strategy: (src, dst) arrays over ``node_count`` nodes, no self-loops."""
    pair = st.tuples(
        st.integers(0, node_count - 1), st.integers(0, node_count - 1)
    ).filter(lambda uv: uv[0] != uv[1])
    return st.lists(pair, max_size=max_edges).map(
        lambda pairs: (
            np.array([u for u, _ in pairs], dtype=NODE_DTYPE),
            np.array([v for _, v in pairs], dtype=NODE_DTYPE),
        )
    )


def assert_csr_invariants(graph: LabeledGraph) -> None:
    """The invariants every CSR graph must satisfy."""
    node_ids = graph.node_id_array()
    offsets = graph.offset_array()
    neighbors = graph.neighbor_array()
    # Node IDs strictly ascending; offsets monotone, starting at zero.
    assert (np.diff(node_ids) > 0).all()
    assert offsets[0] == 0
    assert (np.diff(offsets) >= 0).all()
    # Offsets sum to 2|E| (every undirected edge appears in two rows).
    assert int(offsets[-1]) == 2 * graph.edge_count == len(neighbors)
    for row in range(len(node_ids)):
        slice_ = neighbors[offsets[row] : offsets[row + 1]]
        # Sorted, duplicate-free neighbor IDs, no self-loops.
        assert (np.diff(slice_) > 0).all()
        assert int(node_ids[row]) not in slice_
    # Symmetry: (u, v) in u's row implies (v, u) in v's row.
    for u, v in graph.edges():
        assert graph.has_edge(v, u)


class TestAddEdgesArray:
    """An edge block through ``from_arrays`` (the class keeps the name of the
    builder method it replaced): the same CSR as ``from_edges`` on the same
    pairs, and the block checks that method made."""

    @staticmethod
    def _build(labels, src, dst) -> LabeledGraph:
        table = LabelTable()
        ordered = sorted(labels)
        label_ids = [table.intern(labels[node]) for node in ordered]
        return LabeledGraph.from_arrays(
            table,
            np.array(ordered, dtype=NODE_DTYPE),
            np.array(label_ids, dtype=LABEL_DTYPE),
            src,
            dst,
        )

    @settings(max_examples=60, deadline=None)
    @given(edges=edge_arrays(12))
    def test_matches_scalar_path_exactly(self, edges):
        src, dst = edges
        labels = {node: f"L{node % 3}" for node in range(12)}

        bulk = self._build(labels, src, dst)
        scalar = LabeledGraph.from_edges(labels, zip(src.tolist(), dst.tolist()))
        assert_csr_invariants(bulk)
        np.testing.assert_array_equal(bulk.node_id_array(), scalar.node_id_array())
        np.testing.assert_array_equal(bulk.offset_array(), scalar.offset_array())
        np.testing.assert_array_equal(bulk.neighbor_array(), scalar.neighbor_array())
        assert bulk.edge_count == scalar.edge_count
        assert bulk.labels() == scalar.labels()

    @settings(max_examples=30, deadline=None)
    @given(edges=edge_arrays(10), extra=edge_arrays(10, max_edges=10))
    def test_mixed_scalar_and_bulk_edges_deduplicate(self, edges, extra):
        src = np.concatenate((edges[0], extra[0]))
        dst = np.concatenate((edges[1], extra[1]))
        graph = self._build({node: "x" for node in range(10)}, src, dst)
        assert_csr_invariants(graph)
        expected = {(min(u, v), max(u, v)) for u, v in zip(src.tolist(), dst.tolist())}
        assert sorted(graph.edges()) == sorted(expected)
        assert graph.edge_count == len(expected)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop on node 1"):
            self._build(
                {0: "a", 1: "b"},
                np.array([0, 1], dtype=NODE_DTYPE),
                np.array([1, 1], dtype=NODE_DTYPE),
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(GraphError, match="parallel"):
            self._build(
                {0: "a", 1: "b"},
                np.array([0], dtype=NODE_DTYPE),
                np.array([1, 0], dtype=NODE_DTYPE),
            )

    def test_unlabeled_endpoint_rejected_at_build(self):
        with pytest.raises(GraphError, match="edge endpoint 7 has no label"):
            self._build(
                {0: "a"}, np.array([0], dtype=NODE_DTYPE), np.array([7], dtype=NODE_DTYPE)
            )

    def test_empty_block_is_noop(self):
        graph = self._build(
            {0: "a", 1: "b"},
            np.empty(0, dtype=NODE_DTYPE),
            np.empty(0, dtype=NODE_DTYPE),
        )
        assert graph.edge_count == 0
        assert graph.node_count == 2


class TestFromArrays:
    def _table(self) -> LabelTable:
        return LabelTable(["a", "b"])

    @settings(max_examples=60, deadline=None)
    @given(edges=edge_arrays(14))
    def test_equals_from_edges(self, edges):
        src, dst = edges
        node_ids = np.arange(14, dtype=NODE_DTYPE)
        label_ids = (node_ids % 2).astype(LABEL_DTYPE)
        graph = LabeledGraph.from_arrays(self._table(), node_ids, label_ids, src, dst)
        reference = LabeledGraph.from_edges(
            {int(n): "ab"[int(n) % 2] for n in node_ids},
            zip(src.tolist(), dst.tolist()),
        )
        assert_csr_invariants(graph)
        np.testing.assert_array_equal(graph.offset_array(), reference.offset_array())
        np.testing.assert_array_equal(
            graph.neighbor_array(), reference.neighbor_array()
        )
        assert graph.edge_count == reference.edge_count
        assert graph.labels() == reference.labels()

    def test_sparse_ids_take_binary_search_path(self):
        # Non-contiguous IDs exercise the sorted_lookup fallback.
        node_ids = np.array([5, 100, 1000, 10_000], dtype=NODE_DTYPE)
        label_ids = np.zeros(4, dtype=LABEL_DTYPE)
        graph = LabeledGraph.from_arrays(
            self._table(),
            node_ids,
            label_ids,
            np.array([5, 1000], dtype=NODE_DTYPE),
            np.array([100, 5], dtype=NODE_DTYPE),
        )
        assert_csr_invariants(graph)
        assert graph.neighbors(5) == (100, 1000)

    def test_unsorted_node_ids_are_sorted(self):
        graph = LabeledGraph.from_arrays(
            self._table(),
            np.array([3, 1, 2], dtype=NODE_DTYPE),
            np.array([0, 1, 0], dtype=LABEL_DTYPE),
            np.array([3], dtype=NODE_DTYPE),
            np.array([1], dtype=NODE_DTYPE),
        )
        np.testing.assert_array_equal(graph.node_id_array(), [1, 2, 3])
        assert graph.label(1) == "b"
        assert graph.has_edge(1, 3)

    def test_duplicate_node_ids_rejected(self):
        with pytest.raises(GraphError):
            LabeledGraph.from_arrays(
                self._table(),
                np.array([1, 1], dtype=NODE_DTYPE),
                np.array([0, 0], dtype=LABEL_DTYPE),
                np.empty(0, dtype=NODE_DTYPE),
                np.empty(0, dtype=NODE_DTYPE),
            )

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            LabeledGraph.from_arrays(
                self._table(),
                np.array([1, 2], dtype=NODE_DTYPE),
                np.array([0, 0], dtype=LABEL_DTYPE),
                np.array([2], dtype=NODE_DTYPE),
                np.array([2], dtype=NODE_DTYPE),
            )

    def test_unknown_endpoint_rejected_dense_and_sparse(self):
        for ids in ([0, 1, 2], [10, 20, 30]):
            with pytest.raises(GraphError):
                LabeledGraph.from_arrays(
                    self._table(),
                    np.array(ids, dtype=NODE_DTYPE),
                    np.zeros(3, dtype=LABEL_DTYPE),
                    np.array([ids[0]], dtype=NODE_DTYPE),
                    np.array([99], dtype=NODE_DTYPE),
                )

    def test_assume_unique_skips_dedup_only(self):
        node_ids = np.arange(4, dtype=NODE_DTYPE)
        label_ids = np.zeros(4, dtype=LABEL_DTYPE)
        src = np.array([0, 2], dtype=NODE_DTYPE)
        dst = np.array([1, 3], dtype=NODE_DTYPE)
        graph = LabeledGraph.from_arrays(
            self._table(), node_ids, label_ids, src, dst, assume_unique=True
        )
        assert_csr_invariants(graph)
        assert sorted(graph.edges()) == [(0, 1), (2, 3)]


@pytest.mark.parametrize("step, first", [(1, 0), (3, 1)], ids=["identity", "gapped"])
def test_build_peak_stays_within_50_bytes_per_edge(step, first):
    """``from_arrays`` keeps one mirrored edge buffer (plus the gather of
    neighbor IDs off the identity domain) alive, not the endpoint, key,
    source and target arrays together: on these 200k edges it peaks at
    27 B/edge on ``0..n-1`` IDs and 43 on ``3k+1`` ones, where keeping them
    all read 101 and 123."""
    base = generate_power_law(50_000, 8.0, label_density=0.01, seed=11)
    rows = np.repeat(np.arange(base.node_count), np.diff(base.offset_array()))
    forward = rows < base.neighbor_array()
    ids = step * base.node_id_array() + first
    src, dst = ids[rows[forward]], ids[base.neighbor_array()[forward]]
    assert 150_000 <= len(src) <= 250_000
    graph, _, peak = traced(
        lambda: LabeledGraph.from_arrays(
            base.label_table, ids, base.label_id_array(), src, dst
        )
    )
    assert graph.edge_count == base.edge_count
    assert np.array_equal(graph.offset_array(), base.offset_array())
    assert np.array_equal(graph.neighbor_array(), ids[base.neighbor_array()])
    assert peak / len(src) <= 50
