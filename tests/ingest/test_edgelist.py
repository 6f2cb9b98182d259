"""Unit tests of edge-list ingestion and the DBLP XML adapter."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.core.engine import SubgraphMatcher
from repro.errors import GraphError
from repro.ingest import (
    degree_band_labeler,
    ingest_edge_list,
    ingest_edges,
    read_edge_list,
)
from repro.query.query_graph import QueryGraph


@pytest.fixture
def sparse_edge_file(tmp_path):
    path = tmp_path / "sparse.edges"
    path.write_text(
        "# a co-author slice with sparse 64-bit IDs\n"
        f"{2**40 + 1}\t7\n"
        "7 12345678901\n"
        "\n"
        "12345678901\t7\n"
        "7 99\n"
    )
    return path


class TestReadEdgeList:
    def test_reads_whitespace_and_tabs_skipping_comments(self, sparse_edge_file):
        src, dst, lines = read_edge_list(str(sparse_edge_file))
        assert lines == 4
        assert src.dtype.kind == "i"
        assert src[0] == 2**40 + 1 and dst[0] == 7

    def test_string_ids(self, tmp_path):
        path = tmp_path / "s.edges"
        path.write_text("alice bob\nbob carol\n")
        src, dst, lines = read_edge_list(str(path))
        assert lines == 2
        assert src.dtype.kind == "U"
        assert src.tolist() == ["alice", "bob"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(GraphError, match="not found"):
            read_edge_list(str(tmp_path / "nope.edges"))

    def test_malformed_line_has_location(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("1 2\nonly-one-token\n")
        with pytest.raises(GraphError, match=r"bad\.edges:2"):
            read_edge_list(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.edges"
        path.write_text("# nothing\n")
        src, dst, lines = read_edge_list(str(path))
        assert lines == 0 and len(src) == 0 and len(dst) == 0


class TestIngestEdges:
    def test_dense_output_with_report(self, sparse_edge_file):
        graph = ingest_edge_list(sparse_edge_file)
        assert graph.node_count == 4
        assert graph.edge_count == 3  # one duplicate collapsed
        # Internal IDs are always the dense domain 0..n-1.
        assert graph.node_id_array().tolist() == [0, 1, 2, 3]
        report = graph.ingest_report
        assert report.duplicate_edges_collapsed == 1
        assert report.remapped and report.id_kind == "int"
        assert "4 nodes" in report.summary()

    def test_self_loops_dropped_and_counted(self):
        graph = ingest_edges(
            np.array([5, 5, 9], dtype=np.int64),
            np.array([9, 5, 5], dtype=np.int64),
        )
        assert graph.edge_count == 1
        assert graph.ingest_report.self_loops_dropped == 1

    def test_isolated_nodes_via_extra_ids(self):
        graph = ingest_edges(
            np.array([1], dtype=np.int64),
            np.array([2], dtype=np.int64),
            extra_ids=[777],
        )
        assert graph.node_count == 3
        assert graph.id_map.dense_of(777) == 2
        assert graph.neighbors(graph.id_map.dense_of(777)) == ()

    def test_already_dense_ids_skip_remap(self):
        graph = ingest_edges(np.array([0, 1]), np.array([1, 2]))
        assert not graph.ingest_report.remapped
        assert graph.id_map.is_identity

    def test_explicit_labels_override_default(self):
        graph = ingest_edges(
            np.array([10, 20], dtype=np.int64),
            np.array([20, 30], dtype=np.int64),
            labels={10: "author", 30: "paper"},
            default_label="entity",
        )
        dense = graph.id_map
        assert graph.label(dense.dense_of(10)) == "author"
        assert graph.label(dense.dense_of(20)) == "entity"
        assert graph.label(dense.dense_of(30)) == "paper"

    def test_degree_band_labeler(self):
        # node 7 has degree 3, others degree 1: bands split on bound 2.
        graph = ingest_edges(
            np.array([7, 7, 7], dtype=np.int64),
            np.array([100, 200, 300], dtype=np.int64),
            labeler=degree_band_labeler((2,)),
        )
        assert graph.label(graph.id_map.dense_of(7)) == "rank1"
        assert graph.label(graph.id_map.dense_of(100)) == "rank0"

    def test_mixed_kinds_rejected(self):
        with pytest.raises(GraphError, match="mix integer and string"):
            ingest_edges(
                np.array([1, 2], dtype=np.int64),
                np.array([2, 3], dtype=np.int64),
                labels={"alice": "author"},
            )

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(GraphError, match="parallel"):
            ingest_edges(np.array([1]), np.array([2, 3]))


class TestIngestedQueryEndToEnd:
    def test_matches_report_original_sparse_ids(self, sparse_edge_file):
        graph = ingest_edge_list(sparse_edge_file, labeler=degree_band_labeler((2,)))
        cloud = MemoryCloud.from_graph(graph, ClusterConfig(machine_count=2))
        # Node 7 has degree 3 (rank1); after the duplicate edge collapses
        # every other node has degree 1 (rank0): hub-with-leaf pattern.
        query = QueryGraph(
            {"hub": "rank1", "leaf": "rank0"}, [("hub", "leaf")]
        )
        result = SubgraphMatcher(cloud).match(query)
        externals = {(d["hub"], d["leaf"]) for d in result.as_dicts()}
        assert externals == {(7, 2**40 + 1), (7, 12345678901), (7, 99)}
        # The raw table stays dense for downstream numpy consumers.
        assert result.to_array().max() < graph.node_count
        assert result.external_rows() == [
            tuple(d[c] for c in result.columns) for d in result.as_dicts()
        ]
        cloud.close()
