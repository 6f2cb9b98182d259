"""Tests for the log-structured delta store: append, merge at open, compaction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.errors import StorageError
from repro.graph.generators import generate_gnm
from repro.graph.labeled_graph import LabeledGraph
from repro.storage.delta import DeltaLog, DeltaRecord, compact_snapshot
from repro.storage.snapshot import open_graph_snapshot, read_manifest


@pytest.fixture
def base() -> LabeledGraph:
    labels = {0: "a", 1: "b", 2: "c", 3: "a"}
    edges = [(0, 1), (1, 2), (2, 3)]
    return LabeledGraph.from_edges(labels, edges)


def save(graph: LabeledGraph, directory) -> None:
    MemoryCloud.from_graph(graph, ClusterConfig(machine_count=2)).save_snapshot(directory)


@pytest.fixture
def merged(tmp_path, base):
    """The graph read back from ``base``'s snapshot with ``records`` pending."""

    def read_back(records):
        directory = tmp_path / "snap"
        save(base, directory)
        DeltaLog(directory).append(records)
        return open_graph_snapshot(directory)

    return read_back


class TestDeltaLog:
    def test_append_and_read_round_trip(self, tmp_path):
        log = DeltaLog(tmp_path)
        assert not log.exists()
        assert log.read() == []
        count = log.append(
            [DeltaRecord("edge", 1, 2), DeltaRecord("node", 9, label="x")]
        )
        assert count == 2
        records = log.read()
        assert records == [
            DeltaRecord("edge", 1, 2),
            DeltaRecord("node", 9, label="x"),
        ]
        assert log.count() == 2

    def test_append_helpers(self, tmp_path):
        log = DeltaLog(tmp_path)
        assert log.append_edges([(1, 2), (3, 4)]) == 2
        assert log.append_nodes([(5, "z")]) == 1
        assert [record.op for record in log.read()] == ["edge", "edge", "node"]

    def test_append_empty_batch_writes_nothing(self, tmp_path):
        log = DeltaLog(tmp_path)
        assert log.append([]) == 0
        assert not log.exists()

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        log = DeltaLog(tmp_path)
        log.path.write_text("# header\n\nedge\t1\t2\n\n# trailing\n")
        assert log.read() == [DeltaRecord("edge", 1, 2)]

    def test_malformed_record_names_path_and_line(self, tmp_path):
        log = DeltaLog(tmp_path)
        log.path.write_text("edge\t1\t2\nedge\tone\ttwo\n")
        with pytest.raises(StorageError, match=rf"{log.path}:2: malformed"):
            log.read()

    def test_unknown_op_rejected(self, tmp_path):
        log = DeltaLog(tmp_path)
        log.path.write_text("vertex\t1\t2\n")
        with pytest.raises(StorageError, match="malformed delta record"):
            log.read()

    def test_clear_removes_log(self, tmp_path):
        log = DeltaLog(tmp_path)
        log.append_edges([(1, 2)])
        assert log.size_bytes() > 0
        log.clear()
        assert not log.exists()
        assert log.size_bytes() == 0
        log.clear()  # idempotent


class TestReplay:
    def test_empty_log_returns_base(self, base, merged):
        reopened = merged([])
        for column in ("node_id_array", "label_id_array", "offset_array", "neighbor_array"):
            assert np.array_equal(getattr(reopened, column)(), getattr(base, column)())
        assert reopened.edge_count == base.edge_count

    def test_add_node_and_edges(self, base, merged):
        graph = merged(
            [
                DeltaRecord("node", 10, label="d"),
                DeltaRecord("edge", 10, 0),
                DeltaRecord("edge", 10, 3),
            ],
        )
        assert graph.node_count == base.node_count + 1
        assert graph.edge_count == base.edge_count + 2
        assert graph.labels()[10] == "d"
        assert sorted(graph.neighbors(10)) == [0, 3]
        # The base is untouched.
        assert base.node_count == 4

    def test_relabel_existing_node(self, base, merged):
        graph = merged([DeltaRecord("node", 0, label="z")])
        assert graph.node_count == base.node_count
        assert graph.labels()[0] == "z"
        assert base.labels()[0] == "a"

    def test_duplicate_edge_is_idempotent(self, base, merged):
        graph = merged([DeltaRecord("edge", 0, 1)])
        assert graph.edge_count == base.edge_count

    def test_later_node_record_wins(self, merged):
        graph = merged(
            [DeltaRecord("node", 10, label="x"), DeltaRecord("node", 10, label="y")],
        )
        assert graph.labels()[10] == "y"

    def test_edge_to_unknown_node_fails(self, merged):
        with pytest.raises(StorageError, match="replay failed"):
            merged([DeltaRecord("edge", 0, 999)])


class TestCompaction:
    def test_compact_empty_log_is_noop(self, tmp_path, base):
        save(base, tmp_path / "snap")
        manifest = compact_snapshot(tmp_path / "snap")
        assert manifest.generation == 1

    def test_compact_folds_log_and_bumps_generation(self, tmp_path, base):
        save(base, tmp_path / "snap")
        log = DeltaLog(tmp_path / "snap")
        log.append_nodes([(10, "d")])
        log.append_edges([(10, 0)])
        manifest = compact_snapshot(tmp_path / "snap")
        assert manifest.generation == 2
        assert not log.exists()
        reopened = open_graph_snapshot(tmp_path / "snap")
        assert reopened.node_count == base.node_count + 1
        assert sorted(reopened.neighbors(10)) == [0]

    def test_open_replays_pending_log(self, tmp_path, base):
        save(base, tmp_path / "snap")
        DeltaLog(tmp_path / "snap").append_nodes([(10, "d")])
        replayed = open_graph_snapshot(tmp_path / "snap")
        assert replayed.node_count == base.node_count + 1
        # The base generation on disk still holds the base.
        assert replayed.snapshot_manifest.node_count == base.node_count

    def test_compact_preserves_cloud_state(self, tmp_path):
        graph = generate_gnm(50, 120, label_count=3, seed=5)
        cloud = MemoryCloud.from_graph(graph, ClusterConfig(machine_count=3))
        cloud.save_snapshot(tmp_path / "snap")
        DeltaLog(tmp_path / "snap").append_edges([(0, 7)])
        manifest = compact_snapshot(tmp_path / "snap")
        assert manifest.generation == 2
        assert manifest.machine_count == 3
        reopened = MemoryCloud.open_snapshot(tmp_path / "snap")
        assert reopened.machine_count == 3
        # The compacted base reopens on the memmap fast path again.
        assert reopened.storage_publication is not None
        merged = open_graph_snapshot(tmp_path / "snap")
        assert {
            (u, v) for u, v in merged.edges()
        } == {
            (node, int(neighbor))
            for node in merged.nodes()
            for neighbor in reopened.load_neighbors(node)
            if node < int(neighbor)
        }
        assert read_manifest(tmp_path / "snap").generation == 2
