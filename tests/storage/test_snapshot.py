"""Tests for the persistent snapshot format (manifest + columns.bin)."""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.errors import StorageError
from repro.graph.generators import generate_gnm
from repro.graph.labeled_graph import LabeledGraph
from repro.storage.snapshot import (
    DATA_NAME,
    MANIFEST_NAME,
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    open_graph_snapshot,
    read_manifest,
    snapshot_exists,
    write_snapshot,
)


@pytest.fixture
def graph() -> LabeledGraph:
    return generate_gnm(40, 90, label_count=3, seed=11)


def save(graph: LabeledGraph, directory, machines: int = 2, generation: int = 1):
    """``graph`` partitioned for ``machines`` and saved to ``directory``."""
    cloud = MemoryCloud.from_graph(graph, ClusterConfig(machine_count=machines))
    return cloud.save_snapshot(directory, generation=generation)


def assert_graphs_equal(left: LabeledGraph, right: LabeledGraph) -> None:
    assert left.node_count == right.node_count
    assert left.edge_count == right.edge_count
    assert left.labels() == right.labels()
    assert sorted(left.edges()) == sorted(right.edges())
    for column in ("node_id_array", "label_id_array", "offset_array", "neighbor_array"):
        assert np.array_equal(getattr(left, column)(), getattr(right, column)())


class TestRoundTrip:
    def test_graph_round_trip(self, tmp_path, graph):
        manifest = save(graph, tmp_path / "snap")
        assert manifest.generation == 1
        assert manifest.node_count == graph.node_count
        assert manifest.edge_count == graph.edge_count
        assert manifest.machine_count == 2
        reopened = open_graph_snapshot(tmp_path / "snap")
        assert_graphs_equal(reopened, graph)

    def test_reopened_graph_is_memmap_backed(self, tmp_path, graph):
        """A one-machine image's partition is the graph's CSR: adopted whole."""
        save(graph, tmp_path / "snap", machines=1)
        reopened = open_graph_snapshot(tmp_path / "snap")
        for column in ("node_id_array", "label_id_array", "offset_array", "neighbor_array"):
            assert isinstance(getattr(reopened, column)(), np.memmap), column
        assert reopened.snapshot_manifest.directory == (tmp_path / "snap").resolve()

    def test_verify_passes_on_intact_snapshot(self, tmp_path, graph):
        save(graph, tmp_path / "snap")
        manifest = read_manifest(tmp_path / "snap", verify=True)
        manifest.verify()

    def test_snapshot_exists(self, tmp_path, graph):
        assert not snapshot_exists(tmp_path / "snap")
        save(graph, tmp_path / "snap")
        assert snapshot_exists(tmp_path / "snap")

    def test_snapshot_is_relocatable(self, tmp_path, graph):
        save(graph, tmp_path / "a")
        shutil.move(str(tmp_path / "a"), str(tmp_path / "b"))
        reopened = open_graph_snapshot(tmp_path / "b")
        assert_graphs_equal(reopened, graph)

    def test_empty_graph_round_trip(self, tmp_path):
        empty = LabeledGraph.from_edges({}, [])
        save(empty, tmp_path / "snap")
        reopened = open_graph_snapshot(tmp_path / "snap")
        assert reopened.node_count == 0
        assert reopened.edge_count == 0

    def test_overwrite_bumps_nothing_but_is_atomic(self, tmp_path, graph):
        save(graph, tmp_path / "snap", generation=3)
        manifest = save(graph, tmp_path / "snap", generation=4)
        assert manifest.generation == 4
        assert read_manifest(tmp_path / "snap").generation == 4


class TestManifestValidation:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(StorageError, match="no snapshot manifest"):
            read_manifest(tmp_path)

    def test_wrong_format_tag(self, tmp_path, graph):
        save(graph, tmp_path / "snap")
        path = tmp_path / "snap" / MANIFEST_NAME
        doc = json.loads(path.read_text())
        doc["format"] = "something-else"
        path.write_text(json.dumps(doc))
        with pytest.raises(StorageError, match=SNAPSHOT_FORMAT):
            read_manifest(tmp_path / "snap")

    def test_unsupported_version(self, tmp_path, graph):
        save(graph, tmp_path / "snap")
        path = tmp_path / "snap" / MANIFEST_NAME
        doc = json.loads(path.read_text())
        doc["version"] = SNAPSHOT_VERSION + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(StorageError, match="version"):
            read_manifest(tmp_path / "snap")

    def test_missing_data_file(self, tmp_path, graph):
        save(graph, tmp_path / "snap")
        (tmp_path / "snap" / DATA_NAME).unlink()
        with pytest.raises(StorageError, match="data file"):
            read_manifest(tmp_path / "snap")

    def test_missing_required_array(self, tmp_path, graph):
        save(graph, tmp_path / "snap")
        path = tmp_path / "snap" / MANIFEST_NAME
        doc = json.loads(path.read_text())
        doc["arrays"] = [
            entry for entry in doc["arrays"] if entry["name"] != "graph/offsets"
        ]
        path.write_text(json.dumps(doc))
        with pytest.raises(StorageError, match="graph/offsets"):
            read_manifest(tmp_path / "snap")

    def test_corrupted_data_fails_verification(self, tmp_path, graph):
        save(graph, tmp_path / "snap")
        manifest = read_manifest(tmp_path / "snap")
        spec = manifest.spec("graph/neighbors")
        with open(tmp_path / "snap" / DATA_NAME, "r+b") as handle:
            handle.seek(spec.offset)
            handle.write(b"\xff" * 8)
        with pytest.raises(StorageError, match="checksum mismatch"):
            read_manifest(tmp_path / "snap", verify=True)
        # Without verification the corruption goes unnoticed by design.
        read_manifest(tmp_path / "snap")

    def test_unparsable_manifest(self, tmp_path, graph):
        save(graph, tmp_path / "snap")
        (tmp_path / "snap" / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(StorageError, match="unreadable"):
            read_manifest(tmp_path / "snap")

    def test_spec_lookup_errors_on_unknown_name(self, tmp_path, graph):
        save(graph, tmp_path / "snap")
        manifest = read_manifest(tmp_path / "snap")
        with pytest.raises(StorageError, match="no array"):
            manifest.spec("graph/unknown")


class TestLowLevelWriter:
    def test_missing_graph_array_rejected(self, tmp_path):
        arrays = {"graph/node_ids": np.arange(2, dtype=np.int64)}
        with pytest.raises(StorageError, match="required array 'graph/label_ids'"):
            write_snapshot(
                tmp_path / "snap", arrays, node_count=2, edge_count=0, labels=(),
                cloud={"machine_count": 1},
            )
        assert not (tmp_path / "snap").exists()
