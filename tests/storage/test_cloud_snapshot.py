"""End-to-end tests: cloud snapshots, the mmap fast path, and query parity."""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np
import pytest

import repro.api as api
from repro.baselines.vf2 import vf2_match
from repro.cloud.cluster import IMAGE_COLUMNS, MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.core.engine import SubgraphMatcher
from repro.graph.generators import generate_gnm
from repro.graph.partition import (
    BlockPartitioner,
    RoundRobinPartitioner,
    partitioner_name,
)
from repro.query.generators import dfs_query
from repro.query.query_graph import QueryGraph
from repro.errors import StorageError
from repro.storage.cloud_snapshot import cluster_config_from_manifest
from repro.storage.delta import DeltaLog, DeltaRecord, compact_snapshot
from repro.storage.snapshot import (
    open_graph_snapshot,
    read_manifest,
)
from tests.helpers import (
    assert_same_image,
    memmapped_columns,
    oracle_replay,
    v2_partition_arrays,
    write_graph_only_snapshot,
    write_older_cloud_snapshot,
    write_raw_snapshot,
)

#: Every image column (the same names at every machine count).
IMAGE = set(IMAGE_COLUMNS)


@pytest.fixture
def graph():
    return generate_gnm(80, 220, label_count=4, seed=13)


@pytest.fixture
def cloud(graph):
    return MemoryCloud.from_graph(graph, ClusterConfig(machine_count=3))


def two_edge_path_query(graph) -> QueryGraph:
    frequent = sorted(
        graph.label_frequencies().items(), key=lambda item: (-item[1], item[0])
    )
    a, b, c = (label for label, _count in frequent[:3])
    return QueryGraph({"q0": a, "q1": b, "q2": c}, [("q0", "q1"), ("q1", "q2")])


def match_rows(cloud, query, executor="serial"):
    result = SubgraphMatcher(cloud, executor=executor).match(query)
    return sorted(result.rows)


class TestCloudRoundTrip:
    def test_fast_path_round_trip(self, tmp_path, cloud, graph):
        manifest = cloud.save_snapshot(tmp_path / "snap")
        assert manifest.machine_count == 3

        reopened = MemoryCloud.open_snapshot(tmp_path / "snap")
        assert memmapped_columns(reopened) == IMAGE  # memmap fast path
        assert reopened.machine_count == cloud.machine_count
        assert reopened.node_count == cloud.node_count
        assert reopened.edge_count == cloud.edge_count
        assert reopened.partition_sizes() == cloud.partition_sizes()
        for node in graph.nodes():
            assert reopened.owner_of(node) == cloud.owner_of(node)
            assert sorted(reopened.load_neighbors(node)) == sorted(
                cloud.load_neighbors(node)
            )

    def test_label_pair_metadata_survives(self, tmp_path, cloud):
        cloud.save_snapshot(tmp_path / "snap")
        reopened = MemoryCloud.open_snapshot(tmp_path / "snap")
        base, pairs = cloud.packed_label_pairs()
        reopened_base, reopened_pairs = reopened.packed_label_pairs()
        assert reopened_base == base
        assert sorted(reopened_pairs) == sorted(pairs) == [(0, 1), (0, 2), (1, 2)]
        for pair, keys in pairs.items():
            assert isinstance(reopened_pairs[pair], np.memmap)
            assert np.array_equal(reopened_pairs[pair], keys)

    def test_partitioner_recorded_and_restored(self, tmp_path, graph):
        config = ClusterConfig(machine_count=2, partitioner=RoundRobinPartitioner())
        cloud = MemoryCloud.from_graph(graph, config)
        cloud.save_snapshot(tmp_path / "snap")
        manifest = read_manifest(tmp_path / "snap")
        assert manifest.cloud["partitioner"] == "round_robin"
        restored = cluster_config_from_manifest(manifest)
        assert isinstance(restored.partitioner, RoundRobinPartitioner)
        assert restored.machine_count == 2

    def test_load_graph_supersedes_snapshot_backing(self, tmp_path, cloud, graph):
        cloud.save_snapshot(tmp_path / "snap")
        reopened = MemoryCloud.open_snapshot(tmp_path / "snap")
        assert memmapped_columns(reopened) == IMAGE
        reopened.load_graph(graph)
        assert memmapped_columns(reopened) == set()


#: The on-disk vocabulary of a 3-machine cloud snapshot of the fixture
#: graph, format version 3: the image once (the global CSR, then the
#: partition map), then the label-pair keys of each machine pair i < j.
#: ``MemoryCloud.columns()`` keys on the same names; a change here means
#: older snapshots stop reopening on the fast path.  (An older writer also stored ``labelpairs/i_i`` and a
#: ``track_label_pairs`` flag; ``TestFormatPin`` opens that layout too.)
PINNED_ARRAY_NAMES = [
    "graph/node_ids", "graph/label_ids", "graph/offsets", "graph/neighbors",
    "assignment/machines",
    "labelpairs/0_1", "labelpairs/0_2", "labelpairs/1_2",
]
PINNED_CLOUD_SECTION = {
    "machine_count": 3,
    "partitioner": "hash",
    "label_pair_base": 4,
    "label_pairs": [[0, 1], [0, 2], [1, 2]],
}
PINNED_MANIFEST_KEYS = {
    "format", "version", "generation", "created_unix", "node_count",
    "edge_count", "labels", "data_file", "arrays", "cloud",
}


class TestFormatPin:
    def test_manifest_vocabulary_is_pinned(self, tmp_path, cloud):
        import json

        from repro.storage.snapshot import SNAPSHOT_VERSION

        cloud.save_snapshot(tmp_path / "snap")
        doc = json.loads((tmp_path / "snap" / "manifest.json").read_text())
        assert SNAPSHOT_VERSION == doc["version"] == 3
        assert set(doc) == PINNED_MANIFEST_KEYS
        assert [entry["name"] for entry in doc["arrays"]] == PINNED_ARRAY_NAMES
        assert set(doc["arrays"][0]) == {"name", "offset", "shape", "dtype", "crc32"}
        assert doc["cloud"] == PINNED_CLOUD_SECTION

        reopened = MemoryCloud.open_snapshot(tmp_path / "snap")
        # The image is the pinned names minus the label-pair keys.
        assert memmapped_columns(reopened) == set(reopened.columns()) == {
            name for name in PINNED_ARRAY_NAMES if not name.startswith("labelpairs/")
        }

    def test_older_layout_opens_on_the_fast_path(self, tmp_path, cloud, graph):
        """A snapshot with ``labelpairs/i_i`` arrays and a ``track_label_pairs``
        flag opens file-backed as the same image, its ``i_i`` keys unread."""
        directory = write_older_cloud_snapshot(graph, tmp_path / "snap", 3)
        doc = read_manifest(directory)
        assert doc.cloud["track_label_pairs"] is True
        assert [0, 0] in doc.cloud["label_pairs"] and "labelpairs/2_2" in doc.arrays
        with MemoryCloud.open_snapshot(directory) as reopened:
            assert memmapped_columns(reopened) == IMAGE
            assert_same_image(reopened, cloud)


class TestFallbackPaths:
    def test_pending_deltas_force_replayed_reload(self, tmp_path, cloud):
        cloud.save_snapshot(tmp_path / "snap")
        DeltaLog(tmp_path / "snap").append_nodes([(5000, "new")])
        DeltaLog(tmp_path / "snap").append_edges([(5000, 0)])
        reopened = MemoryCloud.open_snapshot(tmp_path / "snap")
        assert memmapped_columns(reopened) < IMAGE  # replayed: some columns in RAM
        assert reopened.node_count == cloud.node_count + 1
        assert 0 in {int(n) for n in reopened.load_neighbors(5000)}

    def test_graph_only_snapshot_repartitions(self, tmp_path, graph):
        write_graph_only_snapshot(graph, tmp_path / "snap")
        reopened = MemoryCloud.open_snapshot(
            tmp_path / "snap", ClusterConfig(machine_count=2)
        )
        # Placed afresh over the stored CSR, adopted as it was.
        assert memmapped_columns(reopened) == IMAGE - {"assignment/machines"}
        assert reopened.machine_count == 2
        assert reopened.node_count == graph.node_count

    def test_machine_count_mismatch_repartitions(self, tmp_path, cloud, graph):
        cloud.save_snapshot(tmp_path / "snap")
        reopened = MemoryCloud.open_snapshot(
            tmp_path / "snap", ClusterConfig(machine_count=5)
        )
        # Placed afresh over the image's own CSR: only the partition map is new.
        assert memmapped_columns(reopened) == IMAGE - {"assignment/machines"}
        assert reopened.machine_count == 5
        assert reopened.edge_count == cloud.edge_count

    def test_partitioner_mismatch_still_uses_stored_partition(self, tmp_path, graph):
        # The fast path keys on machine count; the stored partition map wins.
        cloud = MemoryCloud.from_graph(
            graph, ClusterConfig(machine_count=3, partitioner=BlockPartitioner())
        )
        cloud.save_snapshot(tmp_path / "snap")
        reopened = MemoryCloud.open_snapshot(tmp_path / "snap")
        assert reopened.partition_sizes() == cloud.partition_sizes()


class TestParseOnce:
    def test_open_and_compact_parse_each_file_once(self, tmp_path, cloud, monkeypatch):
        """The cold-open path pays one manifest parse and one log parse."""
        import repro.storage.snapshot as snapshot_module

        cloud.save_snapshot(tmp_path / "snap")
        DeltaLog(tmp_path / "snap").append_edges([(0, 79), (1, 78)])
        parses = {"manifest": 0, "log": 0}
        real_loads, real_read = snapshot_module.json.loads, DeltaLog.read

        def counting_loads(text, *args, **kwargs):
            parses["manifest"] += 1
            return real_loads(text, *args, **kwargs)

        def counting_read(log):
            parses["log"] += 1
            return real_read(log)

        monkeypatch.setattr(snapshot_module.json, "loads", counting_loads)
        monkeypatch.setattr(DeltaLog, "read", counting_read)

        overlay = MemoryCloud.open_snapshot(tmp_path / "snap")
        assert memmapped_columns(overlay) < IMAGE  # replayed
        assert parses == {"manifest": 1, "log": 1}

        parses.update(manifest=0, log=0)
        compact_snapshot(tmp_path / "snap")
        assert parses == {"manifest": 1, "log": 1}

        parses.update(manifest=0, log=0)
        clean = MemoryCloud.open_snapshot(tmp_path / "snap")
        assert memmapped_columns(clean) == IMAGE
        assert parses == {"manifest": 1, "log": 1}


class TestOverlayMerge:
    """Pending deltas are spliced into the attached image, not rebuilt over."""

    def test_reopen_with_pending_edges_rebuilds_nothing(
        self, tmp_path, cloud, monkeypatch
    ):
        import repro.cloud.cluster as cluster_module
        import repro.storage.cloud_snapshot as cloud_snapshot_module
        from repro.graph.labeled_graph import LabeledGraph
        from repro.graph.partition import PARTITIONERS

        cloud.save_snapshot(tmp_path / "snap")
        DeltaLog(tmp_path / "snap").append_edges([(0, 79), (78, 1), (0, 79)])
        def spy(name):
            def forbidden(*args, **kwargs):
                raise AssertionError(f"{name} called while merging a delta log")

            return forbidden

        monkeypatch.setattr(MemoryCloud, "load_graph", spy("load_graph"))
        monkeypatch.setattr(LabeledGraph, "from_arrays", spy("from_arrays"))
        for partitioner in PARTITIONERS.values():
            monkeypatch.setattr(partitioner, "assign", spy("Partitioner.assign"))
        for module in (cluster_module, cloud_snapshot_module):
            monkeypatch.setattr(
                module, "cross_machine_label_pairs", spy("cross_machine_label_pairs")
            )

        overlay = MemoryCloud.open_snapshot(tmp_path / "snap")
        assert overlay.edge_count == cloud.edge_count + 2
        assert 79 in overlay.load_neighbors(0).tolist()
        assert 78 in overlay.load_neighbors(1).tolist()

    def test_edge_only_log_leaves_node_columns_file_backed(self, tmp_path, cloud):
        cloud.save_snapshot(tmp_path / "snap")
        DeltaLog(tmp_path / "snap").append_edges([(0, 79), (1, 78)])
        overlay = MemoryCloud.open_snapshot(tmp_path / "snap")
        # Only the adjacency got new columns.
        untouched = {"graph/node_ids", "graph/label_ids", "assignment/machines"}
        assert memmapped_columns(overlay) == untouched
        columns = overlay.columns()
        for name in untouched:
            assert not columns[name].flags.writeable, name

    def test_mixed_image_serves_both_executors(self, tmp_path, cloud, graph):
        query = two_edge_path_query(graph)
        cloud.save_snapshot(tmp_path / "snap")
        DeltaLog(tmp_path / "snap").append_edges([(0, 2), (1, 3)])
        with MemoryCloud.open_snapshot(tmp_path / "snap") as overlay:
            serial = match_rows(overlay, query, "serial")
            assert serial
            assert match_rows(overlay, query, "process") == serial

    def test_untracked_snapshot_opened_by_a_tracking_cloud(self, tmp_path, graph):
        """An older writer's untracked snapshot stores no keys to extend: the
        pairs come from the merged partitions."""
        write_older_cloud_snapshot(graph, tmp_path / "snap", 3, track_label_pairs=False)
        DeltaLog(tmp_path / "snap").append_edges([(0, 79)])
        overlay = MemoryCloud.open_snapshot(
            tmp_path / "snap", ClusterConfig(machine_count=3)
        )
        merged = MemoryCloud.from_graph(
            oracle_replay(graph, [DeltaRecord("edge", 0, 79)]),
            ClusterConfig(machine_count=3),
        )
        # Hash placement depends on the ID alone, so the whole image matches.
        assert_same_image(overlay, merged)

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_untracked_snapshot_cleanly_opened_by_a_tracking_cloud(
        self, tmp_path, graph, cloud, executor
    ):
        """The same snapshot with no log pending once installed *no* label
        pairs: the planner then saw a cluster graph without edges, pruned
        every load set and served a fraction of the rows, silently."""
        config = ClusterConfig(machine_count=3)
        query = dfs_query(graph, 4, seed=2)
        expected = match_rows(cloud, query)
        assert len(expected) > 50
        write_older_cloud_snapshot(graph, tmp_path / "snap", 3, track_label_pairs=False)
        with MemoryCloud.open_snapshot(tmp_path / "snap", config) as reopened:
            assert match_rows(reopened, query, executor) == expected
            assert memmapped_columns(reopened) == IMAGE  # still file-backed
            assert_same_image(reopened, cloud)
        with api.connect(
            tmp_path / "snap", cluster_config=config, executor=executor
        ) as db:
            assert sorted(db.query(query).rows) == expected
        cloud.close()


def per_machine_label_sum(cloud):
    """The reference count: every machine's label index, summed."""
    totals = {}
    for machine in cloud.machines:
        for label in cloud.label_table.labels():
            count = len(machine.get_ids_array(label))
            if count:
                totals[label] = totals.get(label, 0) + count
    return totals


class TestGlobalLabelFrequencies:
    """One count over the image's label column equals the per-machine sum."""

    def test_loaded_clean_and_replayed_images(self, tmp_path, cloud, graph):
        expected = graph.label_frequencies()
        assert cloud.global_label_frequencies() == per_machine_label_sum(cloud) == expected
        cloud.save_snapshot(tmp_path / "snap")
        with MemoryCloud.open_snapshot(tmp_path / "snap") as clean:
            assert clean.global_label_frequencies() == per_machine_label_sum(clean) == expected
        # A pending log that relabels node 0 to a label the table has never seen.
        DeltaLog(tmp_path / "snap").append_nodes([(0, "brand-new")])
        expected[graph.label(0)] -= 1
        expected["brand-new"] = 1
        with MemoryCloud.open_snapshot(tmp_path / "snap") as replayed:
            assert (
                replayed.global_label_frequencies()
                == per_machine_label_sum(replayed)
                == expected
            )

    def test_a_label_left_without_nodes_is_omitted(self, tmp_path):
        from repro.graph.labeled_graph import LabeledGraph

        path = LabeledGraph.from_edges({0: "a", 1: "b", 2: "b"}, [(0, 1), (1, 2)])
        MemoryCloud.from_graph(path, ClusterConfig(machine_count=2)).save_snapshot(
            tmp_path / "snap"
        )
        DeltaLog(tmp_path / "snap").append_nodes([(0, "c")])
        with MemoryCloud.open_snapshot(tmp_path / "snap") as replayed:
            assert replayed.global_label_frequencies() == {"b": 2, "c": 1}


class TestIdMapBeyondCompaction:
    """A node the persisted ``IdMap`` never saw: open degrades, compact refuses."""

    @pytest.fixture
    def snapshot(self, tmp_path):
        from repro.ingest import ingest_edges

        # Four sparse external IDs -> dense 0..3 plus a persisted IdMap.
        ingested = ingest_edges(
            np.array([10**12, 10**12 + 5, 7]), np.array([7, 31, 31])
        )
        MemoryCloud.from_graph(ingested, ClusterConfig(machine_count=2)).save_snapshot(
            tmp_path / "snap"
        )
        label = ingested.label_table.labels()[0]
        DeltaLog(tmp_path / "snap").append_nodes([(4, label)])
        DeltaLog(tmp_path / "snap").append_edges([(4, 0)])
        return tmp_path / "snap"

    def test_open_warns_and_serves_dense_ids(self, snapshot):
        with pytest.warns(UserWarning, match=r"beyond its id_map \(4 >= 4\)"):
            overlay = MemoryCloud.open_snapshot(snapshot)
        assert overlay.id_map is None
        assert overlay.node_count == 5

    def test_compact_refuses_and_touches_nothing(self, snapshot):
        files = ("columns.bin", "manifest.json", "deltas.log")
        before = {name: (snapshot / name).read_bytes() for name in files}
        with pytest.raises(StorageError, match=rf"{snapshot}.*node 4 .*id_map"):
            compact_snapshot(snapshot)
        assert {name: (snapshot / name).read_bytes() for name in files} == before
        assert read_manifest(snapshot).id_map == {"kind": "int", "count": 4}

    def test_a_negative_node_is_outside_the_id_map(self, tmp_path):
        """Dense IDs start at 0, so node -1 has no external ID either."""
        from repro.ingest import ingest_edges

        ingested = ingest_edges(np.array([100, 200]), np.array([200, 300]))
        snapshot = tmp_path / "snap"
        MemoryCloud.from_graph(ingested, ClusterConfig(machine_count=2)).save_snapshot(snapshot)
        DeltaLog(snapshot).append_nodes([(-1, "z")])
        DeltaLog(snapshot).append_edges([(-1, 1)])
        with pytest.warns(UserWarning, match=r"beyond its id_map \(-1 < 0\)"):
            overlay = MemoryCloud.open_snapshot(snapshot)
        assert overlay.id_map is None
        assert overlay.node_count == 4
        before = (snapshot / "columns.bin").read_bytes()
        with pytest.raises(StorageError, match="node -1 lies outside its id_map"):
            compact_snapshot(snapshot)
        assert (snapshot / "columns.bin").read_bytes() == before
        assert read_manifest(snapshot).generation == 1


class TestQueryParity:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_snapshot_cloud_matches_in_ram_cloud(
        self, tmp_path, cloud, graph, executor
    ):
        query = two_edge_path_query(graph)
        reference = match_rows(cloud, query)
        assert reference, "query must have matches for the parity check to bite"

        cloud.save_snapshot(tmp_path / "snap")
        reopened = MemoryCloud.open_snapshot(tmp_path / "snap")
        assert memmapped_columns(reopened) == IMAGE
        assert match_rows(reopened, query, executor) == reference

    def test_overlay_and_compacted_clouds_agree(self, tmp_path, cloud, graph):
        query = two_edge_path_query(graph)
        cloud.save_snapshot(tmp_path / "snap")
        DeltaLog(tmp_path / "snap").append_edges([(0, 2), (1, 3)])

        overlay = MemoryCloud.open_snapshot(tmp_path / "snap")
        overlay_rows = match_rows(overlay, query)

        compact_snapshot(tmp_path / "snap")
        compacted = MemoryCloud.open_snapshot(tmp_path / "snap")
        assert memmapped_columns(compacted) == IMAGE
        assert match_rows(compacted, query) == overlay_rows

    def test_vf2_cross_check_on_snapshot_cloud(self, tmp_path, cloud, graph):
        query = two_edge_path_query(graph)
        cloud.save_snapshot(tmp_path / "snap")
        reopened = MemoryCloud.open_snapshot(tmp_path / "snap")
        result = SubgraphMatcher(reopened).match(query)
        expected = {
            tuple(match[node] for node in result.query_nodes)
            for match in vf2_match(graph, query)
        }
        assert set(result.rows) == expected


class TestPlanCacheInvalidation:
    def test_load_graph_invalidates_plan_cache(self, tmp_path, cloud, graph):
        query = two_edge_path_query(graph)
        cloud.save_snapshot(tmp_path / "snap")
        reopened = MemoryCloud.open_snapshot(tmp_path / "snap")
        matcher = SubgraphMatcher(reopened)
        first = matcher.match(query)
        assert first.stats.plan_cache_hit is False
        second = matcher.match(query)
        assert second.stats.plan_cache_hit is True

        reopened.load_graph(graph)
        third = matcher.match(query)
        assert third.stats.plan_cache_hit is False
        assert sorted(third.rows) == sorted(first.rows)


def write_old_snapshot(cloud, directory, version):
    """``cloud`` in the version 2 layout (per-machine CSR partitions, no
    global adjacency) or the version 1 one (those plus the global CSR and
    the ``assignment/ids`` alias)."""
    base, label_pairs = cloud.packed_label_pairs()
    arrays = v2_partition_arrays(cloud)
    if version == 1:
        columns = cloud.columns()
        arrays["graph/offsets"] = columns["graph/offsets"]
        arrays["graph/neighbors"] = columns["graph/neighbors"]
        arrays["assignment/ids"] = columns["graph/node_ids"]
    for low, high in sorted(label_pairs):
        arrays[f"labelpairs/{low}_{high}"] = label_pairs[low, high]
    cloud_section = {
        "machine_count": cloud.machine_count,
        "partitioner": partitioner_name(cloud.config.partitioner),
        "label_pair_base": base,
        "label_pairs": [list(pair) for pair in sorted(label_pairs)],
    }
    return write_raw_snapshot(
        directory, arrays, version=version, node_count=cloud.node_count,
        edge_count=cloud.edge_count, labels=list(cloud.label_table.labels()),
        cloud=cloud_section,
    )


class TestVersion1Snapshots:
    """A version 1 cloud directory is a superset of version 3: its global
    CSR is the image, its partitions and ``assignment/ids`` alias are never
    read, and compaction rewrites it as version 3."""

    @pytest.fixture
    def snapshots(self, tmp_path, cloud, graph):
        cloud.save_snapshot(tmp_path / "v3")
        return write_old_snapshot(cloud, tmp_path / "v1", 1), tmp_path / "v3"

    def test_layouts(self, snapshots):
        v1, v3 = (read_manifest(directory) for directory in snapshots)
        assert (v1.version, v3.version) == (1, 3)
        extra = set(v1.arrays) - set(v3.arrays)
        assert extra == {"assignment/ids"} | {
            f"machine{m}/{column}"
            for m in range(3) for column in ("node_ids", "label_ids", "offsets", "neighbors")
        }
        assert not set(v3.arrays) - set(v1.arrays)

    def test_opens_identically(self, snapshots, graph):
        query = two_edge_path_query(graph)
        v1, v3 = snapshots
        with MemoryCloud.open_snapshot(v1) as old, MemoryCloud.open_snapshot(v3) as new:
            assert memmapped_columns(old) == IMAGE
            assert_same_image(old, new)
            assert match_rows(old, query) == match_rows(new, query)
        # Another machine count: both place the image's nodes afresh.
        five = ClusterConfig(machine_count=5)
        old, new = (MemoryCloud.open_snapshot(directory, five) for directory in snapshots)
        assert_same_image(old, MemoryCloud.from_graph(graph, five))
        assert_same_image(new, old)
        assert match_rows(old, query) == match_rows(new, query)

    def test_replays_a_pending_log_identically(self, snapshots, graph):
        query = two_edge_path_query(graph)
        for directory in snapshots:
            DeltaLog(directory).append_nodes([(5000, "new")])
            DeltaLog(directory).append_edges([(5000, 0), (1, 78)])
        old, new = (MemoryCloud.open_snapshot(directory) for directory in snapshots)
        assert old.node_count == graph.node_count + 1
        assert_same_image(old, new)
        assert match_rows(old, query) == match_rows(new, query)

    def test_graph_readers_derive_the_same_graph(self, snapshots, graph):
        for directory in snapshots:
            derived = api.load_dataset(directory)
            for column in ("node_id_array", "label_id_array", "offset_array", "neighbor_array"):
                assert np.array_equal(getattr(derived, column)(), getattr(graph, column)())
            assert derived.edge_count == graph.edge_count
            DeltaLog(directory).append_edges([(0, 79)])
        old, new = (open_graph_snapshot(directory) for directory in snapshots)
        assert np.array_equal(old.neighbor_array(), new.neighbor_array())
        assert old.edge_count == new.edge_count == graph.edge_count + 1

    def test_compacts_to_version_3(self, snapshots, graph):
        query = two_edge_path_query(graph)
        v1, v3 = snapshots
        for directory in snapshots:
            DeltaLog(directory).append_edges([(0, 2), (1, 3)])
            compact_snapshot(directory)
        compacted = read_manifest(v1)
        assert compacted.version == 3
        assert list(compacted.arrays) == list(read_manifest(v3).arrays)
        with MemoryCloud.open_snapshot(v1) as old, MemoryCloud.open_snapshot(v3) as new:
            assert memmapped_columns(old) == IMAGE
            assert_same_image(old, new)
            assert match_rows(old, query) == match_rows(new, query)


#: A version 2 snapshot committed as written by the last version 2 writer:
#: ``generate_gnm(40, 90, label_count=3, seed=41)`` on three hash-placed
#: machines, stored as per-machine CSR partitions with no global adjacency.
V2_FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "v2_snapshot"


class TestVersion2Snapshots:
    """A version 2 image opens through the partition scatter, serves what its
    graph serves, and compaction rewrites it as version 3."""

    THREE = ClusterConfig(machine_count=3)
    RECORDS = [
        DeltaRecord("node", 5000, label="L1"),
        DeltaRecord("edge", 5000, 0),
        DeltaRecord("edge", 1, 38),
        DeltaRecord("edge", 2, 39),
    ]

    @pytest.fixture
    def v2_graph(self):
        return generate_gnm(40, 90, label_count=3, seed=41)

    @pytest.fixture
    def snapshot(self, tmp_path):
        shutil.copytree(V2_FIXTURE, tmp_path / "v2")
        return tmp_path / "v2"

    @staticmethod
    def served(cloud, graph):
        """Rows and counters of a few queries, on both executors."""
        answers = []
        for seed in range(3):
            query = dfs_query(graph, 3 + seed % 2, seed=seed)
            for executor in ("serial", "process"):
                with SubgraphMatcher(cloud, executor=executor, workers=2) as matcher:
                    result = matcher.match(query)
                answers.append((sorted(result.rows), result.metrics))
        return answers

    def test_fixture_is_a_version_2_image(self):
        manifest = read_manifest(V2_FIXTURE, verify=True)
        assert (manifest.version, manifest.machine_count, manifest.partitioned) == (2, 3, True)
        assert "graph/offsets" not in manifest.arrays
        assert "machine2/neighbors" in manifest.arrays

    def test_opens_clean_as_its_graph(self, v2_graph):
        with MemoryCloud.open_snapshot(V2_FIXTURE) as opened:
            # The scattered adjacency lives in RAM; the rest is the file's.
            assert memmapped_columns(opened) == IMAGE - {"graph/offsets", "graph/neighbors"}
            expected = MemoryCloud.from_graph(v2_graph, self.THREE)
            assert_same_image(opened, expected)
            assert self.served(opened, v2_graph) == self.served(expected, v2_graph)
        derived = open_graph_snapshot(V2_FIXTURE)
        for column in ("node_id_array", "label_id_array", "offset_array", "neighbor_array"):
            assert np.array_equal(getattr(derived, column)(), getattr(v2_graph, column)())

    def test_opens_with_a_pending_log(self, snapshot, v2_graph):
        DeltaLog(snapshot).append(self.RECORDS)
        merged = oracle_replay(v2_graph, self.RECORDS)
        with MemoryCloud.open_snapshot(snapshot) as opened:
            # Hash placement depends on the ID alone, so the whole image matches.
            expected = MemoryCloud.from_graph(merged, self.THREE)
            assert_same_image(opened, expected)
            assert self.served(opened, merged) == self.served(expected, merged)

    @pytest.mark.parametrize("machine_count", [1, 3, 11])
    def test_scatter_restores_every_partition_map(self, tmp_path, graph, machine_count):
        """Eleven block-placed machines leave the last one empty."""
        config = ClusterConfig(machine_count=machine_count, partitioner=BlockPartitioner())
        cloud = MemoryCloud.from_graph(graph, config)
        directory = write_old_snapshot(cloud, tmp_path / "v2", 2)
        assert read_manifest(directory).partitioned
        with MemoryCloud.open_snapshot(directory) as opened:
            assert_same_image(opened, cloud)
            assert opened.partition_sizes() == cloud.partition_sizes()
        assert (cloud.partition_sizes()[-1] == 0) == (machine_count == 11)

    def test_compacts_to_version_3(self, snapshot, v2_graph):
        DeltaLog(snapshot).append(self.RECORDS)
        manifest = compact_snapshot(snapshot)
        assert (manifest.version, manifest.generation, manifest.partitioned) == (3, 2, False)
        assert list(manifest.arrays) == PINNED_ARRAY_NAMES
        merged = oracle_replay(v2_graph, self.RECORDS)
        with MemoryCloud.open_snapshot(snapshot) as compacted:
            assert memmapped_columns(compacted) == IMAGE
            assert_same_image(compacted, MemoryCloud.from_graph(merged, self.THREE))


class TestGraphOnlySnapshots:
    """A directory of the retired graph-only kind reads as a one-machine image."""

    #: What such a directory opens as without ``machines=``.
    ONE_MACHINE = ClusterConfig(machine_count=1)

    @pytest.fixture
    def legacy(self, tmp_path, graph):
        return write_graph_only_snapshot(graph, tmp_path / "legacy")

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_opens_as_one_machine(self, legacy, graph, cloud, executor):
        query = two_edge_path_query(graph)
        with MemoryCloud.open_snapshot(legacy) as opened:
            assert opened.machine_count == 1
            # The partition map lives in RAM; the CSR is the file's.
            assert memmapped_columns(opened) == IMAGE - {"assignment/machines"}
            assert_same_image(opened, MemoryCloud.from_graph(graph, self.ONE_MACHINE))
            assert match_rows(opened, query, executor) == match_rows(cloud, query)
        with api.connect(legacy, executor=executor) as db:
            assert sorted(db.query(query).rows) == match_rows(cloud, query)

    def test_graph_readers_get_the_csr_unchanged(self, legacy, graph):
        for derived in (open_graph_snapshot(legacy), api.load_dataset(legacy)):
            for column in ("node_id_array", "label_id_array", "offset_array", "neighbor_array"):
                array = getattr(derived, column)()
                assert isinstance(array, np.memmap), column
                assert np.array_equal(array, getattr(graph, column)()), column
            assert derived.edge_count == graph.edge_count

    def test_pending_log_merges(self, legacy, graph):
        records = [
            DeltaRecord("node", 5000, label="new"),
            DeltaRecord("edge", 5000, 0),
            DeltaRecord("edge", 1, 78),
        ]
        DeltaLog(legacy).append(records)
        expected = oracle_replay(graph, records)
        with MemoryCloud.open_snapshot(legacy) as opened:
            assert_same_image(opened, MemoryCloud.from_graph(expected, self.ONE_MACHINE))
        merged = open_graph_snapshot(legacy)
        for column in ("node_id_array", "label_id_array", "offset_array", "neighbor_array"):
            assert np.array_equal(getattr(merged, column)(), getattr(expected, column)())

    def test_compacts_to_a_one_machine_version_3_snapshot(self, legacy, graph):
        query = two_edge_path_query(graph)
        DeltaLog(legacy).append_edges([(0, 2), (1, 3)])
        with MemoryCloud.open_snapshot(legacy) as overlay:
            expected = match_rows(overlay, query)
        manifest = compact_snapshot(legacy)
        assert (manifest.version, manifest.generation, manifest.machine_count) == (3, 2, 1)
        assert not manifest.resident
        with MemoryCloud.open_snapshot(legacy) as compacted:
            assert memmapped_columns(compacted) == IMAGE
            assert match_rows(compacted, query) == expected

    def test_a_missing_csr_column_is_named(self, legacy):
        import json

        path = legacy / "manifest.json"
        doc = json.loads(path.read_text())
        doc["arrays"] = [entry for entry in doc["arrays"] if entry["name"] != "graph/offsets"]
        path.write_text(json.dumps(doc))
        with pytest.raises(StorageError, match="missing required array 'graph/offsets'"):
            read_manifest(legacy)
