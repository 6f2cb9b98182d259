"""End-to-end tests: cloud snapshots, the mmap fast path, and query parity."""

from __future__ import annotations

import numpy as np
import pytest

import repro.api as api
from repro.baselines.vf2 import vf2_match
from repro.cloud.cluster import MemoryCloud, column_names
from repro.cloud.config import ClusterConfig
from repro.core.engine import SubgraphMatcher
from repro.graph.generators import generate_gnm
from repro.graph.partition import BlockPartitioner, RoundRobinPartitioner
from repro.query.generators import dfs_query
from repro.query.query_graph import QueryGraph
from repro.errors import StorageError
from repro.storage.cloud_snapshot import cluster_config_from_manifest
from repro.storage.delta import DeltaLog, DeltaRecord, compact_snapshot
from repro.storage.snapshot import (
    open_graph_snapshot,
    read_manifest,
    write_snapshot,
)
from tests.helpers import (
    assert_same_image,
    memmapped_columns,
    oracle_replay,
    write_graph_only_snapshot,
)

#: Every image column of the fixture cloud (3 machines).
IMAGE = set(column_names(3))


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
        for a in range(3):
            for b in range(3):
                assert reopened.label_pairs_between(a, b) == (
                    cloud.label_pairs_between(a, b)
                )

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
#: graph, format version 2: the image once, then the label-pair keys.
#: ``MemoryCloud.columns()`` keys on the same names; a change here means
#: older snapshots stop reopening on the fast path.
PINNED_ARRAY_NAMES = [
    "graph/node_ids", "graph/label_ids", "assignment/machines",
    "machine0/node_ids", "machine0/label_ids", "machine0/offsets", "machine0/neighbors",
    "machine1/node_ids", "machine1/label_ids", "machine1/offsets", "machine1/neighbors",
    "machine2/node_ids", "machine2/label_ids", "machine2/offsets", "machine2/neighbors",
    "labelpairs/0_0", "labelpairs/0_1", "labelpairs/0_2",
    "labelpairs/1_1", "labelpairs/1_2", "labelpairs/2_2",
]
PINNED_CLOUD_SECTION = {
    "machine_count": 3,
    "partitioner": "hash",
    "track_label_pairs": True,
    "label_pair_base": 4,
    "label_pairs": [[0, 0], [0, 1], [0, 2], [1, 1], [1, 2], [2, 2]],
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
        assert SNAPSHOT_VERSION == doc["version"] == 2
        assert set(doc) == PINNED_MANIFEST_KEYS
        assert [entry["name"] for entry in doc["arrays"]] == PINNED_ARRAY_NAMES
        assert set(doc["arrays"][0]) == {"name", "offset", "shape", "dtype", "crc32"}
        assert doc["cloud"] == PINNED_CLOUD_SECTION

        reopened = MemoryCloud.open_snapshot(tmp_path / "snap")
        # The image is the pinned names minus the label-pair keys.
        assert memmapped_columns(reopened) == set(reopened.columns()) == {
            name for name in PINNED_ARRAY_NAMES if not name.startswith("labelpairs/")
        }


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
        # Partitioned afresh from the stored CSR, whose node and label
        # columns the graph adopted as they were.
        assert memmapped_columns(reopened) == {"graph/node_ids", "graph/label_ids"}
        assert reopened.machine_count == 2
        assert reopened.node_count == graph.node_count

    def test_machine_count_mismatch_repartitions(self, tmp_path, cloud, graph):
        cloud.save_snapshot(tmp_path / "snap")
        reopened = MemoryCloud.open_snapshot(
            tmp_path / "snap", ClusterConfig(machine_count=5)
        )
        # Partitioned afresh from the image's graph, which adopted the stored
        # cluster-wide node and label columns.
        assert memmapped_columns(reopened) == {"graph/node_ids", "graph/label_ids"}
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
        # Only the partitions owning an endpoint got new adjacency columns.
        touched = {overlay.owner_of(node) for node in (0, 1, 78, 79)}
        assert touched and touched != {0, 1, 2}, "the log must leave a partition alone"
        untouched = {
            "graph/node_ids", "graph/label_ids", "assignment/machines",
            *(f"machine{m}/{column}" for m in range(3) for column in ("node_ids", "label_ids")),
            *(f"machine{m}/{column}" for m in set(range(3)) - touched
              for column in ("offsets", "neighbors")),
        }
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
        """No stored keys to extend: the pairs come from the merged partitions."""
        MemoryCloud.from_graph(
            graph, ClusterConfig(machine_count=3, track_label_pairs=False)
        ).save_snapshot(tmp_path / "snap")
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
        """The same mismatch with no log pending used to install *no* label
        pairs: the planner then saw a cluster graph without edges, pruned
        every load set and served a fraction of the rows, silently."""
        tracking = ClusterConfig(machine_count=3)
        query = dfs_query(graph, 4, seed=2)
        expected = match_rows(cloud, query)
        assert len(expected) > 50
        MemoryCloud.from_graph(
            graph, ClusterConfig(machine_count=3, track_label_pairs=False)
        ).save_snapshot(tmp_path / "snap")
        with MemoryCloud.open_snapshot(tmp_path / "snap", tracking) as reopened:
            assert match_rows(reopened, query, executor) == expected
            assert memmapped_columns(reopened) == IMAGE  # still file-backed
            assert_same_image(reopened, cloud)
        with api.connect(
            tmp_path / "snap", cluster_config=tracking, executor=executor
        ) as db:
            assert sorted(db.query(query).rows) == expected
        cloud.close()


def per_machine_label_sum(cloud):
    """The reference count: every machine's label index, summed."""
    totals = {}
    for machine in cloud.machines:
        for label in machine.label_index.labels():
            totals[label] = totals.get(label, 0) + machine.label_index.label_frequency(label)
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


def write_v1_snapshot(cloud, graph, directory):
    """``cloud`` in the version 1 layout: the image plus the global CSR and
    the ``assignment/ids`` alias that version 2 dropped."""
    import json

    v2 = cloud.save_snapshot(directory)
    columns = cloud.columns()
    arrays = {
        "graph/node_ids": graph.node_id_array(),
        "graph/label_ids": graph.label_id_array(),
        "graph/offsets": graph.offset_array(),
        "graph/neighbors": graph.neighbor_array(),
        "assignment/ids": columns["graph/node_ids"],
        **columns,
    }
    for low, high in v2.cloud["label_pairs"]:
        arrays[f"labelpairs/{low}_{high}"] = v2.attach(f"labelpairs/{low}_{high}")[1]
    write_snapshot(
        directory, arrays, node_count=graph.node_count, edge_count=graph.edge_count,
        labels=graph.label_table.labels(), cloud=v2.cloud,
    )
    manifest_path = directory / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    doc["version"] = 1
    manifest_path.write_text(json.dumps(doc))
    return directory


class TestVersion1Snapshots:
    """A version 1 cloud directory is a superset of version 2: its three
    extra arrays are never read, and compaction rewrites it as version 2."""

    DROPPED = {"graph/offsets", "graph/neighbors", "assignment/ids"}

    @pytest.fixture
    def snapshots(self, tmp_path, cloud, graph):
        cloud.save_snapshot(tmp_path / "v2")
        return write_v1_snapshot(cloud, graph, tmp_path / "v1"), tmp_path / "v2"

    def test_layouts(self, snapshots):
        v1, v2 = (read_manifest(directory) for directory in snapshots)
        assert (v1.version, v2.version) == (1, 2)
        assert set(v1.arrays) - set(v2.arrays) == self.DROPPED
        assert not set(v2.arrays) & self.DROPPED

    def test_opens_identically(self, snapshots, graph):
        query = two_edge_path_query(graph)
        v1, v2 = snapshots
        with MemoryCloud.open_snapshot(v1) as old, MemoryCloud.open_snapshot(v2) as new:
            assert memmapped_columns(old) == IMAGE
            assert_same_image(old, new)
            assert match_rows(old, query) == match_rows(new, query)
        # Another machine count: both repartition the graph derived from the image.
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

    def test_compacts_to_version_2(self, snapshots, graph):
        query = two_edge_path_query(graph)
        v1, v2 = snapshots
        for directory in snapshots:
            DeltaLog(directory).append_edges([(0, 2), (1, 3)])
            compact_snapshot(directory)
        compacted = read_manifest(v1)
        assert compacted.version == 2
        assert list(compacted.arrays) == list(read_manifest(v2).arrays)
        with MemoryCloud.open_snapshot(v1) as old, MemoryCloud.open_snapshot(v2) as new:
            assert memmapped_columns(old) == IMAGE
            assert_same_image(old, new)
            assert match_rows(old, query) == match_rows(new, query)


class TestGraphOnlySnapshots:
    """A directory of the retired graph-only kind reads as a one-machine image."""

    #: What such a directory opens as without ``machines=``.
    ONE_MACHINE = ClusterConfig(machine_count=1, track_label_pairs=False)

    @pytest.fixture
    def legacy(self, tmp_path, graph):
        return write_graph_only_snapshot(graph, tmp_path / "legacy")

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_opens_as_one_machine(self, legacy, graph, cloud, executor):
        query = two_edge_path_query(graph)
        with MemoryCloud.open_snapshot(legacy) as opened:
            assert opened.machine_count == 1
            # The partition map lives in RAM; the CSR is the file's.
            assert memmapped_columns(opened) == set(column_names(1)) - {"assignment/machines"}
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

    def test_compacts_to_a_one_machine_version_2_snapshot(self, legacy, graph):
        query = two_edge_path_query(graph)
        DeltaLog(legacy).append_edges([(0, 2), (1, 3)])
        with MemoryCloud.open_snapshot(legacy) as overlay:
            expected = match_rows(overlay, query)
        manifest = compact_snapshot(legacy)
        assert (manifest.version, manifest.generation, manifest.machine_count) == (2, 2, 1)
        assert not manifest.resident
        with MemoryCloud.open_snapshot(legacy) as compacted:
            assert memmapped_columns(compacted) == set(column_names(1))
            assert match_rows(compacted, query) == expected

    def test_a_missing_csr_column_is_named(self, legacy):
        import json

        path = legacy / "manifest.json"
        doc = json.loads(path.read_text())
        doc["arrays"] = [entry for entry in doc["arrays"] if entry["name"] != "graph/offsets"]
        path.write_text(json.dumps(doc))
        with pytest.raises(StorageError, match="missing required array 'graph/offsets'"):
            read_manifest(legacy)
