"""Unit tests for the MemoryCloud (Trinity-style operators and metadata)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.errors import CloudError, ConfigurationError
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.partition import RoundRobinPartitioner


@pytest.fixture
def small_graph() -> LabeledGraph:
    labels = {0: "a", 1: "b", 2: "c", 3: "a", 4: "b", 5: "c"}
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
    return LabeledGraph.from_edges(labels, edges)


@pytest.fixture
def cloud(small_graph) -> MemoryCloud:
    config = ClusterConfig(machine_count=3, partitioner=RoundRobinPartitioner())
    return MemoryCloud.from_graph(small_graph, config)


class TestLoading:
    def test_partition_sizes_cover_graph(self, cloud, small_graph):
        assert sum(cloud.partition_sizes()) == small_graph.node_count

    def test_counts(self, cloud, small_graph):
        assert cloud.node_count == small_graph.node_count
        assert cloud.edge_count == small_graph.edge_count
        assert cloud.machine_count == 3

    def test_loading_time_recorded(self, cloud):
        assert cloud.loading_seconds > 0

    def test_invalid_machine_count(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(machine_count=0).validate()

    def test_owner_without_graph_raises(self):
        with pytest.raises(CloudError):
            MemoryCloud(ClusterConfig(machine_count=2)).owner_of(0)


class TestTrinityOperators:
    def test_load_returns_cell_with_neighbors(self, cloud, small_graph):
        for node in small_graph.nodes():
            cell = cloud.load(node)
            assert cell.label == small_graph.label(node)
            assert cell.neighbors == small_graph.neighbors(node)

    def test_local_load_not_charged_as_remote(self, cloud):
        node = int(cloud.columns()["machine0/node_ids"][0])
        before = cloud.metrics.remote_loads
        cloud.load(node, requester=0)
        assert cloud.metrics.remote_loads == before
        assert cloud.metrics.local_loads > 0

    def test_remote_load_charged(self, cloud):
        node = int(cloud.columns()["machine1/node_ids"][0])
        before = cloud.metrics.remote_loads
        cloud.load(node, requester=0)
        assert cloud.metrics.remote_loads == before + 1

    def test_get_local_ids_only_local(self, cloud):
        for machine in cloud.machines:
            for label in ("a", "b", "c"):
                for node in cloud.get_local_ids_array(machine.machine_id, label).tolist():
                    assert cloud.owner_of(node) == machine.machine_id

    def test_get_ids_union_over_machines(self, cloud, small_graph):
        union = np.concatenate(
            [cloud.get_local_ids_array(m.machine_id, "a") for m in cloud.machines]
        )
        assert tuple(np.sort(union).tolist()) == small_graph.nodes_with_label("a")

    def test_has_label(self, cloud, small_graph):
        for node in small_graph.nodes():
            assert cloud.has_label(node, small_graph.label(node))
            assert not cloud.has_label(node, "not-a-label")

    def test_label_of(self, cloud, small_graph):
        for node in small_graph.nodes():
            assert cloud.label_of(node) == small_graph.label(node)

    def test_reset_metrics(self, cloud):
        cloud.load(0)
        cloud.reset_metrics()
        assert cloud.metrics.snapshot()["local_loads"] == 0


class TestMetadata:
    def test_label_pairs_between_machines(self, cloud, small_graph):
        # Every cross-machine edge's label pair must be recorded.
        for u, v in small_graph.edges():
            mu, mv = cloud.owner_of(u), cloud.owner_of(v)
            pairs = cloud.label_pairs_between(mu, mv)
            assert frozenset((small_graph.label(u), small_graph.label(v))) in pairs

    def test_label_pairs_symmetric(self, cloud):
        assert cloud.label_pairs_between(0, 1) == cloud.label_pairs_between(1, 0)

    def test_label_pairs_disabled(self, small_graph):
        config = ClusterConfig(machine_count=2, track_label_pairs=False)
        cloud = MemoryCloud.from_graph(small_graph, config)
        assert cloud.label_pairs_between(0, 1) == set()

    def test_global_label_frequencies(self, cloud, small_graph):
        assert cloud.global_label_frequencies() == small_graph.label_frequencies()

    def test_memory_footprint_positive(self, cloud):
        assert cloud.memory_footprint_entries() > 0

    def test_repr(self, cloud):
        assert "machines=3" in repr(cloud)
