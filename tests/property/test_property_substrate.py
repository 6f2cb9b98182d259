"""Property-based tests for the substrate: the flat cell store, statistics,
naive exploration, and k-hop exploration."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.vf2 import vf2_match
from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.core.statistics import EdgeStatistics

from benchmarks.paper.naive_exploration import explore_neighborhood, naive_exploration_match
from tests.property.strategies import connected_queries, labeled_graphs

RELAXED = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def normalize(matches):
    return sorted(tuple(sorted(m.items())) for m in matches)


class TestBlobStoreProperties:
    """The flat cell store is the machines' CSR columns (the class name
    predates the removal of the standalone ``BlobCellStore``)."""

    @RELAXED
    @given(graph=labeled_graphs(), machine_count=st.integers(1, 4))
    def test_blob_roundtrip_preserves_every_cell(self, graph, machine_count):
        cloud = MemoryCloud.from_graph(graph, ClusterConfig(machine_count=machine_count))
        assert sum(machine.node_count for machine in cloud.machines) == graph.node_count
        for node in graph.nodes():
            machine = cloud.machines[cloud.owner_of(node)]
            assert machine.load(node) == graph.cell(node)
            assert machine.label_of(node) == graph.label(node)
            assert len(machine.neighbor_slice(node)) == graph.degree(node)

    @RELAXED
    @given(graph=labeled_graphs(), machine_count=st.integers(1, 4))
    def test_blob_payload_matches_formula(self, graph, machine_count):
        cloud = MemoryCloud.from_graph(graph, ClusterConfig(machine_count=machine_count))
        # Per node: an 8-byte ID, a 4-byte label ID and an 8-byte offset,
        # each counted once; 8 bytes per stored neighbor (each edge twice);
        # one closing offset per machine.
        expected = (8 + 4 + 8) * graph.node_count + 8 * 2 * graph.edge_count
        expected += 8 * machine_count
        assert sum(m.storage_nbytes() for m in cloud.machines) == expected


class TestStatisticsProperties:
    @RELAXED
    @given(graph=labeled_graphs())
    def test_pair_frequencies_sum_to_edge_count(self, graph):
        stats = EdgeStatistics.from_graph(graph)
        labels = graph.distinct_labels()
        total = 0
        for i, label_a in enumerate(labels):
            for label_b in labels[i:]:
                total += stats.pair_frequency(label_a, label_b)
        assert total == graph.edge_count


class TestNaiveExplorationProperties:
    @RELAXED
    @given(
        graph=labeled_graphs(max_nodes=10),
        query=connected_queries(max_nodes=4),
        machine_count=st.integers(min_value=1, max_value=3),
    )
    def test_matches_vf2(self, graph, query, machine_count):
        cloud = MemoryCloud.from_graph(graph, ClusterConfig(machine_count=machine_count))
        got = normalize(naive_exploration_match(cloud, query))
        assert got == normalize(vf2_match(graph, query))


class TestNeighborhoodExplorationProperties:
    @RELAXED
    @given(graph=labeled_graphs(), hops=st.integers(min_value=0, max_value=3))
    def test_distances_are_valid_bfs_levels(self, graph, hops):
        cloud = MemoryCloud.from_graph(graph, ClusterConfig(machine_count=2))
        start = next(iter(graph.nodes()))
        distances = explore_neighborhood(cloud, start, hops)
        assert distances[start] == 0
        for node, distance in distances.items():
            assert 0 <= distance <= hops
            if distance > 0:
                # Some neighbor sits exactly one hop closer to the start.
                assert any(
                    distances.get(neighbor) == distance - 1
                    for neighbor in graph.neighbors(node)
                )
