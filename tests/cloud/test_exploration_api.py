"""Unit tests for the k-hop neighborhood exploration over the cloud operators."""

from __future__ import annotations

import pytest

from repro.cloud.cluster import MemoryCloud
from repro.errors import CloudError
from repro.workloads.datasets import paper_figure5_graph, tiny_example_graph

from benchmarks.paper.naive_exploration import explore_neighborhood
from tests.helpers import counter_snapshot, make_cloud, striped_path_cloud


@pytest.fixture
def path_cloud() -> MemoryCloud:
    """A 6-node path graph 0-1-2-3-4-5 striped over 3 machines round-robin."""
    return striped_path_cloud(length=6, machine_count=3)


class TestExploreNeighborhood:
    def test_pinned_accounting(self):
        """The exact counters the method on ``MemoryCloud`` charged before it
        became a function over ``cloud.load`` (figure-5 and tiny graphs)."""
        figure5 = make_cloud(paper_figure5_graph(), machine_count=3)
        assert len(explore_neighborhood(figure5, 102, 2)) == 16
        assert figure5.metrics.snapshot() == counter_snapshot(
            local_loads=3, remote_loads=3, messages=6, bytes_transferred=240
        )
        tiny = make_cloud(tiny_example_graph(), machine_count=3)
        assert explore_neighborhood(tiny, 1, 3) == {1: 0, 3: 1, 4: 1, 2: 2, 5: 2, 6: 3}
        assert tiny.metrics.snapshot() == counter_snapshot(
            local_loads=2, remote_loads=3, messages=6, bytes_transferred=168
        )

    def test_zero_hops_returns_start(self, path_cloud):
        assert explore_neighborhood(path_cloud, 2, 0) == {2: 0}

    def test_one_hop(self, path_cloud):
        assert explore_neighborhood(path_cloud, 2, 1) == {2: 0, 1: 1, 3: 1}

    def test_distances_are_hop_counts(self, path_cloud):
        distances = explore_neighborhood(path_cloud, 0, 3)
        assert distances == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_full_graph_reached_with_enough_hops(self, path_cloud):
        distances = explore_neighborhood(path_cloud, 0, 10)
        assert set(distances) == set(range(6))
        assert distances[5] == 5

    def test_negative_hops_rejected(self, path_cloud):
        with pytest.raises(CloudError):
            explore_neighborhood(path_cloud, 0, -1)

    def test_exploration_charges_loads(self, path_cloud):
        path_cloud.reset_metrics()
        explore_neighborhood(path_cloud, 0, 3)
        snapshot = path_cloud.metrics.snapshot()
        # Nodes 0, 1, 2 are loaded to expand three hops.
        assert snapshot["local_loads"] + snapshot["remote_loads"] == 3

    def test_remote_loads_charged_when_crossing_machines(self, path_cloud):
        path_cloud.reset_metrics()
        explore_neighborhood(path_cloud, 0, 5)
        snapshot = path_cloud.metrics.snapshot()
        # The path is spread over 3 machines, so some expansions are remote.
        assert snapshot["remote_loads"] > 0
