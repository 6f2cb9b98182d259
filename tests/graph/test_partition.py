"""Unit tests for graph partitioners."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, PartitionError
from repro.graph.generators.erdos_renyi import generate_gnm
from repro.graph.partition import (
    BlockPartitioner,
    HashPartitioner,
    RoundRobinPartitioner,
)


@pytest.fixture(scope="module")
def graph():
    return generate_gnm(100, 200, label_count=3, seed=1)


ALL_PARTITIONERS = [HashPartitioner(), RoundRobinPartitioner(), BlockPartitioner()]


class TestAssignments:
    @pytest.mark.parametrize("partitioner", ALL_PARTITIONERS, ids=lambda p: type(p).__name__)
    def test_every_node_assigned(self, graph, partitioner):
        assignment = partitioner.assign(graph, 4)
        machines = assignment.machine_array_for(graph.node_id_array())
        assert sum(assignment.sizes()) == len(machines) == graph.node_count
        assert ((0 <= machines) & (machines < 4)).all()

    @pytest.mark.parametrize("partitioner", ALL_PARTITIONERS, ids=lambda p: type(p).__name__)
    def test_sizes_sum_to_node_count(self, graph, partitioner):
        assignment = partitioner.assign(graph, 5)
        assert sum(assignment.sizes()) == graph.node_count

    @pytest.mark.parametrize("partitioner", ALL_PARTITIONERS, ids=lambda p: type(p).__name__)
    def test_single_machine(self, graph, partitioner):
        assignment = partitioner.assign(graph, 1)
        assert assignment.sizes() == [graph.node_count]

    def test_invalid_machine_count(self, graph):
        with pytest.raises(ConfigurationError):
            HashPartitioner().assign(graph, 0)


class TestPartitionAssignment:
    def test_nodes_of_and_machine_of_consistent(self, graph):
        assignment = HashPartitioner().assign(graph, 3)
        for machine in range(3):
            for node in assignment.nodes_of(machine):
                assert assignment.machine_of(node) == machine

    def test_nodes_of_out_of_range(self, graph):
        assignment = HashPartitioner().assign(graph, 3)
        with pytest.raises(PartitionError):
            assignment.nodes_of(3)

    def test_machine_of_unknown_node(self, graph):
        assignment = HashPartitioner().assign(graph, 3)
        with pytest.raises(PartitionError):
            assignment.machine_of(10_000)


class TestBalance:
    def test_hash_partitioner_roughly_balanced(self, graph):
        sizes = HashPartitioner().assign(graph, 4).sizes()
        assert max(sizes) - min(sizes) < graph.node_count // 2

    def test_round_robin_perfectly_balanced(self, graph):
        sizes = RoundRobinPartitioner().assign(graph, 4).sizes()
        assert max(sizes) - min(sizes) <= 1

    def test_hash_partitioner_deterministic(self, graph):
        node_ids = graph.node_id_array()
        first = HashPartitioner().assign(graph, 4).machine_array_for(node_ids)
        second = HashPartitioner().assign(graph, 4).machine_array_for(node_ids)
        assert first.tolist() == second.tolist()

    def test_block_partitioner_contiguous(self, graph):
        assignment = BlockPartitioner().assign(graph, 4)
        ordered = sorted(graph.nodes())
        machines = [assignment.machine_of(n) for n in ordered]
        assert machines == sorted(machines)
