"""Storage-layer unit tests for the CSR graph representation.

Covers the tentpole invariants of the CSR refactor:

* round-trip ``LabeledGraph`` -> partition -> ``Machine``
  preserves every neighbor set exactly;
* the CSR arrays agree with a reference dict-of-sets adjacency;
* label-table interning is stable (IDs never change once assigned);
* batched cloud operators (``load_cells``, through the tests'
  one-machine ``load_neighbors_batch``, and ``batch_has_label`` over
  ``labels_and_owners``)
  agree with their per-node counterparts, including metric accounting;
* empty graphs, isolated nodes, and self-loops behave.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.cloud.machine import Machine
from repro.cloud.metrics import CloudMetrics
from repro.errors import CloudError, GraphError, NodeNotFoundError, PartitionError
from repro.graph.generators.power_law import generate_power_law
from repro.graph.label_table import NO_LABEL, LabelTable
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.partition import BlockPartitioner, RoundRobinPartitioner

from tests.helpers import (
    batch_has_label,
    load_neighbors_batch,
    local_node_ids,
    machine_from_cells,
    make_cloud,
    path_graph,
    seeded_graph,
)


class TestLabelTable:
    def test_intern_assigns_dense_ids(self):
        table = LabelTable()
        assert table.intern("a") == 0
        assert table.intern("b") == 1
        assert table.intern("a") == 0  # stable on re-intern
        assert len(table) == 2

    def test_round_trip(self):
        table = LabelTable(["x", "y", "z"])
        for label in ("x", "y", "z"):
            assert table.label_of(table.id_of(label)) == label

    def test_unknown_label(self):
        table = LabelTable()
        assert table.id_of("nope") == NO_LABEL
        assert "nope" not in table
        with pytest.raises(IndexError):
            table.label_of(-1)

    def test_interning_stability_across_growth(self):
        # IDs assigned early never change as more labels arrive.
        table = LabelTable()
        first = table.intern("alpha")
        for extra in range(100):
            table.intern(f"label-{extra}")
        assert table.intern("alpha") == first
        assert table.labels()[first] == "alpha"


class TestCsrArrays:
    def test_arrays_match_reference_adjacency(self):
        graph = seeded_graph(seed=3, nodes=40, edges=90, labels=3)
        reference = {node: set(graph.neighbors(node)) for node in graph.nodes()}

        node_ids = graph.node_id_array()
        offsets = graph.offset_array()
        neighbors = graph.neighbor_array()
        assert list(node_ids.tolist()) == sorted(reference)
        assert int(offsets[-1]) == len(neighbors) == 2 * graph.edge_count
        for row, node in enumerate(node_ids.tolist()):
            row_slice = neighbors[offsets[row] : offsets[row + 1]].tolist()
            assert row_slice == sorted(reference[node])

    def test_neighbor_slice_is_view(self):
        graph = LabeledGraph.from_edges(
            {0: "a", 1: "b", 2: "c"}, [(0, 1), (0, 2)]
        )
        view = graph.neighbor_slice(0)
        assert view.base is graph.neighbor_array() or view.base is not None
        assert view.tolist() == [1, 2]

    def test_label_ids_parallel_to_nodes(self):
        graph = seeded_graph(seed=5, nodes=30, edges=60, labels=4)
        names = graph.label_table.labels()
        for row, node in enumerate(graph.node_id_array().tolist()):
            assert names[graph.label_id_array()[row]] == graph.label(node)

    def test_storage_smaller_than_dict_representation(self):
        graph = seeded_graph(seed=9, nodes=200, edges=600, labels=4)
        import sys

        dict_bytes = 0
        for node in graph.nodes():
            neighbors = graph.neighbors(node)
            dict_bytes += sys.getsizeof(neighbors) + 28 * len(neighbors)
        assert graph.storage_nbytes() < dict_bytes


class TestRoundTripThroughMachines:
    @pytest.mark.parametrize("machine_count", [1, 3, 4])
    def test_partition_preserves_neighbor_sets(self, machine_count):
        graph = seeded_graph(seed=11, nodes=60, edges=150, labels=4)
        cloud = make_cloud(graph, machine_count=machine_count)
        seen = set()
        for machine in cloud.machines:
            for node in local_node_ids(cloud, machine.machine_id).tolist():
                cell = machine.load(node)
                assert cell.neighbors == graph.neighbors(node)
                assert cell.label == graph.label(node)
                seen.add(node)
        assert seen == set(graph.nodes())

    def test_machines_share_the_graph_label_table(self):
        graph = seeded_graph(seed=2)
        cloud = make_cloud(graph, machine_count=3)
        for machine in cloud.machines:
            assert machine.label_table is graph.label_table

    def test_store_cell_equivalent_to_adopt(self):
        # A partition assembled cell by cell answers exactly like the one
        # the cloud loader gathers in bulk (the name predates the removal
        # of Machine.store_cell; the cell-by-cell side is now a test helper).
        graph = seeded_graph(seed=7, nodes=25, edges=50, labels=3)
        manual = machine_from_cells(
            0,
            [(node, graph.label(node), graph.neighbors(node)) for node in graph.nodes()],
        )
        cloud = make_cloud(graph, machine_count=1)
        bulk = cloud.machines[0]
        assert manual.node_count == bulk.node_count
        for node in graph.nodes():
            assert manual.load(node) == bulk.load(node)
            assert manual.neighbor_slice(node).tolist() == (
                bulk.neighbor_slice(node).tolist()
            )

    def test_load_rows_on_empty_machine_raises_not_found(self):
        # A block partition of two nodes over three machines leaves
        # machine 2 empty; neither an absent ID nor a node stored elsewhere
        # loads from it.
        cloud = make_cloud(path_graph(2), machine_count=3, partitioner=BlockPartitioner())
        assert cloud.partition_sizes()[2] == 0
        for node in (5, 0):
            with pytest.raises(NodeNotFoundError):
                load_neighbors_batch(cloud, np.array([node], dtype=np.int64), requester=0, owner=2)


class TestBatchedOperators:
    @staticmethod
    def nodes_by_owner(cloud, nodes):
        """``nodes`` split per owner machine (the batched load's unit)."""
        owners = cloud.owners_of_array(nodes)
        return [
            (owner, nodes[owners == owner]) for owner in range(cloud.machine_count)
        ]

    def test_load_neighbors_batch_matches_per_node(self):
        graph = seeded_graph(seed=13)
        cloud = make_cloud(graph, machine_count=3)
        nodes = np.array(sorted(graph.nodes())[:20], dtype=np.int64)
        checked = 0
        for owner, local in self.nodes_by_owner(cloud, nodes):
            batch_neighbors, counts = load_neighbors_batch(
                cloud, local, requester=0, owner=owner
            )
            cursor = 0
            for node, count in zip(local.tolist(), counts.tolist()):
                expected = graph.neighbors(node)
                assert (
                    tuple(batch_neighbors[cursor : cursor + count].tolist())
                    == expected
                )
                cursor += count
                checked += 1
        assert checked == len(nodes)

    def test_load_neighbors_batch_metric_parity(self):
        graph = seeded_graph(seed=13)
        batch_cloud = make_cloud(graph, machine_count=3)
        scalar_cloud = make_cloud(graph, machine_count=3)
        nodes = np.array(sorted(graph.nodes())[:25], dtype=np.int64)
        batch_cloud.reset_metrics()
        scalar_cloud.reset_metrics()
        # Requester 1 makes one owner's batch local and the others remote.
        for owner, local in self.nodes_by_owner(batch_cloud, nodes):
            load_neighbors_batch(batch_cloud, local, requester=1, owner=owner)
        for node in nodes.tolist():
            scalar_cloud.load(node, requester=1)
        assert batch_cloud.metrics.snapshot() == scalar_cloud.metrics.snapshot()

    def test_load_neighbors_batch_rejects_nodes_of_another_machine(self):
        graph = seeded_graph(seed=13)
        cloud = make_cloud(graph, machine_count=3)
        nodes = np.array(sorted(graph.nodes())[:20], dtype=np.int64)
        wrong_owner = (int(cloud.owner_of(int(nodes[0]))) + 1) % 3
        with pytest.raises(NodeNotFoundError):
            load_neighbors_batch(cloud, nodes[:1], requester=0, owner=wrong_owner)

    @pytest.mark.parametrize("owner", [-1, 3])
    def test_load_neighbors_batch_refuses_a_machine_out_of_range(self, owner):
        # Neither charged to a machine that does not exist (-1 once read
        # machine 2's cells through a negative index) nor a bare IndexError:
        # cuts that name no such machine's range are refused.
        cloud = make_cloud(generate_power_law(200, 4, seed=1), machine_count=3)
        nodes = cloud.get_local_ids_array(2, cloud.label_table.labels()[0])[:3]
        cloud.reset_metrics()
        with pytest.raises(CloudError, match="one range per machine"):
            load_neighbors_batch(cloud, nodes, requester=0, owner=owner)
        assert cloud.metrics.snapshot() == CloudMetrics().snapshot()
        assert not any(cloud.metrics.per_pair_messages.values())

    def test_batch_has_label_matches_per_node(self):
        graph = seeded_graph(seed=17)
        batch_cloud = make_cloud(graph, machine_count=4)
        scalar_cloud = make_cloud(graph, machine_count=4)
        nodes = np.array(sorted(graph.nodes()), dtype=np.int64)
        label = graph.label(int(nodes[0]))
        batch_cloud.reset_metrics()
        scalar_cloud.reset_metrics()
        mask = batch_has_label(batch_cloud, nodes, label, requester=2)
        expected = [scalar_cloud.has_label(int(n), label, requester=2) for n in nodes]
        assert mask.tolist() == expected
        assert batch_cloud.metrics.snapshot() == scalar_cloud.metrics.snapshot()

    @pytest.mark.parametrize("scale", [1, 10**9], ids=["dense", "sparse"])
    @pytest.mark.parametrize("probe", [[3], [-1], [100], [1, 5, 10**12], [3, 5, 100]])
    def test_owner_resolution_rejects_non_graph_ids(self, scale, probe):
        # A nonexistent ID is never mistaken for its searchsorted neighbor,
        # also beside one that exists (the [3, 5, 100] probe).
        graph = LabeledGraph.from_edges(
            {1: "a", 5 * scale: "b", 9 * scale: "a"}, [(1, 5 * scale), (5 * scale, 9 * scale)]
        )
        cloud = make_cloud(graph, machine_count=2)
        ids = np.array(probe, dtype=np.int64)
        with pytest.raises(PartitionError):
            cloud.owners_of_array(ids)
        with pytest.raises(PartitionError):
            batch_has_label(cloud, ids, "b", requester=0)
        with pytest.raises(PartitionError):
            cloud.owner_of(int(ids[-1]))
        assert cloud.metrics.snapshot() == CloudMetrics().snapshot()  # nothing charged



class TestEdgeCases:
    def test_empty_graph(self):
        graph = LabeledGraph.from_edges({}, [])
        assert graph.node_count == 0
        assert graph.edge_count == 0
        assert list(graph.edges()) == []
        assert graph.distinct_labels() == ()
        cloud = MemoryCloud.from_graph(graph, ClusterConfig(machine_count=2))
        assert cloud.partition_sizes() == [0, 0]

    def test_isolated_nodes_survive_partitioning(self):
        graph = LabeledGraph.from_edges({0: "a", 1: "b", 2: "c"}, [(0, 1)])
        cloud = make_cloud(
            graph, machine_count=3, partitioner=RoundRobinPartitioner()
        )
        total = sum(cloud.partition_sizes())
        assert total == 3
        owner = cloud.owner_of(2)
        assert cloud.machines[owner].load(2).neighbors == ()

    def test_self_loop_rejected_at_build(self):
        with pytest.raises(GraphError):
            LabeledGraph.from_edges({1: "a"}, [(1, 1)])

    def test_missing_node_raises(self):
        graph = LabeledGraph.from_edges({0: "a"}, [])
        with pytest.raises(NodeNotFoundError):
            graph.neighbor_slice(99)
        machine = Machine(machine_id=0)
        with pytest.raises(NodeNotFoundError):
            machine.neighbor_slice(99)

    def test_non_contiguous_ids(self):
        graph = LabeledGraph.from_edges(
            {1000: "a", 7: "b", 500_000_000: "a"},
            [(7, 1000), (1000, 500_000_000)],
        )
        assert graph.neighbors(1000) == (7, 500_000_000)
        cloud = make_cloud(graph, machine_count=2)
        matched = {
            node
            for machine_id in range(cloud.machine_count)
            for node in local_node_ids(cloud, machine_id).tolist()
        }
        assert matched == {7, 1000, 500_000_000}
