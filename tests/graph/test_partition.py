"""Unit tests for graph partitioners and the one placement check."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.core.engine import SubgraphMatcher
from repro.errors import ConfigurationError, PartitionError
from repro.graph.generators.erdos_renyi import generate_gnm
from repro.graph.generators.rmat import generate_rmat
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.partition import (
    MACHINE_DTYPE,
    BlockPartitioner,
    HashPartitioner,
    Partitioner,
    RoundRobinPartitioner,
)
from repro.query.parser import parse_query
from repro.storage.delta import DeltaLog, DeltaRecord


@pytest.fixture(scope="module")
def graph():
    return generate_gnm(100, 200, label_count=3, seed=1)


ALL_PARTITIONERS = [HashPartitioner(), RoundRobinPartitioner(), BlockPartitioner()]


def sizes(machines: np.ndarray, machine_count: int):
    return np.bincount(machines, minlength=machine_count).tolist()


class TestAssignments:
    @pytest.mark.parametrize("partitioner", ALL_PARTITIONERS, ids=lambda p: type(p).__name__)
    def test_every_node_assigned(self, graph, partitioner):
        machines = partitioner.assign(graph.node_id_array(), 4)
        assert machines.dtype == MACHINE_DTYPE
        assert sum(sizes(machines, 4)) == len(machines) == graph.node_count
        assert ((0 <= machines) & (machines < 4)).all()

    @pytest.mark.parametrize("partitioner", ALL_PARTITIONERS, ids=lambda p: type(p).__name__)
    def test_sizes_sum_to_node_count(self, graph, partitioner):
        machines = partitioner.assign(graph.node_id_array(), 5)
        assert sum(sizes(machines, 5)) == graph.node_count

    @pytest.mark.parametrize("partitioner", ALL_PARTITIONERS, ids=lambda p: type(p).__name__)
    def test_single_machine(self, graph, partitioner):
        machines = partitioner.assign(graph.node_id_array(), 1)
        assert sizes(machines, 1) == [graph.node_count]

    def test_invalid_machine_count(self, graph):
        with pytest.raises(ConfigurationError):
            HashPartitioner().assign(graph.node_id_array(), 0)


class TestBalance:
    def test_hash_partitioner_roughly_balanced(self, graph):
        counts = sizes(HashPartitioner().assign(graph.node_id_array(), 4), 4)
        assert max(counts) - min(counts) < graph.node_count // 2

    def test_round_robin_perfectly_balanced(self, graph):
        counts = sizes(RoundRobinPartitioner().assign(graph.node_id_array(), 4), 4)
        assert max(counts) - min(counts) <= 1

    def test_hash_partitioner_deterministic(self, graph):
        node_ids = graph.node_id_array()
        first = HashPartitioner().assign(node_ids, 4)
        second = HashPartitioner().assign(node_ids, 4)
        assert first.tolist() == second.tolist()

    def test_block_partitioner_contiguous(self, graph):
        machines = BlockPartitioner().assign(graph.node_id_array(), 4).tolist()
        assert machines == sorted(machines)


#: Placements of 12 nodes on 3 machines, pinned: snapshots store
#: placements, so a change to a partitioner must move no node.
DENSE_IDS = list(range(12))
GAPPED_IDS = [0, 3, 4, 9, 17, 40, 41, 100, 255, 1000, 4096, 70000]
GOLDEN_PLACEMENTS = {
    ("dense", "HashPartitioner"): [0, 0, 0, 1, 1, 2, 2, 0, 0, 1, 1, 2],
    ("dense", "RoundRobinPartitioner"): [0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2],
    ("dense", "BlockPartitioner"): [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2],
    ("gapped", "HashPartitioner"): [0, 1, 1, 1, 2, 1, 1, 2, 1, 1, 0, 1],
    ("gapped", "RoundRobinPartitioner"): [0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2],
    ("gapped", "BlockPartitioner"): [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2],
}


class TestGoldenPlacements:
    @pytest.mark.parametrize("domain", ["dense", "gapped"])
    @pytest.mark.parametrize("partitioner", ALL_PARTITIONERS, ids=lambda p: type(p).__name__)
    def test_placement_unchanged(self, domain, partitioner):
        # Read through the cloud image, which any partitioner signature fills.
        ids = DENSE_IDS if domain == "dense" else GAPPED_IDS
        cloud = MemoryCloud.from_graph(
            LabeledGraph.from_edges({i: "a" for i in ids}, []),
            ClusterConfig(machine_count=3, partitioner=partitioner),
        )
        assert cloud.columns()["assignment/machines"].tolist() == (
            GOLDEN_PLACEMENTS[(domain, type(partitioner).__name__)]
        )

    def test_rmat_image_and_query_counters_unchanged(self):
        graph = generate_rmat(2000, 8, label_density=0.005, seed=7)
        cloud = MemoryCloud.from_graph(graph, ClusterConfig(machine_count=4))
        machines = cloud.columns()["assignment/machines"]
        assert machines.dtype == MACHINE_DTYPE
        assert np.bincount(machines).tolist() == [497, 499, 501, 503]
        assert hashlib.sha256(machines.astype("<i4").tobytes()).hexdigest() == (
            "a1e7f8237c35d0736c9efe1ff2aa69f7f78aa01eb41de7eb94e58d2cf3ae47c4"
        )
        cloud.reset_metrics()
        triangle = parse_query(
            "node a L0\nnode b L1\nnode c L2\nedge a b\nedge b c\nedge a c"
        )
        assert len(SubgraphMatcher(cloud).match(triangle).rows) == 6
        assert cloud.metrics.snapshot() == {
            "local_loads": 249, "remote_loads": 0,
            "local_label_probes": 620, "remote_label_probes": 1843,
            "index_lookups": 4, "messages": 3706, "bytes_transferred": 50331,
            "result_rows_shipped": 393, "result_rows_filtered": 0,
            "join_rows_materialized": 6, "join_peak_intermediate_rows": 2,
            "stwig_rows_built": 169,
        }


class BrokenPartitioner(Partitioner):
    """Places every node on machine ``machine_count`` (one past the last),
    returns one machine too few, or returns float machines."""

    def __init__(self, fault: str) -> None:
        self.fault = fault

    def assign(self, node_ids, machine_count):
        if self.fault == "out_of_range":
            return np.full(len(node_ids), machine_count, dtype=MACHINE_DTYPE)
        if self.fault == "short":
            return np.zeros(len(node_ids) - 1, dtype=MACHINE_DTYPE)
        return np.zeros(len(node_ids), dtype=np.float64)


FAULTS = ["out_of_range", "short", "float"]


def square() -> LabeledGraph:
    return LabeledGraph.from_edges(
        {0: "a", 1: "b", 2: "a", 3: "b"}, [(0, 1), (1, 2), (2, 3), (3, 0)]
    )


class TestPlacementCheck:
    """A partitioner's output is checked once, at both placement sites."""

    @pytest.mark.parametrize("fault", FAULTS)
    def test_graph_load_rejects_bad_placement(self, fault):
        config = ClusterConfig(machine_count=2, partitioner=BrokenPartitioner(fault))
        with pytest.raises(PartitionError):
            MemoryCloud.from_graph(square(), config)

    @pytest.mark.parametrize("fault", FAULTS)
    def test_log_overlay_rejects_bad_placement(self, fault, tmp_path):
        MemoryCloud.from_graph(square(), ClusterConfig(machine_count=2)).save_snapshot(tmp_path)
        DeltaLog(tmp_path).append(
            [
                DeltaRecord("node", 7, label="a"),
                DeltaRecord("node", 8, label="b"),
                DeltaRecord("edge", 7, 8),
            ]
        )
        config = ClusterConfig(machine_count=2, partitioner=BrokenPartitioner(fault))
        with pytest.raises(PartitionError):
            MemoryCloud.open_snapshot(tmp_path, config)
