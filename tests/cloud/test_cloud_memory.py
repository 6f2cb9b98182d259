"""The cloud holds one copy of the graph: its image *is* the graph's CSR.

A cloud built from a graph the caller keeps adopts the graph's arrays, so
the adjacency lives in memory once; a snapshot opens as views of its file;
and building the cloud allocates per-node columns and label-pair keys, not
a second adjacency.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.graph.partition as partition
from repro.cloud.cluster import IMAGE_COLUMNS, MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.graph.generators import generate_power_law

from tests.helpers import memmapped_columns, traced

#: Neighbor entries per label-pair block in the peak test: far below the
#: graph's 160k, so the pass's temporaries are per block, not per graph.
SMALL_BLOCK = 1 << 12


@pytest.fixture(scope="module")
def graph():
    return generate_power_law(20_000, 8.0, label_density=0.01, seed=3)


def test_from_graph_shares_the_graph_csr(graph):
    cloud = MemoryCloud.from_graph(graph, ClusterConfig(machine_count=4))
    columns = cloud.columns()
    for name, array in (
        ("graph/node_ids", graph.node_id_array()),
        ("graph/label_ids", graph.label_id_array()),
        ("graph/offsets", graph.offset_array()),
        ("graph/neighbors", graph.neighbor_array()),
    ):
        assert np.shares_memory(columns[name], array), name


def test_clean_snapshot_open_is_file_views(graph, tmp_path):
    MemoryCloud.from_graph(graph, ClusterConfig(machine_count=4)).save_snapshot(
        tmp_path / "snap"
    )
    with MemoryCloud.open_snapshot(tmp_path / "snap") as opened:
        assert memmapped_columns(opened) == set(IMAGE_COLUMNS)
        hub = int(graph.node_id_array()[np.argmax(np.diff(graph.offset_array()))])
        assert isinstance(opened.load_neighbors(hub), np.memmap)


@pytest.mark.parametrize("machine_count", [2, 5])
def test_label_pairs_do_not_depend_on_the_block(graph, machine_count, monkeypatch):
    config = ClusterConfig(machine_count=machine_count)
    whole = MemoryCloud.from_graph(graph, config).packed_label_pairs()
    monkeypatch.setattr(partition, "LABEL_PAIR_BLOCK", SMALL_BLOCK)
    base, pairs = MemoryCloud.from_graph(graph, config).packed_label_pairs()
    assert base == whole[0]
    assert sorted(pairs) == sorted(whole[1])
    for pair, keys in pairs.items():
        assert np.array_equal(keys, whole[1][pair]), pair


@pytest.mark.parametrize("machine_count", [2, 4, 8])
def test_from_graph_peak_stays_under_32_bytes_per_edge(graph, machine_count, monkeypatch):
    """Above the graph, a build allocates the partition map, the tag column
    and the label-pair keys, and the label-pair pass's per-block
    temporaries: about 15-26 B/edge here.  The per-machine CSR copies it
    replaced held 27 B/edge after the build and peaked at 85."""
    monkeypatch.setattr(partition, "LABEL_PAIR_BLOCK", SMALL_BLOCK)
    config = ClusterConfig(machine_count=machine_count)
    cloud, held, peak = traced(lambda: MemoryCloud.from_graph(graph, config))
    assert cloud.edge_count == graph.edge_count == 80_000
    assert held / graph.edge_count < 8
    assert peak / graph.edge_count < 32
