"""The cloud image round trip: ``columns()`` through every transport.

A loaded :class:`MemoryCloud` is its named columns plus a little plain
metadata.  Whatever carries those columns — the arrays themselves or a
snapshot file — installing them into a fresh cloud must give back the same
image, the same answers and the same simulated-communication counters, on
both executors, and leave ``/dev/shm`` as it found it.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cloud.cluster import IMAGE_COLUMNS, MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.core.engine import SubgraphMatcher
from repro.errors import CloudError
from repro.graph.generators import generate_gnm
from repro.graph.partition import (
    BlockPartitioner,
    HashPartitioner,
    RoundRobinPartitioner,
)
from repro.query.query_graph import QueryGraph

from tests.helpers import memmapped_columns
from tests.property.strategies import labeled_graphs

#: A path over the strategy's label alphabet: small enough to match often.
MOTIF = QueryGraph(
    {"a": "red", "b": "green", "c": "blue"}, [("a", "b"), ("b", "c")]
)


def via_arrays(cloud, directory):
    """A fresh cloud holding ``cloud``'s columns plus its plain metadata."""
    fresh = MemoryCloud(cloud.config)
    fresh._install(
        cloud.columns(),
        label_table=cloud.label_table,
        edge_count=cloud.edge_count,
        label_pairs=cloud.packed_label_pairs(),
    )
    return fresh


def via_snapshot(cloud, directory):
    cloud.save_snapshot(directory)
    reopened = MemoryCloud.open_snapshot(directory)
    assert memmapped_columns(reopened) == {
        name for name, column in reopened.columns().items() if column.size
    }
    return reopened


def run(cloud, executor):
    with SubgraphMatcher(cloud, executor=executor, workers=2) as matcher:
        result = matcher.match(MOTIF)
    return result.rows, result.metrics


@pytest.mark.parametrize("transport", [via_arrays, via_snapshot])
@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(
    graph=labeled_graphs(min_nodes=6),
    machine_count=st.integers(1, 4),
    partitioner=st.sampled_from(
        [HashPartitioner, RoundRobinPartitioner, BlockPartitioner]
    ),
)
def test_cloud_image_round_trip(
    transport, tmp_path_factory, graph, machine_count, partitioner
):
    shm_before = set(os.listdir("/dev/shm"))
    config = ClusterConfig(machine_count=machine_count, partitioner=partitioner())
    original = MemoryCloud.from_graph(graph, config)
    image = original.columns()
    assert tuple(image) == IMAGE_COLUMNS
    expected = run(original, "serial")

    restored = transport(original, tmp_path_factory.mktemp("image"))
    try:
        assert restored.load_generation == 1
        assert (restored.node_count, restored.edge_count) == (
            original.node_count,
            original.edge_count,
        )
        carried = restored.columns()
        assert tuple(carried) == tuple(image)
        for name, array in image.items():
            assert carried[name].dtype == array.dtype, name
            assert carried[name].shape == array.shape, name
            assert np.asarray(carried[name]).tobytes() == array.tobytes(), name
        assert run(restored, "serial") == expected
        assert run(restored, "process") == expected
    finally:
        restored.close()
        original.close()
    assert set(os.listdir("/dev/shm")) == shm_before


def test_columns_of_an_unloaded_cloud_is_an_error():
    with pytest.raises(CloudError):
        MemoryCloud(ClusterConfig(machine_count=2)).columns()


@pytest.mark.parametrize(
    "partitioner", [HashPartitioner, RoundRobinPartitioner, BlockPartitioner]
)
def test_image_stores_each_array_once(partitioner):
    cloud = MemoryCloud.from_graph(
        generate_gnm(60, 150, label_count=4, seed=3), ClusterConfig(machine_count=3, partitioner=partitioner())
    )
    image = list(cloud.columns().values())
    for index, array in enumerate(image):
        for other in image[index + 1:]:
            assert array is not other
            assert not (array.size and other.size and np.shares_memory(array, other))
