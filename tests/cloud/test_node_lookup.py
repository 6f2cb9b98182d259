"""Node lookup has one owner: :class:`~repro.utils.arrays.NodeIndex`.

The cloud resolves every node ID through one index over its sorted node
IDs, and the per-node columns at that position (tag, partition row) are
the only per-node lookup tables: a machine holds its partition and its
label index, nothing sized by the graph's ID domain.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import SubgraphMatcher
from repro.query.generators import dfs_query
from repro.utils.arrays import NodeIndex, sorted_lookup

from tests.helpers import (
    INSTALL_PATHS,
    NODE_ID_DOMAINS,
    domain_graph,
    installed_cloud,
    load_neighbors_batch,
    local_node_ids,
    seeded_graph,
)

INT64 = np.iinfo(np.int64)


@st.composite
def id_columns(draw):
    """A sorted, duplicate-free ID column of one of five shapes."""
    kind = draw(st.sampled_from(["empty", "contiguous", "gapped", "sparse", "negative"]))
    size = draw(st.integers(1, 60))
    if kind == "empty":
        return np.empty(0, dtype=np.int64)
    if kind == "contiguous":
        return np.arange(size, dtype=np.int64)
    if kind == "gapped":
        start, step = draw(st.integers(0, 8)), draw(st.integers(2, 8))
        return start + step * np.arange(size, dtype=np.int64)
    low = 0 if kind == "sparse" else INT64.min
    values = draw(st.lists(st.integers(low, 2**62), min_size=1, max_size=60, unique=True))
    if kind == "negative":
        values.append(draw(st.integers(INT64.min, -1).filter(lambda v: v not in values)))
    return np.array(sorted(values), dtype=np.int64)


@st.composite
def columns_and_probes(draw):
    column = draw(id_columns())
    top = int(column[-1]) if len(column) else 0
    choices = [
        st.integers(INT64.min, INT64.max),  # mostly absent
        st.integers(-5, -1),  # negative
        st.integers(top + 1, min(top + 50, INT64.max)),  # past the end
    ]
    if len(column):
        choices.append(st.sampled_from(column.tolist()))  # present
    probes = draw(st.lists(st.one_of(*choices), max_size=40))
    return column, np.array(probes, dtype=np.int64)


class TestNodeIndex:
    @settings(max_examples=300, deadline=None)
    @given(case=columns_and_probes())
    def test_find_agrees_with_sorted_lookup(self, case):
        column, probes = case
        index = NodeIndex(column)
        positions, found = index.find(probes)
        expected_positions, expected_found = sorted_lookup(column, probes)
        assert found.tolist() == expected_found.tolist()
        assert positions[found].tolist() == expected_positions[found].tolist()
        if len(column):  # every position, found or not, indexes the column
            assert ((positions >= 0) & (positions < len(column))).all()
        assert index.positions(probes[found]).tolist() == positions[found].tolist()

    @pytest.mark.parametrize(
        "column, mode",
        [
            (np.arange(5), "identity"),
            (3 * np.arange(5) + 1, "table"),
            (np.array([1, 2**40]), "search"),
            (np.array([-3, 0, 1]), "search"),
            (np.empty(0, dtype=np.int64), "search"),
        ],
    )
    def test_mode_is_picked_once_from_the_column(self, column, mode):
        index = NodeIndex(column)
        if index._identity:
            assert mode == "identity"
        else:
            assert mode == ("table" if index._table is not None else "search")


@pytest.fixture(scope="module")
def base_graph():
    return seeded_graph(seed=37, nodes=90, edges=240, labels=3)


@pytest.mark.parametrize("path", INSTALL_PATHS)
@pytest.mark.parametrize("domain", NODE_ID_DOMAINS)
def test_every_node_resolves_to_its_own_cell(domain, path, base_graph, tmp_path):
    cloud = installed_cloud(domain_graph(base_graph, domain), path, tmp_path / "snap")
    columns = cloud.columns()
    ids = columns["graph/node_ids"]
    owners = cloud.owners_of_array(ids)
    for machine in range(cloud.machine_count):
        local = owners == machine
        assert np.array_equal(local_node_ids(cloud, machine), ids[local])
        neighbors, counts = load_neighbors_batch(cloud, ids[local], requester=0, owner=machine)
        expected = [cloud.load_neighbors(node) for node in ids[local].tolist()]
        assert counts.tolist() == [len(cell) for cell in expected]
        assert neighbors.tolist() == [node for cell in expected for node in cell.tolist()]


@pytest.mark.parametrize("domain", NODE_ID_DOMAINS)
def test_machines_hold_only_what_storage_nbytes_counts(domain, base_graph):
    graph = domain_graph(base_graph, domain)
    cloud = installed_cloud(graph, "from_graph", None)
    with SubgraphMatcher(cloud, executor="serial") as matcher:
        for seed in range(8):
            matcher.match(dfs_query(graph, 3 + seed % 4, seed=seed))
    image = cloud.columns()
    owners = image["assignment/machines"]
    degrees = np.diff(image["graph/offsets"])
    for machine in cloud.machines:
        # Every array a machine holds is one of the cloud's columns, shared.
        held = [value for value in vars(machine).values() if isinstance(value, np.ndarray)]
        assert held and all(
            any(array is column for column in image.values()) for array in held
        )
        # Its footprint: its cells as their own CSR, plus its cached getIDs.
        nodes = int(np.count_nonzero(owners == machine.machine_id))
        neighbors = int(degrees[owners == machine.machine_id].sum())
        cached = [
            split[machine.machine_id]
            for split in machine._by_label.values()
            if machine.machine_id in split
        ]
        assert cached
        assert machine.storage_nbytes() == (
            nodes * (8 + 4) + (nodes + 1) * 8 + neighbors * 8
            + sum(array.nbytes for array in cached)
        )
