"""Property-based tests: the delta-log merge against the rebuild it replaced.

Reopening a snapshot with pending deltas splices the log into the attached
image (``repro.storage.delta.splice_csr``) instead of rebuilding the graph.
The central property: for any base graph x cluster shape x log, the merged
image *is* the rebuilt one — ``tests.helpers.oracle_replay`` (the replay as
it was: expand, concatenate, ``from_arrays``) partitioned by ``load_graph`` —
column for column, values and dtypes, label pairs and counts included; and
the graph read back from that snapshot is the rebuilt graph.
"""

from __future__ import annotations

import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.errors import StorageError
from repro.graph.label_table import LabelTable
from repro.graph.labeled_graph import LABEL_DTYPE, NODE_DTYPE, LabeledGraph
from repro.graph.partition import (
    BlockPartitioner,
    HashPartitioner,
    Partitioner,
    RoundRobinPartitioner,
)
from repro.ingest import IdMap
from repro.storage.delta import DeltaLog, DeltaRecord, compact_snapshot
from repro.storage.snapshot import open_graph_snapshot
from tests.helpers import (
    assert_same_array,
    assert_same_image,
    memmapped_columns,
    oracle_replay,
)

RELAXED = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

BASE_LABELS = ("red", "green", "blue")
#: Labels no base graph carries: a node record using one interns it, which
#: changes the label-pair packing base.
NEW_LABELS = ("violet", "amber")
PARTITIONERS = (HashPartitioner, RoundRobinPartitioner, BlockPartitioner)


class FixedPartitioner(Partitioner):
    """Assigns exactly the given (sorted node IDs, machines) arrays."""

    def __init__(self, node_ids: np.ndarray, machines: np.ndarray) -> None:
        self._arrays = (np.array(node_ids), np.array(machines))

    def assign(self, node_ids: np.ndarray, machine_count: int) -> np.ndarray:
        assert np.array_equal(node_ids, self._arrays[0])
        return self._arrays[1]


@st.composite
def base_graphs(draw) -> LabeledGraph:
    """Small graphs over dense (0..n-1) or gapped node IDs; isolated nodes allowed."""
    node_count = draw(st.integers(min_value=1, max_value=10))
    if draw(st.booleans()):
        ids = list(range(node_count))
    else:
        ids = sorted(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=40),
                    min_size=node_count, max_size=node_count, unique=True,
                )
            )
        )
    labels = {node: draw(st.sampled_from(BASE_LABELS)) for node in ids}
    possible = [(u, v) for u in ids for v in ids if u < v]
    edges = (
        draw(st.lists(st.sampled_from(possible), unique=True, max_size=20))
        if possible
        else []
    )
    return LabeledGraph.from_edges(labels, edges)


@st.composite
def delta_logs(draw, base: LabeledGraph, invalid: bool = False):
    """A log over ``base``: the records, in an order drawn last.

    Edges come in both orientations and repeat base edges and each other;
    new nodes land below, between and above the base's IDs and may stay
    isolated; existing nodes are relabelled to base and brand-new labels,
    some more than once (the later record wins); the final shuffle lets an
    edge precede the node record that labels its endpoint.  With
    ``invalid`` one self-loop or unlabeled-endpoint edge is planted.
    """
    held = base.node_id_array().tolist()
    new_ids = draw(
        st.lists(
            st.integers(min_value=-3, max_value=45).filter(lambda n: n not in held),
            max_size=3, unique=True,
        )
    )
    labels = st.sampled_from(BASE_LABELS + NEW_LABELS)
    records = [DeltaRecord("node", node, label=draw(labels)) for node in new_ids]
    relabelled = draw(st.lists(st.sampled_from(held + new_ids), max_size=3))
    records += [DeltaRecord("node", node, label=draw(labels)) for node in relabelled]

    known = held + new_ids
    pairs = [(u, v) for u in known for v in known if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=8)) if pairs else []
    base_edges = [edge for edge in base.edges()]
    if base_edges:
        edges += [
            edge[::-1] if draw(st.booleans()) else edge
            for edge in draw(st.lists(st.sampled_from(base_edges), max_size=3))
        ]
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=3))
    if invalid:
        stranger = 99
        edges.append(
            draw(
                st.sampled_from(
                    [(known[0], known[0]), (known[0], stranger), (stranger, known[-1])]
                )
            )
        )
    records += [DeltaRecord("edge", u, v) for u, v in edges]
    assume(records)
    return draw(st.permutations(records))


@st.composite
def snapshots_with_logs(draw, invalid: bool = False):
    base = draw(base_graphs())
    records = draw(delta_logs(base, invalid=invalid))
    machine_count = draw(st.integers(min_value=1, max_value=4))
    partitioner = draw(st.sampled_from(PARTITIONERS))()
    return base, records, machine_count, partitioner


def assert_same_graph(actual: LabeledGraph, expected: LabeledGraph) -> None:
    for column in ("node_id_array", "label_id_array", "offset_array", "neighbor_array"):
        assert_same_array(getattr(actual, column)(), getattr(expected, column)(), column)
    assert actual.edge_count == expected.edge_count
    assert actual.label_table.labels() == expected.label_table.labels()


def rebuilt(graph: LabeledGraph, like: MemoryCloud) -> MemoryCloud:
    """``graph`` through ``load_graph`` under ``like``'s own assignment."""
    columns = like.columns()
    partitioner = FixedPartitioner(
        columns["graph/node_ids"], columns["assignment/machines"]
    )
    return MemoryCloud.from_graph(
        graph, ClusterConfig(machine_count=like.machine_count, partitioner=partitioner)
    )


class TestGraphReplay:
    @RELAXED
    @given(drawn=snapshots_with_logs())
    def test_splice_equals_rebuild(self, drawn):
        """The graph read through ``open_graph_snapshot`` with a pending log."""
        base, records, machine_count, partitioner = drawn
        config = ClusterConfig(machine_count=machine_count, partitioner=partitioner)
        with tempfile.TemporaryDirectory() as snapshot:
            MemoryCloud.from_graph(base, config).save_snapshot(snapshot)
            DeltaLog(snapshot).append(records)
            with open(f"{snapshot}/columns.bin", "rb") as data:
                before = data.read()
            assert_same_graph(open_graph_snapshot(snapshot), oracle_replay(base, records))
            # The base is never written through.
            with open(f"{snapshot}/columns.bin", "rb") as data:
                assert data.read() == before


class TestCloudOverlay:
    @RELAXED
    @given(drawn=snapshots_with_logs())
    def test_merged_image_is_the_rebuilt_image(self, drawn):
        base, records, machine_count, partitioner = drawn
        config = ClusterConfig(machine_count=machine_count, partitioner=partitioner)
        expected_graph = oracle_replay(base, records)
        with tempfile.TemporaryDirectory() as snapshot:
            base_cloud = MemoryCloud.from_graph(base, config)
            base_cloud.save_snapshot(snapshot)
            stored = base_cloud.columns()
            DeltaLog(snapshot).append(records)
            overlay = MemoryCloud.open_snapshot(snapshot)
            # A column the log changed is a copy in RAM, never the file view.
            changed = {
                name for name, column in overlay.columns().items()
                if column.shape != stored[name].shape or not np.array_equal(column, stored[name])
            }
            assert not changed & memmapped_columns(overlay)
            assert_same_graph(open_graph_snapshot(snapshot), expected_graph)
            # Known nodes keep their stored machine, so the reference is
            # the rebuild under the merged cloud's own assignment ...
            assert_same_image(overlay, rebuilt(expected_graph, overlay))
            # ... and under the paper's hash partitioner, which places a
            # node by its ID alone, that is the rebuild outright.
            if isinstance(partitioner, HashPartitioner):
                assert_same_image(
                    overlay, MemoryCloud.from_graph(expected_graph, config)
                )

            # Folding the log writes the same image; it reopens clean.
            manifest = compact_snapshot(snapshot)
            assert manifest.generation == 2
            assert not DeltaLog(snapshot).exists()
            clean = MemoryCloud.open_snapshot(snapshot)
            assert memmapped_columns(clean) == {
                name for name, column in clean.columns().items() if column.size
            }
            assert_same_image(clean, overlay)
            assert_same_graph(open_graph_snapshot(snapshot), expected_graph)

    @RELAXED
    @given(drawn=snapshots_with_logs(invalid=True))
    def test_invalid_logs_raise_the_rebuilds_error(self, drawn):
        base, records, machine_count, partitioner = drawn
        with pytest.raises(StorageError, match="^delta log replay failed: ") as rebuilt_error:
            oracle_replay(base, records)
        with tempfile.TemporaryDirectory() as snapshot:
            MemoryCloud.from_graph(
                base, ClusterConfig(machine_count=machine_count, partitioner=partitioner)
            ).save_snapshot(snapshot)
            # Written line by line: DeltaLog.append refuses a self-loop, but
            # an older writer or a hand edit can still leave one in a log.
            DeltaLog(snapshot).path.write_text(
                "".join(f"{record.op}\t{record.node_id}\t{record.label or record.other}\n"
                        for record in records)
            )
            for reader in (MemoryCloud.open_snapshot, open_graph_snapshot):
                with pytest.raises(StorageError) as overlay_error:
                    reader(snapshot)
                assert str(overlay_error.value) == str(rebuilt_error.value)

    @RELAXED
    @given(
        base=base_graphs(),
        machine_count=st.integers(min_value=1, max_value=3),
        beyond=st.integers(min_value=-3, max_value=5),
        data=st.data(),
    )
    def test_node_beyond_the_id_map(self, base, machine_count, beyond, data):
        """An ingested base (dense IDs + ``id_map``) and a node the map never
        saw, above its domain or below it (a negative ID): the open warns and
        serves dense IDs, the compaction refuses."""
        count = base.node_count
        dense = LabeledGraph(
            LabelTable(base.label_table.labels()),
            np.arange(count, dtype=NODE_DTYPE),
            np.array(base.label_id_array(), dtype=LABEL_DTYPE),
            base.offset_array(),
            np.searchsorted(base.node_id_array(), base.neighbor_array()).astype(NODE_DTYPE),
            base.edge_count,
        )
        dense.id_map = IdMap.from_external(np.arange(count, dtype=NODE_DTYPE) * 10 + 7)
        stranger = count + beyond if beyond >= 0 else beyond
        records = [
            DeltaRecord("node", stranger, label=data.draw(st.sampled_from(NEW_LABELS))),
            DeltaRecord("edge", stranger, 0),
        ]
        config = ClusterConfig(machine_count=machine_count)
        with tempfile.TemporaryDirectory() as snapshot:
            MemoryCloud.from_graph(dense, config).save_snapshot(snapshot)
            assert MemoryCloud.open_snapshot(snapshot).id_map == dense.id_map
            DeltaLog(snapshot).append(records)
            with pytest.warns(UserWarning, match="beyond its id_map"):
                overlay = MemoryCloud.open_snapshot(snapshot)
            assert overlay.id_map is None
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert_same_image(
                    overlay, MemoryCloud.from_graph(oracle_replay(dense, records), config)
                )
            with pytest.raises(StorageError, match="outside its id_map"):
                compact_snapshot(snapshot)
            assert DeltaLog(snapshot).read() == records
