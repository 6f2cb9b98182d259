"""Tests of the repro.api facade and its normalized constructor kwargs."""

from __future__ import annotations

import random

import numpy as np
import pytest

import repro.api as api
from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.core.engine import SubgraphMatcher
from repro.core.planner import MatcherConfig
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    GraphError,
    ServiceError,
    StorageError,
)
from repro.graph.generators.power_law import generate_power_law
from repro.graph.partition import BlockPartitioner
from repro.graph.io import save_graph
from repro.ingest import ingest_edges
from repro.query.generators import dfs_query
from repro.query.query_graph import QueryGraph
from repro.serve.service import QueryService
from tests.helpers import assert_same_image
from tests.ingest.test_dblp import SMALL_DBLP

TRIANGLE_QUERY = """
node a entity
node b entity
edge a b
"""


@pytest.fixture
def sparse_graph():
    # Triangle over sparse 64-bit IDs plus one isolated node.
    return ingest_edges(
        np.array([7, 12345678901, 2**62], dtype=np.int64),
        np.array([12345678901, 2**62, 7], dtype=np.int64),
        extra_ids=[999],
    )


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "toy.edges"
    path.write_text("7 12345678901\n12345678901 99\n")
    return path


class TestLoadDataset:
    def test_named_dataset(self):
        graph = api.load_dataset("tiny")
        assert graph.node_count > 0

    def test_graph_passthrough(self, sparse_graph):
        assert api.load_dataset(sparse_graph) is sparse_graph

    def test_edge_list_file(self, edge_file):
        graph = api.load_dataset(edge_file)
        assert graph.node_count == 3
        assert graph.id_map.dense_of(12345678901) >= 0

    def test_uniform_label_mode(self, edge_file):
        graph = api.load_dataset(edge_file, label_mode="uniform")
        assert {graph.label(v) for v in range(graph.node_count)} == {"entity"}

    def test_bad_label_mode(self, edge_file):
        with pytest.raises(GraphError, match="label_mode"):
            api.load_dataset(edge_file, label_mode="rainbow")

    def test_unresolvable_source_names_known_datasets(self, tmp_path):
        with pytest.raises(GraphError, match="tiny"):
            api.load_dataset(tmp_path / "missing.edges")

    def test_snapshot_directory(self, sparse_graph, tmp_path):
        snap = tmp_path / "snap"
        with MemoryCloud.from_graph(
            sparse_graph, ClusterConfig(machine_count=2)
        ) as cloud:
            cloud.save_snapshot(snap)
        graph = api.load_dataset(snap)
        assert graph.node_count == sparse_graph.node_count
        assert graph.id_map == sparse_graph.id_map


class TestOneResolver:
    """Every kind of source becomes a cloud in ``api._resolve`` and nowhere
    else; whichever way one dataset is described, the image is the same."""

    @pytest.fixture(params=["name", "edge-list", "dblp-xml"])
    def base(self, request, tmp_path, edge_file):
        if request.param == "name":
            return "tiny"
        if request.param == "edge-list":
            return edge_file
        path = tmp_path / "slice.xml"
        path.write_text(SMALL_DBLP)
        return path

    def test_every_source_kind_resolves_to_the_same_image(self, base, tmp_path):
        reference, owned = api._resolve(base, machines=2)
        assert owned
        graph = api.load_dataset(base)
        save_graph(tmp_path / "prefix", graph)
        reference.save_snapshot(tmp_path / "snap")
        for source, machines in [
            (graph, 2),
            (tmp_path / "prefix", 2),
            (str(tmp_path / "snap"), None),
            (tmp_path / "snap", 2),
        ]:
            cloud, owned = api._resolve(source, machines=machines)
            assert owned
            assert_same_image(cloud, reference)
        # Re-partitioned from the snapshot's graph when the count differs.
        three, _ = api._resolve(tmp_path / "snap", machines=3)
        assert three.machine_count == 3 and three.node_count == reference.node_count

    def test_a_cloud_is_borrowed_as_it_is(self, tiny_cloud):
        assert api._resolve(tiny_cloud) == (tiny_cloud, False)

    def test_a_cloud_is_never_served_in_a_shape_it_does_not_have(self, tiny_cloud):
        """A loaded cloud keeps its machines: asking for others is refused,
        not silently answered on the cloud's own three."""
        for shape in (
            {"machines": 8},
            {"cluster_config": ClusterConfig(machine_count=2)},
            {"cluster_config": ClusterConfig(machine_count=3, partitioner=BlockPartitioner())},
        ):
            with pytest.raises(ConfigurationError, match="loaded on 3 machines"):
                api.connect(tiny_cloud, **shape)
        for shape in ({"machines": 3}, {"cluster_config": ClusterConfig(machine_count=3)}):
            with api.connect(tiny_cloud, **shape) as db:
                assert db.cloud is tiny_cloud


class TestSessionLifecycle:
    def test_connect_query_close(self, edge_file):
        with api.connect(edge_file, machines=2, label_mode="uniform") as db:
            result = db.query(TRIANGLE_QUERY)
            externals = {(d["a"], d["b"]) for d in result.as_dicts()}
            assert (7, 12345678901) in externals
            assert db.id_map is not None
        with pytest.raises(ServiceError, match="closed"):
            db.query(TRIANGLE_QUERY)

    def test_query_accepts_query_graph_and_limit(self, edge_file):
        query = QueryGraph({"a": "entity", "b": "entity"}, [("a", "b")])
        with api.connect(edge_file, machines=2, label_mode="uniform") as db:
            result = db.query(query, limit=1)
            assert len(result.as_dicts()) == 1

    def test_negative_limit_is_rejected_and_counted(self, edge_file):
        with api.connect(edge_file, machines=2, label_mode="uniform") as db:
            with pytest.raises(AdmissionError, match="non-negative"):
                db.query(TRIANGLE_QUERY, limit=-5)
            assert (db.stats().rejected, db.stats().completed) == (1, 0)
            assert db.query(TRIANGLE_QUERY, limit=0).rows == []

    def test_second_backend_borrows_the_cloud(self, edge_file):
        """Another backend over the same data is another session on the
        first one's cloud; closing it leaves the owner serving."""
        with api.connect(edge_file, machines=2, label_mode="uniform") as db:
            a = db.query(TRIANGLE_QUERY)
            with api.connect(db.cloud, executor="process", workers=1) as other:
                assert other.cloud is db.cloud
                b = other.query(TRIANGLE_QUERY)
            assert sorted(a.as_dicts(), key=str) == sorted(b.as_dicts(), key=str)
            assert db.query(TRIANGLE_QUERY).rows == a.rows

    def test_connect_cloud_is_borrowed(self, sparse_graph):
        cloud = MemoryCloud.from_graph(sparse_graph, ClusterConfig(machine_count=2))
        with api.connect(cloud) as db:
            db.query(TRIANGLE_QUERY)
        # Closing the session must NOT close a caller-owned cloud.
        assert cloud.node_count == sparse_graph.node_count
        cloud.close()

    def test_connect_snapshot_round_trips_external_ids(self, sparse_graph, tmp_path):
        snap = tmp_path / "snap"
        with MemoryCloud.from_graph(
            sparse_graph, ClusterConfig(machine_count=2)
        ) as cloud:
            cloud.save_snapshot(snap)
        with api.connect(snap) as db:
            result = db.query(TRIANGLE_QUERY)
            flat = {v for d in result.as_dicts() for v in d.values()}
            assert flat == {7, 12345678901, 2**62}

    def test_machines_and_cluster_config_conflict(self, edge_file):
        """Any explicit machines= beside cluster_config= — 4, once the
        "not given" sentinel, included."""
        for machines in (2, 4):
            with pytest.raises(ConfigurationError, match="not both"):
                api.connect(
                    edge_file,
                    machines=machines,
                    cluster_config=ClusterConfig(machine_count=2),
                )

    @pytest.mark.parametrize("machines", [None, 2, 4])
    def test_explicit_machines_repartitions_a_snapshot(
        self, sparse_graph, tmp_path, machines
    ):
        """A snapshot keeps its recorded shape unless machines= is given;
        4 is a machine count like any other, not "not given"."""
        snap = tmp_path / "snap"
        with MemoryCloud.from_graph(
            sparse_graph, ClusterConfig(machine_count=8)
        ) as cloud:
            cloud.save_snapshot(snap)
        with api.connect(snap, machines=machines) as db:
            assert db.cloud.machine_count == (machines or 8)
            assert len(db.query(TRIANGLE_QUERY).rows) == 6
        with api.open_snapshot(snap, machines=machines) as cloud:
            assert cloud.machine_count == (machines or 8)

    def test_bad_service_knob_fails_at_connect(self, edge_file):
        with pytest.raises(ConfigurationError, match="max_in_flight"):
            api.connect(edge_file, max_in_flight=0)

    def test_bad_block_size_fails_at_connect(self):
        """A non-positive block_size used to be served: every join's head
        loop was empty, so each query silently came back with no rows."""
        graph = generate_power_law(3000, 6, label_density=0.003, seed=3)
        query = dfs_query(graph, 4, random.Random(5))

        def connect(**matcher_knobs):
            return api.connect(
                graph,
                machines=4,
                executor="serial",
                matcher_config=MatcherConfig(**matcher_knobs),
            )

        with connect() as db:
            expected = db.query(query).rows
        assert len(expected) > 1
        for block_size in (None, 1):
            with connect(block_size=block_size) as db:
                assert db.query(query).rows == expected
        for block_size in (0, -1):
            with pytest.raises(ConfigurationError, match="block_size"):
                connect(block_size=block_size)

    def test_bad_max_stwig_leaves_fails_at_connect(self, edge_file):
        """Zero leaves used to construct, then fail every query with a
        DecompositionError."""
        for leaves in (0, -2):
            with pytest.raises(ConfigurationError, match="max_stwig_leaves"):
                api.connect(edge_file, matcher_config=MatcherConfig(max_stwig_leaves=leaves))
        with api.connect(edge_file, matcher_config=MatcherConfig(max_stwig_leaves=1)):
            pass

    def test_negative_plan_cache_size_fails_at_connect(self, edge_file):
        """A negative size used to disable the plan cache silently."""
        with pytest.raises(ConfigurationError, match="plan_cache_size"):
            api.connect(edge_file, matcher_config=MatcherConfig(plan_cache_size=-5))
        with api.connect(edge_file, matcher_config=MatcherConfig(plan_cache_size=0)):
            pass

    def test_open_snapshot_refuses_a_non_snapshot(self, edge_file):
        with pytest.raises(StorageError, match="no snapshot manifest"):
            api.open_snapshot(edge_file)

    def test_explain_and_stats(self, edge_file):
        with api.connect(edge_file, machines=2, label_mode="uniform") as db:
            db.query(TRIANGLE_QUERY)
            assert db.explain(TRIANGLE_QUERY) is not None
            assert db.stats().completed >= 1

    def test_open_snapshot(self, sparse_graph, tmp_path):
        snap = tmp_path / "snap"
        with MemoryCloud.from_graph(
            sparse_graph, ClusterConfig(machine_count=2)
        ) as cloud:
            cloud.save_snapshot(snap)
        with api.open_snapshot(snap) as cloud:
            assert cloud.node_count == sparse_graph.node_count
            assert cloud.id_map == sparse_graph.id_map


class TestDeprecationShims:
    """The shims are gone: one spelling per knob, Python's own TypeError
    for anything else (the class keeps its name so test IDs stay stable)."""

    def test_matcher_unknown_kwarg_rejected(self, tiny_cloud):
        for constructor in (SubgraphMatcher, QueryService):
            for retired in (
                "max_workers", "default_limit", "graph", "snapshot", "max_in_flight", "bogus"
            ):
                with pytest.raises(TypeError, match=retired):
                    constructor(tiny_cloud, **{retired: 2})

    def test_workers_cannot_resize_executor_instance(self, tiny_cloud):
        matcher = SubgraphMatcher(tiny_cloud)
        try:
            with pytest.raises(ConfigurationError, match="resize"):
                SubgraphMatcher(tiny_cloud, executor=matcher.executor, workers=2)
        finally:
            matcher.close()


class TestPublicApiSurface:
    def test_all_names_resolve(self):
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_datasets_registry(self):
        assert set(api.DATASETS) == {
            "tiny",
            "figure5",
            "patents-small",
            "wordnet-small",
            "rmat",
        }
