"""Tests for the exception hierarchy and the top-level package API."""

from __future__ import annotations

import pytest

import repro
from repro.errors import (
    CloudError,
    ConfigurationError,
    DecompositionError,
    ExecutionError,
    GraphError,
    NodeNotFoundError,
    PartitionError,
    PlanningError,
    QueryError,
    ReproError,
)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "error_class",
        [
            GraphError,
            QueryError,
            DecompositionError,
            PlanningError,
            ExecutionError,
            CloudError,
            ConfigurationError,
        ],
    )
    def test_all_errors_derive_from_repro_error(self, error_class):
        assert issubclass(error_class, ReproError)

    def test_node_not_found_message(self):
        error = NodeNotFoundError(42, "machine 3")
        assert "42" in str(error) and "machine 3" in str(error)
        assert error.node_id == 42
        assert isinstance(error, GraphError)

    def test_partition_error_is_cloud_error(self):
        assert issubclass(PartitionError, CloudError)

    def test_catching_base_class_catches_everything(self):
        with pytest.raises(ReproError):
            raise QueryError("bad query")


class TestPackageApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_public_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"{name} missing from repro package"

    def test_end_to_end_via_public_api_only(self):
        """The README quickstart flow, using only top-level exports."""
        graph = repro.LabeledGraph.from_edges(
            {0: "x", 1: "y", 2: "z"}, [(0, 1), (1, 2)]
        )
        cloud = repro.MemoryCloud.from_graph(graph, repro.ClusterConfig(machine_count=2))
        query = repro.parse_query("node a x\nnode b y\nedge a b")
        result = repro.SubgraphMatcher(cloud).match(query)
        assert result.match_count == 1
        assert result.as_dicts() == [{"a": 0, "b": 1}]
