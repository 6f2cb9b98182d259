"""Tests for ``benchmarks/dataset_cache.py``: snapshot-backed dataset reuse.

The helper is benchmark code (``scale_smoke.py`` is its caller) and lives
beside it; the tests stay here so tier-1 keeps running them."""

from __future__ import annotations

import sys
from pathlib import Path

from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.graph.generators import generate_gnm

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from dataset_cache import cached_graph, default_cache_dir  # noqa: E402


def make_graph():
    return generate_gnm(30, 60, label_count=3, seed=2)


class TestCachedGraph:
    def test_miss_generates_and_saves(self, tmp_path):
        calls = []

        def factory():
            calls.append(1)
            return make_graph()

        graph, info = cached_graph(tmp_path, "g30", factory)
        assert calls == [1]
        assert info["source"] == "generated"
        assert "generate_seconds" in info and "save_seconds" in info
        assert graph.node_count == 30

    def test_hit_reopens_without_factory(self, tmp_path):
        cached_graph(tmp_path, "g30", make_graph)

        def must_not_run():
            raise AssertionError("factory must not run on a cache hit")

        graph, info = cached_graph(tmp_path, "g30", must_not_run)
        assert info["source"] == "snapshot"
        assert "open_seconds" in info
        reference = make_graph()
        assert sorted(graph.edges()) == sorted(reference.edges())

    def test_refresh_regenerates(self, tmp_path):
        cached_graph(tmp_path, "g30", make_graph)
        _graph, info = cached_graph(tmp_path, "g30", make_graph, refresh=True)
        assert info["source"] == "generated"

    def test_distinct_names_are_distinct_entries(self, tmp_path):
        cached_graph(tmp_path, "a", make_graph)
        _graph, info = cached_graph(tmp_path, "b", make_graph)
        assert info["source"] == "generated"


class TestCachedCloud:
    def test_miss_then_hit(self, tmp_path):
        """What the benchmarks do with the cache: load the cloud over the
        cached graph.  A hit (memmap-backed columns) loads the same cloud."""
        config = ClusterConfig(machine_count=3)
        graph, info = cached_graph(tmp_path, "c30", make_graph)
        assert info["source"] == "generated"
        cloud = MemoryCloud.from_graph(graph, config)

        graph, info = cached_graph(
            tmp_path,
            "c30",
            lambda: (_ for _ in ()).throw(AssertionError("no regenerate")),
        )
        assert info["source"] == "snapshot"
        reopened = MemoryCloud.from_graph(graph, config)
        assert reopened.machine_count == 3
        assert reopened.node_count == cloud.node_count
        assert reopened.edge_count == cloud.edge_count
        assert reopened.partition_sizes() == cloud.partition_sizes()
        for node in (0, 7, 29):
            assert sorted(reopened.load_neighbors(node)) == sorted(
                cloud.load_neighbors(node)
            )


class TestDefaultCacheDir:
    def test_env_override_wins(self):
        assert default_cache_dir("/tmp/somewhere") == Path("/tmp/somewhere")

    def test_default_is_under_benchmarks(self):
        path = default_cache_dir(None)
        assert path.parts[-2:] == ("benchmarks", ".dataset_cache")
