"""Unit tests for the benchmark harness (suite runner and baseline runner)."""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.baselines.vf2 import vf2_match
from repro.bench.harness import BatchMeasurement, build_cloud, run_baseline, run_suite
from repro.core.planner import MatcherConfig
from repro.workloads.datasets import paper_figure5_graph
from repro.workloads.suites import dfs_suite


@pytest.fixture(scope="module")
def graph():
    return paper_figure5_graph()


@pytest.fixture(scope="module")
def suite(graph):
    return dfs_suite(graph, node_count=4, batch_size=3, seed=2)


class TestBuildCloud:
    def test_machine_count(self, graph):
        cloud = build_cloud(graph, machine_count=5)
        assert cloud.machine_count == 5
        assert cloud.node_count == graph.node_count


class TestRunSuite:
    def test_repeated_runs_leave_no_pool_or_segment_behind(self, graph, suite, monkeypatch):
        """Every run used to leave its matcher's worker pool and shared-memory
        publication of the cloud up until the cloud itself was collected."""
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        cloud = build_cloud(graph, machine_count=2)
        children = multiprocessing.active_children()
        segments = set(os.listdir("/dev/shm"))
        for _ in range(3):
            assert run_suite(cloud, suite, result_limit=16).total_matches >= 3
            assert multiprocessing.active_children() == children
            assert set(os.listdir("/dev/shm")) == segments

    def test_measurement_fields(self, graph, suite):
        cloud = build_cloud(graph, machine_count=3)
        measurement = run_suite(cloud, suite, result_limit=64)
        assert measurement.query_count == 3
        assert measurement.average_wall_seconds > 0
        assert measurement.average_simulated_seconds > 0
        assert measurement.total_matches >= 3  # DFS queries always match
        assert len(measurement.per_query_wall_seconds) == 3

    def test_custom_config_and_label(self, graph, suite):
        cloud = build_cloud(graph, machine_count=2)
        measurement = run_suite(
            cloud,
            suite,
            matcher_config=MatcherConfig(max_stwig_leaves=2),
            result_limit=16,
            label="custom",
        )
        assert measurement.label == "custom"

    def test_as_row_keys(self, graph, suite):
        cloud = build_cloud(graph, machine_count=2)
        row = run_suite(cloud, suite, result_limit=16).as_row()
        assert {"workload", "queries", "avg_wall_ms", "avg_matches"} <= set(row)


class TestRunBaseline:
    def test_baseline_measurement(self, graph, suite):
        measurement = run_baseline(graph, suite.queries, vf2_match, label="vf2", result_limit=64)
        assert isinstance(measurement, BatchMeasurement)
        assert measurement.query_count == 3
        assert measurement.total_matches >= 3

    def test_method_without_limit_kwarg(self, graph, suite):
        def no_limit_method(data_graph, query):
            return vf2_match(data_graph, query)

        measurement = run_baseline(graph, suite.queries, no_limit_method, label="plain")
        assert measurement.query_count == 3
