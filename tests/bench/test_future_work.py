"""Smoke tests for the future-work experiment drivers (Section 8)."""

from __future__ import annotations

from benchmarks.paper import future_work


class TestThroughput:
    def test_rows_per_machine_count(self):
        rows = future_work.throughput_vs_machines(
            machine_counts=(1, 2), queries_per_stream=4, query_nodes=4
        )
        assert [row["machines"] for row in rows] == [1, 2]
        assert all(row["throughput_qps"] > 0 for row in rows)
        assert all(row["queries"] == 4 for row in rows)


class TestTransmittedData:
    def test_bytes_grow_with_cluster_size(self):
        rows = future_work.transmitted_data_vs_machines(
            machine_counts=(1, 4), query_nodes=4, batch_size=2
        )
        assert [row["machines"] for row in rows] == [1, 4]
        # A single machine ships (almost) nothing; a 4-machine cluster must ship more.
        assert rows[1]["avg_mb_per_query"] >= rows[0]["avg_mb_per_query"]

    def test_pruning_never_ships_more(self, monkeypatch):
        # Compared on unlimited queries: under a limit, a machine whose join
        # task starts after the shared budget filled skips its gather, so
        # ``result_rows_shipped`` depends on the worker schedule.
        monkeypatch.setattr(future_work, "PAPER_RESULT_LIMIT", None)
        pruned = future_work.transmitted_data_vs_machines(
            machine_counts=(4,), query_nodes=4, batch_size=2, use_load_set_pruning=True
        )[0]
        full = future_work.transmitted_data_vs_machines(
            machine_counts=(4,), query_nodes=4, batch_size=2, use_load_set_pruning=False
        )[0]
        assert pruned["avg_rows_shipped"] <= full["avg_rows_shipped"]


class TestResponseTimeBounds:
    def test_percentiles_monotone(self):
        rows = future_work.response_time_bounds(
            percentiles=(0.5, 0.9), query_count=6, machine_count=2
        )
        labels = [row["percentile"] for row in rows]
        assert labels == ["p50", "p90", "max"]
        latencies = [row["latency_ms"] for row in rows]
        assert latencies == sorted(latencies)
