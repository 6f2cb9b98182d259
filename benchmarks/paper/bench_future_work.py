"""Future-work experiments announced in the paper's conclusions (Section 8).

* query throughput vs. machine count,
* transmitted data volume vs. machine count,
* response-time bounds (median and tail percentiles) for a mixed workload.
"""

from __future__ import annotations

from benchmarks.paper.future_work import (
    response_time_bounds,
    throughput_vs_machines,
    transmitted_data_vs_machines,
)

from conftest import save_rows


def test_throughput_vs_machines(benchmark, results_dir):
    rows = benchmark.pedantic(
        lambda: throughput_vs_machines(machine_counts=(1, 2, 4, 8)),
        rounds=1, iterations=1,
    )
    save_rows(
        results_dir, "future_throughput", rows,
        "Future work: query throughput vs. machine count",
    )
    assert [row["machines"] for row in rows] == [1, 2, 4, 8]
    # Throughput must not degrade as machines are added.
    assert rows[-1]["throughput_qps"] >= rows[0]["throughput_qps"] * 0.8


def test_transmitted_data_vs_machines(benchmark, results_dir):
    rows = benchmark.pedantic(
        lambda: transmitted_data_vs_machines(machine_counts=(2, 4, 8, 12)),
        rounds=1, iterations=1,
    )
    save_rows(
        results_dir, "future_transmitted_data", rows,
        "Future work: transmitted data vs. machine count",
    )
    assert [row["machines"] for row in rows] == [2, 4, 8, 12]
    # More machines -> more cross-machine traffic per query.
    assert rows[-1]["avg_mb_per_query"] >= rows[0]["avg_mb_per_query"]


def test_response_time_bounds(benchmark, results_dir):
    rows = benchmark.pedantic(
        lambda: response_time_bounds(query_count=20), rounds=1, iterations=1
    )
    save_rows(
        results_dir, "future_response_time_bounds", rows,
        "Future work: response-time bounds for a mixed query stream",
    )
    assert rows[0]["percentile"] == "p50"
    latencies = [row["latency_ms"] for row in rows]
    assert latencies == sorted(latencies)
