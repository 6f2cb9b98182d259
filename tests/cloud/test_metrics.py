"""Unit tests for the communication metrics accounting."""

from __future__ import annotations

import pytest

from repro.cloud.config import NetworkModel
from repro.cloud.metrics import CloudMetrics


class TestLoadAccounting:
    def test_local_load_counts_no_messages(self):
        metrics = CloudMetrics()
        metrics.record_load(requester=1, owner=1, neighbor_count=10)
        assert metrics.local_loads == 1
        assert metrics.remote_loads == 0
        assert metrics.messages == 0

    def test_remote_load_counts_round_trip(self):
        metrics = CloudMetrics()
        metrics.record_load(requester=0, owner=1, neighbor_count=4)
        assert metrics.remote_loads == 1
        assert metrics.messages == 2  # request + response
        assert metrics.bytes_transferred == 16 + (16 + 8 * 4)
        assert metrics.per_pair_messages[(0, 1)] == 1
        assert metrics.per_pair_messages[(1, 0)] == 1


class TestLabelProbeAccounting:
    def test_local_probe(self):
        metrics = CloudMetrics()
        metrics.record_label_probe(requester=2, owner=2)
        assert metrics.local_label_probes == 1
        assert metrics.messages == 0

    def test_remote_probe(self):
        metrics = CloudMetrics()
        metrics.record_label_probe(requester=2, owner=3)
        assert metrics.remote_label_probes == 1
        assert metrics.messages == 2


class TestResultTransfer:
    def test_same_machine_transfer_free(self):
        metrics = CloudMetrics()
        metrics.record_result_transfer(sender=1, receiver=1, rows=100, row_width=3)
        assert metrics.messages == 0
        assert metrics.result_rows_shipped == 0

    def test_cross_machine_transfer(self):
        metrics = CloudMetrics()
        metrics.record_result_transfer(sender=1, receiver=0, rows=10, row_width=3)
        assert metrics.result_rows_shipped == 10
        assert metrics.messages == 1
        assert metrics.bytes_transferred == 16 + 10 * 3 * 8


class TestResultFilterAccounting:
    def test_filtered_rows_counted_without_traffic(self):
        metrics = CloudMetrics()
        metrics.record_result_filter(sender=1, receiver=0, rows=25)
        assert metrics.result_rows_filtered == 25
        assert metrics.result_rows_shipped == 0
        assert metrics.messages == 0
        assert metrics.bytes_transferred == 0

    def test_same_machine_filter_not_counted(self):
        # Local gathers never shipped, so local filtering saves no traffic.
        metrics = CloudMetrics()
        metrics.record_result_filter(sender=2, receiver=2, rows=25)
        assert metrics.result_rows_filtered == 0

    def test_zero_rows_ignored(self):
        metrics = CloudMetrics()
        metrics.record_result_filter(sender=1, receiver=0, rows=0)
        assert metrics.result_rows_filtered == 0

    def test_in_snapshot_merge_and_reset(self):
        metrics = CloudMetrics()
        metrics.record_result_filter(sender=1, receiver=0, rows=7)
        assert metrics.snapshot()["result_rows_filtered"] == 7
        other = CloudMetrics()
        other.record_result_filter(sender=0, receiver=1, rows=3)
        metrics.merge(other)
        assert metrics.result_rows_filtered == 10
        metrics.reset()
        assert metrics.result_rows_filtered == 0


class TestAggregation:
    def test_merge(self):
        a = CloudMetrics()
        a.record_load(0, 1, 2)
        b = CloudMetrics()
        b.record_load(1, 1, 2)
        b.record_label_probe(0, 1)
        a.merge(b)
        assert a.remote_loads == 1
        assert a.local_loads == 1
        assert a.remote_label_probes == 1

    def test_snapshot_keys(self):
        snapshot = CloudMetrics().snapshot()
        assert {
            "local_loads",
            "remote_loads",
            "messages",
            "bytes_transferred",
            "join_rows_materialized",
            "join_peak_intermediate_rows",
        } <= set(snapshot)

    def test_join_materialization_merges_sum_and_peak(self):
        a = CloudMetrics()
        a.record_join_materialization(100, 60)
        a.record_join_materialization(50, 40)
        assert a.join_rows_materialized == 150
        assert a.join_peak_intermediate_rows == 60
        b = CloudMetrics()
        b.record_join_materialization(30, 90)
        a.merge(b)
        # Totals sum across machines; the peak is the max of the
        # per-machine peaks, never their sum.
        assert a.join_rows_materialized == 180
        assert a.join_peak_intermediate_rows == 90
        a.reset()
        assert a.join_rows_materialized == 0
        assert a.join_peak_intermediate_rows == 0

    def test_reset(self):
        metrics = CloudMetrics()
        metrics.record_load(0, 1, 1)
        metrics.reset()
        assert metrics.messages == 0
        assert metrics.snapshot()["remote_loads"] == 0
        assert not metrics.per_pair_messages

    def test_simulated_times_batched_latency(self):
        metrics = CloudMetrics()
        metrics.record_load(0, 1, 1)
        # Two messages but one batch: the latency term is charged once.
        model = NetworkModel(
            latency_per_message=1e-3, seconds_per_byte=0.0, local_op_cost=0.0,
            messages_per_batch=512,
        )
        assert metrics.simulated_network_seconds(model) == pytest.approx(1e-3)
        assert metrics.simulated_compute_seconds(model) == 0.0
        assert metrics.simulated_total_seconds(model) == pytest.approx(1e-3)

    def test_simulated_times_unbatched(self):
        metrics = CloudMetrics()
        metrics.record_load(0, 1, 1)
        model = NetworkModel(
            latency_per_message=1e-3, seconds_per_byte=0.0, local_op_cost=0.0,
            messages_per_batch=1,
        )
        assert metrics.simulated_network_seconds(model) == pytest.approx(2e-3)

    def test_network_seconds_counts_bytes(self):
        model = NetworkModel(
            latency_per_message=0.0, seconds_per_byte=1e-6, local_op_cost=0.0
        )
        assert model.network_seconds(messages=10, bytes_transferred=1000) == pytest.approx(1e-3)
        assert model.network_seconds(messages=0, bytes_transferred=0) == 0.0

    def test_simulated_compute_counts_local_ops(self):
        metrics = CloudMetrics()
        metrics.record_load(1, 1, 1)
        metrics.record_index_lookup()
        model = NetworkModel(latency_per_message=0.0, seconds_per_byte=0.0, local_op_cost=1.0)
        assert metrics.simulated_compute_seconds(model) == pytest.approx(2.0)
