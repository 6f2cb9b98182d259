"""Append-side validation: the log only takes records its grammar reads back,
and no append leaves a log that every later open refuses."""

from __future__ import annotations

import pytest

import repro.api as api
from repro.cli import main
from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.errors import StorageError
from repro.storage.delta import DeltaLog, DeltaRecord, compact_snapshot
from repro.workloads.datasets import tiny_example_graph

#: Labels that used to append fine and then made the snapshot unopenable
#: (tab, newline, empty) or came back changed (padding is stripped on read).
UNWRITABLE_LABELS = ["", "a\tb", "a\nb", "a\rb", " x", "x ", " x ", "\tx", "x\n"]


class TestUnwritableLabels:
    @pytest.mark.parametrize("label", UNWRITABLE_LABELS)
    def test_append_nodes_rejects(self, tmp_path, label):
        log = DeltaLog(tmp_path)
        with pytest.raises(StorageError, match="cannot be written to a delta log"):
            log.append_nodes([(7, label)])
        assert not log.exists()

    @pytest.mark.parametrize("label", UNWRITABLE_LABELS)
    def test_bad_record_leaves_no_half_batch(self, tmp_path, label):
        log = DeltaLog(tmp_path)
        log.append_edges([(1, 2)])
        before = log.path.read_bytes()
        with pytest.raises(StorageError, match="node 8: label"):
            log.append(
                [
                    DeltaRecord("node", 7, label="fine"),
                    DeltaRecord("edge", 7, 1),
                    DeltaRecord("node", 8, label=label),
                ]
            )
        assert log.path.read_bytes() == before
        assert log.read() == [DeltaRecord("edge", 1, 2)]

    @pytest.mark.parametrize("label", ["x", "two words", "#hash", "ünï-cödé", "a\x0cb"])
    def test_writable_labels_round_trip(self, tmp_path, label):
        log = DeltaLog(tmp_path)
        log.append_nodes([(7, label)])
        assert log.read() == [DeltaRecord("node", 7, label=label)]


class TestOneBadAppend:
    """A record every merge refuses is refused at append, so the snapshot
    keeps opening; forward references stay the library's to make."""

    @pytest.fixture
    def snapshot(self, tmp_path):
        cloud = MemoryCloud.from_graph(tiny_example_graph(), ClusterConfig(machine_count=2))
        cloud.save_snapshot(tmp_path / "snap")
        return tmp_path / "snap"

    def assert_opens(self, snapshot, node_count):
        with api.open_snapshot(snapshot) as cloud:
            assert cloud.node_count == node_count

    def test_self_loop_is_refused_and_the_log_untouched(self, snapshot):
        log = DeltaLog(snapshot)
        log.append_edges([(1, 2)])
        before = log.path.read_bytes()
        with pytest.raises(StorageError, match="self-loop"):
            log.append_edges([(3, 4), (1, 1)])
        assert log.path.read_bytes() == before
        nodes = tiny_example_graph().node_count
        self.assert_opens(snapshot, nodes)
        compact_snapshot(snapshot)
        self.assert_opens(snapshot, nodes)

    def test_library_keeps_forward_references(self, snapshot):
        log = DeltaLog(snapshot)
        log.append_edges([(1, 1_000_000)])
        log.append_nodes([(1_000_000, "a")])
        self.assert_opens(snapshot, tiny_example_graph().node_count + 1)

    def test_cli_refuses_an_unlabelled_endpoint(self, snapshot, capsys):
        with pytest.raises(SystemExit, match="edge endpoint 1000000 has no label"):
            main(["append", "--snapshot", str(snapshot), "--edge", "1", "1000000"])
        assert not DeltaLog(snapshot).exists()
        self.assert_opens(snapshot, tiny_example_graph().node_count)

    def test_cli_refuses_a_self_loop(self, snapshot):
        with pytest.raises(SystemExit, match="self-loop"):
            main(["append", "--snapshot", str(snapshot), "--node", "7", "a",
                  "--edge", "1", "1"])
        assert not DeltaLog(snapshot).exists()

    def test_cli_endpoint_labelled_in_the_same_call(self, snapshot, capsys):
        assert main(
            ["append", "--snapshot", str(snapshot), "--edge", "1", "1000000",
             "--node", "1000000", "L"]
        ) == 0
        assert "appended 2 records" in capsys.readouterr().out
        self.assert_opens(snapshot, tiny_example_graph().node_count + 1)
        compact_snapshot(snapshot)
        self.assert_opens(snapshot, tiny_example_graph().node_count + 1)

    def test_cli_endpoint_labelled_by_a_pending_record(self, snapshot):
        DeltaLog(snapshot).append_nodes([(1_000_000, "L")])
        assert main(["append", "--snapshot", str(snapshot), "--edge", "1", "1000000"]) == 0
        self.assert_opens(snapshot, tiny_example_graph().node_count + 1)
