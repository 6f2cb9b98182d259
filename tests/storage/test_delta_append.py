"""Append-side validation: the log only takes records its grammar reads back."""

from __future__ import annotations

import pytest

from repro.errors import StorageError
from repro.storage.delta import DeltaLog, DeltaRecord

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
