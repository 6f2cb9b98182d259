"""Unit tests of the external<->dense ID bijection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError
from repro.core.result import MatchResult, MatchTable
from repro.ingest import IdMap


class TestConstruction:
    def test_from_sparse_ints_assigns_sorted_ranks(self):
        id_map = IdMap.from_external(np.array([2**62, 5, 42, 5], dtype=np.int64))
        assert len(id_map) == 3
        assert id_map.kind == "int"
        assert id_map.to_external(np.array([0, 1, 2])).tolist() == [5, 42, 2**62]

    def test_from_strings(self):
        id_map = IdMap.from_external(["carol", "alice", "bob", "alice"])
        assert id_map.kind == "str"
        assert len(id_map) == 3
        assert id_map.external_of(0) == "alice"
        assert id_map.dense_of("carol") == 2

    def test_from_python_ints(self):
        id_map = IdMap.from_external([10, 3, 10])
        assert id_map.kind == "int"
        assert id_map.dense_of(10) == 1

    def test_empty(self):
        id_map = IdMap.from_external([])
        assert len(id_map) == 0
        assert id_map.is_identity
        assert id_map.to_dense(np.empty(0, dtype=np.int64)).tolist() == []

    def test_deterministic_across_input_order(self):
        a = IdMap.from_external(np.array([9, 1, 5], dtype=np.int64))
        b = IdMap.from_external(np.array([5, 9, 1], dtype=np.int64))
        assert a == b

    def test_identity_detection(self):
        assert IdMap.identity(4).is_identity
        assert IdMap.from_external(np.arange(7)).is_identity
        assert not IdMap.from_external(np.array([0, 1, 3])).is_identity
        assert not IdMap.from_external(["a", "b"]).is_identity

    def test_unknown_kind_rejected(self):
        with pytest.raises(GraphError, match="kind"):
            IdMap(np.arange(3), "float")


class TestMapping:
    def test_round_trip_64_bit(self):
        externals = np.array([0, 2**63 - 1, 2**40, 17], dtype=np.int64)
        id_map = IdMap.from_external(externals)
        dense = id_map.to_dense(externals)
        assert sorted(dense.tolist()) == [0, 1, 2, 3]
        assert id_map.to_external(dense).tolist() == externals.tolist()

    def test_unknown_external_raises(self):
        id_map = IdMap.from_external(np.array([5, 42], dtype=np.int64))
        with pytest.raises(GraphError, match="not in the IdMap"):
            id_map.to_dense(np.array([5, 6], dtype=np.int64))

    def test_out_of_range_dense_raises(self):
        id_map = IdMap.from_external(np.array([5, 42], dtype=np.int64))
        with pytest.raises(GraphError, match="outside the IdMap domain"):
            id_map.to_external(np.array([2]))
        with pytest.raises(GraphError, match="outside the IdMap domain"):
            id_map.to_external(np.array([-1]))

    def test_string_batch(self):
        id_map = IdMap.from_external(["x", "y", "z"])
        dense = id_map.to_dense(["z", "x"])
        assert dense.tolist() == [2, 0]
        assert id_map.to_external(dense).tolist() == ["z", "x"]

    def test_kind_mismatch_raises(self):
        id_map = IdMap.from_external(np.array([5, 42], dtype=np.int64))
        with pytest.raises(GraphError, match="integer external IDs"):
            id_map.to_dense(np.array(["5"]))


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize(
        "values",
        [
            np.array([2**62, 5, 42], dtype=np.int64),
            ["héllo", "", "naïve-author", "z" * 100],
        ],
        ids=["int", "str"],
    )
    def test_arrays_round_trip(self, values):
        id_map = IdMap.from_external(values)
        arrays = id_map.snapshot_arrays()
        rebuilt = IdMap.from_manifest(
            id_map.manifest_meta(), lambda name: arrays[name]
        )
        assert rebuilt == id_map

    def test_empty_string_map_round_trips(self):
        id_map = IdMap(np.asarray([], dtype="U1"), "str")
        arrays = id_map.snapshot_arrays()
        rebuilt = IdMap.from_manifest(
            id_map.manifest_meta(), lambda name: arrays[name]
        )
        assert len(rebuilt) == 0 and rebuilt.kind == "str"


def external_rows(id_map, rows, columns=("a", "b")):
    """``rows`` (dense IDs) as a query result read back in external IDs."""
    result = MatchResult(columns, matches=MatchTable(columns, rows), id_map=id_map)
    return result.external_rows()


class TestRemapResults:
    def test_identity_and_none_are_passthrough(self):
        rows = [(0, 1), (2, 0)]
        assert external_rows(None, rows) == rows
        assert external_rows(IdMap.identity(3), rows) == rows

    def test_sparse_remap(self):
        id_map = IdMap.from_external(np.array([7, 99, 2**40], dtype=np.int64))
        assert external_rows(id_map, [(0, 2), (1, 0)]) == [(7, 2**40), (99, 7)]
        # The same gather, on the 2-D array itself.
        dense = np.array([[0, 2], [1, 0]], dtype=np.int64)
        assert id_map.to_external(dense).tolist() == [[7, 2**40], [99, 7]]

    def test_string_ids(self):
        id_map = IdMap.from_external(["carol", "alice", "bob"])
        rows = external_rows(id_map, [(0, 2), (1, 0)])
        assert rows == [("alice", "carol"), ("bob", "alice")]
        assert all(type(value) is str for row in rows for value in row)

    def test_empty_rows(self):
        id_map = IdMap.from_external(np.array([7, 99], dtype=np.int64))
        assert external_rows(id_map, []) == []
        assert id_map.to_external(np.empty((0, 2), dtype=np.int64)).shape == (0, 2)
