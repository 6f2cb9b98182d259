"""Unit tests for mmap array specs: attaching them, and the column writer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import StorageError
from repro.storage.provider import (
    MMAP_ALIGNMENT,
    MmapArraySpec,
    MmapColumnWriter,
    attach_spec,
    verify_checksum,
)


class TestAttachDispatch:
    def test_mmap_spec_round_trip(self, tmp_path):
        array = np.arange(7, dtype=np.int32)
        with MmapColumnWriter(tmp_path / "data.bin") as writer:
            spec = writer.publish(array)
        assert isinstance(spec, MmapArraySpec)
        handle, view = attach_spec(spec)
        try:
            np.testing.assert_array_equal(view, array)
            assert view.dtype == np.int32
        finally:
            handle.close()

    def test_mmap_view_is_read_only(self, tmp_path):
        with MmapColumnWriter(tmp_path / "data.bin") as writer:
            spec = writer.publish(np.arange(4, dtype=np.int64))
        handle, view = attach_spec(spec)
        try:
            with pytest.raises((ValueError, TypeError)):
                view[0] = 99
        finally:
            handle.close()

    def test_empty_array_attaches_without_mapping(self, tmp_path):
        with MmapColumnWriter(tmp_path / "data.bin") as writer:
            spec = writer.publish(np.empty(0, dtype=np.int64))
        handle, view = attach_spec(spec)
        assert view.shape == (0,)
        assert view.dtype == np.int64
        handle.close()  # idempotent no-op handle
        handle.close()


class TestMmapProvider:
    def test_offsets_are_aligned(self, tmp_path):
        with MmapColumnWriter(tmp_path / "data.bin") as writer:
            specs = [
                writer.publish(np.arange(n, dtype=np.int8))
                for n in (3, 5, 1)
            ]
        for spec in specs:
            assert spec.offset % MMAP_ALIGNMENT == 0

    def test_checksums_match_contents(self, tmp_path):
        arrays = [np.arange(6, dtype=np.int64), np.arange(9, dtype=np.int32)]
        with MmapColumnWriter(tmp_path / "data.bin") as writer:
            specs = [writer.publish(array) for array in arrays]
            checksums = writer.checksums()
        assert len(checksums) == 2
        for spec, crc in zip(specs, checksums):
            assert verify_checksum(spec, crc)
            assert not verify_checksum(spec, crc ^ 1)

    def test_closed_provider_rejects_publish(self, tmp_path):
        writer = MmapColumnWriter(tmp_path / "data.bin")
        writer.close()
        writer.close()  # idempotent
        with pytest.raises(StorageError):
            writer.publish(np.arange(2, dtype=np.int64))

    def test_data_survives_close(self, tmp_path):
        path = tmp_path / "data.bin"
        with MmapColumnWriter(path) as writer:
            spec = writer.publish(np.arange(5, dtype=np.int64))
        assert path.is_file()
        handle, view = attach_spec(spec)
        try:
            np.testing.assert_array_equal(view, np.arange(5))
        finally:
            handle.close()

    def test_spec_nbytes(self):
        spec = MmapArraySpec(path="x", offset=0, shape=(3, 4), dtype="int64")
        assert spec.nbytes == 3 * 4 * 8
