"""A snapshot's arrays as zero-copy views: specs, attach, the column writer.

An :class:`MmapArraySpec` describes one array inside a snapshot's data
file (path + offset + shape + dtype), as :class:`MmapColumnWriter` wrote
it.  :func:`attach_spec` maps it back as a read-only ``np.memmap`` view, so
the array outlives the process and a reopen touches no bytes until they
are faulted in.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.errors import StorageError

#: Byte alignment of arrays inside an mmap data file.  64 matches the
#: widest vector registers in current CPUs, so memmapped columns are as
#: alignment-friendly as freshly allocated ones.
MMAP_ALIGNMENT = 64


@dataclass(frozen=True)
class MmapArraySpec:
    """Picklable description of one array stored in a data file on disk.

    Attributes:
        path: absolute path of the data file.
        offset: byte offset of the array within the file.
        shape: array shape.
        dtype: numpy dtype string (e.g. ``"int64"``).
    """

    path: str
    offset: int
    shape: Tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        """Size of the described array in bytes."""
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize


def attach_spec(spec: MmapArraySpec) -> np.ndarray:
    """Attach ``spec`` as a read-only ``np.memmap`` view.

    The view owns its mapping: it stays valid for as long as it (or an
    array derived from it) is referenced, and is unmapped when collected.
    An empty array maps nothing and comes back as a plain empty array.
    """
    shape = tuple(spec.shape)
    if int(np.prod(shape, dtype=np.int64)) == 0:
        return np.empty(shape, dtype=np.dtype(spec.dtype))
    return np.memmap(
        spec.path, dtype=np.dtype(spec.dtype), mode="r",
        offset=spec.offset, shape=shape,
    )


def attach_columns(specs: Mapping) -> Dict:
    """Attach a ``{key: spec}`` map, returning ``{key: view}``."""
    return {key: attach_spec(spec) for key, spec in specs.items()}


class MmapColumnWriter:
    """Appends arrays to one data file, each attachable as a read-only memmap.

    :meth:`publish` appends each array at a :data:`MMAP_ALIGNMENT`-aligned
    offset and records a CRC32 of its bytes (readable via :meth:`checksums`,
    persisted by the snapshot manifest).  :meth:`close` flushes and closes
    the file but never deletes data: deleting a snapshot is an explicit
    filesystem operation, not a lifecycle event.
    """

    def __init__(self, data_path: str | Path) -> None:
        self._path = str(Path(data_path).resolve())
        self._offset = 0
        self._checksums: List[int] = []
        Path(self._path).parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self._path, "wb")

    def publish(self, array: np.ndarray) -> MmapArraySpec:
        """Append ``array`` to the data file and return its spec."""
        if self._handle is None:
            raise StorageError("column writer is closed")
        contiguous = np.ascontiguousarray(array)
        padding = -self._offset % MMAP_ALIGNMENT
        if padding:
            self._handle.write(b"\0" * padding)
            self._offset += padding
        data = contiguous.tobytes()
        self._handle.write(data)
        spec = MmapArraySpec(
            path=self._path,
            offset=self._offset,
            shape=tuple(contiguous.shape),
            dtype=str(contiguous.dtype),
        )
        self._offset += len(data)
        self._checksums.append(zlib.crc32(data))
        return spec

    def checksums(self) -> List[int]:
        """CRC32 of every published array, in publication order."""
        return list(self._checksums)

    def close(self) -> None:
        """Flush and close the data file (idempotent; data stays on disk)."""
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.flush()
            handle.close()

    def __enter__(self) -> "MmapColumnWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def verify_checksum(spec: MmapArraySpec, expected: int) -> bool:
    """Re-read one mmap array and compare its CRC32 against ``expected``."""
    view = attach_spec(spec)
    return zlib.crc32(np.ascontiguousarray(view).tobytes()) == expected
