"""Named typed arrays as zero-copy views: specs, attach, the column writer.

A picklable *spec* describes an array somewhere outside the process heap;
:func:`attach_spec` maps any spec back into a zero-copy view plus a handle
that must stay referenced (and eventually closed) while the view is alive,
and :func:`discard_spec` retires one.  Two kinds of spec exist:

* :class:`~repro.utils.shm.SharedArraySpec` — a POSIX shared-memory block,
  published by a :class:`~repro.utils.shm.SegmentRegistry` (the cluster
  runtime's publication path); the pages vanish when the registry unlinks
  them.
* :class:`MmapArraySpec` — an array inside a snapshot's data file, written
  by :class:`MmapColumnWriter` (path + offset + shape + dtype).  It attaches
  as a read-only ``np.memmap`` view, so the array outlives the process and a
  reopen touches no bytes until they are faulted in.

Because both ride through :func:`attach_spec`, consumers are
spec-agnostic: the process executor's workers attach a snapshot-backed
cloud's mmap specs exactly like shm ones (see
:func:`repro.runtime.shared_cloud.rebuild_cloud`).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Tuple, Union

import numpy as np

from repro.errors import StorageError
from repro.utils.shm import SharedArraySpec, attach_array, unlink_block

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


#: Any spec :func:`attach_spec` understands.
ArraySpec = Union[SharedArraySpec, MmapArraySpec]


class _ClosedHandle:
    """No-op attach handle for empty arrays (nothing is mapped)."""

    def close(self) -> None:
        """Nothing to release."""


class _MmapHandle:
    """Attach handle keeping one ``np.memmap``'s mapping alive.

    Mirrors the ``SharedMemory`` half of the shm attach contract: the view
    is valid while the handle is open, and :meth:`close` releases the
    mapping (views must not be dereferenced afterwards).
    """

    def __init__(self, mapped: np.memmap) -> None:
        self._mapped = mapped

    def close(self) -> None:
        mapped, self._mapped = self._mapped, None
        if mapped is not None and mapped._mmap is not None:
            mapped._mmap.close()


def attach_spec(spec: ArraySpec, writable: bool = False):
    """Attach any :class:`ArraySpec`, returning ``(handle, view)``.

    The handle must stay referenced while the view is used and exposes an
    idempotent ``close()``.  Views are read-only unless ``writable`` (only
    the shm backend supports writable attachment — mutable coordination
    state never lives in a snapshot file).
    """
    if isinstance(spec, SharedArraySpec):
        return attach_array(spec, writable=writable)
    if isinstance(spec, MmapArraySpec):
        if writable:
            raise StorageError("mmap-backed arrays attach read-only")
        shape = tuple(spec.shape)
        if int(np.prod(shape, dtype=np.int64)) == 0:
            return _ClosedHandle(), np.empty(shape, dtype=np.dtype(spec.dtype))
        view = np.memmap(
            spec.path, dtype=np.dtype(spec.dtype), mode="r",
            offset=spec.offset, shape=shape,
        )
        return _MmapHandle(view), view
    raise StorageError(f"unknown array spec type {type(spec).__name__}")


def attach_columns(specs: Mapping) -> Tuple[Dict, List]:
    """Attach a ``{key: spec}`` map, returning ``({key: view}, handles)``.

    The handles keep the views mapped; whoever adopts the views keeps the
    list referenced for as long as it uses them.
    """
    views: Dict = {}
    handles: List = []
    for key, spec in specs.items():
        handle, views[key] = attach_spec(spec)
        handles.append(handle)
    return views, handles


def discard_spec(spec: ArraySpec) -> None:
    """Retire one published array without attaching to its contents.

    The destruction counterpart of :func:`attach_spec`, dispatching on the
    spec type the same way: shm blocks are unlinked (idempotently — a
    concurrent or earlier unlink is fine), while mmap specs are durable by
    design and discarding them is a no-op (snapshot files are deleted by
    explicit filesystem operations, never by handle lifecycle).
    """
    if isinstance(spec, SharedArraySpec):
        unlink_block(spec)
    elif not isinstance(spec, MmapArraySpec):
        raise StorageError(f"unknown array spec type {type(spec).__name__}")


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
    handle, view = attach_spec(spec)
    try:
        return zlib.crc32(np.ascontiguousarray(view).tobytes()) == expected
    finally:
        handle.close()
