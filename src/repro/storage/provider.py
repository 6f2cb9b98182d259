"""The storage-provider abstraction: named typed arrays as zero-copy views.

A :class:`StorageProvider` owns a set of published numpy arrays and hands
out picklable :class:`ArraySpec` descriptions; :func:`attach_spec` maps any
spec back into a zero-copy view plus a handle that must stay referenced
(and eventually closed) while the view is alive.  Two backends implement
the contract:

* :class:`ShmStorageProvider` — POSIX shared memory, the cluster runtime's
  publication path (:mod:`repro.utils.shm` remains the low-level kernel;
  the provider is its :class:`~repro.utils.shm.SegmentRegistry` plus the
  attach side of the protocol).  Specs are
  :class:`~repro.utils.shm.SharedArraySpec`; the pages vanish when the
  provider unlinks them.
* :class:`MmapStorageProvider` — one append-only data file on disk.  Specs
  are :class:`MmapArraySpec` (path + offset + shape + dtype) and attach as
  read-only ``np.memmap`` views, so the arrays outlive the process and a
  reopen touches no bytes until they are faulted in.

Because both spec types ride through :func:`attach_spec`, consumers are
backend-agnostic: the process executor's workers attach a snapshot-backed
cloud's mmap specs exactly like shm ones (see
:func:`repro.runtime.shared_cloud.rebuild_cloud`).
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Tuple, Union

import numpy as np

from repro.errors import StorageError
from repro.utils.shm import (
    SegmentRegistry,
    SharedArraySpec,
    attach_array,
    unlink_block,
)

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


class StorageProvider(ABC):
    """Publishes arrays as zero-copy views addressed by picklable specs."""

    backend: str = "abstract"

    @abstractmethod
    def publish(self, array: np.ndarray) -> ArraySpec:
        """Expose ``array`` through this provider and return its spec."""

    def attach(self, spec: ArraySpec, writable: bool = False):
        """Attach a spec published by any provider; see :func:`attach_spec`."""
        return attach_spec(spec, writable=writable)

    @abstractmethod
    def close(self) -> None:
        """Release everything the provider owns (idempotent)."""

    def __enter__(self) -> "StorageProvider":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ShmStorageProvider(SegmentRegistry, StorageProvider):
    """Shared-memory backend: the cluster runtime's publication registry.

    Publication and unlink-exactly-once semantics are inherited from
    :class:`~repro.utils.shm.SegmentRegistry` unchanged — the provider only
    adds the backend-agnostic attach half, so the multiprocess parity
    suite runs against the very same mechanics as before the refactor.
    """

    backend = "shm"


class MmapStorageProvider(StorageProvider):
    """File backend: arrays appended to one data file, attached via memmap.

    In write mode (``create=True``) :meth:`publish` appends each array at a
    :data:`MMAP_ALIGNMENT`-aligned offset and records a CRC32 of its bytes
    (readable via :meth:`checksums`, persisted by the snapshot manifest).
    A provider opened over an existing file (``create=False``) is
    read-only and only attaches.

    Unlike shm segments, published bytes are durable: :meth:`close` flushes
    and closes the file handle but never deletes data — deleting a
    snapshot is an explicit filesystem operation, not a lifecycle event.
    """

    backend = "mmap"

    def __init__(self, data_path: str | Path, create: bool = False) -> None:
        self._path = str(Path(data_path).resolve())
        self._handle = None
        self._offset = 0
        self._checksums: List[int] = []
        self._closed = False
        if create:
            Path(self._path).parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self._path, "wb")

    @property
    def data_path(self) -> str:
        """Absolute path of the backing data file."""
        return self._path

    def publish(self, array: np.ndarray) -> MmapArraySpec:
        """Append ``array`` to the data file and return its spec."""
        if self._handle is None:
            raise StorageError(
                "provider is read-only (opened without create=True)"
                if not self._closed else "storage provider is closed"
            )
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
        if self._closed:
            return
        self._closed = True
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.flush()
            handle.close()


def verify_checksum(spec: MmapArraySpec, expected: int) -> bool:
    """Re-read one mmap array and compare its CRC32 against ``expected``."""
    handle, view = attach_spec(spec)
    try:
        return zlib.crc32(np.ascontiguousarray(view).tobytes()) == expected
    finally:
        handle.close()
