"""Shared-memory numpy array helpers for the multiprocess cluster runtime.

The process executor's workers inherit the graph when they are forked;
what a batch creates afterwards — large roots and bindings, the join
budget's slots, the tables workers build — crosses between processes as
POSIX shared-memory blocks instead of being pickled down a pipe.  These
helpers own the mechanics:

* :func:`publish_array` copies one array into a fresh
  ``multiprocessing.shared_memory`` block and returns a picklable
  :class:`SharedArraySpec` describing it;
* :func:`attach_array` maps a spec back into a read-only view (plus the
  ``SharedMemory`` object that must stay referenced while the view lives);
* :class:`SegmentRegistry` tracks every block a publisher created so the
  end of a batch can unlink all of them exactly once;
* blocks a *worker* publishes are named ``repro-<driver pid>-<worker
  pid>-...`` (the ``name`` argument of :func:`publish_array`), so what a
  worker published and died before reporting can still be found
  (:func:`sweep_blocks`).

A note on CPython's ``resource_tracker``: it registers a segment on
*attach* as well as on create (bpo-39959).  That is harmless here —
workers inherit the publisher's tracker (fork and spawn both pass the
tracker fd down), the tracker keeps a per-name *set*, so the attach-side
re-registration dedupes against the publisher's and the single
``unlink`` in :meth:`SegmentRegistry.close` retires the name exactly
once.  Do **not** unregister after attaching: with a shared tracker that
would drop the publisher's registration and make its unlink fail.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import List, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class SharedArraySpec:
    """Picklable description of one published array: where and what shape.

    Attributes:
        name: shared-memory block name (``shm_open`` key).
        shape: array shape.
        dtype: numpy dtype string (e.g. ``"int64"``).
    """

    name: str
    shape: Tuple[int, ...]
    dtype: str


def publish_array(
    array: np.ndarray, name: Optional[str] = None
) -> Tuple[shared_memory.SharedMemory, SharedArraySpec]:
    """Copy ``array`` into a new shared-memory block.

    Returns the owning :class:`SharedMemory` (keep it referenced; closing
    and unlinking it frees the pages) and the :class:`SharedArraySpec` a
    worker needs to attach.  Zero-length arrays are published as 1-byte
    blocks (POSIX shared memory cannot be empty).  ``name`` is the block's
    name (unused so far, or ``FileExistsError``); ``None`` draws a random one.
    """
    contiguous = np.ascontiguousarray(array)
    segment = shared_memory.SharedMemory(
        name=name, create=True, size=max(1, contiguous.nbytes)
    )
    view = np.ndarray(contiguous.shape, dtype=contiguous.dtype, buffer=segment.buf)
    view[...] = contiguous
    spec = SharedArraySpec(
        name=segment.name, shape=tuple(contiguous.shape), dtype=str(contiguous.dtype)
    )
    return segment, spec


def attach_array(
    spec: SharedArraySpec, writable: bool = False
) -> Tuple[shared_memory.SharedMemory, np.ndarray]:
    """Attach to a published array, returning ``(segment, view)``.

    The view aliases the shared pages — it is valid only while ``segment``
    stays open (keep the segment referenced; see the module docstring for
    why the attach-side tracker registration is left in place).  Views are
    read-only by default; ``writable=True`` is for intentionally mutable
    coordination state (the cooperative join-budget slots), never for
    published tables.
    """
    segment = shared_memory.SharedMemory(name=spec.name)
    view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf)
    if not writable:
        view.flags.writeable = False
    return segment, view


def unlink_block(spec: SharedArraySpec) -> None:
    """Retire a published block by name without materializing its contents.

    Idempotent: a block that was already unlinked (or never existed) is
    silently ignored, so every owner on an error path can call this without
    coordinating who got there first.
    """
    _unlink_name(spec.name)


def _unlink_name(name: str) -> None:
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return
    segment.close()
    segment.unlink()


def sweep_blocks(prefix: str) -> None:
    """Retire every block whose name starts with ``prefix``.

    For blocks whose publisher died before it could report their names.
    Where ``/dev/shm`` cannot be listed there is nothing to find them by.
    """
    try:
        names = os.listdir("/dev/shm")
    except FileNotFoundError:
        return
    for name in names:
        if name.startswith(prefix):
            _unlink_name(name)


class SegmentRegistry:
    """Owns a set of published segments and unlinks them exactly once."""

    def __init__(self) -> None:
        self._segments: List[shared_memory.SharedMemory] = []
        self._closed = False

    def publish(self, array: np.ndarray) -> SharedArraySpec:
        """Publish ``array``, retaining ownership of the backing segment."""
        if self._closed:
            raise RuntimeError("segment registry is closed")
        segment, spec = publish_array(array)
        self._segments.append(segment)
        return spec

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran."""
        return self._closed

    def close(self) -> None:
        """Close and unlink every published segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for segment in self._segments:
            try:
                segment.close()
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
        self._segments.clear()

    def __enter__(self) -> "SegmentRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
