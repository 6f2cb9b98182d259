"""Pausing the cyclic garbage collector around allocation bursts of acyclic objects."""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from typing import Iterator

_lock = threading.Lock()
#: Blocks currently holding the collector paused (``gc`` is process-global,
#: so the count has to be too).
_holders = 0


@contextmanager
def paused_gc() -> Iterator[None]:
    """Keep the cyclic collector off for the duration of the block.

    For code that allocates many containers which cannot be part of a cycle
    (tuples of ints): every generation-0 collection the allocations trigger
    traverses them for nothing.  The collector is re-enabled when the last
    overlapping block exits — by return or by exception — and a caller who
    had already disabled it finds it disabled afterwards: the block is then
    a no-op.
    """
    global _holders
    with _lock:
        pausing = _holders > 0 or gc.isenabled()
        if pausing:
            _holders += 1
            gc.disable()
    try:
        yield
    finally:
        if pausing:
            with _lock:
                _holders -= 1
                if _holders == 0:
                    gc.enable()
