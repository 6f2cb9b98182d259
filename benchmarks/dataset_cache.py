"""Snapshot-backed dataset caching for benchmarks and the nightly gate.

Large benchmark graphs (the 1M-node nightly inputs) used to be regenerated
on every run, spending most of the wall-clock before the first measurement.
:func:`cached_graph` makes generation a one-time cost: the first run
generates and saves a snapshot under a cache directory, every later run
reopens it via ``np.memmap`` in near-constant time.  The snapshot is a
one-machine cloud image, whose partition is the graph's CSR, so a hit adopts
every column as a file view.  It reports how the dataset was obtained and
how long each step took, so benchmark output can show open-vs-generate time
explicitly.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.storage.snapshot import open_graph_snapshot, snapshot_exists


def cached_graph(
    cache_dir: str | Path,
    name: str,
    factory: Callable[[], object],
    *,
    refresh: bool = False,
) -> Tuple[object, Dict[str, object]]:
    """Open graph ``name`` from the cache, generating + saving on a miss.

    Args:
        cache_dir: cache root; each dataset is one snapshot directory.
        name: dataset key (directory name under the root).
        factory: zero-argument callable producing the
            :class:`~repro.graph.labeled_graph.LabeledGraph` on a miss.
        refresh: regenerate even when a snapshot exists.

    Returns:
        ``(graph, info)`` where ``info`` records ``source`` (``"snapshot"``
        or ``"generated"``) and the seconds each step took.
    """
    target = Path(cache_dir) / name
    info: Dict[str, object] = {"name": name, "path": str(target)}
    if not refresh and snapshot_exists(target):
        started = time.perf_counter()
        graph = open_graph_snapshot(target)
        info["source"] = "snapshot"
        info["open_seconds"] = time.perf_counter() - started
        return graph, info
    started = time.perf_counter()
    graph = factory()
    info["generate_seconds"] = time.perf_counter() - started
    started = time.perf_counter()
    # One machine: its partition is the graph's CSR, and with no machine
    # pair there are no label-pair keys to derive or store.
    MemoryCloud.from_graph(graph, ClusterConfig(machine_count=1)).save_snapshot(target)
    info["save_seconds"] = time.perf_counter() - started
    info["source"] = "generated"
    return graph, info


def default_cache_dir(env_value: Optional[str] = None) -> Path:
    """Resolve the benchmark dataset-cache directory.

    ``env_value`` (usually ``os.environ.get("REPRO_DATASET_CACHE")``)
    overrides the default ``benchmarks/.dataset_cache`` next to the
    benchmark suite.
    """
    if env_value:
        return Path(env_value)
    return Path(__file__).resolve().parent / ".dataset_cache"
