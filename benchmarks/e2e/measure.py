"""Statistics and host readings shared by the timed and traced phases.

Everything here is small and dependency-free on purpose: ``run.py
--selftest`` checks the percentile and round helpers against hand-computed
cases, so the numbers the benchmark prints rest on verified arithmetic.
"""

from __future__ import annotations

import ast
import os
import time
from pathlib import Path
from typing import Iterable, List, Sequence

import numpy as np

#: Elements in the calibration kernel's arrays (fixed on every commit).
CALIB_SIZE = 100_000
#: The kernel's reading on the 2-core reference container when it is quiet.
CALIB_REFERENCE_MS = 14.5


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linearly interpolated (numpy's default)."""
    if len(values) == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(values, q))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def per_round_rate(amount_per_round: float, round_seconds: Sequence[float]) -> float:
    """``amount_per_round`` divided by the *median* round wall time.

    The container is shared: isolated rounds run +30 % slow while the rest
    are flat within a few percent, so total-wall throughput drifts between
    identical runs and median-round throughput does not.
    """
    return amount_per_round / median(round_seconds)


def host_factor(calibrations: Sequence[float]) -> float:
    """What to multiply a time by to state it in reference-host units.

    The container is shared and its speed wanders by tens of percent over
    minutes (ten identical runs: ``ops_per_s`` 11.5 -> 8.7 while the kernel
    read 14.2 -> 17.7 ms).  ROADMAP item 1 prescribes the remedy: normalize
    by a calibration kernel timed in the same process.  Dividing by the
    run's median reading halved the spread between runs in the slow phases
    and left it unchanged in the quiet ones.
    """
    return CALIB_REFERENCE_MS / median(calibrations)


def calibrate() -> float:
    """Milliseconds for a fixed ``sort`` + ``searchsorted`` + gather kernel.

    Run between rounds: a slow phase of the host shows as a high reading
    next to the round it surrounds, and two hosts' numbers can be read
    against each other.
    """
    values = (np.arange(CALIB_SIZE, dtype=np.int64) * 2654435761) % 1_000_003
    started = time.perf_counter()
    ordered = np.sort(values)
    positions = np.searchsorted(ordered, values)
    checksum = int(ordered[positions].sum())
    elapsed = time.perf_counter() - started
    if checksum != int(values.sum()):
        raise AssertionError("calibration kernel produced a wrong gather")
    return elapsed * 1e3


# -- /proc readings -------------------------------------------------------


def _status_kb(pid: int, field: str) -> int:
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    return 0


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum of ``VmHWM`` (peak resident set) over ``pids``, in MB."""
    return sum(_status_kb(pid, "VmHWM") for pid in pids) / 1024.0


def cpu_seconds(pid: int) -> float:
    """utime + stime of one process from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
        # The command name may contain spaces; fields resume after ")".
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def process_group_members(pgid: int) -> List[int]:
    """PIDs whose process group is ``pgid`` (zombies included)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue
        if int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def shm_segments() -> set:
    """Names currently present under ``/dev/shm``."""
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return set()


# -- repository size (ROADMAP aim 2's trajectory) -------------------------


def src_loc(src_root: Path) -> int:
    """Total lines of every ``*.py`` file under ``src_root`` (``wc -l``)."""
    total = 0
    for path in sorted(src_root.rglob("*.py")):
        with open(path, "rb") as handle:
            total += sum(1 for _ in handle)
    return total


def public_symbols(src_root: Path) -> int:
    """Number of names listed in ``__all__`` across ``src_root``."""
    total = 0
    for path in sorted(src_root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, ast.Assign):
                continue
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if "__all__" in targets and isinstance(node.value, (ast.List, ast.Tuple)):
                total += len(node.value.elts)
    return total
