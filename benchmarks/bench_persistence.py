"""Persistent-snapshot benchmark: save/open latency + delta-replay parity.

The storage layer's pitch is that a saved cloud reopens in near-constant
time: ``MemoryCloud.open_snapshot`` attaches ``np.memmap`` views over the
snapshot's column file instead of regenerating the graph and re-partitioning
it.  This benchmark pins that claim and the correctness that has to ride
with it:

* **Open speedup** — wall time of generate + partition (the cold path a
  snapshot replaces) over wall time of ``open_snapshot`` (best of several).
  The headline ``aggregate.open_speedup`` is guarded by ``perf_guard.py``
  in CI quick mode, and the full run records the paper-scale (1M-node)
  number in ``benchmarks/results/persistence.json``.
* **Reopen parity** — the snapshot-opened cloud must return row-for-row
  identical matches to the in-RAM cloud it was saved from; quick mode also
  cross-checks against the VF2 baseline.  Any mismatch hard-fails.
* **Delta-replay parity** — after appending edges to the snapshot's log,
  the overlay-opened cloud (log spliced into the attached image) and the
  compacted (folded, generation-bumped) cloud must hold the same image,
  column for column, and agree row for row.  Hard-fails too.

Run ``python benchmarks/bench_persistence.py`` for the 1M-node run, or
``--quick`` for the CI-sized smoke guarded by the perf baseline.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np
from report_io import add_report_arguments, save_report

from repro.baselines.vf2 import vf2_match
from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.core.engine import SubgraphMatcher
from repro.graph.generators.power_law import generate_power_law
from repro.query.generators import dfs_query
from repro.storage import DeltaLog, compact_snapshot

RESULTS_PATH = Path(__file__).parent / "results" / "persistence.json"

OPEN_REPEATS = 3


def match_rows(cloud, query, limit: Optional[int]) -> List[tuple]:
    with SubgraphMatcher(cloud) as matcher:
        result = matcher.match(query, limit=limit)
    return sorted(result.rows), list(result.query_nodes)


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"PARITY FAILURE: {message}")


def run(
    node_count: int,
    machine_count: int,
    query_size: int,
    limit: Optional[int],
    vf2_check: bool,
) -> Dict[str, object]:
    started = time.perf_counter()
    graph = generate_power_law(node_count, 8.0, label_density=1e-3, seed=7)
    generate_seconds = time.perf_counter() - started

    started = time.perf_counter()
    cloud = MemoryCloud.from_graph(graph, ClusterConfig(machine_count=machine_count))
    load_seconds = time.perf_counter() - started
    cold_seconds = generate_seconds + load_seconds

    query = dfs_query(graph, query_size, seed=3)
    reference_rows, query_nodes = match_rows(cloud, query, limit)

    workdir = Path(tempfile.mkdtemp(prefix="bench_persistence_"))
    snapshot = workdir / "snap"
    try:
        started = time.perf_counter()
        cloud.save_snapshot(snapshot)
        save_seconds = time.perf_counter() - started

        open_seconds = float("inf")
        reopened = None
        for _ in range(OPEN_REPEATS):
            if reopened is not None:
                reopened.close()
            started = time.perf_counter()
            reopened = MemoryCloud.open_snapshot(snapshot)
            open_seconds = min(open_seconds, time.perf_counter() - started)
        require(
            reopened.storage_publication is not None,
            "snapshot did not reopen on the memmap fast path",
        )

        snapshot_rows, _ = match_rows(reopened, query, limit)
        require(
            snapshot_rows == reference_rows,
            f"snapshot-opened cloud returned {len(snapshot_rows)} rows, "
            f"in-RAM cloud returned {len(reference_rows)}",
        )
        if vf2_check:
            expected = sorted(
                tuple(match[node] for node in query_nodes)
                for match in vf2_match(graph, query)
            )
            if limit is not None:
                require(
                    set(snapshot_rows) <= set(expected),
                    "limited snapshot rows are not a subset of the VF2 matches",
                )
            else:
                require(
                    snapshot_rows == expected,
                    "snapshot rows diverge from the VF2 baseline",
                )

        # Delta replay: append a handful of edges between existing nodes,
        # then check the overlay and the compacted base agree row for row.
        new_edges = [(i, i + node_count // 2) for i in range(8)]
        DeltaLog(snapshot).append_edges(new_edges)
        started = time.perf_counter()
        overlay = MemoryCloud.open_snapshot(snapshot)
        replay_open_seconds = time.perf_counter() - started
        require(
            overlay.storage_publication is None,
            "a snapshot with pending deltas is not a pure file publication",
        )
        overlay_rows, _ = match_rows(overlay, query, limit)
        overlay_columns = overlay.columns()

        started = time.perf_counter()
        manifest = compact_snapshot(snapshot)
        compact_seconds = time.perf_counter() - started
        require(manifest.generation == 2, "compaction did not bump the generation")
        compacted = MemoryCloud.open_snapshot(snapshot)
        require(
            compacted.storage_publication is not None,
            "the compacted base must reopen on the memmap fast path",
        )
        compacted_columns = compacted.columns()
        require(
            list(compacted_columns) == list(overlay_columns),
            "compacted and overlay clouds name different columns",
        )
        for name, column in overlay_columns.items():
            folded = compacted_columns[name]
            require(
                column.dtype == folded.dtype and np.array_equal(column, folded),
                f"column {name!r} differs between the delta overlay and the "
                "compacted base",
            )
        compacted_rows, _ = match_rows(compacted, query, limit)
        require(
            compacted_rows == overlay_rows,
            f"compacted cloud returned {len(compacted_rows)} rows, "
            f"delta overlay returned {len(overlay_rows)}",
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    return {
        "nodes": graph.node_count,
        "edges": graph.edge_count,
        "machines": machine_count,
        "query_size": query_size,
        "limit": limit,
        "matches": len(reference_rows),
        "generate_seconds": round(generate_seconds, 4),
        "load_seconds": round(load_seconds, 4),
        "cold_seconds": round(cold_seconds, 4),
        "save_seconds": round(save_seconds, 4),
        "open_seconds": round(open_seconds, 4),
        "replay_open_seconds": round(replay_open_seconds, 4),
        "compact_seconds": round(compact_seconds, 4),
        "open_speedup": round(cold_seconds / max(open_seconds, 1e-9), 1),
        "vf2_checked": vf2_check,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_report_arguments(parser)
    parser.add_argument("--nodes", type=int, default=None)
    parser.add_argument("--machines", type=int, default=4)
    args = parser.parse_args(argv)

    node_count = args.nodes or (50_000 if args.quick else 1_000_000)
    row = run(
        node_count,
        args.machines,
        query_size=4,
        limit=4096,
        vf2_check=args.quick or node_count <= 100_000,
    )
    print(
        f"{row['nodes']} nodes: cold (generate+partition) {row['cold_seconds']}s, "
        f"save {row['save_seconds']}s, open {row['open_seconds']}s "
        f"-> {row['open_speedup']}x; replay-open {row['replay_open_seconds']}s, "
        f"compact {row['compact_seconds']}s; parity ok ({row['matches']} matches)"
    )
    report = {
        "benchmark": "persistence",
        "quick": bool(args.quick),
        "rows": [row],
        "aggregate": {"open_speedup": row["open_speedup"]},
    }
    save_report(report, RESULTS_PATH, no_save=args.no_save, out=args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
