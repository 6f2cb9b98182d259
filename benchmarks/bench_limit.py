"""Limit-k sweep through the streaming budgeted join, on every backend.

The streaming join pipeline threads one row budget through *every* join
stage of every head block, so a ``limit=k`` query should cost O(k) — flat
in the total match count — and materialize O(k + chunk) intermediate rows
instead of joining millions of rows and truncating after.  This benchmark
pins both properties on the join-heavy workload (few labels, ~5M matches
on the full run):

* **Prefix parity** — for every limit and every backend (serial executor,
  process pool with its shared-memory cooperative budget) the limited
  result must equal, row for row, the first ``k`` rows of the
  serial unlimited join.  Any mismatch hard-fails the run.
* **Bounded materialization** — ``join_peak_intermediate_rows`` after a
  limited query must stay within a small multiple of ``limit + chunk``,
  never tracking the total match count.  Hard-fails too.
* **Flat-in-limit cost** — the sweep 16 -> 4096 records wall time per
  limit; the largest limit may not cost more than a small multiple of the
  smallest (with an absolute floor so timer noise on near-instant joins
  cannot flake CI).

Run ``python benchmarks/bench_limit.py`` for the paper-scale sweep (writes
``benchmarks/results/limit_streaming.json``), or ``--quick`` for the
CI-sized run guarded by ``perf_guard.py`` (headline metric: serial
unlimited seconds / serial limit-1024 seconds).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from report_io import add_report_arguments, save_report

from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig, RuntimeConfig
from repro.core.distributed import assemble_results
from repro.core.exploration import explore
from repro.core.join import _LIMIT_CHUNK
from repro.core.planner import MatcherConfig, QueryPlanner
from repro.graph.generators.power_law import generate_power_law
from repro.query.generators import dfs_query
from repro.runtime import create_executor

RESULTS_PATH = Path(__file__).parent / "results" / "limit_streaming.json"

BACKENDS = ("serial", "process")
LIMITS = (16, 64, 256, 1024, 4096)
#: Largest allowed t(max_limit) / t(min_limit) ratio, with an absolute
#: floor below which timer noise dominates and the ratio is meaningless.
FLATNESS_RATIO = 25.0
FLATNESS_FLOOR_SECONDS = 0.25


def peak_bound(limit: int) -> int:
    """Peak-materialization ceiling per limited query: a handful of chunks
    per stage per machine, never a function of the total match count.  The
    slack covers geometric chunk growth plus per-machine overshoot under
    the cooperative budget's stale reads."""
    return max(8 * _LIMIT_CHUNK, 16 * (limit + _LIMIT_CHUNK))


def timed(fn, repeats: int):
    """Best-of-``repeats`` wall time plus the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def find_heaviest_query(graph, cloud, query_sizes, seeds):
    """The candidate query with the most matches, plus its full serial join.

    Every candidate is planned, explored, and joined in full (serially)
    once; only the winner's plan, exploration, and unlimited result array
    are kept — that array is the row-for-row reference every backend's
    limited runs are checked against.
    """
    planner = QueryPlanner(cloud, MatcherConfig())
    best: Optional[Dict] = None
    for size in query_sizes:
        for seed in seeds:
            query = dfs_query(graph, size, seed=seed)
            plan = planner.plan(query)
            exploration = explore(cloud, plan)
            if exploration.empty:
                continue
            outcome = assemble_results(cloud, plan, exploration)
            matches = outcome.table.row_count
            if best is None or matches > best["matches"]:
                best = {
                    "query_size": size,
                    "seed": seed,
                    "matches": matches,
                    "stwigs": len(plan.stwigs),
                    "stwig_result_rows": exploration.total_rows(),
                    "plan": plan,
                    "exploration": exploration,
                    "reference": outcome.table.to_array(),
                }
    if best is None:
        raise SystemExit("no candidate query produced matches")
    return best


def sweep_backend(
    cloud, plan, exploration, reference: np.ndarray, backend: str,
    limits: Sequence[int], repeats: int,
) -> List[Dict]:
    """Run the limit sweep under one backend, verifying every invariant."""
    matches = len(reference)
    executor = create_executor(RuntimeConfig(backend=backend))
    try:
        if backend == "process":
            # Fault in the pool (and the process backend's shared-memory
            # graph publication) before anything is timed or counted.
            assemble_results(cloud, plan, exploration, result_limit=1,
                             executor=executor)
        entries: List[Dict] = []
        for limit in limits:
            # Counters and parity come from a dedicated run so `repeats`
            # never double-counts materialization.
            cloud.reset_metrics()
            outcome = assemble_results(
                cloud, plan, exploration, result_limit=limit, executor=executor
            )
            snapshot = cloud.metrics.snapshot()
            rows = outcome.table.to_array()
            if not np.array_equal(rows, reference[:limit]):
                raise SystemExit(
                    f"PREFIX MISMATCH: {backend} limit={limit} returned "
                    f"{len(rows)} rows that are not the unlimited prefix"
                )
            if outcome.truncated != (limit < matches):
                raise SystemExit(
                    f"TRUNCATED FLAG WRONG: {backend} limit={limit} "
                    f"reported {outcome.truncated} with {matches} matches"
                )
            peak = snapshot["join_peak_intermediate_rows"]
            if peak > peak_bound(limit):
                raise SystemExit(
                    f"PEAK UNBOUNDED: {backend} limit={limit} materialized a "
                    f"{peak}-row intermediate (bound {peak_bound(limit)}, "
                    f"total matches {matches})"
                )
            seconds, _ = timed(
                lambda: assemble_results(
                    cloud, plan, exploration, result_limit=limit,
                    executor=executor,
                ),
                repeats,
            )
            entries.append(
                {
                    "limit": limit,
                    "rows": int(len(rows)),
                    "truncated": outcome.truncated,
                    "seconds": round(seconds, 6),
                    "join_rows_materialized": int(
                        snapshot["join_rows_materialized"]
                    ),
                    "join_peak_intermediate_rows": int(peak),
                    "peak_fraction_of_matches": round(peak / max(matches, 1), 6),
                }
            )
            print(
                f"  {backend:<8} limit={limit:<5} {seconds:9.6f}s  "
                f"peak {peak:>8,} rows "
                f"({entries[-1]['peak_fraction_of_matches']:.2%} of matches)"
            )
        first, last = entries[0], entries[-1]
        if last["seconds"] > max(
            FLATNESS_RATIO * first["seconds"], FLATNESS_FLOOR_SECONDS
        ):
            raise SystemExit(
                f"NOT FLAT IN LIMIT: {backend} limit={last['limit']} took "
                f"{last['seconds']}s vs {first['seconds']}s at "
                f"limit={first['limit']} (ratio cap {FLATNESS_RATIO}x)"
            )
        return entries
    finally:
        executor.close()


def run_limit_sweep(quick: bool) -> Dict[str, object]:
    node_count = 2_000 if quick else 20_000
    average_degree = 6.0
    # Few labels relative to nodes -> the high-match workload where an
    # unbudgeted join would materialize millions of rows.
    label_density = 2e-3 if quick else 5e-4
    machine_count = 4
    query_sizes = (4,) if quick else (4, 5)
    seeds = range(4) if quick else range(8)
    # Limited joins finish in milliseconds, so even the quick run can
    # afford best-of-3 timing — the guarded speedup must not flake on
    # one noisy scheduler tick.
    repeats = 3

    graph = generate_power_law(
        node_count, average_degree, label_density=label_density, seed=13
    )
    with MemoryCloud.from_graph(
        graph, ClusterConfig(machine_count=machine_count)
    ) as cloud:
        heavy = find_heaviest_query(graph, cloud, query_sizes, seeds)
        plan, exploration = heavy["plan"], heavy["exploration"]
        reference = heavy["reference"]
        matches = heavy["matches"]
        print(
            f"[limit] heaviest query: size={heavy['query_size']} "
            f"seed={heavy['seed']} -> {matches:,} matches "
            f"({heavy['stwig_result_rows']:,} STwig rows)"
        )
        # Every sweep limit must actually truncate, otherwise the sweep
        # would silently measure full joins.
        limits = tuple(limit for limit in LIMITS if limit < matches)
        if len(limits) < len(LIMITS):
            raise SystemExit(
                f"workload too small: {matches} matches does not cover the "
                f"{LIMITS} sweep — grow the graph or lower label_density"
            )

        full_seconds, _ = timed(
            lambda: assemble_results(cloud, plan, exploration), repeats
        )
        print(f"[limit] unlimited serial join: {full_seconds:.4f}s")

        sweep: Dict[str, List[Dict]] = {}
        for backend in BACKENDS:
            sweep[backend] = sweep_backend(
                cloud, plan, exploration, reference, backend, limits, repeats
            )

    serial_by_limit = {entry["limit"]: entry for entry in sweep["serial"]}
    at_1024 = serial_by_limit[1024]
    aggregate = {
        "matches": matches,
        "full_serial_seconds": round(full_seconds, 6),
        "limited_1024_seconds": at_1024["seconds"],
        "limited_speedup": round(
            full_seconds / max(at_1024["seconds"], 1e-9), 2
        ),
        "flatness_ratio": round(
            sweep["serial"][-1]["seconds"]
            / max(sweep["serial"][0]["seconds"], 1e-9),
            2,
        ),
        "peak_intermediate_rows_at_1024": at_1024["join_peak_intermediate_rows"],
        "peak_fraction_of_matches_at_1024": at_1024["peak_fraction_of_matches"],
    }
    return {
        "benchmark": "streaming budgeted join: limit-k sweep across backends",
        "workload": {
            "node_count": node_count,
            "average_degree": average_degree,
            "label_density": label_density,
            "machine_count": machine_count,
            "query_sizes": list(query_sizes),
            "seeds": len(list(seeds)),
        },
        "query": {
            key: heavy[key]
            for key in ("query_size", "seed", "matches", "stwigs",
                        "stwig_result_rows")
        },
        "parity": (
            "row-for-row prefix of the serial unlimited join verified on "
            "every backend at every limit; truncated flag exact"
        ),
        "sweep": sweep,
        "aggregate": aggregate,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_report_arguments(parser)
    args = parser.parse_args(argv)

    report = run_limit_sweep(quick=args.quick)
    report["mode"] = "quick" if args.quick else "full"

    print(json.dumps(report["aggregate"], indent=2))
    save_report(report, RESULTS_PATH, no_save=args.no_save or args.quick, out=args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
