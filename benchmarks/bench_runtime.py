"""Serial vs. process cluster runtime, end to end.

The paper's cluster matches STwigs on every machine *concurrently*; the
reproduction's process executor models that on one host — worker processes
over shared-memory CSR partitions (published once, mapped zero-copy), with
the proxy-side merge unchanged.  This benchmark sweeps graph sizes and, for
each backend, times the same end-to-end query workload:

* **Parity** — every backend's result rows and communication counters are
  verified identical to the serial oracle before any timing is reported
  (a faster-but-different engine would be worthless as a simulation).
* **Speedup** — end-to-end query wall-clock (exploration + gather + join)
  serial / backend.  Process-backend speedups scale with physical cores;
  the report records ``cpu_count`` so numbers from different hosts are
  comparable.  On a single-core host the process backend measures pure
  orchestration overhead (speedup < 1 is expected there).

Run ``python benchmarks/bench_runtime.py`` for the full 100k -> 1M sweep
(writes ``benchmarks/results/runtime.json``), or ``--quick`` for the
CI-sized run guarded by ``perf_guard.py``.  ``--multicore`` runs the
join-heavy workload only — the class where the end-to-end shared-memory
pipeline (worker-published tables, zero driver copies, work stealing)
shows multi-core wins — and writes ``runtime_multicore.json``; its quick
report is floor-guarded by ``perf_guard.py`` on hosts with enough cores
(the ``min_cpus`` key in ``quick_baselines.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from report_io import add_report_arguments, save_report

from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig, RuntimeConfig
from repro.core.engine import SubgraphMatcher
from repro.core.planner import MatcherConfig
from repro.graph.generators.power_law import generate_power_law
from repro.query.generators import dfs_query
from repro.runtime import create_executor

RESULTS_PATH = Path(__file__).parent / "results" / "runtime.json"
MULTICORE_RESULTS_PATH = Path(__file__).parent / "results" / "runtime_multicore.json"

#: (node_count, average_degree, query_count, label_density, row_cap,
#: heavy_count, heavy_cap) per sweep point.  Low label densities (few
#: distinct labels) make the per-machine exploration and join work heavy —
#: the work the executors parallelize — while the row caps keep the answer
#: sets bounded so the benchmark measures cluster execution, not result
#: materialization.  The heavy class (answers in [row_cap, heavy_cap]) is
#: where multi-core hosts see the process backend pull ahead.
FULL_SWEEP = (
    (100_000, 8, 6, 5e-4, 100_000, 2, 2_000_000),
    (300_000, 8, 4, 2e-4, 100_000, 2, 2_000_000),
    (1_000_000, 6, 3, 1e-4, 100_000, 1, 2_000_000),
)
QUICK_SWEEP = ((40_000, 8, 6, 1e-3, 20_000, 0, 0),)

#: (node_count, degree, label_density, query_count, row_floor, row_cap) for
#: the --multicore mode: join-heavy queries only (answer sets in
#: [row_floor, row_cap]), where the per-machine multiway join dominates and
#: the process backend's parallel speedup is the headline number.
MULTICORE_FULL = ((300_000, 8, 2e-4, 3, 100_000, 2_000_000),)
MULTICORE_QUICK = ((40_000, 8, 1e-3, 2, 5_000, 1_000_000),)

BACKENDS = ("serial", "process")
MACHINE_COUNT = 4
QUERY_NODES = 6


def select_workload(
    graph, cloud, query_count: int, row_cap: int, row_floor: int = 1
) -> List:
    """Seeded DFS queries whose answer sets land in ``[row_floor, row_cap]``.

    DFS-sampled patterns over few-label graphs vary wildly — the same
    generator yields queries with ten answers or ten million.  Candidate
    seeds are probed (serially, with a probe limit) and only queries whose
    full answer set fits the band are kept, so every backend runs an
    identical, materialization-bounded workload.  A high ``row_floor``
    selects the *join-heavy* class: large intermediate tables whose
    per-machine multiway join is the dominant — and parallelizable — cost.
    Selection is deterministic: seeds are tried in order.
    """
    probe = SubgraphMatcher(cloud, executor="serial")
    selected: List = []
    seed = 1000
    while len(selected) < query_count and seed < 1300:
        query = dfs_query(graph, QUERY_NODES, seed=seed)
        seed += 1
        result = probe.match(query, limit=row_cap)
        if result.stats.truncated or result.match_count < row_floor:
            continue
        selected.append(query)
    if len(selected) < query_count:
        raise SystemExit(
            f"could not select {query_count} bounded queries (got {len(selected)})"
        )
    cloud.reset_metrics()
    return selected


def run_backend(
    cloud: MemoryCloud,
    queries: Sequence,
    backend: str,
    workers: Optional[int],
    stealing: bool = True,
) -> Dict:
    """Time the workload under one backend; returns rows+metrics for parity."""
    executor = create_executor(
        RuntimeConfig(backend=backend, workers=workers, stealing=stealing)
    )
    matcher = SubgraphMatcher(cloud, MatcherConfig(), executor=executor)
    try:
        if backend == "process":
            # Fault in the pool (and, for processes, the shared-memory
            # publication) before timing: the paper's cluster is
            # provisioned before queries arrive.
            matcher.match(queries[0], limit=1)
        started = time.perf_counter()
        outputs = [matcher.match(query) for query in queries]
        elapsed = time.perf_counter() - started
    finally:
        # The matcher treats a caller-built executor as shared, so close it
        # here (terminating the pool and unlinking the shm publication).
        executor.close()
    run: Dict = {
        "seconds": elapsed,
        "rows": [result.rows for result in outputs],
        "metrics": [result.metrics for result in outputs],
        "match_counts": [result.match_count for result in outputs],
    }
    counters = getattr(executor, "transport_counters", None)
    if counters is not None:
        run["transport"] = dict(counters)
    return run


def sweep_point(
    node_count: int,
    degree: int,
    query_count: int,
    label_density: float,
    row_cap: int,
    heavy_count: int,
    heavy_cap: int,
    workers: Optional[int],
    stealing: bool = True,
) -> Dict:
    graph = generate_power_law(
        node_count, degree, label_density=label_density, seed=29
    )
    point: Dict = {
        "nodes": node_count,
        "edges": graph.edge_count,
        "degree": degree,
        "label_density": label_density,
        "labels": len(graph.distinct_labels()),
        "machines": MACHINE_COUNT,
        "row_cap": row_cap,
        "workloads": {},
    }
    with MemoryCloud.from_graph(
        graph, ClusterConfig(machine_count=MACHINE_COUNT)
    ) as cloud:
        workloads = {
            "selective": select_workload(graph, cloud, query_count, row_cap),
        }
        if heavy_count:
            # Join-heavy class: answers in [row_cap, heavy_cap] force large
            # intermediate tables, so the per-machine join dominates — the
            # phase the process backend parallelizes across cores.
            workloads["heavy"] = select_workload(
                graph, cloud, heavy_count, heavy_cap, row_floor=row_cap
            )
        for workload_name, queries in workloads.items():
            reference = None
            results: Dict = {}
            for backend in BACKENDS:
                cloud.reset_metrics()
                run = run_backend(cloud, queries, backend, workers, stealing=stealing)
                if reference is None:
                    reference = run
                else:
                    if run["rows"] != reference["rows"]:
                        raise SystemExit(
                            f"PARITY FAILURE: {backend} rows != serial rows"
                        )
                    if run["metrics"] != reference["metrics"]:
                        raise SystemExit(
                            f"PARITY FAILURE: {backend} metrics != serial metrics"
                        )
                results[backend] = {
                    "seconds": round(run["seconds"], 4),
                    "speedup_vs_serial": round(
                        reference["seconds"] / run["seconds"], 3
                    ),
                }
                print(
                    f"  {node_count:>9,} nodes | {workload_name:<9} | {backend:<8}"
                    f" {run['seconds']:8.3f}s"
                    f"  ({results[backend]['speedup_vs_serial']}x vs serial,"
                    f" {sum(run['match_counts'])} matches)"
                )
            point["workloads"][workload_name] = {
                "query_count": len(queries),
                "match_counts": reference["match_counts"],
                "backends": results,
            }
    return point


def multicore_point(
    node_count: int,
    degree: int,
    label_density: float,
    query_count: int,
    row_floor: int,
    row_cap: int,
    workers: Optional[int],
    stealing: bool,
) -> Dict:
    """Join-heavy workload across all backends, with transport counters.

    Parity against the serial oracle is verified exactly as in the main
    sweep; additionally, when stealing is off, the process backend must
    report zero driver-side table receives — the end-to-end shared-memory
    claim, asserted on the real counter, not inferred from timings.
    """
    graph = generate_power_law(
        node_count, degree, label_density=label_density, seed=29
    )
    point: Dict = {
        "nodes": node_count,
        "edges": graph.edge_count,
        "degree": degree,
        "label_density": label_density,
        "labels": len(graph.distinct_labels()),
        "machines": MACHINE_COUNT,
        "row_floor": row_floor,
        "row_cap": row_cap,
        "backends": {},
    }
    with MemoryCloud.from_graph(
        graph, ClusterConfig(machine_count=MACHINE_COUNT)
    ) as cloud:
        queries = select_workload(
            graph, cloud, query_count, row_cap, row_floor=row_floor
        )
        reference = None
        for backend in BACKENDS:
            cloud.reset_metrics()
            run = run_backend(cloud, queries, backend, workers, stealing=stealing)
            if reference is None:
                reference = run
            else:
                if run["rows"] != reference["rows"]:
                    raise SystemExit(f"PARITY FAILURE: {backend} rows != serial rows")
                if run["metrics"] != reference["metrics"]:
                    raise SystemExit(
                        f"PARITY FAILURE: {backend} metrics != serial metrics"
                    )
            entry: Dict = {
                "seconds": round(run["seconds"], 4),
                "speedup_vs_serial": round(reference["seconds"] / run["seconds"], 3),
            }
            if "transport" in run:
                entry["transport"] = run["transport"]
                if not stealing and run["transport"]["driver_table_receives"]:
                    raise SystemExit(
                        "ZERO-COPY FAILURE: driver received table bytes with "
                        f"stealing off: {run['transport']}"
                    )
            point["backends"][backend] = entry
            print(
                f"  {node_count:>9,} nodes | heavy     | {backend:<8}"
                f" {run['seconds']:8.3f}s"
                f"  ({entry['speedup_vs_serial']}x vs serial,"
                f" {sum(run['match_counts'])} matches)"
            )
        point["query_count"] = len(queries)
        point["match_counts"] = reference["match_counts"]
    return point


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_report_arguments(parser)
    parser.add_argument(
        "--workers", type=int, default=None,
        help="pool size for the process backend (default: min(machines, CPUs))",
    )
    parser.add_argument(
        "--multicore", action="store_true",
        help="join-heavy multi-core sweep only (writes runtime_multicore.json)",
    )
    parser.add_argument(
        "--no-stealing", action="store_true",
        help="disable work stealing (also asserts the zero-copy counter)",
    )
    args = parser.parse_args(argv)
    stealing = not args.no_stealing

    if args.multicore:
        sweep = MULTICORE_QUICK if args.quick else MULTICORE_FULL
        points = []
        for point_args in sweep:
            print(
                f"[runtime] multicore sweep {point_args[0]:,} nodes "
                f"(degree {point_args[1]}, stealing={'on' if stealing else 'off'})"
            )
            points.append(multicore_point(*point_args, args.workers, stealing))
        largest = points[-1]
        report = {
            "benchmark": (
                "cluster runtime, join-heavy multi-core sweep: "
                "serial vs process executors"
            ),
            "mode": "quick" if args.quick else "full",
            "cpu_count": os.cpu_count(),
            "machine_count": MACHINE_COUNT,
            "stealing": stealing,
            "parity": (
                "rows and communication metrics verified identical across "
                "backends"
            ),
            "note": (
                "process-backend speedups scale with physical cores; on a "
                "single-core host they measure pure orchestration overhead "
                "(the perf guard's min_cpus key skips the floor there)"
            ),
            "sweep": points,
            "aggregate": {
                "nodes": largest["nodes"],
                "process_speedup": largest["backends"]["process"][
                    "speedup_vs_serial"
                ],
            },
        }
        print(json.dumps(report["aggregate"], indent=2))
        save_report(
            report,
            MULTICORE_RESULTS_PATH,
            no_save=args.no_save or args.quick,
            out=args.out,
        )
        return 0

    sweep = QUICK_SWEEP if args.quick else FULL_SWEEP
    points = []
    for point_args in sweep:
        print(f"[runtime] sweeping {point_args[0]:,} nodes (degree {point_args[1]})")
        points.append(sweep_point(*point_args, args.workers, stealing))

    largest = points[-1]
    headline = largest["workloads"].get("heavy") or largest["workloads"]["selective"]
    report = {
        "benchmark": "cluster runtime: serial vs process executors",
        "mode": "quick" if args.quick else "full",
        "cpu_count": os.cpu_count(),
        "machine_count": MACHINE_COUNT,
        "stealing": stealing,
        "parity": "rows and communication metrics verified identical across backends",
        "note": (
            "process-backend speedups scale with physical cores; on a "
            "single-core host they measure pure orchestration overhead"
        ),
        "sweep": points,
        "aggregate": {
            "nodes": largest["nodes"],
            "process_speedup": headline["backends"]["process"]["speedup_vs_serial"],
        },
    }
    print(json.dumps(report["aggregate"], indent=2))
    save_report(report, RESULTS_PATH, no_save=args.no_save or args.quick, out=args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
