"""The always-on query service under concurrent load.

The paper's engine answers a stream of concurrent queries against a
resident graph.  This benchmark opens one ``repro.api`` session — graph
loaded once, one :class:`~repro.serve.service.QueryService` with one shared
executor and one plan cache — and drives the same query mix twice:

* **solo** — one client, one query at a time: the latency baseline, and
  the per-query oracle for the parity check;
* **concurrent** — N client threads hammering ``submit`` together, with
  repeated rounds so recurring query shapes exercise the plan cache.

Two guarantees are verified before any number is reported:

* **Isolation parity** — every query's communication counters and match
  rows under concurrency are *identical* to its solo run.  Overlapping
  queries sharing one metrics sink (the bug this service's engine fix
  removed) would fail this immediately.
* **Plan-cache accounting** — across the whole run, cache hits + misses
  equals queries served, and every repeated fingerprint past its first
  execution is a hit.

The headline metric is ``concurrent_speedup`` — solo wall-clock over
concurrent wall-clock for the same total workload.  With the default
serial executor the work is GIL-bound Python/numpy, so the ratio sits
around 1.0 (the service must not make overlapping queries *slower* than
back-to-back ones); it is guarded with a conservative floor in
``quick_baselines.json``.

Run ``python benchmarks/bench_service.py`` for the full run (writes
``benchmarks/results/service.json``), or ``--quick`` for the CI-sized run
guarded by ``perf_guard.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from report_io import add_report_arguments, save_report

import repro.api as api
from repro.graph.generators.power_law import generate_power_law
from repro.query.generators import dfs_query
from repro.serve import QueryService, ServiceRun, run_concurrent_clients

RESULTS_PATH = Path(__file__).parent / "results" / "service.json"

MACHINE_COUNT = 4
QUERY_NODES = 5
ROW_LIMIT = 4096

#: (node_count, degree, label_density, distinct_queries, clients, rounds)
FULL_SETUP = (60_000, 8, 1e-3, 12, 8, 4)
QUICK_SETUP = (12_000, 8, 2e-3, 6, 4, 3)


def build_workload(graph, count: int) -> List:
    """``count`` seeded DFS queries (deterministic, non-trivial answer sets)."""
    queries: List = []
    seed = 500
    while len(queries) < count and seed < 900:
        query = dfs_query(graph, QUERY_NODES, seed=seed)
        seed += 1
        queries.append(query)
    return queries


def per_query_view(run: ServiceRun) -> Dict[int, List]:
    """Map query index -> sorted ``(match_count, metrics)`` observations."""
    observed: Dict[int, List] = defaultdict(list)
    for record in run.records:
        observed[record.query_index].append(
            (record.match_count, tuple(sorted(record.metrics.items())))
        )
    return {index: sorted(obs) for index, obs in observed.items()}


def check_isolation_parity(solo: ServiceRun, concurrent: ServiceRun, rounds: int) -> None:
    """Every concurrent observation must equal the query's solo observation."""
    oracle = per_query_view(solo)
    observed = per_query_view(concurrent)
    if set(oracle) != set(observed):
        raise SystemExit(
            f"PARITY FAILURE: query coverage differs (solo {sorted(oracle)}, "
            f"concurrent {sorted(observed)})"
        )
    for index, solo_obs in oracle.items():
        expected = solo_obs * rounds
        if sorted(expected) != observed[index]:
            raise SystemExit(
                f"PARITY FAILURE: query {index} counters/rows under concurrency "
                f"differ from its solo run — per-query metrics isolation is broken"
            )


def check_plan_cache(service: QueryService, total_queries: int, distinct: int) -> Dict:
    """Exact plan-cache accounting over everything this service executed."""
    stats = service.stats()
    hits, misses = stats.plan_cache_hits, stats.plan_cache_misses
    if hits + misses != total_queries:
        raise SystemExit(
            f"PLAN CACHE FAILURE: {hits} hits + {misses} misses != "
            f"{total_queries} queries executed"
        )
    # Distinct fingerprints miss exactly once; every repeat is a hit.
    if misses != distinct:
        raise SystemExit(
            f"PLAN CACHE FAILURE: {misses} misses for {distinct} distinct "
            f"query fingerprints — repeated queries are not skipping planning"
        )
    return {"hits": hits, "misses": misses, "distinct_queries": distinct}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_report_arguments(parser)
    parser.add_argument(
        "--clients", type=int, default=None,
        help="concurrent client threads (default: setup-dependent, >= 4)",
    )
    parser.add_argument(
        "--executor", default=None,
        help="cluster runtime backend (default: REPRO_EXECUTOR env or serial)",
    )
    args = parser.parse_args(argv)

    nodes, degree, density, distinct, clients, rounds = (
        QUICK_SETUP if args.quick else FULL_SETUP
    )
    if args.clients is not None:
        clients = args.clients
    print(
        f"[service] {nodes:,}-node graph, {distinct} distinct queries x "
        f"{rounds} rounds, {clients} clients"
    )
    graph = generate_power_law(nodes, degree, label_density=density, seed=31)
    queries = build_workload(graph, distinct)
    with api.connect(
        graph,
        machines=MACHINE_COUNT,
        executor=args.executor,
        max_in_flight=max(clients, 4),
    ) as db:
        service = db.service
        # Provision the runtime (pools, shm publication) outside the window.
        service.warm(queries[0])
        solo = run_concurrent_clients(service, queries, clients=1, limit=ROW_LIMIT)
        concurrent = run_concurrent_clients(
            service, queries, clients=clients, limit=ROW_LIMIT, rounds=rounds
        )
        if solo.errors or concurrent.errors:
            raise SystemExit(f"service errors: {solo.errors + concurrent.errors}")
        check_isolation_parity(solo, concurrent, rounds)
        total = 1 + len(solo.records) + len(concurrent.records)  # + warm-up
        cache = check_plan_cache(service, total, distinct)
        executor_name = service.matcher.executor.name
        final_stats = service.stats()

    solo_summary = solo.summary()
    concurrent_summary = concurrent.summary()
    # Same per-query work, so qps is comparable after normalizing by rounds:
    # solo did 1 pass over the mix, the concurrent window did `rounds`.
    concurrent_speedup = round(
        (solo_summary["wall_seconds"] * rounds) / concurrent_summary["wall_seconds"], 3
    )
    report = {
        "benchmark": "always-on query service: concurrent clients vs solo",
        "mode": "quick" if args.quick else "full",
        "cpu_count": os.cpu_count(),
        "machine_count": MACHINE_COUNT,
        "executor": executor_name,
        "graph": {"nodes": nodes, "edges": graph.edge_count, "degree": degree},
        "workload": {
            "distinct_queries": distinct,
            "rounds": rounds,
            "row_limit": ROW_LIMIT,
            "rows_returned": final_stats.rows_returned,
        },
        "parity": (
            "per-query communication counters and match rows under concurrency "
            "verified identical to solo runs"
        ),
        "plan_cache": cache,
        "solo": solo_summary,
        "concurrent": concurrent_summary,
        "aggregate": {
            "clients": clients,
            "queries_per_second": concurrent_summary["queries_per_second"],
            "latency_p50_seconds": concurrent_summary["latency_p50_seconds"],
            "latency_p99_seconds": concurrent_summary["latency_p99_seconds"],
            "concurrent_speedup": concurrent_speedup,
        },
        "note": (
            "concurrent_speedup = solo wall / concurrent wall for the same "
            "total workload; GIL-bound with the serial executor, so ~1.0 is "
            "the expectation — the guard floor only catches the service "
            "serializing or slowing overlapping queries"
        ),
    }
    print(json.dumps(report["aggregate"], indent=2))
    save_report(report, RESULTS_PATH, no_save=args.no_save or args.quick, out=args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
