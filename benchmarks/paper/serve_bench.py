"""Serving benchmark: concurrent client drivers and latency stats.

Hammer one :class:`~repro.serve.service.QueryService` from N client threads,
collect per-query latencies, and reduce them to throughput and percentile
figures.  Run it from the repository root::

    PYTHONPATH=src python -m benchmarks.paper.serve_bench --clients 8 --rounds 3
    PYTHONPATH=src python -m benchmarks.paper.serve_bench --graph /tmp/g --executor process
"""

from __future__ import annotations

import argparse
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro import api
from repro.cli import runtime_flags
from repro.graph.generators import generate_rmat
from repro.query.generators import query_workload
from repro.query.query_graph import QueryGraph
from repro.serve.service import QueryService


def percentile(samples: Sequence[float], fraction: float) -> float:
    """The ``fraction`` percentile of ``samples`` by linear interpolation.

    ``fraction`` is in ``[0, 1]`` (``0.5`` = median).  Returns ``0.0`` for
    an empty sample set so report plumbing never divides by a missing key.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = fraction * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    weight = rank - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


@dataclass
class ClientRecord:
    """One client query's outcome, as observed by the driver."""

    client: int
    query_index: int
    latency_seconds: float
    match_count: int
    metrics: Dict[str, int]
    plan_cache_hit: bool


@dataclass
class ServiceRun:
    """Aggregate outcome of one concurrent-clients run."""

    clients: int
    queries: int
    wall_seconds: float
    records: List[ClientRecord] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    @property
    def latencies(self) -> List[float]:
        return [record.latency_seconds for record in self.records]

    @property
    def queries_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return len(self.records) / self.wall_seconds

    def summary(self) -> Dict[str, float]:
        """The report-ready reduction (qps and latency percentiles)."""
        latencies = self.latencies
        return {
            "clients": self.clients,
            "queries": len(self.records),
            "errors": len(self.errors),
            "wall_seconds": self.wall_seconds,
            "queries_per_second": self.queries_per_second,
            "latency_p50_seconds": percentile(latencies, 0.50),
            "latency_p99_seconds": percentile(latencies, 0.99),
            "latency_max_seconds": max(latencies, default=0.0),
            "plan_cache_hits": sum(1 for r in self.records if r.plan_cache_hit),
        }


def run_concurrent_clients(
    service: QueryService,
    queries: Sequence[QueryGraph],
    clients: int,
    limit: Optional[int] = None,
    rounds: int = 1,
) -> ServiceRun:
    """Drive ``service`` from ``clients`` threads and collect every outcome.

    The query list is dealt round-robin: client ``c`` runs queries
    ``c, c + clients, c + 2*clients, ...``, ``rounds`` times over.  All
    clients start together (a barrier) so the measured window is genuinely
    concurrent.  Exceptions are captured per client into ``errors`` rather
    than aborting the run.
    """
    if clients < 1:
        raise ValueError(f"clients must be positive, got {clients}")
    run = ServiceRun(clients=clients, queries=len(queries) * rounds, wall_seconds=0.0)
    lock = threading.Lock()
    barrier = threading.Barrier(clients + 1)

    def client_main(client_id: int) -> None:
        barrier.wait()
        for round_index in range(rounds):
            for query_index in range(client_id, len(queries), clients):
                query = queries[query_index]
                started = time.perf_counter()
                try:
                    result = service.submit(query, limit=limit)
                except Exception as exc:  # noqa: BLE001 - reported, not hidden
                    with lock:
                        run.errors.append(
                            f"client {client_id} query {query_index} "
                            f"round {round_index}: {exc!r}"
                        )
                    continue
                record = ClientRecord(
                    client=client_id,
                    query_index=query_index,
                    latency_seconds=time.perf_counter() - started,
                    match_count=result.match_count,
                    metrics=dict(result.metrics),
                    plan_cache_hit=result.stats.plan_cache_hit,
                )
                with lock:
                    run.records.append(record)

    threads = [
        threading.Thread(target=client_main, args=(client_id,), daemon=True)
        for client_id in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    window_started = time.perf_counter()
    for thread in threads:
        thread.join()
    run.wall_seconds = time.perf_counter() - window_started
    return run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.paper.serve_bench",
        description="benchmark the always-on service with concurrent clients",
        parents=[runtime_flags()],
    )
    parser.add_argument(
        "--graph", default=None, help="graph path prefix (default: a generated R-MAT graph)"
    )
    parser.add_argument("--nodes", type=int, default=20_000, help="generated-graph size")
    parser.add_argument("--degree", type=float, default=8.0)
    parser.add_argument("--label-density", type=float, default=0.01)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--queries", type=int, default=12, help="distinct queries in the mix")
    parser.add_argument("--query-nodes", type=int, default=4, help="query size (nodes)")
    parser.add_argument("--rounds", type=int, default=2, help="passes over the query mix")
    parser.add_argument("--seed", type=int, default=1)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.graph:
        graph = api.load_dataset(args.graph)
    else:
        graph = generate_rmat(args.nodes, args.degree, args.label_density, seed=args.seed)
    queries = query_workload(
        graph, args.queries, kind="dfs", node_count=args.query_nodes, seed=args.seed
    )
    with api.connect(
        graph,
        machines=args.machines,
        executor=args.executor,
        workers=args.workers,
        max_in_flight=max(args.clients, 1),
    ) as db:
        db.service.warm(queries[0])
        run = run_concurrent_clients(
            db.service, queries, clients=args.clients, limit=args.limit, rounds=args.rounds
        )
        summary = run.summary()
        stats = db.stats()
    for error in run.errors:
        print(f"error: {error}")
    print(
        f"{summary['queries']} queries from {args.clients} clients in "
        f"{summary['wall_seconds']:.3f} s -> {summary['queries_per_second']:.1f} qps"
    )
    print(
        f"latency p50 {summary['latency_p50_seconds'] * 1000:.2f} ms, "
        f"p99 {summary['latency_p99_seconds'] * 1000:.2f} ms, "
        f"max {summary['latency_max_seconds'] * 1000:.2f} ms"
    )
    print(
        f"plan cache: {stats.plan_cache_hits} hits / {stats.plan_cache_misses} misses"
    )
    return 1 if run.errors else 0


if __name__ == "__main__":
    sys.exit(main())
