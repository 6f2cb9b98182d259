"""Nightly scale gate: million-node generate -> load -> query, end to end.

Exercises the full pipeline at the scale the paper's Table 2 sweep starts
at: generate a 1M-node power-law and a 1M-node R-MAT graph with the
vectorized generators, bulk-load each into a simulated memory cloud, and
run one end-to-end STwig query.  Fails (non-zero exit) if generation
undershoots its edge target by more than 2%, if loading or matching raises,
or if any stage exceeds a generous wall-clock budget — the symptom of a
scalar path sneaking back into the pipeline.

Datasets are cached as persistent snapshots (``dataset_cache.py``): the first
run generates and saves each graph, later runs reopen it via ``np.memmap``
in near-constant time, and every row reports how the dataset was obtained
(``dataset_source`` + ``dataset_seconds``) so the open-vs-generate saving
is visible in the report.  ``--refresh`` regenerates, ``--no-cache``
restores the old always-generate behavior, and ``REPRO_DATASET_CACHE``
relocates the cache directory.

Run ``python benchmarks/scale_smoke.py`` for the 1M gate (used by the
scheduled ``scale-smoke`` CI job), or ``--nodes 50000`` for a local spot
check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dataset_cache import cached_graph, default_cache_dir

from repro.bench.harness import build_cloud
from repro.core.engine import SubgraphMatcher
from repro.core.planner import MatcherConfig
from repro.graph.generators.power_law import generate_power_law
from repro.graph.generators.rmat import generate_rmat
from repro.graph.stats import generation_report
from repro.query.generators import dfs_query
from repro.workloads.datasets import DEFAULT_SEED

#: Per-stage wall-clock budgets at 1M nodes (seconds).  The vectorized
#: pipeline runs each stage in single-digit seconds; the budgets are ~10x
#: that so CI hardware noise never trips them, while a reverted scalar path
#: (minutes per stage) always does.
STAGE_BUDGET_SECONDS = 120.0

MODELS = (
    ("power_law", lambda n, seed: generate_power_law(n, 8.0, label_density=1e-3, seed=seed)),
    ("rmat", lambda n, seed: generate_rmat(n, 8.0, label_density=1e-3, seed=seed)),
)


def run_model(
    name: str,
    factory,
    node_count: int,
    machine_count: int,
    cache_dir: Optional[Path] = None,
    refresh: bool = False,
) -> Dict[str, object]:
    if cache_dir is None:
        started = time.perf_counter()
        graph = factory(node_count, DEFAULT_SEED)
        dataset_info: Dict[str, object] = {
            "source": "generated",
            "generate_seconds": time.perf_counter() - started,
        }
    else:
        graph, dataset_info = cached_graph(
            cache_dir,
            f"{name}_{node_count}",
            lambda: factory(node_count, DEFAULT_SEED),
            refresh=refresh,
        )
    generate_seconds = float(
        dataset_info.get("generate_seconds", dataset_info.get("open_seconds", 0.0))
    )
    # A snapshot-opened graph carries no generation metadata; the undershoot
    # gate ran when the snapshot was first written.
    report = generation_report(graph)
    if report is not None and report.achieved_ratio < 0.98:
        raise SystemExit(
            f"{name}: generation undershot its edge target "
            f"({report.achieved_edges}/{report.target_edges})"
        )

    started = time.perf_counter()
    cloud = build_cloud(graph, machine_count=machine_count)
    load_seconds = time.perf_counter() - started

    query = dfs_query(graph, 5, seed=3)
    matcher = SubgraphMatcher(cloud, MatcherConfig(max_stwig_leaves=3))
    started = time.perf_counter()
    result = matcher.match(query, limit=1024)
    query_seconds = time.perf_counter() - started

    row = {
        "model": name,
        "nodes": graph.node_count,
        "edges": graph.edge_count,
        "achieved_edge_ratio": (
            round(report.achieved_ratio, 4) if report is not None else None
        ),
        "dataset_source": dataset_info["source"],
        "generate_seconds": round(generate_seconds, 2),
        "load_seconds": round(load_seconds, 2),
        "query_seconds": round(query_seconds, 2),
        "query_nodes": query.node_count,
        "matches": result.match_count,
    }
    stage = "open" if dataset_info["source"] == "snapshot" else "gen"
    print(
        f"{name}: {row['nodes']} nodes / {row['edges']} edges "
        f"{stage} {row['generate_seconds']}s load {row['load_seconds']}s "
        f"query {row['query_seconds']}s -> {row['matches']} matches"
    )
    for stage in ("generate_seconds", "load_seconds", "query_seconds"):
        if row[stage] > STAGE_BUDGET_SECONDS:
            raise SystemExit(
                f"{name}: {stage} = {row[stage]}s exceeds the "
                f"{STAGE_BUDGET_SECONDS}s scale budget"
            )
    return row


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=1_000_000)
    parser.add_argument("--machines", type=int, default=4)
    parser.add_argument(
        "--out", type=Path, default=None, help="write the report JSON to this path"
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="dataset snapshot cache (default: benchmarks/.dataset_cache, "
        "override with REPRO_DATASET_CACHE)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="always regenerate, never touch the snapshot cache",
    )
    parser.add_argument(
        "--refresh",
        action="store_true",
        help="regenerate and overwrite any cached snapshots",
    )
    args = parser.parse_args(argv)

    cache_dir: Optional[Path] = None
    if not args.no_cache:
        cache_dir = args.cache_dir or default_cache_dir(
            os.environ.get("REPRO_DATASET_CACHE")
        )

    rows = [
        run_model(
            name, factory, args.nodes, args.machines,
            cache_dir=cache_dir, refresh=args.refresh,
        )
        for name, factory in MODELS
    ]
    report = {"nodes": args.nodes, "machines": args.machines, "models": rows}
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"[saved to {args.out}]")
    print("scale smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
