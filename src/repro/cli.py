"""Command-line interface for the repro library.

Eight subcommands cover the common workflows without writing Python; every one
that needs a graph or a cloud gets it from :mod:`repro.api`, so ``query`` and
``serve`` run exactly the path ``api.connect`` -> ``Session.query`` runs:

* ``generate`` — produce a synthetic labeled graph and save it to disk::

      python -m repro generate --kind rmat --nodes 10000 --degree 8 \
          --label-density 0.01 --seed 1 --out /tmp/g

* ``ingest`` — turn a real dataset (whitespace/TSV edge list with sparse
  or string IDs, or a DBLP XML dump) into a persistent snapshot; external
  IDs are remapped to the dense domain and the mapping is stored, so
  queries answer in the original IDs::

      python -m repro ingest --edges coauthor.tsv --out /tmp/co.snap
      python -m repro ingest --dblp-xml dblp.xml --out /tmp/dblp.snap

* ``query`` — run a query written in the textual format (``node``/``edge``
  lines) over a saved graph, an ingested/named dataset, or a snapshot::

      python -m repro query --graph /tmp/g --query-file pattern.q \
          --machines 4 --limit 1024
      python -m repro query --dataset coauthor.tsv --query-file motif.q
      python -m repro query --snapshot /tmp/co.snap --query-file motif.q

* ``serve`` — keep the graph resident and answer a stream of queries read
  from stdin (blank-line-separated blocks in the textual format, or a line
  naming a query file)::

      python -m repro serve --graph /tmp/g --machines 4 --executor process

Persistent snapshots (the memmap column store) get four subcommands —
``save`` a loaded graph as a snapshot, ``open`` one to inspect it,
``append`` edge/label deltas to its log, and ``compact`` the log into a
new base generation::

      python -m repro save --graph /tmp/g --out /tmp/g.snap --machines 4
      python -m repro open --snapshot /tmp/g.snap --verify
      python -m repro append --snapshot /tmp/g.snap --edge 17 42 --node 99 L3
      python -m repro compact --snapshot /tmp/g.snap

``query`` and ``serve`` take their data from exactly one of ``--graph``
(a saved prefix), ``--dataset`` (anything ``repro.api.load_dataset``
resolves: a built-in name, an edge list, DBLP XML), or ``--snapshot``
(near-constant open instead of a reload, in the cluster shape the snapshot
records).  ``--limit 0`` means unlimited wherever it appears.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Iterator, List, Optional, Sequence

from repro import api
from repro.cloud.config import EXECUTOR_BACKENDS, resolve_backend
from repro.core.planner import MatcherConfig
from repro.core.result import MatchResult
from repro.errors import StorageError
from repro.graph.generators import (
    generate_gnm,
    generate_power_law,
    generate_rmat,
    patents_like,
    wordnet_like,
)
from repro.graph.io import save_graph
from repro.ingest import ingest_dblp_xml
from repro.query.parser import format_query, parse_query
from repro.storage import DeltaLog, compact_snapshot, read_manifest


def _row_limit(text: str) -> Optional[int]:
    """``--limit``: a non-negative row budget; ``0`` means unlimited."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value or None


def runtime_flags() -> argparse.ArgumentParser:
    """``--machines/--limit/--executor/--workers``, spelled as ``api.connect``'s."""
    runtime = argparse.ArgumentParser(add_help=False)
    runtime.add_argument("--machines", type=int, default=4)
    runtime.add_argument(
        "--limit", type=_row_limit, default=1024, help="per-query row budget (0 = unlimited)"
    )
    runtime.add_argument(
        "--executor",
        type=resolve_backend,
        default=None,
        help=f"cluster runtime backend, one of {', '.join(EXECUTOR_BACKENDS)} "
        "(default: REPRO_EXECUTOR env or serial)",
    )
    runtime.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process pool size (default: min(machines, CPU cores))",
    )
    return runtime


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="STwig subgraph matching (VLDB 2012 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a synthetic labeled graph")
    generate.set_defaults(handler=_command_generate)
    generate.add_argument(
        "--kind",
        choices=["rmat", "gnm", "power-law", "patents-like", "wordnet-like"],
        default="rmat",
    )
    generate.add_argument("--nodes", type=int, default=10_000)
    generate.add_argument("--degree", type=float, default=8.0)
    generate.add_argument("--edges", type=int, help="edge count (gnm only)")
    generate.add_argument("--label-density", type=float, default=0.01)
    generate.add_argument("--scale", type=float, help="scale factor (look-alikes only)")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True, help="output path prefix")

    # Flag groups shared between verbs, each spelled as api.connect spells it.
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--graph", help="graph path prefix (from 'generate')")
    source.add_argument(
        "--snapshot",
        help="snapshot directory (from 'save' or 'ingest'); alternative to "
        "--graph — opens in near-constant time, in the cluster shape "
        "recorded in the snapshot",
    )
    source.add_argument(
        "--dataset",
        help="dataset for repro.api.load_dataset: a built-in name, an "
        "edge-list file (sparse/string IDs are remapped), or DBLP XML; "
        "alternative to --graph",
    )
    runtime = runtime_flags()
    snapshot_out = argparse.ArgumentParser(add_help=False)
    snapshot_out.add_argument("--out", required=True, help="snapshot directory to write")
    snapshot_out.add_argument(
        "--machines",
        type=int,
        default=4,
        help="partition for this many machines (snapshot reopens fastest "
        "on the same shape)",
    )

    query = subparsers.add_parser(
        "query", parents=[source, runtime], help="run a subgraph query over a saved graph"
    )
    query.set_defaults(handler=_command_query)
    query.add_argument("--query-file", required=True, help="query in the textual node/edge format")
    query.add_argument("--max-stwig-leaves", type=int, default=None)
    query.add_argument("--show", type=int, default=5, help="number of matches to print")
    query.add_argument("--explain", action="store_true", help="print the query plan")

    serve = subparsers.add_parser(
        "serve",
        parents=[source, runtime],
        help="answer a stream of stdin queries over a resident graph",
    )
    serve.set_defaults(handler=_command_serve)
    serve.add_argument(
        "--max-in-flight", type=int, default=8, help="admission control: concurrent queries"
    )
    serve.add_argument(
        "--max-row-budget",
        type=int,
        default=None,
        help="admission control: reject queries asking for more rows",
    )
    serve.add_argument("--show", type=int, default=3, help="matches to print per query")

    save = subparsers.add_parser(
        "save", parents=[snapshot_out], help="save a graph as a persistent (memmap) snapshot"
    )
    save.set_defaults(handler=_command_save)
    save.add_argument("--graph", required=True, help="graph path prefix (from 'generate')")

    open_cmd = subparsers.add_parser(
        "open", help="open a snapshot and print what is inside"
    )
    open_cmd.set_defaults(handler=_command_open)
    open_cmd.add_argument("--snapshot", required=True, help="snapshot directory")
    open_cmd.add_argument(
        "--verify", action="store_true", help="check every array's checksum"
    )

    append = subparsers.add_parser(
        "append", help="append edge/label deltas to a snapshot's log"
    )
    append.set_defaults(handler=_command_append)
    append.add_argument("--snapshot", required=True, help="snapshot directory")
    append.add_argument(
        "--edge",
        nargs=2,
        type=int,
        action="append",
        metavar=("U", "V"),
        default=[],
        help="undirected edge to append (repeatable)",
    )
    append.add_argument(
        "--node",
        nargs=2,
        action="append",
        metavar=("ID", "LABEL"),
        default=[],
        help="node to add or relabel (repeatable)",
    )

    compact = subparsers.add_parser(
        "compact", help="fold a snapshot's delta log into a new base generation"
    )
    compact.set_defaults(handler=_command_compact)
    compact.add_argument("--snapshot", required=True, help="snapshot directory")

    ingest = subparsers.add_parser(
        "ingest",
        parents=[snapshot_out],
        help="ingest a real dataset (edge list / DBLP XML) into a snapshot",
    )
    ingest.set_defaults(handler=_command_ingest)
    ingest.add_argument(
        "--edges",
        help="whitespace/TSV edge-list file; IDs may be sparse 64-bit "
        "integers or strings (remapped to the dense domain)",
    )
    ingest.add_argument("--dblp-xml", help="DBLP XML file (co-author projection)")
    ingest.add_argument(
        "--dblp-mode",
        choices=["coauthor", "bipartite"],
        default="coauthor",
        help="DBLP projection: co-author edges, or author/paper bipartite",
    )
    ingest.add_argument(
        "--label-mode",
        choices=["degree", "uniform"],
        default="degree",
        help="labels for unlabeled edge lists: degree bands (rank0..rankK) "
        "or a single 'entity' label",
    )

    return parser


def _command_generate(args: argparse.Namespace) -> int:
    if args.kind == "rmat":
        graph = generate_rmat(args.nodes, args.degree, args.label_density, seed=args.seed)
    elif args.kind == "gnm":
        edge_count = args.edges if args.edges is not None else round(args.nodes * args.degree / 2)
        graph = generate_gnm(args.nodes, edge_count, seed=args.seed)
    elif args.kind == "power-law":
        graph = generate_power_law(
            args.nodes, args.degree, label_density=args.label_density, seed=args.seed
        )
    elif args.kind == "patents-like":
        graph = patents_like(scale=args.scale or 0.005, seed=args.seed)
    else:
        graph = wordnet_like(scale=args.scale or 0.25, seed=args.seed)
    label_path, edge_path = save_graph(args.out, graph)
    print(
        f"generated {graph.node_count} nodes / {graph.edge_count} edges "
        f"({len(graph.distinct_labels())} labels)"
    )
    print(f"labels: {label_path}\nedges:  {edge_path}")
    return 0


def _connect(args: argparse.Namespace, **knobs) -> api.Session:
    """``query``/``serve``: flags -> ``api.connect`` keywords, one to one."""
    sources = [s for s in (args.dataset, args.graph, args.snapshot) if s is not None]
    if len(sources) != 1:
        raise SystemExit("give exactly one of --dataset, --graph, or --snapshot")
    return api.connect(
        sources[0],
        # A snapshot opens in the shape it records (what --snapshot promises).
        machines=None if args.snapshot is not None else args.machines,
        executor=args.executor,
        workers=args.workers,
        limit=args.limit,
        **knobs,
    )


def _first_assignments(result: MatchResult, count: int) -> List[dict]:
    """The first ``count`` matches as dicts; only those rows leave the array."""
    head = result.to_array()[:count]
    if result.id_map is not None:
        head = result.id_map.to_external(head)
    return [dict(zip(result.columns, row)) for row in head.tolist()]


def _command_query(args: argparse.Namespace) -> int:
    query = parse_query(Path(args.query_file).read_text(encoding="utf-8"))
    matcher_config = MatcherConfig(max_stwig_leaves=args.max_stwig_leaves)
    with _connect(args, matcher_config=matcher_config) as db:
        if args.explain:
            print(db.explain(query).describe())
        result = db.query(query)
        executor_name = db.service.matcher.executor.name
    print(
        f"{result.match_count} matches in {result.wall_seconds * 1000:.1f} ms wall "
        f"({result.simulated_seconds * 1000:.1f} ms simulated cluster time, "
        f"{executor_name} executor)"
    )
    print(
        f"communication: {result.metrics['messages']} messages, "
        f"{result.metrics['bytes_transferred']} bytes"
    )
    for assignment in _first_assignments(result, args.show):
        print("  ", assignment)
    return 0


def _read_query_blocks(stream) -> Iterator[str]:
    """Yield blank-line-separated query blocks from ``stream``.

    A one-line block naming an existing file loads the query text from that
    file, so an interactive session can mix inline patterns and saved ones.
    """
    pending: List[str] = []
    for raw_line in stream:
        if raw_line.strip():
            pending.append(raw_line)
            continue
        if pending:
            yield "".join(pending)
            pending = []
    if pending:
        yield "".join(pending)


def _command_serve(args: argparse.Namespace) -> int:
    with _connect(
        args, max_in_flight=args.max_in_flight, max_row_budget=args.max_row_budget
    ) as db:
        cloud = db.cloud
        print(
            f"serving {cloud.node_count} nodes / {cloud.edge_count} edges on "
            f"{cloud.machine_count} machines ({db.service.matcher.executor.name} executor); "
            "enter node/edge lines, blank line to run, Ctrl-D to quit",
            flush=True,
        )
        served = 0
        for block in _read_query_blocks(sys.stdin):
            stripped = block.strip()
            if "\n" not in stripped and Path(stripped).is_file():
                stripped = Path(stripped).read_text(encoding="utf-8")
            try:
                query = parse_query(stripped)
                result = db.query(query)
            except Exception as exc:  # noqa: BLE001 - interactive loop survives bad input
                print(f"error: {exc}", flush=True)
                continue
            served += 1
            cache = "hit" if result.stats.plan_cache_hit else "miss"
            print(
                f"[{served}] {result.match_count} matches in "
                f"{result.wall_seconds * 1000:.1f} ms (plan cache {cache}, "
                f"{result.stats.join_rows_materialized} join rows materialized, "
                f"peak {result.stats.join_peak_intermediate_rows}) for:\n"
                + "\n".join(f"    {line}" for line in format_query(query).splitlines()),
                flush=True,
            )
            for assignment in _first_assignments(result, args.show):
                print("   ", assignment, flush=True)
        stats = db.stats()
        print(
            f"served {stats.completed} queries ({stats.rows_returned} rows, "
            f"{stats.join_rows_materialized} join rows materialized, "
            f"{stats.plan_cache_hits} plan-cache hits / {stats.plan_cache_misses} misses)",
            flush=True,
        )
    return 0


def _save_partitioned(graph, args: argparse.Namespace):
    """Partition ``graph`` for ``--machines`` and write it to ``--out``."""
    with api.connect(graph, machines=args.machines) as db:
        return db.cloud.save_snapshot(args.out)


def _command_save(args: argparse.Namespace) -> int:
    manifest = _save_partitioned(api.load_dataset(args.graph), args)
    print(
        f"saved {manifest.node_count} nodes / {manifest.edge_count} edges "
        f"({args.machines} machines, generation {manifest.generation}, "
        f"{len(manifest.arrays)} arrays) to {manifest.directory}"
    )
    return 0


def _command_open(args: argparse.Namespace) -> int:
    manifest = read_manifest(args.snapshot, verify=args.verify)
    pending = DeltaLog(args.snapshot).count()
    started = time.perf_counter()
    with api.open_snapshot(args.snapshot):
        opened = time.perf_counter() - started
    if pending:
        path = "pending deltas merged into the memmap image"
    elif manifest.resident:
        path = "graph-only snapshot: memmap image, partition map in RAM"
    else:
        path = "memmap fast path"
    print(
        f"{manifest.node_count} nodes / {manifest.edge_count} edges, "
        f"{len(manifest.labels)} labels, generation {manifest.generation}"
    )
    print(
        f"cloud state: {manifest.machine_count} machines, "
        f"{pending} pending delta records"
    )
    print(f"opened in {opened * 1000:.1f} ms ({path})"
          + (", checksums verified" if args.verify else ""))
    return 0


def _command_append(args: argparse.Namespace) -> int:
    read_manifest(args.snapshot)  # fail early on a non-snapshot directory
    log = DeltaLog(args.snapshot)
    try:
        appended = log.append_nodes(
            (int(node_id), label) for node_id, label in args.node
        )
    except StorageError as error:
        raise SystemExit(str(error))
    appended += log.append_edges((u, v) for u, v in args.edge)
    print(
        f"appended {appended} records ({log.count()} total pending); "
        "they overlay at open time until 'compact' folds them in"
    )
    return 0


def _command_compact(args: argparse.Namespace) -> int:
    before = read_manifest(args.snapshot)
    pending = DeltaLog(args.snapshot).count()
    manifest = compact_snapshot(args.snapshot)
    if manifest.generation == before.generation:
        print(f"nothing to compact (generation {manifest.generation})")
    else:
        print(
            f"folded {pending} delta records: generation "
            f"{before.generation} -> {manifest.generation}, now "
            f"{manifest.node_count} nodes / {manifest.edge_count} edges"
        )
    return 0


def _command_ingest(args: argparse.Namespace) -> int:
    if (args.edges is None) == (args.dblp_xml is None):
        raise SystemExit("give exactly one of --edges or --dblp-xml")
    if args.dblp_xml is not None:
        graph = ingest_dblp_xml(args.dblp_xml, mode=args.dblp_mode)
    else:
        graph = api.load_dataset(args.edges, label_mode=args.label_mode)
    print(graph.ingest_report.summary())
    # The snapshot is the same log-structured store 'save' writes; the
    # external-ID map rides in the manifest so reopen round-trips it.
    manifest = _save_partitioned(graph, args)
    kind = manifest.id_map["kind"] if manifest.id_map else "dense (no map needed)"
    print(
        f"saved {manifest.node_count} nodes / {manifest.edge_count} edges "
        f"({args.machines} machines, {len(manifest.arrays)} arrays, "
        f"id map: {kind}) to {manifest.directory}"
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro`` / the ``repro`` console script."""
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
