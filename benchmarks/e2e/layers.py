"""The traced phase: every layer timed from outside, through public functions.

Nothing under ``src/`` is instrumented (spans inside the program are a
later issue).  Instead each operation is *replayed* the way
``SubgraphMatcher.match`` runs it — ``parse_query`` -> ``QueryPlanner
.plan_cached`` -> ``explore`` -> ``assemble_results`` -> ``MatchResult``
rows — with one span per call and the layer's own counters
(``CloudMetrics``, ``ExplorationOutcome.total_rows``) read at the same
boundaries and stored as span attributes.  Calls a query makes once per
machine (``match_stwig``, ``machine_result_rows``) and the real
``Session.query`` are timed in a separate *probe* pass over every distinct
operation, so they never inflate the replayed operation itself.

Two more probes run on every workload, against the workload's own graph:
the process runtime against the serial one on identical operations
(:func:`probe_runtime`), and ingest plus the whole snapshot life cycle
(:func:`probe_storage`).  So every per-layer metric is measured on every
workload; the README says which workload each one matters on.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Dict, List, Optional

import numpy as np

import repro.api as api
from repro.cloud.config import RuntimeConfig
from repro.cloud.metrics import CloudMetrics
from repro.core.distributed import assemble_results, machine_result_rows
from repro.core.exploration import explore
from repro.core.matcher import match_stwig
from repro.core.planner import MatcherConfig, QueryPlanner
from repro.core.result import MatchResult
from repro.ingest import degree_band_labeler, ingest_edge_list
from repro.query.parser import parse_query
from repro.runtime import create_executor
from repro.storage.delta import DeltaLog, compact_snapshot

import measure
from spans import Recorder, by_name, duration_ms
from workloads import (
    COMPACT_EVERY,
    DEGREE_BANDS,
    DELTA_EDGES_PER_OP,
    forward_edges,
    write_sparse_edge_list,
)


class Replayer:
    """Replays queries step by step against one cloud, recording spans."""

    def __init__(self, rec: Recorder, cloud, executor) -> None:
        self.rec = rec
        self.cloud = cloud
        self.executor = executor
        self.planner = QueryPlanner(cloud, MatcherConfig())

    def plan(self, text: str):
        with self.rec.span("api.parse"):
            query = parse_query(text)
        with self.rec.span("planner.plan") as span:
            plan, hit = self.planner.plan_cached(query)
            span["attrs"]["hit"] = hit
        return query, plan

    def explore(self, plan):
        metrics = CloudMetrics()
        scoped = self.cloud.with_metrics(metrics)
        with self.rec.span("exploration.explore") as span:
            outcome = explore(scoped, plan, executor=self.executor)
            counters = metrics.snapshot()
            span["attrs"].update(
                stwig_rows=outcome.total_rows(),
                local_loads=counters["local_loads"],
                remote_loads=counters["remote_loads"],
                label_probes=counters["local_label_probes"]
                + counters["remote_label_probes"],
            )
        return scoped, metrics, outcome

    def assemble(self, scoped, metrics, plan, outcome, limit):
        with self.rec.span("join.assemble") as span:
            joined = assemble_results(scoped, plan, outcome, limit, executor=self.executor)
            counters = metrics.snapshot()
            span["attrs"].update(
                rows=joined.row_count,
                rows_materialized=counters["join_rows_materialized"],
                peak_intermediate_rows=counters["join_peak_intermediate_rows"],
                shipped=counters["result_rows_shipped"],
                filtered=counters["result_rows_filtered"],
            )
        return joined

    def execute(self, plan, limit):
        """``explore`` then ``assemble_results``; the STwig tables are released."""
        scoped, metrics, outcome = self.explore(plan)
        try:
            joined = self.assemble(scoped, metrics, plan, outcome, limit)
        finally:
            outcome.release()
        self.cloud.merge_metrics(metrics)
        return joined

    def query(self, op, external: bool):
        """One query, replayed; returns ``(result, rows, truncated)``."""
        query, plan = self.plan(op.text)
        joined = self.execute(plan, op.limit)
        result = MatchResult(
            query_nodes=query.nodes(), matches=joined.table, id_map=self.cloud.id_map
        )
        rows = self.read(result, external)
        return result, rows, joined.truncated

    def read(self, result: MatchResult, external: bool):
        name = "result.external_rows" if external else "result.rows"
        with self.rec.span(name) as span:
            rows = result.external_rows() if external else result.rows
            span["attrs"]["rows"] = len(rows)
        return rows

    def probe(self, op, db, external: bool) -> None:
        """The per-machine calls and the real ``Session.query`` for one op."""
        rec = self.rec
        with rec.span("probe", klass=op.klass):
            with rec.span("serve.query"):
                served = db.query(op.text, limit=op.limit)
            served.rows  # materialize outside the serve.query span, untimed
            query, plan = self.plan(op.text)
            with rec.span("planner.plan") as span:
                _, hit = self.planner.plan_cached(query)
                span["attrs"]["hit"] = hit
            scoped, metrics, outcome = self.explore(plan)
            try:
                bindings = (
                    outcome.bindings if plan.config.use_final_binding_filter else None
                )
                remaining = None if op.limit is None else op.limit + 1
                for machine in range(self.cloud.machine_count):
                    with rec.span("join.machine_rows", machine=machine):
                        machine_result_rows(
                            scoped, plan, outcome.tables, machine, bindings,
                            remaining=remaining,
                        )
                joined = self.assemble(scoped, metrics, plan, outcome, op.limit)
            finally:
                outcome.release()
            for stwig in plan.stwigs:
                for machine in range(self.cloud.machine_count):
                    with rec.span(
                        "exploration.match_stwig",
                        machine=machine,
                        leaves=len(stwig.leaves),
                        head=stwig is plan.head_stwig,
                    ):
                        match_stwig(self.cloud, machine, stwig, query)
            for flavour in (not external, external):
                result = MatchResult(
                    query_nodes=query.nodes(),
                    matches=joined.table.copy(),
                    id_map=self.cloud.id_map,
                )
                self.read(result, flavour)


def replay_cold_op(rec: Recorder, workload, index: int, edges: np.ndarray):
    """``cold_update``'s operation, replayed with one span per storage call."""
    if index % COMPACT_EVERY == COMPACT_EVERY - 1:
        with rec.span("storage.compact"):
            compact_snapshot(workload.snapshot)
    with rec.span("storage.append", edges=len(edges)):
        DeltaLog(workload.snapshot).append_edges(edges.tolist())
    with rec.span("storage.open_replay"):
        cloud = api.open_snapshot(workload.snapshot)
    try:
        replayer = Replayer(rec, cloud, create_executor("serial"))
        answers = [replayer.query(motif, external=True) for motif in workload.motifs]
        edge_count = cloud.edge_count
    finally:
        with rec.span("serve.close"):
            cloud.close()
    return answers, edge_count


# -- probes that run once per traced run ----------------------------------


def probe_runtime(rec: Recorder, cloud, ops) -> Dict[str, float]:
    """Process runtime against serial on identical ``explore`` + ``assemble``.

    Each distinct operation runs once warm and once timed on each backend;
    ``runtime.overhead_ms`` is the median of (process - serial).  Worker CPU
    comes from ``/proc/<pid>/stat``; the transport counters are the
    executor's own; the ``/dev/shm`` listing before and after must agree.
    """
    before = measure.shm_segments()
    serial = create_executor("serial")
    process = create_executor(RuntimeConfig(backend="process", workers=2, stealing=True))
    # The replayers' own spans are discarded: only whole operations are timed.
    on_serial = Replayer(Recorder(), cloud, serial)
    on_process = Replayer(Recorder(), cloud, process)
    plans = [(op, on_serial.plan(op.text)[1]) for op in ops]
    first_op, first_plan = plans[0]
    try:
        with rec.span("runtime.pool_start"):
            on_process.execute(first_plan, first_op.limit)
        with rec.span("runtime.op", backend="process", warm=True):
            on_process.execute(first_plan, first_op.limit)
        workers = [child.pid for child in multiprocessing.active_children()]
        driver_cpu = time.process_time()
        worker_cpu = sum(measure.cpu_seconds(pid) for pid in workers)
        overheads: List[float] = []
        for op, plan in plans:
            on_serial.execute(plan, op.limit)
            on_process.execute(plan, op.limit)
            with rec.span("runtime.op", backend="serial", klass=op.klass) as a:
                on_serial.execute(plan, op.limit)
            with rec.span("runtime.op", backend="process", klass=op.klass) as b:
                on_process.execute(plan, op.limit)
            overheads.append(duration_ms(b) - duration_ms(a))
        driver_cpu = time.process_time() - driver_cpu
        worker_cpu = sum(measure.cpu_seconds(pid) for pid in workers) - worker_cpu
        counters = dict(process.transport_counters)
    finally:
        with rec.span("runtime.close"):
            process.close()
        serial.close()
    spans = rec.spans
    pool_start = duration_ms(by_name(spans, "runtime.pool_start")[-1])
    warm = duration_ms(by_name(spans, "runtime.op", warm=True)[-1])
    return {
        "runtime.overhead_ms": measure.median(overheads),
        "runtime.pool_start_s": (pool_start - warm) / 1e3,
        "runtime.close_s": duration_ms(by_name(spans, "runtime.close")[-1]) / 1e3,
        "runtime.worker_cpu_frac": worker_cpu / max(worker_cpu + driver_cpu, 1e-9),
        **{f"runtime.{name}": value for name, value in counters.items()},
        "runtime.shm_segments_leaked": len(measure.shm_segments() - before),
    }


def probe_storage(
    rec: Recorder, cloud, graph, edge_list: Optional[str], directory: str, seed: int
) -> Dict[str, float]:
    """Ingest and the snapshot life cycle on the workload's own graph.

    Writes ``graph`` as a sparse-ID TSV edge list (unless the workload
    already ingested one: ``edge_list``), ingests it, saves a snapshot of
    ``cloud`` and walks it through clean open, verified open, append,
    replayed open and compaction.
    """
    rng = np.random.default_rng(seed)
    if edge_list is None:
        edge_list = os.path.join(directory, "probe-edges.tsv")
        low, high = forward_edges(graph)
        write_sparse_edge_list(edge_list, low, high, graph.node_count, seed)
    with rec.span("ingest.read") as span:
        ingested = ingest_edge_list(edge_list, labeler=degree_band_labeler(DEGREE_BANDS))
        span["attrs"]["edges"] = ingested.edge_count
    dense = rng.integers(0, ingested.node_count, size=1024 * 5)
    for _ in range(5):
        with rec.span("ingest.to_external", ids=len(dense)):
            ingested.id_map.to_external(dense)

    snapshot = os.path.join(directory, "probe-snapshot")
    edges = cloud.edge_count
    nodes = cloud.node_count
    with rec.span("storage.save", edges=edges):
        cloud.save_snapshot(snapshot)
    snapshot_bytes = sum(
        os.path.getsize(os.path.join(snapshot, name)) for name in os.listdir(snapshot)
    )
    for verify, name in ((False, "storage.open_clean"), (True, "storage.open_verify")):
        for _ in range(3):
            with rec.span(name):
                opened = api.open_snapshot(snapshot, verify=verify)
            opened.close()
    log = DeltaLog(snapshot)
    delta = rng.integers(0, nodes, size=(DELTA_EDGES_PER_OP, 2))
    delta = delta[delta[:, 0] != delta[:, 1]]
    with rec.span("storage.append", edges=len(delta)):
        log.append_edges(delta.tolist())
    log_bytes = log.size_bytes()
    with rec.span("storage.open_replay"):
        opened = api.open_snapshot(snapshot)
    opened.close()
    with rec.span("storage.compact"):
        compact_snapshot(snapshot)
    return {
        "storage.snapshot_bytes_per_edge": snapshot_bytes / edges,
        "storage.log_bytes_per_edge": log_bytes / len(delta),
    }


# -- from spans to the per-layer metrics ----------------------------------


def _median_ms(spans: List[dict], name: str, **attrs) -> Optional[float]:
    found = by_name(spans, name, **attrs)
    return measure.median([duration_ms(span) for span in found]) if found else None


def _per_root_sum(spans: List[dict], name: str, root_name: str, **attrs) -> List[float]:
    """Per operation: the summed duration of its spans called ``name``."""
    roots = {span["id"] for span in spans if span["name"] == root_name}
    sums: Dict[int, float] = {}
    for span in by_name(spans, name, **attrs):
        if span["trace"] in roots:
            sums[span["trace"]] = sums.get(span["trace"], 0.0) + duration_ms(span)
    return list(sums.values())


def _attr_total(spans: List[dict], name: str, attr: str) -> float:
    return float(sum(span["attrs"][attr] for span in spans if span["name"] == name))


def _attr_median(spans: List[dict], name: str, attr: str) -> float:
    return measure.median([span["attrs"][attr] for span in spans if span["name"] == name])


def layer_metrics(spans: List[dict]) -> Dict[str, float]:
    """Every span-derived per-layer metric (name -> value, units as in the README).

    Times are medians over the spans of that name; per-machine calls are
    first summed per operation.  Ratios divide totals over the whole
    traced phase.  A metric with no sample in this run (no >=3-leaf STwig
    in the workload) reads 0.
    """
    ops = [span for span in spans if span["name"] == "op"]
    in_ops = {span["id"] for span in ops}
    op_spans = [span for span in spans if span["trace"] in in_ops]

    def ms(name, **attrs):
        return _median_ms(op_spans, name, **attrs)

    def anywhere(name, **attrs):
        value = _median_ms(spans, name, **attrs)
        return 0.0 if value is None else value

    rows_out = _attr_total(op_spans, "join.assemble", "rows")
    stwig_rows = _attr_total(op_spans, "exploration.explore", "stwig_rows")
    materialized = _attr_total(op_spans, "join.assemble", "rows_materialized")
    shipped = _attr_total(op_spans, "join.assemble", "shipped")
    filtered = _attr_total(op_spans, "join.assemble", "filtered")
    read_name = "result.rows" if by_name(op_spans, "result.rows") else "result.external_rows"
    read_rows = _attr_total(op_spans, read_name, "rows")
    read_ms = sum(duration_ms(span) for span in by_name(op_spans, read_name))

    overheads = []
    for probe in by_name(spans, "probe"):
        inside = [span for span in spans if span["trace"] == probe["id"]]
        served = by_name(inside, "serve.query")
        if not served:
            continue
        replayed = sum(
            duration_ms(by_name(inside, name)[0])
            for name in ("planner.plan", "exploration.explore", "join.assemble")
        )
        overheads.append(duration_ms(served[0]) - replayed)

    match_all = _per_root_sum(spans, "exploration.match_stwig", "probe", head=True)
    match_3leaf = [
        duration_ms(span)
        for span in by_name(spans, "exploration.match_stwig")
        if span["attrs"]["leaves"] >= 3
    ]
    machine_rows = _per_root_sum(spans, "join.machine_rows", "probe")
    plans = by_name(spans, "planner.plan")
    hits = [span for span in plans if span["attrs"]["hit"]]
    load = by_name(spans, "cloud.load")[-1]
    ingest = by_name(spans, "ingest.read")[-1]
    appends = by_name(spans, "storage.append")
    append_ms = measure.median([duration_ms(span) for span in appends])
    append_edges = measure.median([span["attrs"]["edges"] for span in appends])

    return {
        "api.parse_ms": ms("api.parse"),
        "serve.overhead_ms": measure.median(overheads),
        "planner.plan_miss_ms": anywhere("planner.plan", hit=False),
        "planner.plan_hit_us": anywhere("planner.plan", hit=True) * 1e3,
        "planner.cache_hit_frac": len(hits) / len(plans),
        "exploration.explore_ms": ms("exploration.explore"),
        "exploration.stwig_rows": _attr_median(op_spans, "exploration.explore", "stwig_rows"),
        "exploration.rows_per_match": stwig_rows / max(rows_out, 1.0),
        "exploration.match_stwig_ms": measure.median(match_all),
        "exploration.match_stwig_ms_3leaf": (
            measure.median(match_3leaf) if match_3leaf else 0.0
        ),
        "exploration.local_loads": _attr_median(op_spans, "exploration.explore", "local_loads"),
        "exploration.remote_loads": _attr_median(op_spans, "exploration.explore", "remote_loads"),
        "exploration.label_probes": _attr_median(op_spans, "exploration.explore", "label_probes"),
        "join.assemble_ms": ms("join.assemble"),
        "join.machine_rows_ms": measure.median(machine_rows),
        "join.rows_materialized": _attr_median(op_spans, "join.assemble", "rows_materialized"),
        "join.peak_intermediate_rows": _attr_median(
            op_spans, "join.assemble", "peak_intermediate_rows"
        ),
        "join.materialized_per_match": materialized / max(rows_out, 1.0),
        "join.filter_drop_frac": filtered / max(shipped + filtered, 1.0),
        "result.rows_ms": anywhere("result.rows"),
        "result.external_rows_ms": anywhere("result.external_rows"),
        "result.rows_per_ms": read_rows / max(read_ms, 1e-9),
        "graph.generate_s": anywhere("graph.generate") / 1e3,
        "graph.from_arrays_s": anywhere("graph.from_arrays") / 1e3,
        "cloud.load_s": duration_ms(load) / 1e3,
        "cloud.bytes_per_edge": load["attrs"]["storage_bytes"] / load["attrs"]["edges"],
        "ingest.read_s": duration_ms(ingest) / 1e3,
        "ingest.edges_per_s": ingest["attrs"]["edges"] / (duration_ms(ingest) / 1e3),
        "ingest.to_external_ms": anywhere("ingest.to_external"),
        "storage.save_s": anywhere("storage.save") / 1e3,
        "storage.open_clean_ms": anywhere("storage.open_clean"),
        "storage.open_verify_ms": anywhere("storage.open_verify"),
        "storage.open_replay_ms": anywhere("storage.open_replay"),
        "storage.append_ms": append_ms,
        "storage.append_edges_per_s": append_edges / (append_ms / 1e3),
        "storage.compact_ms": anywhere("storage.compact"),
    }


def layer_shares(spans: List[dict]) -> Dict[str, float]:
    """Share of replayed operation time spent directly under each span name."""
    ops = [span for span in spans if span["name"] == "op"]
    total = sum(duration_ms(span) for span in ops)
    roots = {span["id"] for span in ops}
    shares: Dict[str, float] = {}
    covered = 0.0
    for span in spans:
        if span["parent"] in roots:
            shares[span["name"]] = shares.get(span["name"], 0.0) + duration_ms(span)
            covered += duration_ms(span)
    shares["(unattributed)"] = total - covered
    return {name: value / total for name, value in sorted(shares.items())}
