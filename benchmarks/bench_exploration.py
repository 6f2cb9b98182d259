"""Array-native exploration phase vs. the set-based baseline, head to head.

Before this change, every binding travelled through Python sets:
``BindingTable.bind`` converted each stage's ``np.unique`` output into a
set, intersected with Python ``&``, and the matcher's vectorized filters
re-materialized sorted arrays from those sets (``np.fromiter`` + sort) after
every narrowing — plus each machine independently re-scanned the full
binding array (and round-tripped it through ``.tolist()``) to find its local
roots, and every membership/owner/row question was a binary search.  The
array-native phase keeps one sorted ``NODE_DTYPE`` array per binding end to
end (``np.intersect1d``/``np.union1d``), partitions each stage's root
candidates by owner once, loads root cells owner-direct, and answers the
hot membership/owner/label/row lookups from cached dense O(1) tables.

This benchmark quantifies the difference on the paper's workload shape:

* **Exploration speed** — the same query plans are explored twice: once
  with a faithful frozen re-implementation of the set-based exploration
  phase as of the columnar-join PR (set-backed binding table, per-machine
  root scans with the ``.tolist()`` round trip, binary-search membership /
  owner / row / label lookups, identical metric recording), and once with
  the array-native driver.  Per-machine, per-STwig tables are verified
  row-for-row equal, final bindings equal, and the communication counters
  *identical* — the rework changes wall-clock only, never the per-node
  cost model.
* **Filtered gather** — the join phase's gather now binding-filters every
  part machine-side before the cross-machine concatenation (and before the
  simulated shipping).  Full and ``limit=1024`` assemblies are timed
  against the old gather-everything-then-filter baseline over identical
  exploration tables; answers are verified row-for-row equal.
* **Cross-validation** — engine answers on a suite of small seeded graphs
  are checked against VF2 exactly.

Run ``python benchmarks/bench_exploration.py`` for the paper-scale
100k-node power-law comparison (writes
``benchmarks/results/exploration.json``), or ``--quick`` for a CI-sized
smoke run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import product
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from report_io import add_report_arguments, save_report

from repro.baselines.vf2 import vf2_match
from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.core.distributed import assemble_results
from repro.core.engine import SubgraphMatcher
from repro.core.exploration import ExplorationOutcome, ExplorationTables
from repro.core.exploration import explore as array_explore
from repro.core.join import multiway_join
from repro.core.planner import MatcherConfig, QueryPlan, QueryPlanner
from repro.core.result import MatchTable
from repro.graph.generators.erdos_renyi import generate_gnm
from repro.graph.generators.power_law import generate_power_law
from repro.graph.labeled_graph import NODE_DTYPE, OFFSET_DTYPE
from repro.query.generators import dfs_query
from repro.utils.arrays import membership_mask, sorted_lookup

RESULTS_PATH = Path(__file__).parent / "results" / "exploration.json"


# --------------------------------------------------------------------------
# Faithful frozen re-implementation of the set-based exploration phase as of
# the columnar-join PR: a set-backed binding table (with the sorted-array
# cache that is dropped on every narrowing), a per-machine exploration loop
# whose root scans round-trip through ``.tolist()``, binary-search
# membership / owner / row / label lookups, and identical metric recording.
# --------------------------------------------------------------------------


class SetBindingTable:
    """The pre-array BindingTable: Python sets + a fragile array cache."""

    def __init__(self, query) -> None:
        self._query = query
        self._bindings: Dict[str, Optional[Set[int]]] = {
            node: None for node in query.nodes()
        }
        self._array_cache: Dict[str, np.ndarray] = {}

    def is_bound(self, node: str) -> bool:
        return self._bindings[node] is not None

    def candidates(self, node: str) -> Optional[Set[int]]:
        return self._bindings[node]

    def candidates_array(self, node: str) -> Optional[np.ndarray]:
        candidates = self._bindings[node]
        if candidates is None:
            return None
        cached = self._array_cache.get(node)
        if cached is None:
            cached = np.fromiter(candidates, dtype=NODE_DTYPE, count=len(candidates))
            cached.sort()
            self._array_cache[node] = cached
        return cached

    def bind(self, node: str, data_nodes) -> None:
        from_array = isinstance(data_nodes, np.ndarray)
        new_set = set(data_nodes.tolist()) if from_array else set(data_nodes)
        current = self._bindings[node]
        # The baseline bug: the cache is dropped even on the narrowing path,
        # so every later STwig re-materializes and re-sorts the array.
        self._array_cache.pop(node, None)
        if current is None:
            self._bindings[node] = new_set
            if from_array:
                cached = np.array(data_nodes, dtype=NODE_DTYPE)
                cached.sort()
                self._array_cache[node] = cached
        else:
            self._bindings[node] = current & new_set

    def any_empty(self) -> bool:
        return any(
            candidates is not None and not candidates
            for candidates in self._bindings.values()
        )

    def bound_nodes(self) -> Dict[str, Set[int]]:
        return {
            node: set(candidates)
            for node, candidates in self._bindings.items()
            if candidates is not None
        }


def baseline_owners_of_array(cloud, node_ids: np.ndarray) -> np.ndarray:
    """The pre-dense owner lookup: binary search over the partition map."""
    sorted_ids, machines = cloud._assignment.as_arrays()
    positions, _ = sorted_lookup(sorted_ids, node_ids)
    return machines[positions]


def baseline_load_rows(machine, node_ids: np.ndarray):
    """The pre-dense ``Machine.load_rows``: binary-search row resolution."""
    if len(node_ids) == 0:
        return np.empty(0, dtype=NODE_DTYPE), np.empty(0, dtype=OFFSET_DTYPE)
    rows, _ = sorted_lookup(machine._ids, node_ids)
    starts = machine._offsets[rows]
    counts = machine._offsets[rows + 1] - starts
    out_offsets = np.zeros(len(rows) + 1, dtype=OFFSET_DTYPE)
    np.cumsum(counts, out=out_offsets[1:])
    gather = (
        np.arange(out_offsets[-1], dtype=OFFSET_DTYPE)
        + np.repeat(starts - out_offsets[:-1], counts)
    )
    return machine._neighbors[gather], counts


def baseline_load_neighbors_batch(cloud, node_ids: np.ndarray, requester: int):
    """The pre-owner-hint batched load: per-node owner resolution first.

    Metric recording is byte-for-byte the production accounting.
    """
    owners = baseline_owners_of_array(cloud, node_ids)
    distinct = np.unique(owners).tolist()
    if len(distinct) == 1:
        owner = distinct[0]
        neighbors, counts = baseline_load_rows(cloud.machines[owner], node_ids)
        cloud.metrics.record_loads(requester, owner, len(node_ids), int(counts.sum()))
        return neighbors, counts
    counts = np.zeros(len(node_ids), dtype=OFFSET_DTYPE)
    parts = {}
    for owner in distinct:
        selector = owners == owner
        part_neighbors, part_counts = baseline_load_rows(
            cloud.machines[owner], node_ids[selector]
        )
        counts[selector] = part_counts
        parts[owner] = part_neighbors
        cloud.metrics.record_loads(
            requester, owner, int(selector.sum()), int(part_counts.sum())
        )
    offsets = np.zeros(len(node_ids) + 1, dtype=OFFSET_DTYPE)
    np.cumsum(counts, out=offsets[1:])
    neighbors = np.empty(int(offsets[-1]), dtype=NODE_DTYPE)
    for owner in distinct:
        selector = owners == owner
        starts = offsets[:-1][selector]
        owner_counts = counts[selector]
        span = np.zeros(len(owner_counts) + 1, dtype=OFFSET_DTYPE)
        np.cumsum(owner_counts, out=span[1:])
        scatter = (
            np.arange(span[-1], dtype=OFFSET_DTYPE)
            + np.repeat(starts - span[:-1], owner_counts)
        )
        neighbors[scatter] = parts[owner]
    return neighbors, counts


def baseline_batch_has_label(cloud, node_ids, label, requester, owners=None):
    """The pre-dense batched ``Index.hasLabel``: global binary search."""
    if len(node_ids) == 0:
        return np.empty(0, dtype=bool)
    if owners is None:
        owners = baseline_owners_of_array(cloud, node_ids)
    for owner, count in enumerate(
        np.bincount(owners, minlength=len(cloud.machines)).tolist()
    ):
        cloud.metrics.record_label_probes(requester, owner, count)
    label_id = cloud._label_table.id_of(label) if cloud._label_table else -1
    if label_id < 0:
        return np.zeros(len(node_ids), dtype=bool)
    positions, found = sorted_lookup(cloud._global_node_ids, node_ids)
    return found & (cloud._global_label_ids[positions] == label_id)


def baseline_match_stwig(cloud, machine_id, stwig, query, bindings=None):
    """The frozen pre-batching matcher: Algorithm 1 as of the join PR.

    Each machine re-scans the *full* binding array for the root
    (``owners_of_array`` over everything, then a ``.tolist()`` ->
    ``np.asarray`` round trip); leaf binding arrays come from the set
    table's fragile cache and are probed with binary-search membership; the
    batched loads/probes resolve owners, rows, and labels by binary search.
    Communication accounting is identical to the production matcher.
    """
    table = MatchTable(stwig.nodes)
    root_label = query.label(stwig.root)
    if bindings is not None and bindings.is_bound(stwig.root):
        bound = bindings.candidates_array(stwig.root)
        if bound is None or len(bound) == 0:
            roots: Sequence[int] = ()
        else:
            owners = baseline_owners_of_array(cloud, bound)
            roots = bound[owners == machine_id].tolist()
    else:
        roots = cloud.get_local_ids(machine_id, root_label)
    if len(roots) == 0:
        return table

    leaf_labels = [query.label(leaf) for leaf in stwig.leaves]
    leaf_bindings = [
        bindings.candidates_array(leaf) if bindings is not None else None
        for leaf in stwig.leaves
    ]

    root_array = np.asarray(roots, dtype=NODE_DTYPE)
    neighbors, counts = baseline_load_neighbors_batch(
        cloud, root_array, requester=machine_id
    )
    if not leaf_labels:
        table.add_rows(root_array.reshape(-1, 1))
        return table
    offsets = np.zeros(len(roots) + 1, dtype=OFFSET_DTYPE)
    np.cumsum(counts, out=offsets[1:])
    if offsets[-1] == 0:
        return table
    entry_root = np.repeat(np.arange(len(roots), dtype=OFFSET_DTYPE), counts)
    owners = None

    alive = np.ones(len(roots), dtype=bool)
    slot_values: List[np.ndarray] = []
    slot_bounds: List[np.ndarray] = []
    for leaf_label, bound in zip(leaf_labels, leaf_bindings):
        entry_alive = alive[entry_root]
        if bound is not None:
            kept = entry_alive & membership_mask(bound, neighbors)
        else:
            if owners is None:
                owners = baseline_owners_of_array(cloud, neighbors)
            probe_at = np.flatnonzero(entry_alive)
            hit = baseline_batch_has_label(
                cloud,
                neighbors[probe_at],
                leaf_label,
                requester=machine_id,
                owners=owners[probe_at],
            )
            kept = np.zeros(len(neighbors), dtype=bool)
            kept[probe_at[hit]] = True
        alive &= np.bincount(entry_root[kept], minlength=len(roots)).astype(bool)
        if not alive.any():
            return table
        slot_values.append(neighbors[kept])
        slot_bounds.append(np.searchsorted(np.flatnonzero(kept), offsets))

    if len(leaf_labels) == 1:
        values = slot_values[0]
        root_column = np.repeat(root_array, np.diff(slot_bounds[0]))
        keep = values != root_column
        block = np.empty((int(keep.sum()), 2), dtype=NODE_DTYPE)
        block[:, 0] = root_column[keep]
        block[:, 1] = values[keep]
        table.add_rows(block)
        return table

    blocks: List[np.ndarray] = []
    for index in np.flatnonzero(alive).tolist():
        root_node = int(root_array[index])
        slots = [
            values[bounds[index] : bounds[index + 1]]
            for values, bounds in zip(slot_values, slot_bounds)
        ]
        block = baseline_stwig_rows(root_node, slots)
        if len(block):
            blocks.append(block)
    if blocks:
        table.add_rows(np.concatenate(blocks, axis=0))
    return table


def baseline_stwig_rows(root_node: int, slots: List[np.ndarray]) -> np.ndarray:
    """The frozen per-root row builder: one shape per leaf count.

    ``repeat``/``tile`` products for one and two leaves, a Python
    ``itertools.product`` with a per-tuple distinctness check beyond that.
    """
    if not slots:
        return np.array([[root_node]], dtype=NODE_DTYPE)
    if len(slots) == 1:
        values = slots[0]
        values = values[values != root_node]
        block = np.empty((len(values), 2), dtype=NODE_DTYPE)
        block[:, 0] = root_node
        block[:, 1] = values
        return block
    if len(slots) == 2:
        first = slots[0][slots[0] != root_node]
        second = slots[1][slots[1] != root_node]
        a = np.repeat(first, len(second))
        b = np.tile(second, len(first))
        keep = a != b
        block = np.empty((int(keep.sum()), 3), dtype=NODE_DTYPE)
        block[:, 0] = root_node
        block[:, 1] = a[keep]
        block[:, 2] = b[keep]
        return block
    rows = [
        (root_node, *assignment)
        for assignment in product(*(slot.tolist() for slot in slots))
        if len(set(assignment)) == len(assignment) and root_node not in assignment
    ]
    if not rows:
        return np.empty((0, len(slots) + 1), dtype=NODE_DTYPE)
    return np.array(rows, dtype=NODE_DTYPE)


def baseline_update_bindings(cloud, bindings, stwig_nodes, per_machine) -> None:
    """The baseline proxy merge: arrays unioned, then bound through sets."""
    union_per_node: Dict[str, List[np.ndarray]] = {node: [] for node in stwig_nodes}
    for machine_id, table in enumerate(per_machine):
        if table.row_count == 0:
            continue
        distinct_total = 0
        for node in stwig_nodes:
            values = table.column_distinct(node)
            union_per_node[node].append(values)
            distinct_total += len(values)
        cloud.metrics.record_result_transfer(
            sender=machine_id, receiver=-1, rows=distinct_total, row_width=1
        )
    for node, chunks in union_per_node.items():
        if chunks:
            merged = np.unique(np.concatenate(chunks))
        else:
            merged = np.empty(0, dtype=NODE_DTYPE)
        bindings.bind(node, merged)


def baseline_explore(cloud: MemoryCloud, plan: QueryPlan):
    """The baseline exploration driver: serial, unbatched per-machine scans."""
    query = plan.query
    config = plan.config
    machine_count = cloud.machine_count
    bindings = SetBindingTable(query)
    tables: ExplorationTables = [[] for _ in range(machine_count)]
    for stwig in plan.stwigs:
        stage_filter = bindings if config.use_binding_filter else None
        per_machine: List[MatchTable] = []
        for machine_id in range(machine_count):
            table = baseline_match_stwig(
                cloud, machine_id, stwig, query, bindings=stage_filter
            )
            per_machine.append(table)
            tables[machine_id].append(table)
        baseline_update_bindings(cloud, bindings, stwig.nodes, per_machine)
        if config.use_binding_filter and bindings.any_empty():
            for machine_id in range(machine_count):
                for skipped in plan.stwigs[len(tables[machine_id]):]:
                    tables[machine_id].append(MatchTable(skipped.nodes))
            break
    return tables, bindings


def baseline_filter_by_bindings(table: MatchTable, bindings) -> MatchTable:
    """The pre-dense final binding filter: binary-search masks per column."""
    if table.row_count == 0:
        return table
    keep = None
    for column in table.columns:
        candidates = bindings.candidates_array(column)
        if candidates is None:
            continue
        mask = membership_mask(candidates, table.column_array(column))
        keep = mask if keep is None else keep & mask
    if keep is None or keep.all():
        return table
    return MatchTable.from_array(table.columns, table.to_array()[keep])


def baseline_gather_machine_tables(
    cloud: MemoryCloud,
    plan: QueryPlan,
    exploration: ExplorationOutcome,
    machine_id: int,
) -> List[MatchTable]:
    """The pre-filtered gather for one machine: concatenate full tables."""
    machine_tables: List[MatchTable] = []
    for stwig_index in range(len(plan.stwigs)):
        local = exploration.tables[machine_id][stwig_index]
        if stwig_index == plan.head_index:
            machine_tables.append(local)
            continue
        parts = [local]
        for remote_machine in sorted(plan.load_set(machine_id, stwig_index)):
            remote = exploration.tables[remote_machine][stwig_index]
            if remote.row_count:
                cloud.metrics.record_result_transfer(
                    sender=remote_machine,
                    receiver=machine_id,
                    rows=remote.row_count,
                    row_width=remote.width,
                )
                parts.append(remote)
        if len(parts) == 1:
            machine_tables.append(local)
        else:
            combined = np.concatenate([part.to_array() for part in parts], axis=0)
            machine_tables.append(MatchTable.from_array(local.columns, combined))
    return machine_tables


def baseline_assemble_results(
    cloud: MemoryCloud,
    plan: QueryPlan,
    exploration: ExplorationOutcome,
    result_limit: Optional[int] = None,
):
    """The pre-filtered-gather join phase: ship everything, filter after.

    Every receiver concatenates the *full* remote tables (charging the full
    shipping) and only then applies the binding filter — a binary-search
    mask pass per column, re-derived per receiver — to each gathered
    table.  This per-receiver copy-and-scan floor is what the filtered
    gather removes.
    """
    query = plan.query
    final_columns = query.nodes()
    final = MatchTable(final_columns)
    if exploration.empty:
        return final
    config = plan.config
    probe_limit = None if result_limit is None else result_limit + 1
    for machine_id in range(cloud.machine_count):
        remaining = None if probe_limit is None else probe_limit - final.row_count
        if remaining is not None and remaining <= 0:
            break
        machine_tables = baseline_gather_machine_tables(
            cloud, plan, exploration, machine_id
        )
        if config.use_final_binding_filter:
            machine_tables = [
                baseline_filter_by_bindings(table, exploration.bindings)
                for table in machine_tables
            ]
        if any(table.row_count == 0 for table in machine_tables):
            continue
        joined = multiway_join(
            machine_tables,
            row_limit=remaining,
            block_size=config.block_size,
            sample_size=config.sample_size,
            rng=config.seed,
        )
        if joined.row_count == 0:
            continue
        normalized = joined.reorder(final_columns)
        take = (
            normalized.row_count
            if remaining is None
            else min(normalized.row_count, remaining)
        )
        final.add_rows(normalized.to_array()[:take])
    if result_limit is not None and final.row_count > result_limit:
        final.truncate(result_limit)
    return final


# --------------------------------------------------------------------------
# Benchmark driver
# --------------------------------------------------------------------------


def timed(fn, repeats: int) -> Tuple[float, object]:
    """Best-of-``repeats`` wall time plus the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def canonical(rows) -> List[Tuple[int, ...]]:
    return sorted(tuple(row) for row in rows)


def tables_signature(tables: ExplorationTables) -> List[List[Tuple[int, ...]]]:
    return [[tuple(sorted(table.rows)) for table in machine] for machine in tables]


def verify_parity(cloud, plan, query) -> Tuple[ExplorationOutcome, Dict[str, int]]:
    """One instrumented run of each driver: equal tables, bindings, counters."""
    cloud.reset_metrics()
    baseline_tables, baseline_bindings = baseline_explore(cloud, plan)
    baseline_counters = cloud.metrics.snapshot()

    cloud.reset_metrics()
    outcome = array_explore(cloud, plan)
    array_counters = cloud.metrics.snapshot()

    if array_counters != baseline_counters:
        raise SystemExit(
            "COUNTER MISMATCH between set-based and array-native exploration: "
            f"{baseline_counters} vs {array_counters}"
        )
    if tables_signature(outcome.tables) != tables_signature(baseline_tables):
        raise SystemExit("ROW MISMATCH between set-based and array-native exploration")
    if outcome.bindings.bound_nodes() != baseline_bindings.bound_nodes():
        raise SystemExit("BINDING MISMATCH between set-based and array-native exploration")
    return outcome, array_counters


def run_exploration_comparison(quick: bool) -> Tuple[Dict[str, object], List[Dict[str, object]]]:
    node_count = 10_000 if quick else 100_000
    average_degree = 6.0
    # Few labels relative to nodes -> large binding sets, the regime where
    # the set<->array conversions and binary-search lookups used to dominate
    # the exploration loop (same labels-per-node ratio in both modes).
    label_density = 2e-3 if quick else 2e-4
    machine_count = 4
    query_sizes = (5,) if quick else (5, 6)
    seeds = range(3) if quick else range(6)
    repeats = 2 if quick else 3

    graph = generate_power_law(
        node_count, average_degree, label_density=label_density, seed=23
    )
    cloud = MemoryCloud.from_graph(graph, ClusterConfig(machine_count=machine_count))
    config = MatcherConfig(max_stwig_leaves=3)
    planner = QueryPlanner(cloud, config)

    per_query: List[Dict[str, object]] = []
    kept: List[Dict[str, object]] = []
    for size in query_sizes:
        for seed in seeds:
            query = dfs_query(graph, size, seed=seed)
            plan = planner.plan(query)
            outcome, counters = verify_parity(cloud, plan, query)

            baseline_seconds, _ = timed(lambda: baseline_explore(cloud, plan), repeats)
            array_seconds, outcome = timed(lambda: array_explore(cloud, plan), repeats)
            entry = {
                "query_size": size,
                "seed": seed,
                "stwigs": len(plan.stwigs),
                "stwig_result_rows": outcome.total_rows(),
                "binding_entries": sum(
                    len(values) for values in outcome.bindings.bound_nodes().values()
                ),
                "set_explore_seconds": round(baseline_seconds, 6),
                "array_explore_seconds": round(array_seconds, 6),
                "speedup": round(baseline_seconds / max(array_seconds, 1e-9), 2),
                "rows_equal": True,
                "counters_equal": True,
            }
            per_query.append(entry)
            kept.append({"plan": plan, "outcome": outcome, "entry": entry})

    baseline_total = sum(q["set_explore_seconds"] for q in per_query)
    array_total = sum(q["array_explore_seconds"] for q in per_query)
    report = {
        "workload": {
            "node_count": node_count,
            "average_degree": average_degree,
            "label_density": label_density,
            "machine_count": machine_count,
            "query_sizes": list(query_sizes),
            "seeds": len(list(seeds)),
            "max_stwig_leaves": config.max_stwig_leaves,
        },
        "per_query": per_query,
        "aggregate": {
            "queries": len(per_query),
            "set_explore_seconds": round(baseline_total, 4),
            "array_explore_seconds": round(array_total, 4),
            "speedup": round(baseline_total / max(array_total, 1e-9), 2),
        },
        "cloud": cloud,
    }
    return report, kept


def run_gather_comparison(
    cloud: MemoryCloud, kept: List[Dict[str, object]], quick: bool
) -> Dict[str, object]:
    """Filtered gather vs. ship-everything-then-filter on the fattest query."""
    repeats = 2 if quick else 3
    biggest = max(
        (item for item in kept if not item["outcome"].empty),
        key=lambda item: item["outcome"].total_rows(),
        default=None,
    )
    if biggest is None:
        return {}
    plan = biggest["plan"]
    outcome = biggest["outcome"]

    def run_new(limit=None):
        return assemble_results(cloud, plan, outcome, result_limit=limit)

    def run_old(limit=None):
        return baseline_assemble_results(cloud, plan, outcome, result_limit=limit)

    def gather_phase_old():
        tables = []
        for machine_id in range(cloud.machine_count):
            gathered = baseline_gather_machine_tables(cloud, plan, outcome, machine_id)
            tables.append(
                [baseline_filter_by_bindings(t, outcome.bindings) for t in gathered]
            )
        return tables

    def gather_phase_new():
        from repro.core.distributed import _gather_machine_tables

        cache: Dict[Tuple[int, int], MatchTable] = {}
        return [
            _gather_machine_tables(
                cloud, plan, outcome.tables, machine_id, outcome.bindings, cache
            )
            for machine_id in range(cloud.machine_count)
        ]

    # The gather phase in isolation: the copy-and-scan floor the filtered
    # gather attacks (every machine's R_k tables, no joins).
    gather_old_seconds, gather_old = timed(gather_phase_old, repeats)
    gather_new_seconds, gather_new = timed(gather_phase_new, repeats)
    for machine_old, machine_new in zip(gather_old, gather_new):
        for table_old, table_new in zip(machine_old, machine_new):
            if canonical(table_old.rows) != canonical(table_new.rows):
                raise SystemExit("GATHER MISMATCH between filtered and baseline path")

    # One full (unlimited) assemble each, for row verification only: the
    # full join is dominated by multiway_join (benchmarked head-to-head in
    # bench_join_engine.py), so its wall time says nothing about the gather.
    old_full = run_old()
    new_full = run_new()
    if canonical(new_full.table.rows) != canonical(old_full.rows):
        raise SystemExit("ROW MISMATCH between filtered-gather and baseline join")

    limit = 1024
    old_limited_seconds, old_limited = timed(lambda: run_old(limit), repeats)
    new_limited_seconds, new_limited = timed(lambda: run_new(limit), repeats)
    if new_limited.table.row_count != old_limited.row_count:
        raise SystemExit("LIMIT MISMATCH between filtered-gather and baseline join")

    cloud.reset_metrics()
    run_new()
    filtered_counters = cloud.metrics.snapshot()
    cloud.reset_metrics()
    run_old()
    baseline_counters = cloud.metrics.snapshot()
    shipped_invariant = (
        filtered_counters["result_rows_shipped"]
        + filtered_counters["result_rows_filtered"]
        == baseline_counters["result_rows_shipped"]
    )
    if not shipped_invariant:
        raise SystemExit("SHIPPING INVARIANT violated by the filtered gather")

    scaling = []
    for sweep_limit in (256, 1024, 4096):
        sweep_seconds, sweep = timed(lambda: run_new(sweep_limit), repeats)
        scaling.append(
            {
                "limit": sweep_limit,
                "rows": sweep.table.row_count,
                "filtered_gather_seconds": round(sweep_seconds, 6),
            }
        )

    return {
        "exploration_rows": outcome.total_rows(),
        "matches": old_full.row_count,
        "gather_phase": {
            "ship_then_filter_seconds": round(gather_old_seconds, 6),
            "filtered_gather_seconds": round(gather_new_seconds, 6),
            "speedup": round(gather_old_seconds / max(gather_new_seconds, 1e-9), 2),
        },
        "full_rows_equal": True,
        "limited": {
            "limit": limit,
            "rows": new_limited.table.row_count,
            "ship_then_filter_seconds": round(old_limited_seconds, 6),
            "filtered_gather_seconds": round(new_limited_seconds, 6),
            "speedup": round(old_limited_seconds / max(new_limited_seconds, 1e-9), 2),
        },
        "limit_scaling": scaling,
        "shipping": {
            "rows_shipped_baseline": baseline_counters["result_rows_shipped"],
            "rows_shipped_filtered": filtered_counters["result_rows_shipped"],
            "rows_filtered_sender_side": filtered_counters["result_rows_filtered"],
            "invariant_shipped_plus_filtered_equals_baseline": True,
        },
    }


def run_cross_validation(quick: bool) -> Dict[str, object]:
    """Engine answers (array-native exploration) vs VF2 on small graphs."""
    cases = 0
    for seed in range(3 if quick else 6):
        graph = generate_gnm(80, 220, label_count=3, seed=seed)
        cloud = MemoryCloud.from_graph(graph, ClusterConfig(machine_count=3))
        matcher = SubgraphMatcher(cloud)
        for size in (3, 4):
            query = dfs_query(graph, size, seed=seed + 100)
            expected = canonical(
                tuple(match[node] for node in query.nodes())
                for match in vf2_match(graph, query)
            )
            got = canonical(matcher.match(query).rows)
            if got != expected:
                raise SystemExit(
                    f"VF2 MISMATCH on gnm seed={seed} size={size}: "
                    f"{len(got)} engine vs {len(expected)} VF2 matches"
                )
            cases += 1
    return {"cases": cases, "all_equal": True}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_report_arguments(parser)
    args = parser.parse_args(argv)

    report, kept = run_exploration_comparison(quick=args.quick)
    cloud = report.pop("cloud")
    report["gather"] = run_gather_comparison(cloud, kept, quick=args.quick)
    report["cross_validation"] = run_cross_validation(quick=args.quick)
    report["mode"] = "quick" if args.quick else "full"

    aggregate = report["aggregate"]
    print(
        f"exploration phase over {aggregate['queries']} queries: "
        f"set-based {aggregate['set_explore_seconds']}s vs "
        f"array-native {aggregate['array_explore_seconds']}s "
        f"-> {aggregate['speedup']}x (rows + counters identical)"
    )
    if report["gather"]:
        gather = report["gather"]
        print(
            f"gather on {gather['matches']}-match query: gather phase "
            f"{gather['gather_phase']['ship_then_filter_seconds']}s -> "
            f"{gather['gather_phase']['filtered_gather_seconds']}s "
            f"({gather['gather_phase']['speedup']}x); limit=1024 assemble "
            f"{gather['limited']['ship_then_filter_seconds']}s -> "
            f"{gather['limited']['filtered_gather_seconds']}s "
            f"({gather['limited']['speedup']}x); "
            f"{gather['shipping']['rows_filtered_sender_side']} rows filtered "
            "before shipping"
        )
    print(f"cross-validation vs VF2: {report['cross_validation']['cases']} cases equal")

    save_report(report, RESULTS_PATH, no_save=args.no_save, out=args.out)

    if aggregate["speedup"] < 2.0 and not args.quick:
        print("WARNING: exploration speedup below 2x target", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
