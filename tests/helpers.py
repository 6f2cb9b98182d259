"""Shared test helpers: canonical graphs/queries/clouds + match comparison.

Many test modules used to hand-roll the same small labeled graphs, query
shapes, and cloud configurations inline.  The factories here are the single
source for those fixtures:

* :func:`stwig_example_graph` / :func:`stwig_example_query` — the canonical
  two-root STwig example used by the matcher tests;
* :func:`path_graph` / :func:`path_cloud` — an n-node path striped across
  machines (exploration / locality tests);
* :func:`hub_graph` / :func:`star_of` — one hub with many same-label
  spokes and the star STwig over it (row-constructor volume tests);
* :func:`seeded_graph` / :func:`seeded_power_law_graph` — deterministic
  random graphs for cross-validation against the baselines;
* :func:`canonical_queries` — a deterministic batch of DFS + random query
  shapes for a given graph;
* :func:`make_cloud` — a `MemoryCloud` with the given machine count;
* :func:`counter_snapshot` — a full ``CloudMetrics.snapshot()`` dict with
  the given counters set and every other one zero;
* :func:`batch_has_label` — batched ``Index.hasLabel`` over the matcher's
  cloud operators, charged like per-node probes;
* :func:`load_neighbors_batch` — ``MemoryCloud.load_cells`` over one
  machine's cells, issued by any requester;
* :func:`injective_products` / :func:`nested_loop_stwig_rows` — the
  nested-loop STwig row builder, the matcher's row-for-row reference;
* :func:`injective_mask` / :func:`oracle_join` — the row-sort injectivity
  mask and an unbudgeted bucket join, the join's row-for-row reference
  (:func:`pair_join` spells the two-table case of the real join);
* :func:`assert_same_image` — two clouds hold the same columns, label
  pairs and counts, values and dtypes;
* :func:`memmapped_columns` — which of a cloud's image columns are
  ``np.memmap`` views of a snapshot file (the rest live in RAM);
* :func:`write_raw_snapshot` — a snapshot directory of any layout, written
  unchecked (the older writers' stand-in);
* :func:`write_graph_only_snapshot` — a snapshot directory of the retired
  graph-only kind, as its writer laid it out;
* :func:`write_older_cloud_snapshot` — a cloud snapshot as the writer that
  kept a ``track_label_pairs`` flag laid it out: with ``labelpairs/i_i``
  arrays, or (untracked) with no keys at all;
* :func:`bound_set` — a query node's binding array as a set, for
  assertions that do not care about order;
* :func:`oracle_replay` — delta-log replay by rebuilding the whole graph
  (expand, concatenate, ``from_arrays``), the splice's column-for-column
  reference;
* :func:`generate_power_law_scalar` / :func:`generate_rmat_scalar` /
  :func:`generate_gnm_scalar` — the original one-draw-per-edge samplers, the
  vectorized generators' seeded degree/label-distribution reference
  (:func:`power_law_weights` is the Chung–Lu sampler's weight list);
* :func:`csr_from_cells` / :func:`machine_from_cells` — CSR columns and a
  standalone `Machine` owning hand-written cells;
* :func:`local_node_ids` — the nodes one machine of a cloud owns;
* :func:`v2_partition_arrays` — a cloud's image in the version 2 snapshot
  layout (per-machine CSR partitions, no global adjacency);
* :func:`domain_graph` / :func:`installed_cloud` — a graph moved onto one
  of the :data:`NODE_ID_DOMAINS` and a cloud installed along one of the
  :data:`INSTALL_PATHS`, the node-lookup tests' inputs.
* :func:`traced` — what a call allocates, held and at its peak, under
  ``tracemalloc`` (the memory-bound tests' one instrument).

All randomness is seed-parameterized, never global.
"""

from __future__ import annotations

import tracemalloc
from itertools import product
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.cloud.metrics import CloudMetrics
from repro.cloud.machine import Machine
from repro.core.join import multiway_join
from repro.core.stwig import STwig
from repro.errors import GraphError, StorageError
from repro.graph.label_table import LabelTable
from repro.graph.labeled_graph import (
    LABEL_DTYPE,
    NODE_DTYPE,
    OFFSET_DTYPE,
    LabeledGraph,
)
from repro.graph.generators.erdos_renyi import generate_gnm
from repro.graph.generators.labels import (
    assign_uniform_labels,
    assign_zipf_labels,
    label_count_for_density,
    make_label_collection,
)
from repro.graph.generators.power_law import generate_power_law, power_law_weight_array
from repro.graph.generators.rmat import RmatParameters
from repro.graph.generators.sampling import SAMPLING_BUDGET
from repro.graph.partition import MACHINE_DTYPE, RoundRobinPartitioner
from repro.graph.stats import GenerationReport, attach_generation_report
from repro.query.generators import dfs_query, random_query_from_graph
from repro.query.query_graph import QueryGraph
from repro.storage.delta import DeltaLog
from repro.storage.provider import MmapColumnWriter
from repro.storage.snapshot import SNAPSHOT_FORMAT, write_snapshot
from repro.utils.rng import ensure_rng

# -- match-set comparison --------------------------------------------------


def normalize_matches(matches: Iterable[Dict[str, int]]) -> List[tuple]:
    """Canonical, order-independent form of a list of assignments."""
    return sorted(tuple(sorted(match.items())) for match in matches)


def frozen_matches(matches: Iterable[Dict[str, int]]) -> frozenset:
    """Matches as a frozenset of frozen assignment dicts (order-free)."""
    return frozenset(frozenset(match.items()) for match in matches)


def assert_same_matches(actual: Iterable[Dict[str, int]], expected: Iterable[Dict[str, int]]) -> None:
    """Assert two match lists contain exactly the same assignments."""
    actual_normalized = normalize_matches(actual)
    expected_normalized = normalize_matches(expected)
    assert actual_normalized == expected_normalized, (
        f"match sets differ: {len(actual_normalized)} vs {len(expected_normalized)} rows"
    )


def assert_same_array(actual, expected, what) -> None:
    """Assert two arrays agree in dtype and in every value."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype, f"{what}: {actual.dtype} vs {expected.dtype}"
    assert np.array_equal(actual, expected), f"{what}: {actual} vs {expected}"


def assert_same_image(actual: MemoryCloud, expected: MemoryCloud) -> None:
    """Assert two clouds hold the same image: every column (values and
    dtypes), the packed label pairs, the counts and the label table."""
    actual_columns, expected_columns = actual.columns(), expected.columns()
    assert list(actual_columns) == list(expected_columns)
    for name, column in actual_columns.items():
        assert_same_array(column, expected_columns[name], name)
    actual_base, actual_pairs = actual.packed_label_pairs()
    expected_base, expected_pairs = expected.packed_label_pairs()
    assert actual_base == expected_base
    assert sorted(actual_pairs) == sorted(expected_pairs)
    for pair, keys in actual_pairs.items():
        assert_same_array(keys, expected_pairs[pair], f"labelpairs/{pair}")
    assert actual.edge_count == expected.edge_count
    assert actual.node_count == expected.node_count
    assert actual.label_table.labels() == expected.label_table.labels()


def memmapped_columns(cloud: MemoryCloud) -> set:
    """Names of ``cloud``'s image columns that are ``np.memmap`` views.

    A clean snapshot open adopts the file's views for every (nonempty)
    column; a merged delta log, a graph-only snapshot's partition map and
    any ``load_graph`` put columns in RAM.
    """
    return {
        name for name, column in cloud.columns().items() if isinstance(column, np.memmap)
    }


def write_raw_snapshot(directory, arrays: Dict[str, np.ndarray], **doc) -> Path:
    """``arrays`` plus a manifest of ``doc``'s fields (version 1 and
    generation 1 unless ``doc`` says otherwise), written with no check of
    the layout: how the tests lay out snapshots of older writers."""
    import json

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    with MmapColumnWriter(directory / "columns.bin") as writer:
        for name, array in arrays.items():
            spec = writer.publish(np.asarray(array))
            entries.append({"name": name, "offset": spec.offset,
                            "shape": list(spec.shape), "dtype": spec.dtype})
        for entry, crc in zip(entries, writer.checksums()):
            entry["crc32"] = crc
    doc = {
        "format": SNAPSHOT_FORMAT, "version": 1, "generation": 1,
        "created_unix": 0.0, "data_file": "columns.bin", "arrays": entries, **doc,
    }
    (directory / "manifest.json").write_text(json.dumps(doc))
    return directory


def write_graph_only_snapshot(graph: LabeledGraph, directory):
    """``graph`` as the retired graph-only writer laid it out: the four
    ``graph/*`` CSR columns and a manifest without a cloud section."""
    arrays = {
        "graph/node_ids": graph.node_id_array(),
        "graph/label_ids": graph.label_id_array(),
        "graph/offsets": graph.offset_array(),
        "graph/neighbors": graph.neighbor_array(),
    }
    return write_raw_snapshot(
        directory, arrays, version=2, node_count=graph.node_count,
        edge_count=graph.edge_count, labels=list(graph.label_table.labels()),
    )


def write_older_cloud_snapshot(
    graph: LabeledGraph, directory, machine_count: int, *, track_label_pairs: bool = True
):
    """``graph`` on ``machine_count`` hash-placed machines, saved as the
    writer that kept a ``track_label_pairs`` flag laid it out.

    Tracked, it stored the keys of every machine pair ``i <= j``: the
    ``labelpairs/i_i`` arrays hold each machine's own edges' label pairs.
    Untracked, it stored no keys and a base of 1.  Either way the image
    columns are the ones a cloud saves today.
    """
    cloud = MemoryCloud.from_graph(graph, ClusterConfig(machine_count=machine_count))
    arrays = cloud.columns()
    base, pairs = cloud.packed_label_pairs() if track_label_pairs else (1, {})
    if track_label_pairs:
        sources = np.repeat(graph.node_id_array(), np.diff(graph.offset_array()))
        targets = graph.neighbor_array()
        owners = cloud.owners_of_array(sources)
        same = owners == cloud.owners_of_array(targets)
        label_ids = graph.label_id_array()
        source_labels = label_ids[np.searchsorted(graph.node_id_array(), sources)]
        target_labels = label_ids[np.searchsorted(graph.node_id_array(), targets)]
        for machine in range(machine_count):
            mine = same & (owners == machine)
            low = np.minimum(source_labels[mine], target_labels[mine]).astype(np.int64)
            high = np.maximum(source_labels[mine], target_labels[mine])
            keys = np.unique(low * base + high)
            if len(keys):
                pairs[(machine, machine)] = keys
    for (low, high), keys in sorted(pairs.items()):
        arrays[f"labelpairs/{low}_{high}"] = keys
    write_snapshot(
        directory,
        arrays,
        node_count=cloud.node_count,
        edge_count=cloud.edge_count,
        labels=cloud.label_table.labels(),
        cloud={
            "machine_count": machine_count,
            "partitioner": "hash",
            "track_label_pairs": track_label_pairs,
            "label_pair_base": base,
            "label_pairs": [list(pair) for pair in sorted(pairs)],
        },
        id_map=cloud.id_map,
    )
    return directory


def bound_set(bindings, node: str):
    """The binding of ``node`` as a set of Python ints (``None`` when unbound)."""
    array = bindings.candidates_array(node)
    return None if array is None else set(array.tolist())


# -- the nested-loop STwig row builder (reference) --------------------------


def injective_products(slots: List[List[int]]):
    """Yield tuples drawing one value per slot with all values distinct.

    STwig leaves are distinct query nodes, so the subgraph-isomorphism
    bijection forbids assigning the same data node to two of them.
    """
    if not slots:
        yield ()
        return
    for combination in product(*slots):
        if len(set(combination)) == len(combination):
            yield combination


def nested_loop_stwig_rows(
    roots: Sequence[int], slots_per_root: Sequence[List[List[int]]]
) -> List[tuple]:
    """STwig rows by plain nested loops: roots in order, first slot slowest.

    ``slots_per_root[i]`` holds root ``i``'s candidate list for every leaf.
    The order of this list is the order the matcher must reproduce, so
    every row-limit prefix is pinned by it.
    """
    return [
        (root, *assignment)
        for root, slots in zip(roots, slots_per_root)
        for assignment in injective_products(slots)
        if root not in assignment
    ]


# -- the row-sort-mask join (reference) --------------------------------------


def injective_mask(rows: np.ndarray) -> np.ndarray:
    """Mask of rows whose values are pairwise distinct (row-wise sort + compare).

    The join's injectivity filter until it learned which column pairs can
    collide; kept here as the oracle for the pair masks.
    """
    if rows.shape[1] <= 1:
        return np.ones(len(rows), dtype=bool)
    ranked = np.sort(rows, axis=1)
    return (ranked[:, 1:] != ranked[:, :-1]).all(axis=1)


def pair_join(left, right, **kwargs):
    """``left`` joined with ``right`` through the one join: probe left, build right."""
    return multiway_join([left, right], order=[0, 1], **kwargs)


def oracle_join(tables, order: Sequence[int], columns=None) -> np.ndarray:
    """The unlimited join of ``tables`` in ``order``, as ``multiway_join`` must emit it.

    Stage by stage: every (partial row, stage row) pair whose shared columns
    agree, partial-major with stage rows in table order; the lead's rows and
    every stage's output pass :func:`injective_mask` over the *whole* row,
    which drops repeated nodes (a one-table join included).  Any row limit
    is a prefix of the returned array.
    """
    lead = tables[order[0]]
    names = list(lead.columns)
    rows = lead.to_array()
    rows = rows[injective_mask(rows)]
    for index in order[1:]:
        table = tables[index]
        build = table.to_array()
        shared = [column for column in names if column in table.columns]
        extra = [column for column in table.columns if column not in shared]
        buckets: Dict[tuple, List[int]] = {}
        build_keys = build[:, [table.columns.index(column) for column in shared]]
        for position, key in enumerate(map(tuple, build_keys.tolist())):
            buckets.setdefault(key, []).append(position)
        probe_keys = rows[:, [names.index(column) for column in shared]]
        pairs = [
            (probe, match)
            for probe, key in enumerate(map(tuple, probe_keys.tolist()))
            for match in buckets.get(key, ())
        ]
        probe_idx = np.array([pair[0] for pair in pairs], dtype=np.int64)
        build_idx = np.array([pair[1] for pair in pairs], dtype=np.int64)
        extra_idx = [table.columns.index(column) for column in extra]
        rows = np.concatenate([rows[probe_idx], build[build_idx][:, extra_idx]], axis=1)
        rows = rows[injective_mask(rows)]
        names.extend(extra)
    if columns is not None:
        rows = rows[:, [names.index(column) for column in columns]]
    return rows


# -- the rebuild replay (reference) ------------------------------------------


def oracle_replay(base: LabeledGraph, records) -> LabeledGraph:
    """``records`` replayed over ``base`` by rebuilding the graph from scratch.

    The replay the storage layer ran until it became a splice into the
    image: the CSR expanded back to an edge list, the log concatenated,
    everything re-sorted through the bulk loader (which collapses duplicate
    edges and rejects self-loops and unlabeled endpoints).  O(graph) per
    call, which is why it lives here.
    """
    if not records:
        return base
    node_ids = np.asarray(base.node_id_array())
    label_ids = np.array(base.label_id_array(), dtype=LABEL_DTYPE)
    table = LabelTable(base.label_table.labels())

    added: dict = {}  # id -> label_id, later records win
    edge_sources: List[int] = []
    edge_targets: List[int] = []
    for record in records:
        if record.op == "edge":
            edge_sources.append(record.node_id)
            edge_targets.append(record.other)
            continue
        label_id = table.intern(record.label)
        row = int(np.searchsorted(node_ids, record.node_id))
        if row < len(node_ids) and int(node_ids[row]) == record.node_id:
            label_ids[row] = label_id
        else:
            added[record.node_id] = label_id

    all_ids = np.concatenate(
        (node_ids, np.fromiter(added.keys(), dtype=NODE_DTYPE, count=len(added)))
    )
    all_labels = np.concatenate(
        (
            label_ids,
            np.fromiter(added.values(), dtype=LABEL_DTYPE, count=len(added)),
        )
    )
    counts = np.diff(base.offset_array())
    neighbors = base.neighbor_array()
    sources = np.repeat(node_ids, counts)
    forward = sources < neighbors
    src = np.concatenate(
        (sources[forward], np.asarray(edge_sources, dtype=NODE_DTYPE))
    )
    dst = np.concatenate(
        (neighbors[forward], np.asarray(edge_targets, dtype=NODE_DTYPE))
    )
    try:
        return LabeledGraph.from_arrays(table, all_ids, all_labels, src, dst)
    except GraphError as error:
        raise StorageError(f"delta log replay failed: {error}")


# -- the per-edge generators (reference) --------------------------------------


def _rejection_sampled(model: str, node_labels, target_edges: int, draw_edge) -> LabeledGraph:
    """``target_edges`` distinct non-loop edges, one ``draw_edge()`` and one
    set probe per candidate, under the vectorized samplers' retry budget."""
    seen: set = set()
    attempts = rejected_loops = rejected_duplicates = 0
    while len(seen) < target_edges and attempts < target_edges * SAMPLING_BUDGET:
        attempts += 1
        u, v = draw_edge()
        if u == v:
            rejected_loops += 1
            continue
        key = (u, v) if u < v else (v, u)
        if key in seen:
            rejected_duplicates += 1
            continue
        seen.add(key)
    return attach_generation_report(
        LabeledGraph.from_edges(node_labels, seen),
        GenerationReport(
            model=model,
            target_edges=target_edges,
            achieved_edges=len(seen),
            sampling_rounds=attempts,
            rejected_self_loops=rejected_loops,
            rejected_duplicates=rejected_duplicates,
        ),
    )


def power_law_weights(node_count: int, exponent: float, average_degree: float) -> List[float]:
    """List view of the generator's expected-degree weights, the scalar
    sampler's input."""
    return power_law_weight_array(node_count, exponent, average_degree).tolist()


def generate_power_law_scalar(
    node_count: int,
    average_degree: float,
    exponent: float = 2.5,
    label_density: float = 1e-2,
    label_skew: float = 1.0,
    seed=None,
) -> LabeledGraph:
    """The original per-edge Chung–Lu sampler: one bisection over the
    cumulative weights per endpoint."""
    rng = ensure_rng(seed)
    weights = power_law_weights(node_count, exponent, average_degree)
    total_weight = sum(weights)
    cumulative: List[float] = []
    acc = 0.0
    for weight in weights:
        acc += weight / total_weight
        cumulative.append(acc)

    def sample_node() -> int:
        x = rng.random()
        lo, hi = 0, node_count - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cumulative[mid] < x:
                lo = mid + 1
            else:
                hi = mid
        return lo

    labels = make_label_collection(label_count_for_density(node_count, label_density))
    node_labels = assign_zipf_labels(range(node_count), labels, exponent=label_skew, seed=rng)
    target_edges = max(1, round(node_count * average_degree / 2))
    return _rejection_sampled(
        "chung-lu-scalar", node_labels, target_edges, lambda: (sample_node(), sample_node())
    )


def generate_rmat_scalar(
    node_count: int, average_degree: float, label_density: float = 1e-3, seed=None
) -> LabeledGraph:
    """The original per-edge R-MAT sampler: one ``rng.random()`` per
    recursion level per endpoint pair."""
    params = RmatParameters()
    rng = ensure_rng(seed)
    scale = max(1, (node_count - 1).bit_length())
    ab = params.a + params.b
    abc = ab + params.c

    def rmat_edge() -> Tuple[int, int]:
        u = v = 0
        for _ in range(scale):
            u <<= 1
            v <<= 1
            r = rng.random()
            if r < params.a:
                pass
            elif r < ab:
                v |= 1
            elif r < abc:
                u |= 1
            else:
                u |= 1
                v |= 1
        return u % node_count, v % node_count

    labels = make_label_collection(label_count_for_density(node_count, label_density))
    node_labels = assign_uniform_labels(range(node_count), labels, seed=rng)
    target_edges = max(1, round(node_count * average_degree / 2))
    return _rejection_sampled("rmat-scalar", node_labels, target_edges, rmat_edge)


def generate_gnm_scalar(
    node_count: int, edge_count: int, label_count: int = 5, seed=None
) -> LabeledGraph:
    """The original per-edge G(n, m) rejection sampler."""
    rng = ensure_rng(seed)
    max_edges = node_count * (node_count - 1) // 2
    edge_count = min(edge_count, max_edges)
    node_labels = assign_uniform_labels(
        range(node_count), make_label_collection(label_count), seed=rng
    )
    seen: set = set()
    if node_count > 1 and edge_count > max_edges // 2:
        all_pairs = [(u, v) for u in range(node_count) for v in range(u + 1, node_count)]
        rng.shuffle(all_pairs)
        seen.update(all_pairs[:edge_count])
    else:
        while len(seen) < edge_count:
            u = rng.randrange(node_count)
            v = rng.randrange(node_count)
            if u != v:
                seen.add((u, v) if u < v else (v, u))
    return attach_generation_report(
        LabeledGraph.from_edges(node_labels, seen),
        GenerationReport(model="gnm-scalar", target_edges=edge_count, achieved_edges=len(seen)),
    )


# -- canonical small graphs/queries ----------------------------------------


def stwig_example_graph() -> LabeledGraph:
    """Small graph with known STwig matches: two 'a' roots, shared children."""
    labels = {
        1: "a", 2: "a",
        10: "b", 11: "b",
        20: "c",
        30: "d",
    }
    edges = [
        (1, 10), (1, 20),
        (2, 10), (2, 11), (2, 20),
        (10, 20),
        (20, 30),
    ]
    return LabeledGraph.from_edges(labels, edges)


def stwig_example_query() -> QueryGraph:
    """The query shape exercised against :func:`stwig_example_graph`."""
    return QueryGraph(
        {"qa": "a", "qb": "b", "qc": "c", "qd": "d"},
        [("qa", "qb"), ("qa", "qc"), ("qc", "qd")],
    )


def triangle_tail_query() -> QueryGraph:
    """Triangle a-b-c with a d tail hanging off c (two matches in the tiny graph)."""
    return QueryGraph(
        {"qa": "a", "qb": "b", "qc": "c", "qd": "d"},
        [("qa", "qb"), ("qa", "qc"), ("qb", "qc"), ("qc", "qd")],
    )


def hub_graph(spokes: int) -> LabeledGraph:
    """Node 0 (label ``hub``) joined to ``spokes`` nodes of label ``x``."""
    labels = {0: "hub", **{node: "x" for node in range(1, spokes + 1)}}
    return LabeledGraph.from_edges(labels, [(0, node) for node in range(1, spokes + 1)])


def star_of(leaf_count: int) -> Tuple[QueryGraph, STwig]:
    """The star query (and its one STwig) matching :func:`hub_graph`'s hub."""
    leaves = tuple(f"l{i}" for i in range(leaf_count))
    query = QueryGraph(
        {"r": "hub", **{leaf: "x" for leaf in leaves}},
        [("r", leaf) for leaf in leaves],
    )
    return query, STwig("r", leaves)


def path_graph(length: int = 6, label: str = "n") -> LabeledGraph:
    """A path 0-1-...-(length-1) with a single label."""
    labels = {i: label for i in range(length)}
    edges = [(i, i + 1) for i in range(length - 1)]
    return LabeledGraph.from_edges(labels, edges)


# -- seeded random graphs --------------------------------------------------


def seeded_graph(
    seed: int, nodes: int = 70, edges: int = 180, labels: int = 4
) -> LabeledGraph:
    """Deterministic G(n, m) random graph for cross-validation tests."""
    return generate_gnm(nodes, edges, label_count=labels, seed=seed)


def seeded_power_law_graph(
    seed: int, nodes: int = 150, average_degree: float = 5.0
) -> LabeledGraph:
    """Deterministic power-law graph for cross-validation tests."""
    return generate_power_law(
        nodes, average_degree, label_density=0.05, seed=seed
    )


def canonical_queries(
    graph: LabeledGraph, seed: int, dfs_sizes: Iterable[int] = (3, 4, 5)
) -> List[QueryGraph]:
    """A deterministic batch of DFS + random queries over ``graph``."""
    queries = [dfs_query(graph, size, seed=seed + size) for size in dfs_sizes]
    queries.append(random_query_from_graph(graph, 4, 5, seed=seed))
    return queries


# -- clouds ----------------------------------------------------------------


def make_cloud(
    graph: LabeledGraph, machine_count: int = 1, **cluster_kwargs
) -> MemoryCloud:
    """Load ``graph`` into a fresh cloud with ``machine_count`` machines."""
    return MemoryCloud.from_graph(
        graph, ClusterConfig(machine_count=machine_count, **cluster_kwargs)
    )


def counter_snapshot(**counts: int) -> Dict[str, int]:
    """``CloudMetrics.snapshot()`` with ``counts`` set and every other counter 0."""
    snapshot = CloudMetrics().snapshot()
    assert set(counts) <= set(snapshot), sorted(set(counts) - set(snapshot))
    return {**snapshot, **counts}


def batch_has_label(
    cloud: MemoryCloud, node_ids: np.ndarray, label: str, requester: int
) -> np.ndarray:
    """Batched ``Index.hasLabel``: a boolean mask over ``node_ids``.

    Spelled with the matcher's operators (``labels_and_owners`` +
    ``charge_label_probes``): one probe is charged per ID against its
    owner, exactly as that many per-node ``has_label`` calls would be.  An
    ID that is no node raises ``PartitionError`` before anything is charged.
    """
    cloud.owners_of_array(node_ids)
    labels, owners = cloud.labels_and_owners(node_ids)
    cloud.charge_label_probes(requester, owners)
    # A never-interned label (-1) matches no node's label (>= 0).
    return labels == cloud.label_table.id_of(label)


def load_neighbors_batch(
    cloud: MemoryCloud, node_ids: np.ndarray, requester: int, owner: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched ``Cloud.Load`` of cells stored on machine ``owner``, each
    requested by ``requester``: ``MemoryCloud.load_cells`` over one range."""
    cuts = np.where(np.arange(cloud.machine_count + 1) > owner, len(node_ids), 0)
    return cloud.load_cells(node_ids, cuts, requester)


def striped_path_cloud(length: int = 6, machine_count: int = 3) -> MemoryCloud:
    """A path graph striped round-robin so consecutive nodes alternate machines."""
    return MemoryCloud.from_graph(
        path_graph(length),
        ClusterConfig(machine_count=machine_count, partitioner=RoundRobinPartitioner()),
    )


# -- standalone machines --------------------------------------------------


def csr_from_cells(
    cells: Iterable[Tuple[int, str, Tuple[int, ...]]]
) -> Tuple[LabelTable, Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """``(label table, (ids, label_ids, offsets, neighbors))`` of some cells.

    Builds the CSR columns cell by cell (sorted by node ID) — independent of
    the cloud loader's vectorized gather, so it doubles as its oracle.
    """
    ordered = sorted(cells)
    table = LabelTable()
    label_ids = [table.intern(label) for _, label, _ in ordered]
    offsets = np.zeros(len(ordered) + 1, dtype=OFFSET_DTYPE)
    np.cumsum([len(neighbors) for _, _, neighbors in ordered], out=offsets[1:])
    flat = [neighbor for _, _, neighbors in ordered for neighbor in neighbors]
    return table, (
        np.array([node_id for node_id, _, _ in ordered], dtype=NODE_DTYPE),
        np.array(label_ids, dtype=LABEL_DTYPE),
        offsets,
        np.array(flat, dtype=NODE_DTYPE),
    )


def machine_from_cells(
    machine_id: int, cells: Iterable[Tuple[int, str, Tuple[int, ...]]]
) -> Machine:
    """A :class:`Machine` owning every one of ``(node_id, label, neighbors)``
    cells: their CSR as the image, all placed on ``machine_id``."""
    table, (ids, label_ids, offsets, neighbors) = csr_from_cells(cells)
    columns = {
        "graph/node_ids": ids,
        "graph/label_ids": label_ids,
        "graph/offsets": offsets,
        "graph/neighbors": neighbors,
        "assignment/machines": np.full(len(ids), machine_id, dtype=MACHINE_DTYPE),
    }
    return Machine(machine_id, columns, table)


def local_node_ids(cloud: MemoryCloud, machine_id: int) -> np.ndarray:
    """The sorted IDs of the nodes ``machine_id`` owns, off the image's
    partition map."""
    columns = cloud.columns()
    return columns["graph/node_ids"][columns["assignment/machines"] == machine_id]


def v2_partition_arrays(cloud: MemoryCloud) -> Dict[str, np.ndarray]:
    """``cloud``'s image as a version 2 snapshot stored it: per machine, the
    CSR partition of its owned rows (``machine{i}/node_ids|label_ids|
    offsets|neighbors``), beside the node, label and partition-map columns.

    Gathered row by row from the per-node oracle, independent of the
    snapshot reader's vectorized scatter.
    """
    columns = cloud.columns()
    arrays = {
        name: columns[name]
        for name in ("graph/node_ids", "graph/label_ids", "assignment/machines")
    }
    owners = columns["assignment/machines"]
    for machine in cloud.machines:
        local = owners == machine.machine_id
        ids = columns["graph/node_ids"][local]
        cells = [machine.neighbor_slice(node) for node in ids.tolist()]
        offsets = np.zeros(len(cells) + 1, dtype=OFFSET_DTYPE)
        np.cumsum([len(cell) for cell in cells], out=offsets[1:])
        prefix = f"machine{machine.machine_id}/"
        arrays[prefix + "node_ids"] = ids
        arrays[prefix + "label_ids"] = columns["graph/label_ids"][local]
        arrays[prefix + "offsets"] = offsets
        arrays[prefix + "neighbors"] = (
            np.concatenate(cells) if cells else np.empty(0, dtype=NODE_DTYPE)
        )
    return arrays



# -- node-ID domains and install paths --------------------------------------

#: The node-ID domains a cloud must resolve alike: ``0..n-1`` (every
#: generator), ``3k + 1`` (gapped, yet dense enough for a position table)
#: and sorted random 62-bit IDs (binary search).
NODE_ID_DOMAINS = ("contiguous", "gapped", "sparse")

#: The ways an image reaches a cloud (see :func:`installed_cloud`).
INSTALL_PATHS = ("from_graph", "snapshot", "grown", "resized")


def domain_graph(graph: LabeledGraph, domain: str) -> LabeledGraph:
    """``graph`` (node IDs ``0..n-1``) with its IDs mapped, in order, onto
    ``domain``; the CSR columns keep their shape."""
    count = graph.node_count
    assert np.array_equal(graph.node_id_array(), np.arange(count))
    if domain == "contiguous":
        ids = np.arange(count, dtype=NODE_DTYPE)
    elif domain == "gapped":
        ids = 3 * np.arange(count, dtype=NODE_DTYPE) + 1
    else:
        draws = np.random.default_rng(62).integers(0, 2**62, size=count, dtype=NODE_DTYPE)
        ids = np.sort(draws)
        assert (ids[1:] > ids[:-1]).all()
    return LabeledGraph(
        graph.label_table,
        ids,
        graph.label_id_array(),
        graph.offset_array(),
        ids[graph.neighbor_array()],
        graph.edge_count,
    )


def installed_cloud(
    graph: LabeledGraph, path: str, directory, machine_count: int = 4
) -> MemoryCloud:
    """``graph`` in a ``machine_count``-machine cloud, installed along ``path``.

    ``from_graph`` partitions it in memory; ``snapshot`` saves it to
    ``directory`` and reopens it; ``grown`` reopens it with a delta log that
    adds two labeled nodes past the largest ID (a gap on every domain) and
    three edges; ``resized`` reopens it at one machine fewer.
    """
    cloud = MemoryCloud.from_graph(graph, ClusterConfig(machine_count=machine_count))
    if path == "from_graph":
        return cloud
    directory = Path(directory)
    cloud.save_snapshot(directory)
    if path == "grown":
        first, second = graph.node_id_array()[:2].tolist()
        top = int(graph.node_id_array()[-1])
        log = DeltaLog(directory)
        log.append_nodes([(top + 2, graph.label(first)), (top + 9, graph.label(second))])
        log.append_edges([(top + 2, first), (top + 9, second), (top + 2, top + 9)])
    if path == "resized":
        return MemoryCloud.open_snapshot(
            directory, ClusterConfig(machine_count=machine_count - 1)
        )
    return MemoryCloud.open_snapshot(directory)


def traced(build: Callable[[], object]) -> Tuple[object, int, int]:
    """``(value, held, peak)``: ``build()``'s value, and the bytes Python
    allocations made during the call that are still live after it (what
    the value keeps) and at their peak, as ``tracemalloc`` counts them."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        value = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, held - before, peak - before
