"""Workload generator: graphs, queries and delta edges for the four workloads.

**What ``--seed`` controls, and what it does not.**  The *structure* of every
workload — the power-law graph and the query patterns — is generated from
the fixed :data:`DATASET_SEED`, like the fixed real datasets of the paper's
own evaluation.  ``--seed`` then draws what a benchmark run is free to
vary without changing how much work the run contains: the node-ID
assignment (a permutation of the dense IDs, or the sparse 64-bit external
IDs of ``cold_update``), hence the partition every machine holds and every
ID in every answer; and the delta edges ``cold_update`` appends.

The reason is measured, not assumed (README, "Why the structure is
pinned"): with graph *and* queries re-drawn per seed, the per-query cost
of seeded DFS patterns is so heavy-tailed that ``latency_p50_ms`` differed
between seeds by 48 % (interquartile range over ten seeds) with 30 queries
per round, 10 % with 190 and still 9.5 % with 650 — no regression bound
under 25 % could hold.  With the structure pinned the spread is the
host's noise.

**Query selection is data-only.**  Candidates are drawn in
:data:`DATASET_SEED` order and kept by rules computed here from the CSR
arrays, never from how fast the program runs:

* the *star volume* of a query, ``max over query nodes u of
  sum_{v: L(v)=L(u)} prod_{w in N(u)} max(1, d_{L(w)}(v))`` with
  ``d_l(v)`` the number of neighbours of ``v`` labelled ``l`` — an upper
  bound on the unpruned rows of any STwig rooted at ``u``
  (:func:`star_volume`);
* for the ``enumerate_*`` workloads additionally the true answer count,
  which is a property of (graph, query) alone; it is probed once through
  the program with every timer off, when ``run.py --record-expected``
  writes ``expected.json``.

A normal run loads the selected operations (text, limit, volume, pinned
row count) from ``expected.json``; it never probes.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.api as api
from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.graph.generators.power_law import generate_power_law
from repro.graph.labeled_graph import NODE_DTYPE, LabeledGraph
from repro.ingest import degree_band_labeler, ingest_edge_list, ingest_edges
from repro.query.generators import dfs_query
from repro.query.parser import format_query, parse_query
from repro.query.query_graph import QueryGraph
from repro.storage.delta import DeltaLog, compact_snapshot
from repro.workloads.motifs import cross_label_path, star_collaboration

import verifier
from spans import Recorder

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

#: Seed of every workload's structure (graph shape, label draw, query pool).
DATASET_SEED = 20120827
MACHINES = 4
#: Upper bound on a kept query's star volume (uncapped seeds produced
#: single limit-1024 queries of 23 s and 108 s: exploration is blind to
#: the limit).
VOLUME_CAP = 1e6
#: Degree-band bounds the ingest labeler uses (rank0..rank3).
DEGREE_BANDS = (2, 8, 32)
DELTA_EDGES_PER_OP = 32
COMPACT_EVERY = 4

#: name -> (nodes, average degree, label density).  ``enumerate_process``
#: runs the identical graph and queries as ``enumerate_all``.
GRAPH_SPECS: Dict[str, Tuple[int, int, float]] = {
    "limit1k_explore": (250_000, 8, 4e-4),
    "enumerate_all": (100_000, 8, 5e-4),
    "enumerate_process": (100_000, 8, 5e-4),
    "cold_update": (20_000, 8, 1e-3),
}


@dataclass(frozen=True)
class Op:
    """One query of a round: its text form, row budget and selection data."""

    klass: str
    text: str
    limit: Optional[int]
    volume: float
    rows: int = -1
    truncated: bool = False

    @property
    def query(self) -> QueryGraph:
        return parse_query(self.text)


# -- data-only selection rule ---------------------------------------------


def forward_edges(graph: LabeledGraph) -> Tuple[np.ndarray, np.ndarray]:
    """Each undirected edge once, as parallel ``(low, high)`` ID arrays."""
    counts = np.diff(graph.offset_array())
    sources = np.repeat(graph.node_id_array(), counts)
    neighbors = graph.neighbor_array()
    keep = sources < neighbors
    return np.asarray(sources[keep]), np.asarray(neighbors[keep])


class LabelDegrees:
    """``d_l(v)`` for every (node, label) pair of a graph, from its CSR."""

    def __init__(self, graph: LabeledGraph) -> None:
        self._labels = np.asarray(graph.label_id_array(), dtype=np.int64)
        self._table = graph.label_table
        self._width = int(self._labels.max()) + 1
        rows = np.repeat(
            np.arange(graph.node_count, dtype=np.int64),
            np.diff(graph.offset_array()),
        )
        # Node IDs are 0..n-1 in every graph selection runs on.
        keys = rows * self._width + self._labels[graph.neighbor_array()]
        self._keys, self._counts = np.unique(keys, return_counts=True)

    def nodes_with(self, label: str) -> np.ndarray:
        return np.flatnonzero(self._labels == self._table.id_of(label))

    def degree(self, nodes: np.ndarray, label: str) -> np.ndarray:
        """Number of neighbours labelled ``label``, for every node given."""
        wanted = nodes * self._width + self._table.id_of(label)
        at = np.minimum(np.searchsorted(self._keys, wanted), len(self._keys) - 1)
        return np.where(self._keys[at] == wanted, self._counts[at], 0)


def star_volume(query: QueryGraph, degrees: LabelDegrees) -> float:
    """The data-only cost bound queries are kept by (module docstring)."""
    best = 0.0
    for node in query.nodes():
        candidates = degrees.nodes_with(query.label(node))
        product = np.ones(len(candidates), dtype=np.float64)
        for neighbor in query.neighbors(node):
            product *= np.maximum(1, degrees.degree(candidates, query.label(neighbor)))
        best = max(best, float(product.sum()))
    return best


def star_query(graph: LabeledGraph, leaves: int, rng: random.Random) -> Optional[QueryGraph]:
    """A star pattern read off a random data node with enough neighbours."""
    center = rng.randrange(graph.node_count)
    neighbors = list(graph.neighbors(center))
    if len(neighbors) < leaves:
        return None
    picked = rng.sample(neighbors, leaves)
    labels = {"c": graph.label(center)}
    labels.update({f"l{i}": graph.label(node) for i, node in enumerate(picked)})
    return QueryGraph(labels, [("c", f"l{i}") for i in range(leaves)])


#: Star-volume band of the >=3-leaf stars of ``limit1k_explore``; chosen so
#: that class takes 20-40 % of a round's wall time.
STAR_BAND = (3e4, 2e5)
#: Answer-count band of the ``enumerate_*`` queries.
ANSWER_BAND = (5_000, 250_000)
#: Star-volume cap of the ``cold_update`` motifs ("light": the operation is
#: about storage, not about the queries).
MOTIF_CAP = 3e4
DRAW_ATTEMPTS = 4000


@dataclass(frozen=True)
class Draw:
    """One class of queries to select: how to make candidates, which to keep."""

    klass: str
    count: int
    make: Callable[[], Optional[QueryGraph]]
    limit: Optional[int]
    volume_band: Tuple[float, float] = (0.0, VOLUME_CAP)
    answer_band: Optional[Tuple[int, int]] = None


def _draws(workload: str, graph: LabeledGraph, rng: random.Random) -> List[Draw]:
    if workload == "limit1k_explore":
        return [
            Draw(f"dfs{size}", 8, lambda size=size: dfs_query(graph, size, seed=rng), 1024)
            for size in (4, 5, 6)
        ] + [
            Draw(
                f"star{leaves}", count,
                lambda leaves=leaves: star_query(graph, leaves, rng),
                1024, volume_band=STAR_BAND,
            )
            for leaves, count in ((3, 4), (4, 3))
        ]
    if workload == "enumerate_all":
        return [
            Draw(
                "dfs5", 13, lambda: dfs_query(graph, 5, seed=rng), None,
                answer_band=ANSWER_BAND,
            )
        ]
    ranks = [f"rank{band}" for band in range(len(DEGREE_BANDS) + 1)]

    def motif() -> QueryGraph:
        a, b = rng.choice(ranks), rng.choice(ranks)
        if rng.random() < 0.5:
            return cross_label_path(a, b, rng.choice((2, 3)))
        return star_collaboration(a, b, rng.choice((2, 3)))

    light = (0.0, MOTIF_CAP)
    return [
        # One motif has a >=3-leaf STwig, so that row builder runs cold too.
        Draw(
            "motif-star3", 1,
            lambda: star_collaboration(rng.choice(ranks), rng.choice(ranks), 3),
            1024, volume_band=light,
        ),
        Draw("motif", 3, motif, 1024, volume_band=light),
    ]


def _select(draw: Draw, db, degrees: LabelDegrees, seen: set) -> List[Op]:
    """Draw candidates until ``draw.count`` pass the rule (module docstring)."""
    kept: List[Op] = []
    for _ in range(DRAW_ATTEMPTS):
        if len(kept) == draw.count:
            return kept
        query = draw.make()
        if query is None:
            continue
        text = format_query(query)
        volume = star_volume(query, degrees)
        if text in seen or not draw.volume_band[0] <= volume <= draw.volume_band[1]:
            continue
        # The probe: one run through the program, no timer anywhere near it.
        band = draw.answer_band
        result = db.query(query, limit=draw.limit if band is None else band[1] + 1)
        answers = result.match_count
        if answers == 0 or (band is not None and not band[0] <= answers <= band[1]):
            continue
        seen.add(text)
        kept.append(
            Op(draw.klass, text, draw.limit, volume, answers, result.stats.truncated)
        )
    raise RuntimeError(
        f"only {len(kept)} of {draw.count} {draw.klass} queries passed selection"
    )


def select_ops(workload: str) -> List[Op]:
    """Run selection for one workload (``--record-expected`` only).

    Builds the structure graph, draws candidates in :data:`DATASET_SEED`
    order and probes row counts through the program — all outside every
    timer.
    """
    rng = random.Random(DATASET_SEED)
    graph = structure_graph(workload)
    if workload == "cold_update":
        # The labels ``cold_update``'s ingest will assign (degree bands).
        low, high = forward_edges(graph)
        graph = ingest_edges(low, high, labeler=degree_band_labeler(DEGREE_BANDS))
    degrees = LabelDegrees(graph)
    seen: set = set()
    ops: List[Op] = []
    with api.connect(graph, machines=MACHINES, executor="serial") as db:
        for draw in _draws(workload, graph, rng):
            ops += _select(draw, db, degrees, seen)
    return ops


def load_expected() -> dict:
    with open(EXPECTED_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def load_ops(workload: str, expected: dict) -> List[Op]:
    key = "enumerate_all" if workload == "enumerate_process" else workload
    return [Op(**entry) for entry in expected[key]["ops"]]


# -- the inputs the program receives --------------------------------------


def structure_graph(workload: str) -> LabeledGraph:
    nodes, degree, density = GRAPH_SPECS[workload]
    return generate_power_law(nodes, degree, label_density=density, seed=DATASET_SEED)


@dataclass
class Truth:
    """What the verifier checks rows against — plain arrays, no ``repro.core``.

    ``edge_keys`` holds ``low * node_count + high`` for every undirected
    edge, sorted.  ``externals[dense]`` is the caller's ID of a dense node
    (``None`` when the program was given dense IDs directly).
    """

    node_count: int
    labels: np.ndarray
    label_names: Tuple[str, ...]
    edge_keys: np.ndarray
    externals: Optional[np.ndarray] = None

    def add_edges(self, edges: np.ndarray) -> None:
        low = np.minimum(edges[:, 0], edges[:, 1]).astype(np.int64)
        high = np.maximum(edges[:, 0], edges[:, 1]).astype(np.int64)
        keys = np.unique(low * self.node_count + high)
        at = np.searchsorted(self.edge_keys, keys)
        known = self.edge_keys[np.minimum(at, len(self.edge_keys) - 1)] == keys
        # A sorted insert: ``np.union1d`` would re-sort the whole edge set.
        self.edge_keys = np.insert(self.edge_keys, at[~known], keys[~known])

    @property
    def edge_count(self) -> int:
        return len(self.edge_keys)


def _edge_keys(low: np.ndarray, high: np.ndarray, node_count: int) -> np.ndarray:
    a = np.minimum(low, high).astype(np.int64)
    b = np.maximum(low, high).astype(np.int64)
    return np.unique(a * node_count + b)


class WarmWorkload:
    """A resident graph queried warm: the three generated workloads."""

    #: Cold workloads reopen the graph in every op and read ``external_rows()``.
    cold = False

    def __init__(self, name: str, seed: int, ops: Sequence[Op]) -> None:
        self.name = name
        self.seed = seed
        self.ops: List[Op] = list(ops)
        self.executor = "process" if name == "enumerate_process" else "serial"
        self.workers = 2 if self.executor == "process" else None
        self.cloud: Optional[MemoryCloud] = None
        self.db = None
        self.graph: Optional[LabeledGraph] = None
        self.truth: Optional[Truth] = None

    def build(self, rec: Recorder) -> None:
        """Nothing -> a connected session (the warm-up pass is the caller's)."""
        with rec.span("graph.generate"):
            structure = structure_graph(self.name)
        count = structure.node_count
        permutation = np.random.default_rng(self.seed).permutation(count)
        permutation = permutation.astype(NODE_DTYPE)
        low, high = forward_edges(structure)
        labels = np.empty(count, dtype=structure.label_id_array().dtype)
        labels[permutation] = structure.label_id_array()
        low, high = permutation[low], permutation[high]
        with rec.span("graph.from_arrays", edges=len(low)):
            self.graph = LabeledGraph.from_arrays(
                structure.label_table,
                np.arange(count, dtype=NODE_DTYPE),
                labels,
                low,
                high,
            )
        with rec.span("cloud.load") as span:
            self.cloud = MemoryCloud.from_graph(
                self.graph, ClusterConfig(machine_count=MACHINES)
            )
            span["attrs"]["storage_bytes"] = sum(
                machine.storage_nbytes() for machine in self.cloud.machines
            )
            span["attrs"]["edges"] = self.cloud.edge_count
        self.db = api.connect(self.cloud, executor=self.executor, workers=self.workers)
        self.truth = Truth(
            node_count=count,
            labels=np.asarray(labels, dtype=np.int64),
            label_names=structure.label_table.labels(),
            edge_keys=_edge_keys(low, high, count),
        )

    def round_ops(self) -> List[Tuple[int, Op]]:
        return list(enumerate(self.ops))

    def prepare(self, index: int) -> None:
        return None

    def run_op(self, index: int, op: Op, prepared):
        """The untraced operation: query text in, Python rows out."""
        result = self.db.query(op.text, limit=op.limit)
        return result, result.rows, result.stats.truncated

    def check(self, index: int, op: Op, outcome, prepared, full: bool):
        """``(rows handed over, problems)``; ``full`` adds the per-row checks."""
        result, rows, truncated = outcome
        problems = verifier.check_count(
            len(rows), truncated, op.limit, op.rows, op.truncated
        )
        if full:
            problems += verifier.check_rows(self.truth, op.query, result.columns, rows)
            problems += verifier.check_external(self.truth, rows, result.external_rows())
        return len(rows), problems

    def close(self) -> None:
        db, self.db = self.db, None
        cloud, self.cloud = self.cloud, None
        try:
            if db is not None:
                db.close()
        finally:
            if cloud is not None:
                cloud.close()
        self.graph = None
        self.truth = None


class ColdUpdateWorkload:
    """Writes beside reads, cold: append -> reopen (replay) -> query -> close.

    Set-up ingests a sparse-ID TSV edge list, partitions it and saves a
    snapshot; every operation then appends :data:`DELTA_EDGES_PER_OP`
    random edges to the delta log, reopens the snapshot through
    ``api.connect`` (which replays the overlay), runs the motif queries
    reading ``external_rows()``, and closes.  Every
    :data:`COMPACT_EVERY`-th operation first compacts the snapshot.  A
    round is one such group of :data:`COMPACT_EVERY` operations.
    """

    cold = True
    executor = "serial"
    workers = None

    def __init__(self, name: str, seed: int, ops: Sequence[Op], workdir: str) -> None:
        self.name = name
        self.seed = seed
        self.motifs: List[Op] = list(ops)
        self.ops = self.motifs
        self.workdir = workdir
        self.directory: Optional[str] = None
        self.snapshot: Optional[str] = None
        self.edge_list: Optional[str] = None
        self.truth: Optional[Truth] = None
        self.graph: Optional[LabeledGraph] = None
        self._delta_rng = np.random.default_rng(seed)

    def build(self, rec: Recorder) -> None:
        self.directory = tempfile.mkdtemp(prefix="cold-", dir=self.workdir)
        self.edge_list = os.path.join(self.directory, "edges.tsv")
        self.snapshot = os.path.join(self.directory, "snapshot")
        with rec.span("graph.generate"):
            structure = structure_graph(self.name)
        low, high = forward_edges(structure)
        # The external IDs' order is the dense order the ingest assigns, so
        # the seed also permutes the dense domain.
        externals = write_sparse_edge_list(
            self.edge_list, low, high, structure.node_count, self.seed
        )
        with rec.span("ingest.read", edges=len(low)):
            self.graph = ingest_edge_list(
                self.edge_list, labeler=degree_band_labeler(DEGREE_BANDS)
            )
        with rec.span("cloud.load") as span:
            cloud = MemoryCloud.from_graph(
                self.graph, ClusterConfig(machine_count=MACHINES)
            )
            span["attrs"]["storage_bytes"] = sum(
                machine.storage_nbytes() for machine in cloud.machines
            )
            span["attrs"]["edges"] = cloud.edge_count
        try:
            with rec.span("storage.save", edges=cloud.edge_count):
                cloud.save_snapshot(self.snapshot)
        finally:
            cloud.close()
        self.truth = cold_truth(externals, low, high)
        self._delta_rng = np.random.default_rng(self.seed)

    def round_ops(self) -> List[Tuple[int, None]]:
        return [(index, None) for index in range(COMPACT_EVERY)]

    def prepare(self, index: int) -> np.ndarray:
        """The next batch of delta edges (dense IDs, no self-loops)."""
        count = self.truth.node_count
        edges = self._delta_rng.integers(0, count, size=(DELTA_EDGES_PER_OP, 2))
        return edges[edges[:, 0] != edges[:, 1]]

    def run_op(self, index: int, op, edges: np.ndarray):
        """One untraced operation: per-motif answers and the ``edge_count`` seen."""
        if index % COMPACT_EVERY == COMPACT_EVERY - 1:
            compact_snapshot(self.snapshot)
        DeltaLog(self.snapshot).append_edges(edges.tolist())
        db = api.connect(self.snapshot)
        try:
            answers = []
            for motif in self.motifs:
                result = db.query(motif.text, limit=motif.limit)
                answers.append((result, result.external_rows(), result.stats.truncated))
            edge_count = db.cloud.edge_count
        finally:
            db.close()
        return answers, edge_count

    def check(self, index: int, op, outcome, edges: np.ndarray, full: bool):
        """``(rows handed over, problems)``.

        The reopened graph must have grown by exactly the acknowledged
        appends: the truth takes the same edges and the counts must agree.
        """
        answers, edge_count = outcome
        self.truth.add_edges(edges)
        problems = []
        if edge_count != self.truth.edge_count:
            problems.append(
                f"edge_count {edge_count} after reopen, {self.truth.edge_count} "
                "acknowledged"
            )
        handed = 0
        for motif, (result, external_rows, truncated) in zip(self.motifs, answers):
            handed += len(external_rows)
            problems += verifier.check_limit(
                len(external_rows), truncated, motif.limit, None
            )
            # Edges are only ever added and labels never change, so every
            # match of the pinned base graph is still a match.
            if len(external_rows) < min(motif.limit, motif.rows):
                problems.append(
                    f"{motif.klass}: {len(external_rows)} rows, the base graph "
                    f"alone has {motif.rows}"
                )
            if full:
                rows = result.rows
                problems += verifier.check_external(self.truth, rows, external_rows)
                problems += verifier.check_rows(
                    self.truth, motif.query, result.columns, rows
                )
        return handed, problems

    def close(self) -> None:
        directory, self.directory = self.directory, None
        if directory is not None:
            shutil.rmtree(directory, ignore_errors=True)
        self.graph = None
        self.truth = None


def write_sparse_edge_list(
    path: str, low: np.ndarray, high: np.ndarray, node_count: int, seed: int
) -> np.ndarray:
    """Write the edges as a TSV under seeded sparse 64-bit external IDs.

    Returns ``externals`` with ``externals[node]`` the ID written for ``node``.
    """
    rng = np.random.default_rng(seed)
    externals = np.unique(rng.integers(1, 2**62, size=2 * node_count))
    externals = rng.permutation(externals)[:node_count]
    with open(path, "w", encoding="ascii") as handle:
        handle.write(
            "\n".join(
                f"{a}\t{b}"
                for a, b in zip(externals[low].tolist(), externals[high].tolist())
            )
        )
        handle.write("\n")
    return externals


def cold_truth(externals: np.ndarray, low: np.ndarray, high: np.ndarray) -> Truth:
    """The verifier's own model of what the ingest must have built.

    Nodes without an edge never appear in the edge list, dense IDs are the
    ranks of the external IDs that do, and a node's label is the degree
    band of its degree — all recomputed here from the inputs alone.
    """
    used = np.unique(np.concatenate((externals[low], externals[high])))
    dense_low = np.searchsorted(used, externals[low])
    dense_high = np.searchsorted(used, externals[high])
    count = len(used)
    degrees = np.bincount(np.concatenate((dense_low, dense_high)), minlength=count)
    bands = np.searchsorted(np.asarray(DEGREE_BANDS), degrees, side="right")
    return Truth(
        node_count=count,
        labels=bands.astype(np.int64),
        label_names=tuple(f"rank{band}" for band in range(len(DEGREE_BANDS) + 1)),
        edge_keys=_edge_keys(dense_low, dense_high, count),
        externals=used,
    )


def make_workload(name: str, seed: int, expected: dict, workdir: str):
    """``workdir`` holds ``cold_update``'s edge list and snapshot; the caller removes it."""
    ops = load_ops(name, expected)
    if name == "cold_update":
        return ColdUpdateWorkload(name, seed, ops, workdir)
    return WarmWorkload(name, seed, ops)
