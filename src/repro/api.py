"""The unified entry point: datasets in, sessions out, queries answered.

Everything the layers below do — ingestion, partitioning, snapshots, the
matcher, the query service — is reachable through three calls:

* :func:`load_dataset` — anything that describes a graph (a named built-in
  workload, an edge-list file, a DBLP XML dump, a snapshot directory, a
  saved ``<prefix>.labels``/``.edges`` pair, or a
  :class:`~repro.graph.labeled_graph.LabeledGraph` you already hold)
  becomes a loaded graph.
* :func:`open_snapshot` — a persistent snapshot directory becomes a live
  :class:`~repro.cloud.cluster.MemoryCloud` on the zero-copy mmap path.
* :func:`connect` — any dataset source becomes a :class:`Session`: a
  resident cloud fronted by admission-controlled, thread-safe
  :meth:`Session.query`.

Quickstart::

    import repro.api as api

    with api.connect("benchmarks/data/coauthor_5k.edges", machines=4) as db:
        result = db.query(\"\"\"
            node a rank1
            node b rank1
            node c rank1
            edge a b
            edge b c
            edge c a
        \"\"\", limit=100)
        for match in result.as_dicts():   # original dataset IDs
            print(match)

This module is the one place a source becomes a loaded cloud and the one
place the serving knobs are spelled: the CLI is argparse over it, and
:class:`~repro.serve.service.QueryService` only ever sees the cloud it is
handed.  The engine underneath (``MemoryCloud`` + ``SubgraphMatcher``) stays
public for callers that want no service in front.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Tuple, Union

from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.core.planner import MatcherConfig
from repro.core.result import MatchResult
from repro.errors import ConfigurationError, GraphError, StorageError
from repro.graph.io import load_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.ingest import degree_band_labeler, ingest_dblp_xml, ingest_edge_list
from repro.query.parser import parse_query
from repro.query.query_graph import QueryGraph
from repro.runtime import ExecutorSpec
from repro.serve.service import QueryService, ServiceConfig
from repro.storage.snapshot import open_graph_snapshot, snapshot_exists
from repro.workloads import datasets

__all__ = [
    "DATASETS",
    "Session",
    "connect",
    "load_dataset",
    "open_snapshot",
]

#: Named built-in datasets :func:`load_dataset` resolves (the synthetic
#: workload suite; real files are loaded by path).
DATASETS: Dict[str, Callable[[], LabeledGraph]] = {
    "tiny": datasets.tiny_example_graph,
    "figure5": datasets.paper_figure5_graph,
    "patents-small": datasets.patents_small,
    "wordnet-small": datasets.wordnet_small,
    "rmat": datasets.rmat_graph,
}

#: Any value :func:`load_dataset` accepts.
DatasetSource = Union[str, os.PathLike, LabeledGraph]


def load_dataset(
    source: DatasetSource,
    *,
    label_mode: str = "degree",
) -> LabeledGraph:
    """Load any dataset description into a :class:`LabeledGraph`.

    Resolution order:

    1. a :class:`LabeledGraph` instance passes through unchanged;
    2. a name in :data:`DATASETS` builds that synthetic workload;
    3. a snapshot directory (``manifest.json`` inside) reopens via
       :func:`~repro.storage.snapshot.open_graph_snapshot`;
    4. a ``<prefix>`` with ``<prefix>.labels``/``<prefix>.edges`` loads the
       labeled text format (:func:`repro.graph.io.load_graph`);
    5. a ``.xml`` file ingests as DBLP
       (:func:`~repro.ingest.ingest_dblp_xml`);
    6. any other existing file ingests as a whitespace/TSV edge list
       (:func:`~repro.ingest.ingest_edge_list`) — sparse or string IDs are
       remapped to the dense domain and results report original IDs.

    Args:
        source: dataset name, path, or graph.
        label_mode: labeling for unlabeled edge lists — ``"degree"``
            (degree-band labels, giving motif queries a multi-label
            domain) or ``"uniform"`` (every node labeled ``entity``).

    Raises:
        GraphError: when ``source`` matches none of the above, with the
            known dataset names in the message.
    """
    if isinstance(source, LabeledGraph):
        return source
    if label_mode not in ("degree", "uniform"):
        raise GraphError(
            f"unknown label_mode {label_mode!r} (expected 'degree' or 'uniform')"
        )
    name_or_path = os.fspath(source)
    if name_or_path in DATASETS:
        return DATASETS[name_or_path]()
    if snapshot_exists(name_or_path):
        return open_graph_snapshot(name_or_path)
    if os.path.exists(name_or_path + ".labels") and os.path.exists(
        name_or_path + ".edges"
    ):
        return load_graph(name_or_path)
    if os.path.isfile(name_or_path):
        if name_or_path.endswith(".xml"):
            return ingest_dblp_xml(name_or_path)
        labeler = degree_band_labeler() if label_mode == "degree" else None
        return ingest_edge_list(name_or_path, labeler=labeler)
    raise GraphError(
        f"cannot resolve dataset {name_or_path!r}: not a built-in name "
        f"({', '.join(sorted(DATASETS))}), snapshot directory, saved "
        "graph prefix, or readable edge-list/DBLP-XML file"
    )


def _shape(config: ClusterConfig) -> tuple:
    """Everything a cluster configuration fixes about a loaded cloud."""
    return config.machine_count, type(config.partitioner), config.network


def _resolve(
    source: Union[DatasetSource, MemoryCloud],
    *,
    machines: Optional[int] = None,
    cluster_config: Optional[ClusterConfig] = None,
    label_mode: str = "degree",
    verify: bool = False,
) -> Tuple[MemoryCloud, bool]:
    """Any source -> ``(loaded cloud, whether the caller now owns it)``.

    The only place in the serving stack that constructs a cloud: a
    :class:`MemoryCloud` is borrowed as it is (a shape it was not loaded
    in is refused), a snapshot directory is attached (in its recorded
    cluster shape unless one is given), anything else goes through
    :func:`load_dataset` and is partitioned.
    """
    if machines is not None and cluster_config is not None:
        raise ConfigurationError(
            "pass the cluster shape either as machines= or inside "
            "cluster_config=, not both"
        )
    if isinstance(source, MemoryCloud):
        own = source.config
        if (machines is not None and machines != own.machine_count) or (
            cluster_config is not None and _shape(cluster_config) != _shape(own)
        ):
            raise ConfigurationError(
                f"the cloud is loaded on {own.machine_count} machines and cannot be "
                "reshaped: pass its graph, not the cloud, to serve another cluster shape"
            )
        return source, False
    if machines is not None:
        cluster_config = ClusterConfig(machine_count=machines)
    if not isinstance(source, LabeledGraph) and snapshot_exists(source):
        cloud = MemoryCloud.open_snapshot(source, cluster_config, verify=verify)
    else:
        graph = load_dataset(source, label_mode=label_mode)
        cloud = MemoryCloud.from_graph(graph, cluster_config)
    return cloud, True


def open_snapshot(
    path: Union[str, os.PathLike],
    *,
    machines: Optional[int] = None,
    verify: bool = False,
) -> MemoryCloud:
    """Open a persistent snapshot directory as a live memory cloud.

    The zero-copy path of :meth:`MemoryCloud.open_snapshot
    <repro.cloud.cluster.MemoryCloud.open_snapshot>`: without ``machines``
    the cluster shape recorded in the snapshot is reused and the columns
    attach as ``np.memmap`` views.

    Args:
        path: snapshot directory.
        machines: override the machine count (forces a re-partition).
        verify: re-read every array and check its CRC32 before serving.

    Raises:
        StorageError: when ``path`` holds no snapshot manifest.
    """
    if not snapshot_exists(path):
        raise StorageError(f"no snapshot manifest under {os.fspath(path)!r}")
    cloud, _ = _resolve(path, machines=machines, verify=verify)
    return cloud


class Session:
    """A resident dataset plus everything needed to query it.

    Obtained from :func:`connect`: one loaded cloud and the one
    :class:`QueryService` (one plan cache, one admission semaphore, one
    executor pool) in front of it.  A second backend over the same data is
    a second session that borrows the cloud —
    ``api.connect(db.cloud, executor="process")``.

    Thread-safe to the same degree as :class:`QueryService`; use as a
    context manager (or call :meth:`close`) to release pools, shared
    memory, and — when the session loaded the dataset itself — the cloud.
    """

    def __init__(self, cloud: MemoryCloud, service: QueryService, *, owns_cloud: bool) -> None:
        self.cloud = cloud
        self.service = service
        self._owns_cloud = owns_cloud

    # -- querying ----------------------------------------------------------

    def query(self, q: Union[str, QueryGraph], *, limit: Optional[int] = None) -> MatchResult:
        """Run one subgraph query and return its :class:`MatchResult`.

        The answer is an array: ``result.to_array()`` (internal IDs) and
        ``result.external_array()`` (the dataset's original IDs) hand it
        out as it is, and ``result.rows``, ``result.external_rows()`` and
        ``result.as_dicts()`` convert it to Python tuples / dicts anew on
        every call — a large answer with one shared Python object per
        distinct node, a narrow one with one per cell
        (:func:`~repro.core.result.rows_as_tuples`).

        Args:
            q: a :class:`QueryGraph` or query text for
                :func:`~repro.query.parser.parse_query`.
            limit: per-call row budget (else the session default); ``0`` is
                a cheap existence probe, a negative value is rejected.
        """
        query = parse_query(q) if isinstance(q, str) else q
        return self.service.submit(query, limit=limit)

    def explain(self, q: Union[str, QueryGraph]):
        """The query plan (decomposition, STwig order) without executing."""
        query = parse_query(q) if isinstance(q, str) else q
        return self.service.matcher.explain(query)

    def stats(self):
        """Counters of the session's query service."""
        return self.service.stats()

    @property
    def id_map(self):
        """The dataset's external-ID map (``None`` for dense-ID graphs)."""
        return self.cloud.id_map

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Drain and close the service, then the cloud if owned (idempotent)."""
        self.service.close()
        if self._owns_cloud:
            self.cloud.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"Session(nodes={self.cloud.node_count}, "
            f"edges={self.cloud.edge_count}, "
            f"machines={self.cloud.machine_count}, closed={self.service.closed})"
        )


def connect(
    source: Union[DatasetSource, MemoryCloud],
    *,
    machines: Optional[int] = None,
    executor: ExecutorSpec = None,
    workers: Optional[int] = None,
    limit: Optional[int] = None,
    max_row_budget: Optional[int] = None,
    max_in_flight: int = 8,
    cluster_config: Optional[ClusterConfig] = None,
    matcher_config: Optional[MatcherConfig] = None,
    label_mode: str = "degree",
) -> Session:
    """Open a queryable :class:`Session` over any dataset source.

    ``source`` may be anything :func:`load_dataset` accepts, a snapshot
    directory (opened on the zero-copy path, keeping its recorded cluster
    shape unless ``machines``/``cluster_config`` overrides it), or an
    already-loaded :class:`MemoryCloud` (which the caller keeps owning).

    Args:
        source: dataset name/path/graph, snapshot directory, or cloud.
        machines: cluster size to partition the source for (``None`` = 4
            for a graph, the recorded shape for a snapshot; any explicit
            value re-partitions a snapshot saved for another count).
        executor: runtime backend for the session's queries
            (``"serial"``/``"process"``, a RuntimeConfig, or
            an Executor; ``None`` = ``REPRO_EXECUTOR`` env, then serial).
        workers: pool size for the process backend.
        limit: default row budget for queries submitted without one.
        max_row_budget: hard upper bound on any query's row budget.
        max_in_flight: concurrent-query admission bound.
        cluster_config: full cluster configuration (instead of ``machines``).
        matcher_config: engine knobs shared by every query.
        label_mode: forwarded to :func:`load_dataset` for edge-list files.
    """
    cloud, owns_cloud = _resolve(
        source, machines=machines, cluster_config=cluster_config, label_mode=label_mode
    )
    service = QueryService(
        cloud,
        matcher_config=matcher_config,
        executor=executor,
        workers=workers,
        service_config=ServiceConfig(
            max_in_flight=max_in_flight, limit=limit, max_row_budget=max_row_budget
        ),
    )
    return Session(cloud, service, owns_cloud=owns_cloud)
