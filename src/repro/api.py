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
  :meth:`Session.query`, with per-call executor override.

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

The older entry points (``MemoryCloud.from_graph`` + ``SubgraphMatcher``,
``QueryService``) remain public and unchanged — the facade composes them
and adds nothing they cannot do; it only decides *for* you.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Union

from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.core.planner import MatcherConfig
from repro.core.result import MatchResult
from repro.errors import ConfigurationError, GraphError, ServiceError
from repro.graph.labeled_graph import LabeledGraph
from repro.ingest import degree_band_labeler, ingest_dblp_xml, ingest_edge_list
from repro.query.parser import parse_query
from repro.query.query_graph import QueryGraph
from repro.runtime import ExecutorSpec, resolve_backend
from repro.serve.service import QueryService, ServiceConfig
from repro.storage.snapshot import open_graph_snapshot, snapshot_exists

__all__ = [
    "DATASETS",
    "Session",
    "connect",
    "load_dataset",
    "open_snapshot",
]

#: Named built-in datasets :func:`load_dataset` resolves (the synthetic
#: workload suite; real files are loaded by path).
DATASETS: Dict[str, Callable[[], LabeledGraph]] = {}


def _register_datasets() -> None:
    from repro.workloads import datasets

    DATASETS.update(
        {
            "tiny": datasets.tiny_example_graph,
            "figure5": datasets.paper_figure5_graph,
            "patents-small": datasets.patents_small,
            "wordnet-small": datasets.wordnet_small,
            "rmat": datasets.rmat_graph,
        }
    )


_register_datasets()

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
        from repro.graph.io import load_graph

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
    """
    config = ClusterConfig(machine_count=machines) if machines else None
    return MemoryCloud.open_snapshot(os.fspath(path), config, verify=verify)


class Session:
    """A resident dataset plus everything needed to query it.

    Obtained from :func:`connect`.  One :class:`QueryService` (one plan
    cache, one admission semaphore) runs per executor backend, created
    lazily — so ``query(..., executor="process")`` on a session that
    normally runs serial spins the process pool up once and reuses it.

    Thread-safe to the same degree as :class:`QueryService`; use as a
    context manager (or call :meth:`close`) to release pools, shared
    memory, and — when the session loaded the dataset itself — the cloud.
    """

    def __init__(
        self,
        cloud: MemoryCloud,
        *,
        owns_cloud: bool,
        executor: ExecutorSpec = None,
        workers: Optional[int] = None,
        limit: Optional[int] = None,
        max_row_budget: Optional[int] = None,
        max_in_flight: int = 8,
        matcher_config: Optional[MatcherConfig] = None,
    ) -> None:
        self.cloud = cloud
        self._owns_cloud = owns_cloud
        self._executor = executor
        self._workers = workers
        self._limit = limit
        self._max_row_budget = max_row_budget
        self._max_in_flight = max_in_flight
        self._matcher_config = matcher_config
        self._services: Dict[str, QueryService] = {}
        self._closed = False

    # -- querying ----------------------------------------------------------

    def query(
        self,
        q: Union[str, QueryGraph],
        *,
        limit: Optional[int] = None,
        executor: ExecutorSpec = None,
    ) -> MatchResult:
        """Run one subgraph query and return its :class:`MatchResult`.

        The answer is an array: ``result.to_array()`` (internal IDs) and
        ``result.external_array()`` (the dataset's original IDs) hand it
        out as it is, and ``result.rows``, ``result.external_rows()`` and
        ``result.as_dicts()`` convert it to Python tuples / dicts anew on
        every call.

        Args:
            q: a :class:`QueryGraph` or query text for
                :func:`~repro.query.parser.parse_query`.
            limit: per-call row budget (else the session default).
            executor: per-call backend override (e.g. ``"process"``); the
                session's default backend otherwise.
        """
        query = parse_query(q) if isinstance(q, str) else q
        service = self._service_for(executor)
        return service.submit(query, limit=limit)

    def explain(self, q: Union[str, QueryGraph]):
        """The query plan (decomposition, STwig order) without executing."""
        query = parse_query(q) if isinstance(q, str) else q
        return self._service_for(None).matcher.explain(query)

    def stats(self):
        """Service counters of the default backend's query service."""
        return self._service_for(None).stats()

    @property
    def id_map(self):
        """The dataset's external-ID map (``None`` for dense-ID graphs)."""
        return self.cloud.id_map

    def _service_for(self, executor: ExecutorSpec) -> QueryService:
        if self._closed:
            raise ServiceError("session is closed")
        spec = executor if executor is not None else self._executor
        key = spec if isinstance(spec, str) or spec is None else None
        if key is None and spec is not None:
            # Non-name specs (RuntimeConfig/Executor) key by identity.
            key = f"spec-{id(spec)}"
        else:
            key = resolve_backend(key)
        service = self._services.get(key)
        if service is None:
            service = QueryService(
                cloud=self.cloud,
                matcher_config=self._matcher_config,
                executor=spec,
                workers=self._workers,
                service_config=ServiceConfig(
                    max_in_flight=self._max_in_flight,
                    limit=self._limit,
                    max_row_budget=self._max_row_budget,
                ),
            )
            self._services[key] = service
        return service

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Drain and close every backend service, then the cloud (if owned)."""
        if self._closed:
            return
        self._closed = True
        for service in self._services.values():
            service.close()
        self._services.clear()
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
            f"machines={self.cloud.machine_count}, closed={self._closed})"
        )


def connect(
    source: Union[DatasetSource, MemoryCloud],
    *,
    machines: int = 4,
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
        machines: cluster size when the source must be partitioned.
        executor: default runtime backend for queries
            (``"serial"``/``"process"``, a RuntimeConfig, or
            an Executor; ``None`` = ``REPRO_EXECUTOR`` env, then serial).
        workers: pool size for the process backend.
        limit: default row budget for queries submitted without one.
        max_row_budget: hard upper bound on any query's row budget.
        max_in_flight: concurrent-query admission bound.
        cluster_config: full cluster configuration (overrides ``machines``).
        matcher_config: engine knobs shared by every query.
        label_mode: forwarded to :func:`load_dataset` for edge-list files.
    """
    if cluster_config is not None and machines != 4:
        raise ConfigurationError(
            "pass the cluster shape either as machines= or inside "
            "cluster_config=, not both"
        )
    if isinstance(source, MemoryCloud):
        cloud, owns_cloud = source, False
    elif (
        not isinstance(source, LabeledGraph)
        and isinstance(source, (str, os.PathLike))
        and snapshot_exists(os.fspath(source))
    ):
        config = cluster_config
        if config is None and machines != 4:
            config = ClusterConfig(machine_count=machines)
        cloud = MemoryCloud.open_snapshot(os.fspath(source), config)
        owns_cloud = True
    else:
        graph = load_dataset(source, label_mode=label_mode)
        config = cluster_config or ClusterConfig(machine_count=machines)
        cloud = MemoryCloud.from_graph(graph, config)
        owns_cloud = True
    return Session(
        cloud,
        owns_cloud=owns_cloud,
        executor=executor,
        workers=workers,
        limit=limit,
        max_row_budget=max_row_budget,
        max_in_flight=max_in_flight,
        matcher_config=matcher_config,
    )
