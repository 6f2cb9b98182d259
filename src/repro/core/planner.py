"""Query planning: decomposition, ordering, head STwig, and load sets.

The :class:`QueryPlanner` runs on the query proxy (it never touches the data
graph, only the cloud's load-time statistics) and produces a
:class:`QueryPlan` that the distributed executor follows.

Planning is deterministic for a fixed (query, config, loaded graph), so the
planner memoizes plans in an LRU **plan cache** keyed by the query's
canonical fingerprint (:func:`query_fingerprint`).  An always-on service
answering a stream of recurring query shapes then pays the decomposition /
ordering / cluster-graph cost once per shape instead of once per call.  The
cache is thread-safe and invalidates itself when the cloud is reloaded
(plans embed load sets and label statistics of a specific graph).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.cloud.cluster import MemoryCloud
from repro.core.cluster_graph import build_cluster_graph, cluster_distances
from repro.core.decomposition import naive_stwig_cover, stwig_order_selection
from repro.core.head_selection import (
    compute_load_sets,
    full_load_sets,
    head_stwig_index,
)
from repro.core.stwig import STwig, validate_cover
from repro.query.query_graph import QueryGraph
from repro.utils.validation import require_non_negative, require_positive


@dataclass(frozen=True)
class MatcherConfig:
    """Tunable knobs of the STwig matching engine.

    The three ``use_*`` flags correspond to the paper's three optimizations
    (Section 5) and exist so the ablation benchmarks can turn each off.

    Attributes:
        use_order_selection: use Algorithm 2 (f-value guided decomposition
            and ordering); when False, the naive random 2-approximation is
            used and STwigs are processed in emission order.
        use_binding_filter: carry binding sets between STwigs during
            exploration (the join-free pruning); when False every STwig is
            matched independently, as a pure join plan would.
        use_head_selection: pick the head STwig by Theorem 5; when False the
            first STwig in processing order is the head.
        use_load_set_pruning: restrict result fetching via the cluster-graph
            bound of Theorem 4; when False every machine fetches from all
            other machines.
        use_final_binding_filter: before the join phase, drop STwig-result
            rows whose values fell out of the final binding sets (a sound
            semi-join-style reduction in the spirit of the exploration
            pruning; see DESIGN.md).
        max_stwig_leaves: optional cap on leaves per STwig; wider STwigs are
            split into same-root STwigs.  ``None`` reproduces the paper's
            minimum-cover behaviour; a small cap (3-4) keeps exploration
            tables tractable on graphs with very few distinct labels.
        block_size: pipelined-join block size, at least 1 (None = no
            pipelining).
        seed: seed for the decomposition's tie-breaking RNG (the paper's
            arbitrary choice among maxima).  The join order needs none: it
            is arithmetic over row counts and binding-set sizes
            (:func:`~repro.core.join.select_join_order`).
        plan_cache_size: maximum number of memoized plans the planner keeps
            (LRU eviction).  ``0`` disables the plan cache entirely; every
            call re-derives the decomposition and join order from scratch.
    """

    use_order_selection: bool = True
    use_binding_filter: bool = True
    use_head_selection: bool = True
    use_load_set_pruning: bool = True
    use_final_binding_filter: bool = True
    max_stwig_leaves: Optional[int] = None
    block_size: Optional[int] = 1024
    seed: Optional[int] = 7
    plan_cache_size: int = 128

    def validate(self) -> None:
        if self.block_size is not None:
            require_positive(self.block_size, "block_size")
        if self.max_stwig_leaves is not None:
            require_positive(self.max_stwig_leaves, "max_stwig_leaves")
        require_non_negative(self.plan_cache_size, "plan_cache_size")


@dataclass
class QueryPlan:
    """The executable plan for one query."""

    query: QueryGraph
    stwigs: List[STwig]
    head_index: int
    load_sets: Dict[Tuple[int, int], FrozenSet[int]]
    machine_count: int
    config: MatcherConfig = field(default_factory=MatcherConfig)

    @property
    def head_stwig(self) -> STwig:
        """The head STwig (never fetched remotely)."""
        return self.stwigs[self.head_index]

    def load_set(self, machine_id: int, stwig_index: int) -> FrozenSet[int]:
        """Machines from which ``machine_id`` fetches results of STwig ``stwig_index``."""
        return self.load_sets.get((machine_id, stwig_index), frozenset())

    def describe(self) -> str:
        """Human-readable plan summary (for examples and debugging)."""
        lines = [f"STwig plan ({len(self.stwigs)} STwigs, head = #{self.head_index}):"]
        for index, stwig in enumerate(self.stwigs):
            marker = " [head]" if index == self.head_index else ""
            labels = ", ".join(
                f"{leaf}:{self.query.label(leaf)}" for leaf in stwig.leaves
            )
            lines.append(
                f"  q{index}: root {stwig.root}:{self.query.label(stwig.root)}"
                f" -> [{labels}]{marker}"
            )
        return "\n".join(lines)


def query_fingerprint(query: QueryGraph) -> str:
    """Canonical fingerprint of a query's label/edge structure.

    Two queries with the same node names, the same node -> label mapping,
    and the same undirected edge set fingerprint identically regardless of
    construction order (label-mapping insertion order, edge order, edge
    direction — :class:`QueryGraph` already canonicalizes those).  Queries
    that differ only by a renaming of their query nodes hash differently:
    plans are expressed in terms of the node names (STwig roots and leaves,
    result columns), so a name-insensitive cache would have to remap every
    cached plan through a graph-isomorphism test per lookup.
    """
    labels = ";".join(f"{node}={label}" for node, label in sorted(query.labels().items()))
    edges = ";".join(f"{u}-{v}" for u, v in query.edges())
    digest = hashlib.blake2b(f"{labels}|{edges}".encode("utf-8"), digest_size=16)
    return digest.hexdigest()


class QueryPlanner:
    """Builds :class:`QueryPlan` objects for a given memory cloud.

    Plans are memoized in a thread-safe LRU cache keyed by
    :func:`query_fingerprint` (size set by ``config.plan_cache_size``).
    Cached plans are shared objects — treat them as immutable, exactly as
    the engine and executors already do.
    """

    def __init__(
        self,
        cloud: MemoryCloud,
        config: MatcherConfig | None = None,
        statistics=None,
    ) -> None:
        """Create a planner.

        Args:
            cloud: the memory cloud the plans will execute against.
            config: engine configuration knobs.
            statistics: optional
                :class:`~repro.core.statistics.EdgeStatistics`; when given,
                query edges are selected by data-edge selectivity instead of
                the pure ``f``-value (the paper's Section 1.3 extension).

        Raises:
            ConfigurationError: ``config`` holds an out-of-range value.
        """
        self.cloud = cloud
        self.config = config or MatcherConfig()
        self.config.validate()
        self.statistics = statistics
        self._label_frequencies = cloud.global_label_frequencies()
        self._plan_cache: "OrderedDict[str, QueryPlan]" = OrderedDict()
        self._plan_lock = threading.Lock()
        self._cache_hits = 0
        self._cache_misses = 0
        self._cache_generation = cloud.load_generation

    # -- plan cache ----------------------------------------------------------

    def plan_cache_info(self) -> Dict[str, int]:
        """Snapshot of the plan cache counters: hits, misses, entries."""
        with self._plan_lock:
            return {
                "hits": self._cache_hits,
                "misses": self._cache_misses,
                "entries": len(self._plan_cache),
            }

    def _validate_generation(self) -> None:
        """Drop cached plans (and refresh label statistics) after a reload.

        Must be called with ``_plan_lock`` held.  A cached plan embeds load
        sets and an ordering derived from one specific loaded graph; serving
        it against a reloaded cloud would silently plan for the old graph.
        """
        generation = self.cloud.load_generation
        if generation != self._cache_generation:
            self._plan_cache.clear()
            self._cache_generation = generation
            self._label_frequencies = self.cloud.global_label_frequencies()

    def plan(self, query: QueryGraph) -> QueryPlan:
        """Produce (or fetch from cache) the plan for ``query``."""
        return self.plan_cached(query)[0]

    def plan_cached(self, query: QueryGraph) -> Tuple[QueryPlan, bool]:
        """Like :meth:`plan`, additionally reporting whether the cache hit."""
        if self.config.plan_cache_size <= 0:
            with self._plan_lock:
                self._validate_generation()
                self._cache_misses += 1
            return self._compute_plan(query), False
        fingerprint = query_fingerprint(query)
        with self._plan_lock:
            self._validate_generation()
            cached = self._plan_cache.get(fingerprint)
            if cached is not None:
                self._plan_cache.move_to_end(fingerprint)
                self._cache_hits += 1
                return cached, True
        # Plan outside the lock: planning is pure computation, and holding
        # the lock across it would serialize concurrent first-time queries.
        plan = self._compute_plan(query)
        with self._plan_lock:
            self._cache_misses += 1
            if self._cache_generation == self.cloud.load_generation:
                self._plan_cache.setdefault(fingerprint, plan)
                while len(self._plan_cache) > self.config.plan_cache_size:
                    self._plan_cache.popitem(last=False)
        return plan, False

    def _compute_plan(self, query: QueryGraph) -> QueryPlan:
        """Derive the decomposition, ordering, head choice, and load sets."""
        config = self.config
        if config.use_order_selection:
            stwigs = stwig_order_selection(
                query,
                self._label_frequencies,
                seed=config.seed,
                max_leaves=config.max_stwig_leaves,
                edge_statistics=self.statistics,
            )
        else:
            stwigs = naive_stwig_cover(
                query, seed=config.seed, max_leaves=config.max_stwig_leaves
            )
        validate_cover(query, stwigs)

        head_index = (
            head_stwig_index(query, stwigs) if config.use_head_selection else 0
        )

        machine_count = self.cloud.machine_count
        if config.use_load_set_pruning:
            adjacency = build_cluster_graph(self.cloud, query)
            distances = cluster_distances(adjacency)
            load_sets = compute_load_sets(
                query, stwigs, head_index, distances, machine_count
            )
        else:
            load_sets = full_load_sets(len(stwigs), head_index, machine_count)

        return QueryPlan(
            query=query,
            stwigs=list(stwigs),
            head_index=head_index,
            load_sets=load_sets,
            machine_count=machine_count,
            config=config,
        )
