"""Erdős–Rényi G(n, m) generator with label assignment.

Used mostly by the test suite (small random graphs with controllable
density) and as a neutral counterpoint to the skewed R-MAT graphs in the
ablation benchmarks.

:func:`generate_gnm` draws endpoint blocks with ``Generator.integers`` and
collapses duplicates vectorized; the near-complete regime enumerates all
pairs with ``np.triu_indices`` and takes a random slice of a permutation.
The original per-edge rejection sampler is the parity tests' reference
(``tests/helpers.py``).
"""

from __future__ import annotations

import numpy as np

from repro.graph.generators.labels import (
    assign_uniform_label_ids,
    make_label_collection,
)
from repro.graph.label_table import LabelTable
from repro.graph.labeled_graph import NODE_DTYPE, LabeledGraph
from repro.graph.generators.sampling import sample_unique_edges
from repro.graph.stats import GenerationReport, attach_generation_report
from repro.utils.rng import SeedLike, ensure_generator
from repro.utils.validation import require, require_positive


def generate_gnm(
    node_count: int,
    edge_count: int,
    label_count: int = 5,
    seed: SeedLike = None,
    label_prefix: str = "L",
) -> LabeledGraph:
    """Generate a uniform random graph with exactly ``edge_count`` edges.

    If ``edge_count`` exceeds the maximum possible number of edges it is
    clamped to ``n * (n - 1) / 2``.
    """
    require_positive(node_count, "node_count")
    require(edge_count >= 0, "edge_count must be non-negative")
    require_positive(label_count, "label_count")
    gen = ensure_generator(seed)

    max_edges = node_count * (node_count - 1) // 2
    edge_count = min(edge_count, max_edges)

    rounds = 1
    rejected_loops = 0
    rejected_duplicates = 0
    if node_count > 1 and edge_count > max_edges // 2:
        # Dense fallback avoids long rejection loops on near-complete graphs
        # (only reachable for small n: max_edges pairs are materialized).
        upper = np.triu_indices(node_count, k=1)
        take = gen.permutation(max_edges)[:edge_count]
        keys = np.sort(
            upper[0][take].astype(np.int64) * node_count + upper[1][take]
        )
    else:
        # Uniform sampling below half-density converges fast; no draw cap
        # is needed to hit the exact edge count.
        sampled = sample_unique_edges(
            lambda block: (
                gen.integers(0, node_count, size=block, dtype=np.int64),
                gen.integers(0, node_count, size=block, dtype=np.int64),
            ),
            node_count,
            edge_count,
            gen,
        )
        keys = sampled.keys
        rounds = sampled.rounds
        rejected_loops = sampled.rejected_self_loops
        rejected_duplicates = sampled.rejected_duplicates

    labels = make_label_collection(label_count, prefix=label_prefix)
    label_ids = assign_uniform_label_ids(node_count, label_count, seed=gen)
    graph = LabeledGraph.from_arrays(
        LabelTable(labels),
        np.arange(node_count, dtype=NODE_DTYPE),
        label_ids,
        keys // node_count,
        keys % node_count,
        assume_unique=True,
    )
    return attach_generation_report(
        graph,
        GenerationReport(
            model="gnm",
            target_edges=edge_count,
            achieved_edges=len(keys),
            sampling_rounds=max(rounds, 1),
            rejected_self_loops=rejected_loops,
            rejected_duplicates=rejected_duplicates,
        ),
    )

