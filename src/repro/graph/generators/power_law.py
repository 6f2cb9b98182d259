"""Chung–Lu style power-law graph generator.

The paper motivates its design with "Facebook-like" power-law graphs (800 M
nodes, average degree 130).  For the scaled-down experiments we need a
generator whose degree distribution is an explicit power law with a
controllable exponent and average degree; the Chung–Lu model (connect
``u`` and ``v`` with probability proportional to ``w_u * w_v``) gives that
with a simple expected-degree weight sequence.

:func:`generate_power_law` is array-native: endpoints are drawn in
edge-sized blocks with one ``np.searchsorted`` over the cumulative weight
array per block, self-loops and duplicates are rejected vectorized with
resampling rounds, and the result is bulk-ingested through
:meth:`LabeledGraph.from_arrays`.  The original one-``random.random()``-per-endpoint
sampler is the parity tests' reference (``tests/helpers.py``).
"""

from __future__ import annotations

import numpy as np

from repro.graph.generators.labels import (
    assign_zipf_label_ids,
    label_count_for_density,
    make_label_collection,
)
from repro.graph.label_table import LabelTable
from repro.graph.labeled_graph import NODE_DTYPE, LabeledGraph
from repro.graph.generators.sampling import SAMPLING_BUDGET, sample_unique_edges
from repro.graph.stats import GenerationReport, attach_generation_report
from repro.utils.arrays import inverse_cdf_sample
from repro.utils.rng import SeedLike, ensure_generator
from repro.utils.validation import require, require_positive


def power_law_weight_array(
    node_count: int, exponent: float, average_degree: float
) -> np.ndarray:
    """Expected-degree weights ``w_i ∝ (i + 1) ** (-1 / (exponent - 1))``.

    The weights are rescaled so their mean equals ``average_degree``.
    """
    require_positive(node_count, "node_count")
    require(exponent > 1.0, "power-law exponent must be > 1")
    require_positive(average_degree, "average_degree")
    gamma = 1.0 / (exponent - 1.0)
    raw = np.arange(1, node_count + 1, dtype=np.float64) ** -gamma
    return raw * (average_degree / raw.mean())


def generate_power_law(
    node_count: int,
    average_degree: float,
    exponent: float = 2.5,
    label_density: float = 1e-2,
    label_skew: float = 1.0,
    seed: SeedLike = None,
    label_prefix: str = "L",
) -> LabeledGraph:
    """Generate a labeled Chung–Lu power-law graph, fully vectorized.

    Edges are produced by sampling endpoints proportionally to their weights
    (the "fast Chung–Lu" approach) in whole-array blocks: each resampling
    round draws a block of uniforms, maps them through the cumulative weight
    array with ``np.searchsorted``, rejects self-loops, and collapses
    duplicates with ``np.unique`` on packed ``(lo, hi)`` keys.  The achieved
    edge count and the rejection counts are recorded on the returned graph
    (see :class:`~repro.graph.stats.GenerationReport`).
    """
    require_positive(node_count, "node_count")
    require_positive(average_degree, "average_degree")
    gen = ensure_generator(seed)

    weights = power_law_weight_array(node_count, exponent, average_degree)
    cumulative = np.cumsum(weights)
    cumulative /= cumulative[-1]
    cumulative[-1] = 1.0

    target_edges = max(1, round(node_count * average_degree / 2))
    sampled = sample_unique_edges(
        lambda block: (
            inverse_cdf_sample(cumulative, block, gen),
            inverse_cdf_sample(cumulative, block, gen),
        ),
        node_count,
        target_edges,
        gen,
        max_draws=target_edges * SAMPLING_BUDGET,
    )
    keys = sampled.keys

    label_count = label_count_for_density(node_count, label_density)
    labels = make_label_collection(label_count, prefix=label_prefix)
    label_ids = assign_zipf_label_ids(
        node_count, label_count, exponent=label_skew, seed=gen
    )
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
            model="chung-lu",
            target_edges=target_edges,
            achieved_edges=len(keys),
            sampling_rounds=sampled.rounds,
            rejected_self_loops=sampled.rejected_self_loops,
            rejected_duplicates=sampled.rejected_duplicates,
        ),
    )
