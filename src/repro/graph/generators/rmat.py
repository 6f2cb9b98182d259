"""R-MAT graph generator (Chakrabarti, Zhan, Faloutsos 2004).

The paper's synthetic scalability experiments (Section 6.3, Figure 10 and
Table 2) all use graphs generated with the R-MAT model.  R-MAT recursively
drops each edge into one quadrant of the adjacency matrix with probabilities
``(a, b, c, d)``, producing a skewed, power-law-like degree distribution.

:func:`generate_rmat` runs the recursion over whole edge arrays: every
level draws one uniform block, classifies it into a quadrant with a
3-threshold ``np.searchsorted``, and accumulates the quadrant bits into the
endpoint IDs with shifts — no per-edge Python.  Duplicates and self-loops
are rejected vectorized, with resampling rounds under the same retry budget
as the scalar sampler; the achieved edge count (which can undershoot
``node_count * average_degree / 2`` when the budget runs out) is recorded on
the returned graph as a :class:`~repro.graph.stats.GenerationReport` instead
of being silently dropped.  The original per-edge recursion is the parity
tests' reference (``tests/helpers.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.graph.generators.labels import (
    assign_uniform_label_ids,
    label_count_for_density,
    make_label_collection,
)
from repro.graph.label_table import LabelTable
from repro.graph.labeled_graph import NODE_DTYPE, LabeledGraph
from repro.graph.generators.sampling import SAMPLING_BUDGET, sample_unique_edges
from repro.graph.stats import GenerationReport, attach_generation_report
from repro.utils.rng import SeedLike, ensure_generator
from repro.utils.validation import require, require_positive


@dataclass(frozen=True)
class RmatParameters:
    """Quadrant probabilities of the R-MAT recursion (must sum to 1)."""

    a: float = 0.45
    b: float = 0.15
    c: float = 0.15
    d: float = 0.25

    def validate(self) -> None:
        total = self.a + self.b + self.c + self.d
        require(abs(total - 1.0) < 1e-9, f"R-MAT probabilities must sum to 1, got {total}")
        for name, value in (("a", self.a), ("b", self.b), ("c", self.c), ("d", self.d)):
            require(value >= 0, f"R-MAT probability {name} must be >= 0")


def _rmat_edge_block(
    block: int, scale: int, params: RmatParameters, gen: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw ``block`` directed edges with the vectorized R-MAT recursion.

    Per level one uniform block classifies every edge into its quadrant.
    With boundaries ``a <= a+b <= a+b+c``, the row bit is set in quadrants
    c/d (``r >= a+b``) and the column bit in quadrants b/d
    (``r in [a, a+b) or r >= a+b+c``) — three boolean comparisons per
    level instead of a binary search, accumulated into the endpoint IDs
    with shifts.
    """
    ab = params.a + params.b
    abc = ab + params.c
    u = np.zeros(block, dtype=np.int64)
    v = np.zeros(block, dtype=np.int64)
    for _ in range(scale):
        r = gen.random(block)
        past_a = r >= params.a
        past_ab = r >= ab
        u <<= 1
        v <<= 1
        u += past_ab
        v += past_a ^ past_ab ^ (r >= abc)
    return u, v


def generate_rmat(
    node_count: int,
    average_degree: float,
    label_density: float = 1e-3,
    params: RmatParameters | None = None,
    seed: SeedLike = None,
    label_prefix: str = "L",
) -> LabeledGraph:
    """Generate an R-MAT labeled graph, fully vectorized.

    Args:
        node_count: number of nodes (rounded up to a power of two internally
            for the recursion; surplus IDs are folded back with a modulo).
        average_degree: target average (undirected) degree.
        label_density: ratio of distinct labels to nodes (paper's knob).
        params: R-MAT quadrant probabilities; defaults to (0.45, 0.15, 0.15, 0.25).
        seed: RNG seed, ``random.Random``, or ``numpy.random.Generator``.
        label_prefix: prefix of generated label strings.

    Returns:
        A :class:`LabeledGraph` with approximately
        ``node_count * average_degree / 2`` undirected edges; the exact
        achieved count and rejection tallies are attached as a
        :class:`~repro.graph.stats.GenerationReport`.
    """
    require_positive(node_count, "node_count")
    require_positive(average_degree, "average_degree")
    params = params or RmatParameters()
    params.validate()
    gen = ensure_generator(seed)

    scale = max(1, (node_count - 1).bit_length())
    target_edges = max(1, round(node_count * average_degree / 2))

    def draw(block: int) -> Tuple[np.ndarray, np.ndarray]:
        u, v = _rmat_edge_block(block, scale, params, gen)
        u %= node_count
        v %= node_count
        return u, v

    # R-MAT's skew concentrates edges on hub pairs, so duplicate losses are
    # heavier than Chung–Lu's; oversample a bit more aggressively.
    sampled = sample_unique_edges(
        draw,
        node_count,
        target_edges,
        gen,
        oversample=1.5,
        max_draws=target_edges * SAMPLING_BUDGET,
    )
    keys = sampled.keys

    label_count = label_count_for_density(node_count, label_density)
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
            model="rmat",
            target_edges=target_edges,
            achieved_edges=len(keys),
            sampling_rounds=sampled.rounds,
            rejected_self_loops=sampled.rejected_self_loops,
            rejected_duplicates=sampled.rejected_duplicates,
        ),
    )
