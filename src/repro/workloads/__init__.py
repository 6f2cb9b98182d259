"""Canned datasets and query motifs for examples, tests and benchmarks."""

from repro.workloads.datasets import (
    DEFAULT_SEED,
    paper_figure5_graph,
    patents_small,
    rmat_graph,
    tiny_example_graph,
    wordnet_small,
)
from repro.workloads.motifs import (
    MOTIFS,
    coauthor_triangle,
    cross_label_path,
    star_collaboration,
)

__all__ = [
    "DEFAULT_SEED",
    "MOTIFS",
    "tiny_example_graph",
    "paper_figure5_graph",
    "patents_small",
    "wordnet_small",
    "rmat_graph",
    "coauthor_triangle",
    "cross_label_path",
    "star_collaboration",
]
