"""Synthetic graph generators used by tests, examples, and benchmarks.

The default generators (``generate_power_law``, ``generate_rmat``,
``generate_gnm``/``generate_gnp``) are array-native: endpoints are sampled
in edge-sized numpy blocks and bulk-ingested through
:meth:`~repro.graph.labeled_graph.LabeledGraph.from_arrays`.
"""

from repro.graph.generators.erdos_renyi import generate_gnm, generate_gnp
from repro.graph.generators.labels import (
    assign_uniform_label_ids,
    assign_uniform_labels,
    assign_zipf_label_ids,
    assign_zipf_labels,
    label_count_for_density,
    label_ids_from_uniforms,
    make_label_collection,
    zipf_cumulative,
)
from repro.graph.generators.lookalike import patents_like, wordnet_like
from repro.graph.generators.power_law import generate_power_law
from repro.graph.generators.rmat import RmatParameters, generate_rmat

__all__ = [
    "generate_gnm",
    "generate_gnp",
    "generate_power_law",
    "generate_rmat",
    "RmatParameters",
    "patents_like",
    "wordnet_like",
    "make_label_collection",
    "label_count_for_density",
    "label_ids_from_uniforms",
    "zipf_cumulative",
    "assign_uniform_labels",
    "assign_uniform_label_ids",
    "assign_zipf_labels",
    "assign_zipf_label_ids",
]
