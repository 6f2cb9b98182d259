"""Real-dataset ingestion: edge lists, DBLP XML, and sparse-ID remapping.

The ingestion layer turns real-world graph files — whose node IDs are
sparse 64-bit integers or strings — into the same dense-ID
:class:`~repro.graph.labeled_graph.LabeledGraph` the synthetic generators
produce, so every downstream fast path (dense lookup tables, contiguous
partition maps) applies unchanged.  The external<->dense bijection is kept
as :class:`IdMap`, travels with the graph into snapshots, and is used at
result-materialization time so matches always report the caller's original
IDs.
"""

from repro.ingest.dblp import DBLP_MODES, ingest_dblp_xml, iter_dblp_records
from repro.ingest.edgelist import (
    DEFAULT_LABEL,
    IngestReport,
    degree_band_labeler,
    ingest_edge_list,
    ingest_edges,
    read_edge_list,
)
from repro.ingest.idmap import IdMap

__all__ = [
    "DBLP_MODES",
    "DEFAULT_LABEL",
    "IdMap",
    "IngestReport",
    "degree_band_labeler",
    "ingest_dblp_xml",
    "ingest_edge_list",
    "ingest_edges",
    "iter_dblp_records",
    "read_edge_list",
]
