"""Golden graphs: what the text and mapping paths build, pinned byte for byte.

Each case is reduced to sha256 digests of its four CSR columns (node IDs,
label IDs, offsets, neighbors) plus its edge count and label-table order.
The digests were recorded from the mapping builder that ``from_edges``
replaced, so any drift in node order, label interning order, neighbor order
or dedup shows up here.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.graph.io import load_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.workloads.datasets import paper_figure5_graph, tiny_example_graph
from tests.integration.test_examples import load_example

# A saved prefix with gapped IDs, listed out of order, whose labels first
# appear in the file in a different order than by ascending node ID.
GAPPED_LABELS = "1000\tz\n3\ty\n2199023255552\tx\n17\tz\n40\ty\n41\tw\n"
GAPPED_EDGES = "1000\t3\n3\t17\n17\t1000\n2199023255552\t40\n40\t3\n17\t3\n41\t40\n"

GOLDEN = {
    "tiny_example": {
        "node_ids": "5de7452ccb05dcb7", "label_ids": "3aa43c385ec163b5",
        "offsets": "25f01ff5b9743e8f", "neighbors": "be54d1db816e2c11",
        "edge_count": 7, "labels": ["a", "b", "c", "d"],
    },
    "paper_figure5": {
        "node_ids": "dbd228d44c93420e", "label_ids": "d7a542a27f84946f",
        "offsets": "0fb550f0616fa569", "neighbors": "85ab58d1f00a872c",
        "edge_count": 42, "labels": ["a", "b", "c", "d", "e", "f"],
    },
    "gapped_load": {
        "node_ids": "0e606eb18fdb5514", "label_ids": "7c647d0ae8f4b842",
        "offsets": "51dce989e704953c", "neighbors": "afeb77d0be5a3ca3",
        "edge_count": 6, "labels": ["y", "z", "w", "x"],
    },
    "gapped_subgraph": {
        "node_ids": "f7d1d41511d85304", "label_ids": "89e635c5e369e4ab",
        "offsets": "88b7b711018a19ee", "neighbors": "b88b9439d1231a87",
        "edge_count": 5, "labels": ["y", "z", "w"],
    },
    "knowledge_graph": {
        "node_ids": "af27bcc358670804", "label_ids": "e84b30c2cb181c30",
        "offsets": "dd3daf24cf572775", "neighbors": "f16514f93717f7b4",
        "edge_count": 24915,
        "labels": ["person", "paper", "venue", "institution", "topic"],
    },
}


def _digests(graph: LabeledGraph) -> dict:
    def sha(array) -> str:
        return hashlib.sha256(
            array.dtype.str.encode() + array.tobytes()
        ).hexdigest()[:16]

    return {
        "node_ids": sha(graph.node_id_array()),
        "label_ids": sha(graph.label_id_array()),
        "offsets": sha(graph.offset_array()),
        "neighbors": sha(graph.neighbor_array()),
        "edge_count": graph.edge_count,
        "labels": list(graph.label_table.labels()),
    }


def _gapped(tmp_path) -> LabeledGraph:
    prefix = tmp_path / "gapped"
    Path(f"{prefix}.labels").write_text(GAPPED_LABELS)
    Path(f"{prefix}.edges").write_text(GAPPED_EDGES)
    return load_graph(prefix)


BUILDERS = {
    "tiny_example": lambda tmp_path: tiny_example_graph(),
    "paper_figure5": lambda tmp_path: paper_figure5_graph(),
    "gapped_load": _gapped,
    "gapped_subgraph": lambda tmp_path: _gapped(tmp_path).subgraph([41, 3, 1000, 17, 40]),
    "knowledge_graph": lambda tmp_path: load_example(
        "knowledge_graph_search"
    ).build_knowledge_graph(),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_graph_matches_golden(name, tmp_path):
    assert _digests(BUILDERS[name](tmp_path)) == GOLDEN[name]
