"""The checked-in co-authorship slice (sparse 64-bit IDs) through the engine.

``benchmarks/data/coauthor_5k.edges`` is the one real edge list in the
repository.  Ingested as it is (external IDs remapped through an ``IdMap``)
and ingested pre-compacted to ``0..n-1`` (the identity fast path), it is the
same dense graph — dense ID = rank of external ID — so every motif must
answer with the same dense rows, the external rows must be their ``IdMap``
image, and the map must survive a snapshot round trip.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.core.engine import SubgraphMatcher
from repro.ingest import degree_band_labeler, ingest_edges, read_edge_list
from repro.workloads.motifs import MOTIFS
from tests.helpers import memmapped_columns

DATA_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "data" / "coauthor_5k.edges"
LIMIT = 1024


@pytest.fixture(scope="module")
def ingests():
    """``(sparse graph, compacted graph)`` of the slice, same labeler."""
    src, dst, _ = read_edge_list(DATA_PATH)
    labeler = degree_band_labeler()
    sparse = ingest_edges(src, dst, labeler=labeler, source=str(DATA_PATH))
    compacted = ingest_edges(
        sparse.id_map.to_dense(src), sparse.id_map.to_dense(dst), labeler=labeler
    )
    return sparse, compacted


@pytest.fixture(scope="module")
def clouds(ingests):
    config = ClusterConfig(machine_count=4)
    with MemoryCloud.from_graph(ingests[0], config) as sparse_cloud:
        with MemoryCloud.from_graph(ingests[1], config) as compacted_cloud:
            yield sparse_cloud, compacted_cloud


def test_slice_takes_the_remap_path_and_its_compaction_the_identity_path(ingests):
    sparse, compacted = ingests
    assert sparse.ingest_report.remapped
    assert not sparse.id_map.is_identity
    assert compacted.id_map.is_identity
    assert (sparse.node_count, sparse.edge_count) == (compacted.node_count, compacted.edge_count)


@pytest.mark.parametrize("motif", sorted(MOTIFS))
def test_sparse_and_compacted_ingests_answer_alike(ingests, clouds, motif):
    id_map = ingests[0].id_map
    query = MOTIFS[motif]()
    with SubgraphMatcher(clouds[0]) as sparse_matcher:
        sparse = sparse_matcher.match(query, limit=LIMIT)
    with SubgraphMatcher(clouds[1]) as compacted_matcher:
        compacted = compacted_matcher.match(query, limit=LIMIT)
    assert sparse.match_count > 0
    assert np.array_equal(sparse.to_array(), compacted.to_array())
    # External rows are the dense rows seen through the IdMap, row for row.
    externals = sparse.external_array()
    assert externals.shape == sparse.to_array().shape
    assert np.array_equal(id_map.to_dense(externals.ravel()), sparse.to_array().ravel())
    assert sparse.external_rows() == [tuple(row) for row in externals.tolist()]


def test_snapshot_round_trip_keeps_the_id_map_and_the_external_rows(ingests, clouds, tmp_path):
    sparse_cloud = clouds[0]
    query = MOTIFS["coauthor-triangle"]()
    with SubgraphMatcher(sparse_cloud) as matcher:
        expected = matcher.match(query, limit=LIMIT).external_rows()
    sparse_cloud.save_snapshot(tmp_path / "snap")
    with MemoryCloud.open_snapshot(tmp_path / "snap") as reopened:
        assert memmapped_columns(reopened) == set(reopened.columns())
        assert reopened.id_map is not None and reopened.id_map == ingests[0].id_map
        with SubgraphMatcher(reopened) as matcher:
            assert matcher.match(query, limit=LIMIT).external_rows() == expected
