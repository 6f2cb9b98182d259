"""Golden answers and communication counters across node-ID domains,
pinned to values recorded before node lookup had one owner.

Each of the three domains resolves node IDs a different way (identity,
a dense position table, binary search), and each install path builds the
cloud's lookup state from a different source: a partitioned graph, a
snapshot, a snapshot plus a delta log whose new nodes open a gap past the
largest ID, and a snapshot reopened at another machine count.  However a
node is found, the answers and every ``CloudMetrics`` counter — including
``per_pair_messages`` — of a fixed batch of plans must not move.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.engine import SubgraphMatcher
from repro.query.generators import dfs_query

from tests.helpers import (
    INSTALL_PATHS,
    NODE_ID_DOMAINS,
    domain_graph,
    installed_cloud,
    seeded_graph,
)

LIMITS = (None, 16)

#: ``(answers, counters)`` digests per (domain, install path).
GOLDEN = {
    ("contiguous", "from_graph"): [
        "ce6c072c8d649700c47646255d7a5a8db9809cf207e578c254cb74a601000ca6",
        "d33d21dde1402303265b8be35eab7e9e60af8a46c7c9f93572d4ba751980fcbb",
    ],
    ("contiguous", "snapshot"): [
        "ce6c072c8d649700c47646255d7a5a8db9809cf207e578c254cb74a601000ca6",
        "d33d21dde1402303265b8be35eab7e9e60af8a46c7c9f93572d4ba751980fcbb",
    ],
    ("contiguous", "grown"): [
        "be1f987153a9b632372308502ffd4283703933b4be3e3f91d95e4c0f07a8c3f6",
        "226111ad9e26793559901b09abc5907acb9847a2d7fe5adebef2da23e94be5c0",
    ],
    ("contiguous", "resized"): [
        "1da1ef3d1d004779a59fa12e2efed8f62dfe488946637f16fb1beb0438c79618",
        "aa1710d6a683a7e9cc8f6110f08e6ac29820a02c70397892089a520349ba50c4",
    ],
    ("gapped", "from_graph"): [
        "219a6451cdafce5435efd43cd1c5b49832656022c18760e05a042d68c81eb7b9",
        "968dba58b0ddbdb1ec850aff0fdb3f45aac324221dcb67ad8135c9c19350f422",
    ],
    ("gapped", "snapshot"): [
        "219a6451cdafce5435efd43cd1c5b49832656022c18760e05a042d68c81eb7b9",
        "968dba58b0ddbdb1ec850aff0fdb3f45aac324221dcb67ad8135c9c19350f422",
    ],
    ("gapped", "grown"): [
        "8da55b5695d137c53c48b5bc8f62cd72697bdbe2bd50bd087460c7bb60792c29",
        "f1134fe424c20047152ca5e74ffbf76c92a5e949eb12e1bb685b30aac789ca13",
    ],
    ("gapped", "resized"): [
        "325a1d8e006e95a02561b393eff334e82a594052ce22ebfe3e6fee45eb054465",
        "5cb54e95aada2edcb885c837976422edede89a8d0e945504d41e9e08e0f63309",
    ],
    ("sparse", "from_graph"): [
        "87b1d8e77c397ca1489ec5b92c2ce53f39723c6d098206fb7c4a84c183f200ee",
        "0ee9c50c78d441ed79dcc1748cfdaf25bf62b4670fe0600565f6f8e7a80f4288",
    ],
    ("sparse", "snapshot"): [
        "87b1d8e77c397ca1489ec5b92c2ce53f39723c6d098206fb7c4a84c183f200ee",
        "0ee9c50c78d441ed79dcc1748cfdaf25bf62b4670fe0600565f6f8e7a80f4288",
    ],
    ("sparse", "grown"): [
        "e4bcc77998e94c8de550eae8c23fb33171ae40c61b09b1201eec9eaafad7e318",
        "c65ad080326e5188917e8191592105299de94605effb1da07735da6d87330d8a",
    ],
    ("sparse", "resized"): [
        "b519412cb9bdc796404b4bab3d9a99904aed4abad66078ce90f660023ce8b368",
        "47b461fce75a3f35a1de09c1e39e581300a0f53ed55f58cbad98ef82e1bdc8dc",
    ],
}


def digests(cloud, queries):
    """sha256 of every query's sorted answers, and of its counters.

    Serial on purpose: under a limit, the process backend's counters
    depend on its schedule (which machines' joins ran before the limit was
    met); the answers do not.
    """
    answers, counters = hashlib.sha256(), hashlib.sha256()
    with SubgraphMatcher(cloud, executor="serial") as matcher:
        for query in queries:
            for limit in LIMITS:
                cloud.reset_metrics()
                rows = matcher.match(query, limit=limit).to_array()
                rows = rows[np.lexsort(rows.T[::-1])]
                answers.update(repr(rows.shape).encode())
                answers.update(np.ascontiguousarray(rows, dtype="<i8").tobytes())
                pairs = sorted(
                    [list(pair), count]
                    for pair, count in cloud.metrics.per_pair_messages.items()
                    if count
                )
                counters.update(json.dumps([cloud.metrics.snapshot(), pairs]).encode())
    return answers.hexdigest(), counters.hexdigest()


@pytest.fixture(scope="module")
def base_graph():
    return seeded_graph(seed=37, nodes=90, edges=240, labels=3)


@pytest.mark.parametrize("path", INSTALL_PATHS)
@pytest.mark.parametrize("domain", NODE_ID_DOMAINS)
def test_answers_and_counters_unchanged(domain, path, base_graph, tmp_path):
    graph = domain_graph(base_graph, domain)
    queries = [dfs_query(graph, 3 + seed % 4, seed=seed) for seed in range(8)]
    cloud = installed_cloud(graph, path, tmp_path / "snap")
    assert list(digests(cloud, queries)) == GOLDEN[domain, path]
