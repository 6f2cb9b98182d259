"""Golden label-pair keys and load sets, pinned to values recorded before
the (i, i) keys were dropped.

Only the keys of machine pairs i < j feed the planner's cluster graph, so
the base, every i < j key array and the load sets of a fixed batch of
plans must not move when the keys a machine shares with itself go.  The
checks read only those, so they hold for both layouts.  The first two
inputs hold every label pair on every machine pair, so their load sets
are the full ones; on the paper's Figure 5 graph 7 of the 8 plans prune.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.core.planner import QueryPlanner
from repro.graph.generators import generate_gnm
from repro.graph.generators.rmat import generate_rmat
from repro.query.generators import dfs_query
from repro.workloads.datasets import paper_figure5_graph

#: Every machine pair of both inputs holds every label pair (dense graphs,
#: few labels), so each input has one key digest.
RMAT_KEYS = "932be3224d13ecbbd51d5624df4a70937c3d0cfc043aa8a859e63732041f33a6"
SNAPSHOT_KEYS = "ee83fb3e785db83a29aa95604e1deafac7c0962535678a9740161411e31180e7"

GOLDEN = {
    "rmat": {
        "base": 10,
        "keys": {pair: RMAT_KEYS for pair in ("0_1", "0_2", "0_3", "1_2", "1_3", "2_3")},
        "load_sets": [
            "5374f78c8842f1220b0c8abe4ffe0a048f33ceab5741cdabfcffe030bd161fe4",
            "ad710782f01aee18c81447a09c326a0e675e3e7bc6f88f157556f5aa2f9e58ba",
            "7da420178f75785b61fcc84691f622681ac8fcd644ae16e601443cbbb76388c0",
            "1fd084a16a125b365441f3c3c586cdf4e9a4c1c28907bb48051c3a8bb0af4a6c",
            "5374f78c8842f1220b0c8abe4ffe0a048f33ceab5741cdabfcffe030bd161fe4",
            "ad710782f01aee18c81447a09c326a0e675e3e7bc6f88f157556f5aa2f9e58ba",
            "ad710782f01aee18c81447a09c326a0e675e3e7bc6f88f157556f5aa2f9e58ba",
            "1fd084a16a125b365441f3c3c586cdf4e9a4c1c28907bb48051c3a8bb0af4a6c",
        ],
    },
    "snapshot": {
        "base": 4,
        "keys": {pair: SNAPSHOT_KEYS for pair in ("0_1", "0_2", "1_2")},
        "load_sets": [
            "fa2c11e5182b89dc8a80e40a0429120c0f874a18192a874649474a242ce61acc",
            "a6de154736bc7e71225e4bac71db0b879c2e037df8166b44539e876a1d280807",
            "fd5740c61fd58363eaf22d392590c1e6ca87edfba2421c9b1d0945dbe136244d",
            "729867932e19c81023a0941d236c93ec470b02d15aaa417e54f0d69803c52874",
            "a6de154736bc7e71225e4bac71db0b879c2e037df8166b44539e876a1d280807",
            "a6de154736bc7e71225e4bac71db0b879c2e037df8166b44539e876a1d280807",
            "581a926bddf3ea0a378fbbd837a345d7de1f6c44a3d485d803a18bb8ae5dc0b2",
            "729867932e19c81023a0941d236c93ec470b02d15aaa417e54f0d69803c52874",
        ],
    },
    "figure5": {
        "base": 6,
        "keys": {
            "0_1": "261eace159b5fd1e25dd9cd0925bbbfaf59fcbcf85f6797a648b034d8f57b775",
            "0_2": "b71ba5fb265ccd916eb5e253e08264f75f65053c56cc970a1507a1e71c00b15e",
            "0_3": "7510aee12eebdc5377e65c7ca87061185436cf8253fc963cf8f13b72814f86a4",
            "1_2": "39154a5d6f25c3b88267774e26dc704d2397ec557fe0f3931d6f888ba7388d28",
            "2_3": "0c730b69905c5ef7a4ca5269f72365400bde2dd2c04eaf9bbb3d1c4a265a0131",
        },
        "load_sets": [
            "1067874598d75aaefeb841f72dc8a03ef1fd7903ddfd0d78c86d823e9d791b24",
            "9e679197091f796981bdbc6b0d5d9405d8a15de876ccad377c7cac92ffefac74",
            "c1d6fa062f09add97b9588097b7c9c851f7df395b2c57f091667af590acc9576",
            "0a3f8462d63f9c44733594d9f05f8b98d048ec0300ad48265c952a1bd07750b8",
            "5374f78c8842f1220b0c8abe4ffe0a048f33ceab5741cdabfcffe030bd161fe4",
            "dae898384af3ef2721f3c10bb9a6c579fed51d56d01f56b30346a212fff2264f",
            "5e812560287445b586393310cd5900377f4095061d4582a2e9f55a4d005bce41",
            "92864bfb814db2929fe2e45f462df170d49589e75d74064ce061ff23ddb531ce",
        ],
    },
}


def sha256(array) -> str:
    return hashlib.sha256(np.asarray(array, dtype="<i8").tobytes()).hexdigest()


def load_set_digest(plan) -> str:
    canonical = sorted(
        (machine, index, sorted(machines))
        for (machine, index), machines in plan.load_sets.items()
    )
    return hashlib.sha256(json.dumps(canonical).encode()).hexdigest()


@pytest.fixture(scope="module")
def rmat():
    graph = generate_rmat(2000, 8, label_density=0.005, seed=7)
    return graph, MemoryCloud.from_graph(graph, ClusterConfig(machine_count=4))


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    """The 3-machine fixture of the snapshot tests, saved and reopened."""
    graph = generate_gnm(80, 220, label_count=4, seed=13)
    directory = tmp_path_factory.mktemp("golden") / "snap"
    MemoryCloud.from_graph(graph, ClusterConfig(machine_count=3)).save_snapshot(directory)
    return graph, MemoryCloud.open_snapshot(directory)


@pytest.fixture(scope="module")
def figure5():
    graph = paper_figure5_graph()
    return graph, MemoryCloud.from_graph(graph, ClusterConfig(machine_count=4))


@pytest.mark.parametrize("name", ["rmat", "snapshot", "figure5"])
def test_label_pairs_and_load_sets_unchanged(name, request):
    graph, cloud = request.getfixturevalue(name)
    golden = GOLDEN[name]
    base, pairs = cloud.packed_label_pairs()
    assert base == golden["base"]
    assert {
        f"{low}_{high}": sha256(keys) for (low, high), keys in pairs.items() if low < high
    } == golden["keys"]
    digests = [
        load_set_digest(QueryPlanner(cloud).plan(dfs_query(graph, 3 + seed % 4, seed=seed)))
        for seed in range(8)
    ]
    assert digests == golden["load_sets"]
