"""Fault injection: a snapshot's data file is torn, or a save runs out of disk.

The failure model these scenarios pin: a ``columns.bin`` too short for the
arrays its manifest lists is refused with a typed ``StorageError`` by every
reader (never a bare ``ValueError`` out of ``np.memmap``), and a save or a
compaction that fails mid-write leaves the directory exactly as it was —
no stranded temporaries, the previous generation still opening unchanged,
the delta log still pending.
"""

from __future__ import annotations

import errno
import os

import pytest

import repro.api as api
from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.core.engine import SubgraphMatcher
from repro.errors import StorageError
from repro.graph.generators.power_law import generate_power_law
from repro.query.generators import dfs_query
from repro.storage.delta import DeltaLog, compact_snapshot
from repro.storage.provider import MmapColumnWriter
from repro.storage.snapshot import open_graph_snapshot, read_manifest


@pytest.fixture(scope="module")
def graph():
    return generate_power_law(2_000, 6, label_density=5e-3, seed=23)


@pytest.fixture(scope="module")
def query(graph):
    return dfs_query(graph, 4, seed=3)


@pytest.fixture
def snapshot(tmp_path, graph):
    MemoryCloud.from_graph(graph, ClusterConfig(machine_count=3)).save_snapshot(
        tmp_path / "snap"
    )
    return tmp_path / "snap"


def rows(directory, query):
    with MemoryCloud.open_snapshot(directory) as cloud:
        return sorted(SubgraphMatcher(cloud, executor="serial").match(query).rows)


def directory_state(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


# -- a torn data file ----------------------------------------------------------


def cut_inside_first_array(manifest, size):
    spec = min(manifest.arrays.values(), key=lambda spec: spec.offset)
    return spec.offset + spec.nbytes // 2


CUTS = {
    "inside_first_array": cut_inside_first_array,
    "mid_file": lambda manifest, size: size // 2,
    "one_byte_short": lambda manifest, size: size - 1,
}

READERS = {
    "api.open_snapshot": api.open_snapshot,
    "open_graph_snapshot": open_graph_snapshot,
    "read_manifest(verify)": lambda directory: read_manifest(directory, verify=True),
    "compact_snapshot": compact_snapshot,
}


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("cut", CUTS)
def test_truncated_data_file_is_a_storage_error(snapshot, cut, reader):
    data = snapshot / "columns.bin"
    size = data.stat().st_size
    manifest = read_manifest(snapshot)
    # The last array ends at the end of the file: one byte short tears it.
    assert max(spec.offset + spec.nbytes for spec in manifest.arrays.values()) == size
    DeltaLog(snapshot).append_edges([(0, 1)])  # so compaction has work to do
    with open(data, "r+b") as handle:
        handle.truncate(CUTS[cut](manifest, size))
    with pytest.raises(StorageError, match=r"ends at byte \d+ but data file .* holds"):
        READERS[reader](snapshot)


# -- a save or compaction that runs out of disk --------------------------------


def disk_full_on_fifth_array(patch):
    real_publish = MmapColumnWriter.publish
    calls = []

    def publish(writer, array):
        calls.append(array)
        if len(calls) == 5:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real_publish(writer, array)

    patch.setattr(MmapColumnWriter, "publish", publish)


def test_failed_save_leaves_the_previous_generation(snapshot, graph, query):
    expected = rows(snapshot, query)
    assert expected
    before = directory_state(snapshot)
    cloud = MemoryCloud.from_graph(graph, ClusterConfig(machine_count=3))
    with pytest.MonkeyPatch.context() as patch:
        disk_full_on_fifth_array(patch)
        with pytest.raises(OSError) as raised:
            cloud.save_snapshot(snapshot, generation=2)
    assert raised.value.errno == errno.ENOSPC
    assert directory_state(snapshot) == before
    assert read_manifest(snapshot, verify=True).generation == 1
    assert rows(snapshot, query) == expected


def test_failed_compaction_keeps_the_log(snapshot, query):
    DeltaLog(snapshot).append_edges([(0, 1), (2, 3)])
    expected = rows(snapshot, query)
    before = directory_state(snapshot)
    assert before["deltas.log"]
    with pytest.MonkeyPatch.context() as patch:
        disk_full_on_fifth_array(patch)
        with pytest.raises(OSError) as raised:
            compact_snapshot(snapshot)
    assert raised.value.errno == errno.ENOSPC
    assert directory_state(snapshot) == before
    assert len(DeltaLog(snapshot).read()) == 2
    assert rows(snapshot, query) == expected
    # With room on the disk the same compaction goes through.
    compact_snapshot(snapshot)
    assert not DeltaLog(snapshot).read()
    assert rows(snapshot, query) == expected
    assert read_manifest(snapshot).generation == 2
