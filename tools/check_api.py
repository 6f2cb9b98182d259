"""Public-API lint: every facade namespace must declare itself honestly.

Checks, for each guarded module:

* ``__all__`` exists, has no duplicates, and every name in it resolves;
* every name in ``__all__`` is public (no leading underscore);
* for the strict modules (``repro.api`` — THE documented entry point),
  additionally: ``__all__`` is sorted, and every public object *defined*
  in the module (functions/classes whose ``__module__`` is the module
  itself, plus module-level UPPERCASE constants) appears in ``__all__`` —
  so a new facade symbol cannot ship undocumented, and re-exported
  internals cannot leak in silently.

It also greps ``src/`` for retired spellings (``max_workers=``,
``default_limit=``, the pre-task-API executor methods, the per-cell cloud
write path, the standalone ``hash_join``, the tuple-era result mutators,
the growable-table / set-view / dict-view members, the per-backend service
dict, ``start_method``, the join-order sampler, the two budget subclasses,
the row-shaped exploration (``_row_blocks``' ``stwig`` parameter,
``_stwig_blocks``, ``TableHandle``'s ``from_array``), the per-edge generator oracles
and the dataset cache (test and benchmark code, now in ``tests/helpers.py``
and ``benchmarks/dataset_cache.py``), and the join's cross-batch publication
cache with its handle fingerprints, the in-place snapshot reload
(``load_cloud_snapshot``, ``MemoryCloud.load_snapshot``) with the image's
``assignment/ids`` alias, and the second snapshot kind and second log merge
(``save_graph_snapshot`` / ``save --graph-only``, ``replay_deltas`` /
``open_graph_snapshot``'s ``replay=``) with the provider wrapper layer
(``StorageProvider`` and its subclasses), and the graph publication to
worker processes (``publish_cloud`` / ``rebuild_cloud`` / ``CloudHandle``,
``storage_publication`` and ``_install``'s ``file_specs=``, the two-kind
``discard_spec``, ``published_segment_names`` / ``segment_names``), and the
paper's evaluation periphery (the ``repro.bench`` harness, the
``repro.serve.bench`` client driver, ``explore_neighborhood``) with what
only it used (``use_edge_statistics``, ``EdgeStatistics.from_cloud``, the
label index's vectorized filters, ``repro.utils.timer``), and the
shared-memory transport of the process backend (``TableHandle``,
``SharedArraySpec``, ``SegmentRegistry``, ``publish_array`` /
``sweep_blocks``, ``_SHIP_THRESHOLD_ENTRIES``, ``attached_matrix`` /
``release_matrix``, any ``shared_memory`` import): the names are gone from
the API, and nothing in ``src/`` may bring them back.

And it keeps the front door single (``FRONT_DOOR``): ``repro.api`` is the one
place a source becomes a cloud and a service is put in front of it, so the
CLI may construct no cloud, matcher or service of its own and ``serve/`` no
cloud.  Likewise one worker mechanism (``WORKER_POOLS``): the process backend
owns its worker processes, forked through an explicit context so they
inherit the cloud, so nothing under ``src/`` may import or construct a
``multiprocessing`` pool beside them, or a ``multiprocessing.Process`` of
the platform's default start method.

Run from the repo root (CI's lint job does):

    python tools/check_api.py
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path
from typing import List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: Modules whose __all__ must exist and resolve.
GUARDED = [
    "repro",
    "repro.api",
    "repro.baselines",
    "repro.cloud",
    "repro.core",
    "repro.graph",
    "repro.graph.generators",
    "repro.ingest",
    "repro.query",
    "repro.runtime",
    "repro.serve",
    "repro.storage",
    "repro.utils",
    "repro.workloads",
]

#: Modules additionally held to the sorted/complete standard.
STRICT = ["repro.api", "repro.ingest"]

#: Retired spellings banned from ``src/`` outright.
RETIRED_SPELLINGS = [
    "max_workers=",
    "default_limit=",
    "map_explore(",
    "map_join(",
    "publish_tables(",
    "attached_tables(",
    "store_cell(",
    "flush_staged(",
    "from_partition_state(",
    "hash_join(",
    "remap_results(",
    "_rows_cache",
    ".add_row(",
    ".add_rows(",
    ".truncate(",
    ".slice_rows(",
    ".reorder(",
    ".column_values(",
    ".bound_nodes(",
    ".merge_union(",
    "MatchTable.from_array(",
    "from_table(",
    "node_to_machine",
    "start_method",
    "_service_for(",
    "self._services",
    "sample_size",
    "estimate_join_size(",
    "LocalJoinBudget",
    "CooperativeJoinBudget",
    "distinct_pairs, stwig",
    "_stwig_blocks(",
    "generate_power_law_scalar",
    "generate_rmat_scalar",
    "generate_gnm_scalar",
    "cached_graph",
    "default_cache_dir",
    ".publications",
    "_fingerprints",
    "load_cloud_snapshot(",
    ".load_snapshot(",
    '"assignment/ids"',
    "save_graph_snapshot",
    "--graph-only",
    "replay_deltas",
    "replay=",
    "StorageProvider",
    "publish_cloud",
    "rebuild_cloud",
    "CloudHandle",
    "storage_publication",
    "file_specs=",
    "discard_spec",
    "published_segment_names",
    "segment_names(",
    "repro.bench",
    "repro.serve.bench",
    "run_concurrent_clients",
    "explore_neighborhood",
    "use_edge_statistics",
    "from_cloud(",
    "has_label_mask",
    "filter_ids_with_label",
    "repro.utils.timer",
    "TableHandle",
    "SharedArraySpec",
    "SegmentRegistry",
    "publish_array(",
    "sweep_blocks(",
    "_SHIP_THRESHOLD_ENTRIES",
    "attached_matrix(",
    "release_matrix(",
    "shared_memory",
]

#: Constructor spellings banned per file (glob under the repo root): a second
#: front door beside ``repro.api`` fails the lint job.
FRONT_DOOR = {
    "src/repro/cli.py": [
        "MemoryCloud.from_graph(",
        "MemoryCloud.open_snapshot(",
        "SubgraphMatcher(",
        "QueryService(",
    ],
    "src/repro/serve/*.py": ["MemoryCloud.from_graph(", "MemoryCloud.open_snapshot("],
}

#: Spellings that import or construct a second worker mechanism under ``src/``.
WORKER_POOLS = [
    "multiprocessing.Pool",
    "multiprocessing.pool",
    "import Pool",
    ".Pool(",
    "multiprocessing.Process(",
]


def _banned_lines(root: Path, paths, spellings: List[str], why: str) -> List[str]:
    errors = []
    for path in sorted(paths):
        relative = path.relative_to(root)
        for line_number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            for spelling in spellings:
                if spelling in line:
                    errors.append(f"{relative}:{line_number}: {why} {spelling!r}")
    return errors


def check_retired_spellings(root: Path) -> List[str]:
    return _banned_lines(
        root, (root / "src").rglob("*.py"), RETIRED_SPELLINGS,
        "use the current API, not the retired spelling",
    )


def check_front_door(root: Path) -> List[str]:
    errors = []
    for pattern, spellings in FRONT_DOOR.items():
        errors += _banned_lines(
            root, root.glob(pattern), spellings,
            "go through repro.api instead of constructing",
        )
    return errors


def check_worker_pools(root: Path) -> List[str]:
    return _banned_lines(
        root, (root / "src").rglob("*.py"), WORKER_POOLS,
        "ProcessExecutor owns its workers; no pool beside them:",
    )


def check_module(name: str, strict: bool) -> List[str]:
    errors = []
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        return [f"{name}: missing __all__"]
    if len(set(exported)) != len(exported):
        dupes = sorted({n for n in exported if exported.count(n) > 1})
        errors.append(f"{name}: duplicate __all__ entries {dupes}")
    for entry in exported:
        if entry.startswith("_") and not (
            entry.startswith("__") and entry.endswith("__")
        ):
            errors.append(f"{name}: private name {entry!r} in __all__")
        elif not hasattr(module, entry):
            errors.append(f"{name}: __all__ entry {entry!r} does not resolve")
    if not strict:
        return errors

    if list(exported) != sorted(exported):
        errors.append(f"{name}: __all__ is not sorted: {list(exported)}")
    defined = set()
    for attr, value in vars(module).items():
        if attr.startswith("_") or inspect.ismodule(value):
            continue
        if inspect.isfunction(value) or inspect.isclass(value):
            if getattr(value, "__module__", None) == name:
                defined.add(attr)
        elif attr.isupper():
            defined.add(attr)
    undeclared = sorted(defined - set(exported))
    if undeclared:
        errors.append(
            f"{name}: public names defined but not in __all__: {undeclared}"
        )
    return errors


def main() -> int:
    failures = []
    for name in GUARDED:
        failures.extend(check_module(name, strict=name in STRICT))
    root = Path(__file__).resolve().parent.parent
    failures.extend(check_retired_spellings(root))
    failures.extend(check_front_door(root))
    failures.extend(check_worker_pools(root))
    if failures:
        for failure in failures:
            print(f"API LINT: {failure}", file=sys.stderr)
        return 1
    print(f"api lint passed ({len(GUARDED)} modules + retired-spelling, front-door and worker-pool greps)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
