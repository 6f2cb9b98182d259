"""The final binding filter runs once per executed stage per query.

Exploration ends with it (``exploration._final_filter``, one ``select`` over
each fused stage); the join only reads the filtered stages.  Every pass is
logged with the process that ran it, so a worker of the process backend
that filtered again would show up by its PID.
"""

from __future__ import annotations

import os

import pytest

import repro.core.exploration as exploration_module
from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.core.distributed import assemble_results, machine_result_rows
from repro.core.engine import SubgraphMatcher
from repro.core.exploration import explore
from repro.core.planner import MatcherConfig, QueryPlanner
from repro.core.result import STwigTable
from repro.graph.generators.power_law import generate_power_law
from repro.query.generators import dfs_query
from repro.query.query_graph import QueryGraph
from repro.runtime import ProcessExecutor, SerialExecutor


@pytest.fixture(scope="module")
def graph():
    return generate_power_law(2_000, 6, label_density=3e-3, seed=23)


@pytest.fixture(scope="module")
def queries(graph):
    return [dfs_query(graph, size, seed=seed) for size, seed in ((3, 1), (4, 3), (5, 9))]


@pytest.fixture
def passes(tmp_path, monkeypatch):
    """Log every filter pass and every ``select`` as ``(kind, pid)``; the
    fixture returns a function that reads the log and empties it."""
    log = tmp_path / "passes.log"

    def logged(kind, original):
        def wrapper(*args, **kwargs):
            with open(log, "a", encoding="ascii") as handle:
                handle.write(f"{kind} {os.getpid()}\n")
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        exploration_module, "_final_filter", logged("filter", exploration_module._final_filter)
    )
    monkeypatch.setattr(STwigTable, "select", logged("select", STwigTable.select))

    def read():
        if not log.exists():
            return []
        lines = log.read_text(encoding="ascii").split()
        log.unlink()
        return [(kind, int(pid)) for kind, pid in zip(lines[::2], lines[1::2])]

    return read


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_once_per_executed_stage_per_query_on_the_driver(graph, queries, passes, backend):
    cloud = MemoryCloud.from_graph(graph, ClusterConfig(machine_count=4))
    # Made after the patch: the process backend's workers fork with it.
    executor = SerialExecutor() if backend == "serial" else ProcessExecutor(workers=2)
    selects = 0
    try:
        with SubgraphMatcher(cloud, MatcherConfig(), executor=executor) as matcher:
            for query in queries:
                stages = len(matcher.explain(query).stwigs)
                for limit in (None, 3):
                    result = matcher.match(query, limit=limit)
                    assert result.match_count > 0
                    kinds, pids = zip(*passes())
                    assert kinds.count("filter") == stages
                    assert set(pids) == {os.getpid()}
                    selects += kinds.count("select")
    finally:
        executor.close()
        cloud.close()
    assert selects > 0, "the filter never dropped a row: nothing was pinned"


def test_once_across_the_per_machine_calls_over_one_outcome(graph, queries, passes):
    """Each machine's ``machine_result_rows`` over one outcome, as the
    benchmark's per-layer replay makes them, then the assembly: the stages
    were filtered once, by ``explore``."""
    cloud = MemoryCloud.from_graph(graph, ClusterConfig(machine_count=4))
    planner = QueryPlanner(cloud, MatcherConfig())
    for query in queries:
        plan = planner.plan(query)
        outcome = explore(cloud, plan)
        assert [kind for kind, _ in passes()].count("filter") == len(plan.stwigs)
        shares = [
            machine_result_rows(cloud, plan, outcome.tables, machine, outcome.bindings)
            for machine in range(cloud.machine_count)
        ]
        joined = assemble_results(cloud, plan, outcome)
        assert passes() == []
        assert sum(len(rows) for rows in shares) == joined.row_count > 0


def test_no_pass_when_turned_off_or_empty(graph, queries, passes):
    cloud = MemoryCloud.from_graph(graph, ClusterConfig(machine_count=4))
    off = QueryPlanner(cloud, MatcherConfig(use_final_binding_filter=False))
    assert explore(cloud, off.plan(queries[1])).total_rows() > 0
    assert passes() == []
    absent = QueryGraph(dict.fromkeys(queries[0].nodes(), "absent"), queries[0].edges())
    assert explore(cloud, QueryPlanner(cloud).plan(absent)).empty
    assert passes() == []
