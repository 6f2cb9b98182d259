"""Shared fixtures for the test suite.

The suite runs against a configurable cluster-runtime backend: the
``REPRO_EXECUTOR`` environment variable (``serial`` / ``process``) selects
the executor every :class:`SubgraphMatcher` defaults to.  The CI matrix
sets it per job (serial and process on every python) so the whole suite
exercises each backend.  Locally, plain ``pytest`` runs serial.
"""

from __future__ import annotations

import os

import pytest

from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import EXECUTOR_BACKENDS, EXECUTOR_ENV_VAR, ClusterConfig
from repro.graph.generators.erdos_renyi import generate_gnm
from repro.graph.labeled_graph import LabeledGraph
from repro.query.query_graph import QueryGraph
from repro.workloads.datasets import paper_figure5_graph, tiny_example_graph

#: Backend the suite runs under (validated at collection time so a typo in
#: the CI matrix fails immediately instead of silently running serial).
RUNTIME_BACKEND = os.environ.get(EXECUTOR_ENV_VAR) or "serial"
if RUNTIME_BACKEND not in EXECUTOR_BACKENDS:
    raise pytest.UsageError(
        f"{EXECUTOR_ENV_VAR}={RUNTIME_BACKEND!r} is not one of {EXECUTOR_BACKENDS}"
    )


@pytest.fixture(scope="session")
def runtime_backend() -> str:
    """The executor backend this test session runs under."""
    return RUNTIME_BACKEND


@pytest.fixture
def tiny_graph() -> LabeledGraph:
    """The Figure-1-style 6-node example graph."""
    return tiny_example_graph()


@pytest.fixture
def figure5_graph() -> LabeledGraph:
    """The Figure-5-inspired 22-node, 6-label graph."""
    return paper_figure5_graph()


@pytest.fixture
def triangle_tail_query() -> QueryGraph:
    """The triangle-with-tail query with exactly two matches in ``tiny_graph``."""
    return QueryGraph(
        {"qa": "a", "qb": "b", "qc": "c", "qd": "d"},
        [("qa", "qb"), ("qa", "qc"), ("qb", "qc"), ("qc", "qd")],
    )


@pytest.fixture
def small_random_graph() -> LabeledGraph:
    """A 60-node random graph with 4 labels (deterministic)."""
    return generate_gnm(60, 150, label_count=4, seed=7)


@pytest.fixture
def tiny_cloud(tiny_graph: LabeledGraph) -> MemoryCloud:
    """The tiny graph loaded into a 3-machine cloud."""
    return MemoryCloud.from_graph(tiny_graph, ClusterConfig(machine_count=3))


@pytest.fixture
def figure5_cloud(figure5_graph: LabeledGraph) -> MemoryCloud:
    """The Figure-5-inspired graph loaded into a 4-machine cloud."""
    return MemoryCloud.from_graph(figure5_graph, ClusterConfig(machine_count=4))


def normalize_matches(matches) -> list:
    """Canonical form of a list of assignments, for equality comparisons."""
    return sorted(tuple(sorted(match.items())) for match in matches)
