"""Per-table / per-figure experiment drivers.

Every public function regenerates one table or figure of the paper's
evaluation section and returns its rows as a list of dicts; the
``benchmarks/`` scripts call these and print them with
:mod:`benchmarks.paper.reporting`.  Parameters default to "quick" scales so the
whole suite completes in minutes; pass larger values for longer runs.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from repro.core.planner import MatcherConfig
from repro.graph.generators.rmat import generate_rmat
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.stats import compute_stats
from repro.workloads.datasets import DEFAULT_SEED, patents_small, wordnet_small

from benchmarks.paper.cost_models import (
    FACEBOOK_SCALE,
    GraphScale,
    feasible_at_scale,
    table1_cost_models,
)
from benchmarks.paper.edge_join import EdgeIndex
from benchmarks.paper.harness import build_cloud, run_suite
from benchmarks.paper.neighborhood_index import NeighborhoodSignatureIndex
from benchmarks.paper.suites import (
    PAPER_RESULT_LIMIT,
    dfs_suite,
    random_suite,
)

#: Matcher configuration used by the figure benchmarks.  ``max_stwig_leaves``
#: keeps exploration tables tractable in pure Python on the low-label-count
#: workloads (WordNet-like, dense R-MAT); results are unchanged, only the
#: decomposition is split more finely (see DESIGN.md, "Engineering
#: adaptations").
BENCH_MATCHER_CONFIG = MatcherConfig(max_stwig_leaves=3)

# ---------------------------------------------------------------------------
# Table 1 — index cost comparison of subgraph matching methods
# ---------------------------------------------------------------------------


def table1_method_comparison(
    measured_graph: Optional[LabeledGraph] = None,
    scale: GraphScale = FACEBOOK_SCALE,
) -> List[Dict[str, object]]:
    """Reproduce Table 1: analytic index costs plus measured index sizes.

    The analytic columns are evaluated at ``scale`` (Facebook-sized by
    default, as in the paper); the measured columns build the indices we
    actually implement on ``measured_graph`` (a small graph) and report
    their real sizes and build times.
    """
    measured_graph = measured_graph or patents_small()
    rows: List[Dict[str, object]] = []
    measured = _measured_index_costs(measured_graph)
    for model in table1_cost_models(scale):
        row = model.as_row()
        row["feasible_at_scale"] = feasible_at_scale(model)
        row.update(measured.get(model.name, {}))
        rows.append(row)
    return rows


def _measured_index_costs(graph: LabeledGraph) -> Dict[str, Dict[str, object]]:
    """Build the reproducible indices on ``graph`` and measure size/time."""
    measured: Dict[str, Dict[str, object]] = {}

    started = time.perf_counter()
    edge_index = EdgeIndex(graph)
    measured["RDF-3X"] = {
        "measured_entries": edge_index.size_in_entries(),
        "measured_build_s": round(time.perf_counter() - started, 4),
    }
    measured["BitMat"] = dict(measured["RDF-3X"])

    started = time.perf_counter()
    signature_index = NeighborhoodSignatureIndex(graph, radius=1)
    measured["GraphQL"] = {
        "measured_entries": signature_index.size_in_entries(),
        "measured_build_s": round(time.perf_counter() - started, 4),
    }
    measured["Zhao-Han"] = dict(measured["GraphQL"])

    started = time.perf_counter()
    cloud = build_cloud(graph, machine_count=1)
    measured["STwig"] = {
        "measured_entries": sum(
            machine.label_index.size_in_entries() for machine in cloud.machines
        ),
        "measured_build_s": round(time.perf_counter() - started, 4),
    }
    return measured


# ---------------------------------------------------------------------------
# Table 2 — graph loading time vs. node count
# ---------------------------------------------------------------------------


def table2_loading_times(
    node_counts: Sequence[int] = (16_000, 64_000, 256_000, 1_024_000),
    average_degree: float = 16.0,
    machine_count: int = 4,
) -> List[Dict[str, object]]:
    """Reproduce Table 2: time to load R-MAT graphs of increasing size.

    The paper sweeps 1M..4096M nodes with a 4x progression; with the
    vectorized generators and the bulk CSR ingest the default sweep now
    reaches the paper's 1M starting point (generation time is reported
    alongside loading so regressions in either phase are visible).
    """
    rows: List[Dict[str, object]] = []
    for node_count in node_counts:
        started = time.perf_counter()
        graph = generate_rmat(
            node_count=node_count,
            average_degree=average_degree,
            label_density=0.01,
            seed=DEFAULT_SEED,
        )
        generate_seconds = time.perf_counter() - started
        cloud = build_cloud(graph, machine_count=machine_count)
        rows.append(
            {
                "nodes": node_count,
                "edges": graph.edge_count,
                "generate_time_s": round(generate_seconds, 4),
                "load_time_s": round(cloud.loading_seconds, 4),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 8 — run time vs. query size on the real-data look-alikes
# ---------------------------------------------------------------------------


def figure8a_dfs_query_size(
    query_sizes: Sequence[int] = (3, 4, 5, 6, 7, 8, 9, 10),
    batch_size: int = 5,
    machine_count: int = 4,
) -> List[Dict[str, object]]:
    """Figure 8(a): run time vs. DFS-query node count on Patents/WordNet."""
    return _query_size_sweep("dfs", query_sizes, None, batch_size, machine_count)


def figure8b_random_query_size(
    query_sizes: Sequence[int] = (5, 7, 9, 11, 13, 15),
    batch_size: int = 5,
    machine_count: int = 4,
) -> List[Dict[str, object]]:
    """Figure 8(b): run time vs. random-query node count (E = 2N)."""
    return _query_size_sweep("random", query_sizes, None, batch_size, machine_count)


def figure8c_random_edge_count(
    edge_counts: Sequence[int] = (10, 12, 14, 16, 18, 20),
    node_count: int = 10,
    batch_size: int = 5,
    machine_count: int = 4,
) -> List[Dict[str, object]]:
    """Figure 8(c): run time vs. random-query edge count (N fixed at 10)."""
    datasets = {"patents": patents_small(), "wordnet": wordnet_small()}
    rows: List[Dict[str, object]] = []
    for edge_count in edge_counts:
        row: Dict[str, object] = {"query_edges": edge_count}
        for name, graph in datasets.items():
            cloud = build_cloud(graph, machine_count=machine_count)
            suite = random_suite(
                graph, node_count, edge_count, batch_size=batch_size, seed=edge_count
            )
            measurement = run_suite(
                cloud, suite, matcher_config=BENCH_MATCHER_CONFIG, result_limit=PAPER_RESULT_LIMIT
            )
            row[f"{name}_ms"] = round(measurement.average_wall_seconds * 1000, 2)
            row[f"{name}_matches"] = round(measurement.average_match_count, 1)
        rows.append(row)
    return rows


def _query_size_sweep(
    kind: str,
    query_sizes: Sequence[int],
    edge_factor: Optional[int],
    batch_size: int,
    machine_count: int,
) -> List[Dict[str, object]]:
    datasets = {"patents": patents_small(), "wordnet": wordnet_small()}
    rows: List[Dict[str, object]] = []
    for size in query_sizes:
        row: Dict[str, object] = {"query_nodes": size}
        for name, graph in datasets.items():
            cloud = build_cloud(graph, machine_count=machine_count)
            if kind == "dfs":
                suite = dfs_suite(graph, size, batch_size=batch_size, seed=size)
            else:
                suite = random_suite(
                    graph, size, 2 * size, batch_size=batch_size, seed=size
                )
            measurement = run_suite(
                cloud, suite, matcher_config=BENCH_MATCHER_CONFIG, result_limit=PAPER_RESULT_LIMIT
            )
            row[f"{name}_ms"] = round(measurement.average_wall_seconds * 1000, 2)
            row[f"{name}_matches"] = round(measurement.average_match_count, 1)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Figure 9 — speed-up vs. machine count
# ---------------------------------------------------------------------------


def figure9_speedup(
    kind: str = "dfs",
    machine_counts: Sequence[int] = (1, 2, 4, 8),
    query_nodes: int = 6,
    batch_size: int = 5,
) -> List[Dict[str, object]]:
    """Figure 9: simulated run time vs. machine count (DFS or random queries).

    Wall-clock time in a single Python process cannot show parallel
    speed-up, so the *simulated* cluster time is reported: per-machine work
    is divided across machines while communication costs grow with the
    cluster, reproducing the sub-linear speed-up the paper observes.
    """
    datasets = {"patents": patents_small(), "wordnet": wordnet_small()}
    rows: List[Dict[str, object]] = []
    for machine_count in machine_counts:
        row: Dict[str, object] = {"machines": machine_count}
        for name, graph in datasets.items():
            cloud = build_cloud(graph, machine_count=machine_count)
            if kind == "dfs":
                suite = dfs_suite(graph, query_nodes, batch_size=batch_size, seed=11)
            else:
                suite = random_suite(
                    graph, query_nodes, 2 * query_nodes, batch_size=batch_size, seed=11
                )
            measurement = run_suite(
                cloud, suite, matcher_config=BENCH_MATCHER_CONFIG, result_limit=PAPER_RESULT_LIMIT
            )
            parallel_seconds = _parallel_time_estimate(measurement, cloud, machine_count)
            row[f"{name}_sim_ms"] = round(parallel_seconds * 1000, 2)
        rows.append(row)
    return rows


def _parallel_time_estimate(measurement, cloud, machine_count: int) -> float:
    """Estimate per-query cluster time: compute divided over machines + network.

    The exploration and join work parallelizes across machines; the network
    component (messages and bytes, with Trinity-style message batching) does
    not shrink and grows with the cluster size, which is what makes the
    paper's observed speed-up sub-linear.
    """
    network = cloud.config.network
    compute = measurement.average_wall_seconds / machine_count
    network_seconds = network.network_seconds(
        int(measurement.average_messages), int(measurement.average_bytes)
    )
    return compute + network_seconds


# ---------------------------------------------------------------------------
# Figure 10 — synthetic R-MAT sweeps
# ---------------------------------------------------------------------------


def figure10a_graph_size_fixed_degree(
    node_counts: Sequence[int] = (16_000, 64_000, 256_000, 1_048_576),
    average_degree: float = 16.0,
    batch_size: int = 5,
    machine_count: int = 4,
) -> List[Dict[str, object]]:
    """Figure 10(a): run time vs. node count at fixed average degree."""
    return _synthetic_sweep(
        [
            {"nodes": n, "degree": average_degree, "label_density": 0.01}
            for n in node_counts
        ],
        sweep_key="nodes",
        batch_size=batch_size,
        machine_count=machine_count,
    )


def figure10b_graph_size_fixed_density(
    node_counts: Sequence[int] = (8_000, 16_000, 32_000, 64_000),
    edge_probability: float = 0.002,
    batch_size: int = 5,
    machine_count: int = 4,
) -> List[Dict[str, object]]:
    """Figure 10(b): run time vs. node count at fixed graph density.

    With fixed density the average degree grows with the node count, so run
    time grows too — the contrast with Figure 10(a) is the point.
    """
    configs = []
    for n in node_counts:
        degree = max(2.0, edge_probability * (n - 1))
        configs.append({"nodes": n, "degree": degree, "label_density": 0.01})
    return _synthetic_sweep(
        configs, sweep_key="nodes", batch_size=batch_size, machine_count=machine_count
    )


def figure10c_average_degree(
    degrees: Sequence[float] = (4, 8, 16, 32, 64),
    node_count: int = 65_536,
    batch_size: int = 5,
    machine_count: int = 4,
) -> List[Dict[str, object]]:
    """Figure 10(c): run time vs. average degree."""
    return _synthetic_sweep(
        [{"nodes": node_count, "degree": d, "label_density": 0.01} for d in degrees],
        sweep_key="degree",
        batch_size=batch_size,
        machine_count=machine_count,
    )


def figure10d_label_density(
    label_densities: Sequence[float] = (1e-3, 3e-3, 1e-2, 3e-2, 1e-1),
    node_count: int = 65_536,
    average_degree: float = 16.0,
    batch_size: int = 5,
    machine_count: int = 4,
) -> List[Dict[str, object]]:
    """Figure 10(d): run time vs. label density (more labels = more selective)."""
    return _synthetic_sweep(
        [
            {"nodes": node_count, "degree": average_degree, "label_density": density}
            for density in label_densities
        ],
        sweep_key="label_density",
        batch_size=batch_size,
        machine_count=machine_count,
    )


def _synthetic_sweep(
    configs: Sequence[Dict[str, float]],
    sweep_key: str,
    batch_size: int,
    machine_count: int,
    dfs_query_nodes: int = 6,
    random_query_nodes: int = 8,
) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for config in configs:
        graph = generate_rmat(
            node_count=int(config["nodes"]),
            average_degree=float(config["degree"]),
            label_density=float(config["label_density"]),
            seed=DEFAULT_SEED,
        )
        cloud = build_cloud(graph, machine_count=machine_count)
        stats = compute_stats(graph)
        dfs = run_suite(
            cloud,
            dfs_suite(graph, dfs_query_nodes, batch_size=batch_size, seed=3),
            matcher_config=BENCH_MATCHER_CONFIG,
            result_limit=PAPER_RESULT_LIMIT,
        )
        rnd = run_suite(
            cloud,
            random_suite(
                graph,
                random_query_nodes,
                2 * random_query_nodes,
                batch_size=batch_size,
                seed=3,
            ),
            matcher_config=BENCH_MATCHER_CONFIG,
            result_limit=PAPER_RESULT_LIMIT,
        )
        rows.append(
            {
                sweep_key: config[sweep_key],
                "nodes": stats.node_count,
                "avg_degree": round(stats.average_degree, 1),
                "labels": stats.label_count,
                "dfs_ms": round(dfs.average_wall_seconds * 1000, 2),
                "random_ms": round(rnd.average_wall_seconds * 1000, 2),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Ablations (beyond the paper's figures, for the Section 5 design choices)
# ---------------------------------------------------------------------------


def ablation_optimizations(
    batch_size: int = 5,
    machine_count: int = 4,
    query_nodes: int = 8,
) -> List[Dict[str, object]]:
    """Compare the engine with each Section 5 optimization disabled."""
    graph = patents_small()
    suite = dfs_suite(graph, query_nodes, batch_size=batch_size, seed=5)
    variants = {
        "full (paper)": MatcherConfig(),
        "naive decomposition": MatcherConfig(use_order_selection=False),
        "no binding filter": MatcherConfig(use_binding_filter=False),
        "no head selection": MatcherConfig(use_head_selection=False),
        "no load-set pruning": MatcherConfig(use_load_set_pruning=False),
    }
    rows: List[Dict[str, object]] = []
    for name, config in variants.items():
        cloud = build_cloud(graph, machine_count=machine_count)
        measurement = run_suite(
            cloud, suite, matcher_config=config, result_limit=PAPER_RESULT_LIMIT
        )
        rows.append(
            {
                "variant": name,
                "avg_wall_ms": round(measurement.average_wall_seconds * 1000, 2),
                "avg_messages": round(measurement.average_messages, 1),
                "avg_matches": round(measurement.average_match_count, 1),
            }
        )
    return rows


def ablation_block_size(
    block_sizes: Sequence[Optional[int]] = (None, 64, 256, 1024, 4096),
    batch_size: int = 5,
    machine_count: int = 4,
) -> List[Dict[str, object]]:
    """Pipelined-join block size sweep (the paper's memory/latency trade-off)."""
    graph = wordnet_small()
    suite = dfs_suite(graph, 6, batch_size=batch_size, seed=9)
    rows: List[Dict[str, object]] = []
    for block_size in block_sizes:
        cloud = build_cloud(graph, machine_count=machine_count)
        config = MatcherConfig(block_size=block_size, max_stwig_leaves=3)
        measurement = run_suite(
            cloud, suite, matcher_config=config, result_limit=PAPER_RESULT_LIMIT
        )
        rows.append(
            {
                "block_size": "none" if block_size is None else block_size,
                "avg_wall_ms": round(measurement.average_wall_seconds * 1000, 2),
                "avg_matches": round(measurement.average_match_count, 1),
            }
        )
    return rows
