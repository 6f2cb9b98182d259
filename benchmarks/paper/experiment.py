"""Run one of the paper's experiments and print its table.

Usage, from the repository root::

    PYTHONPATH=src python -m benchmarks.paper.experiment table2
    PYTHONPATH=src python -m benchmarks.paper.experiment fig10d

Each name maps to a zero-argument driver in :mod:`benchmarks.paper.experiments`
or :mod:`benchmarks.paper.future_work` at its default ("quick") scale.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional, Sequence

from benchmarks.paper import experiments, future_work
from benchmarks.paper.reporting import format_table

#: Experiment name -> zero-argument driver producing table rows.
EXPERIMENTS: Dict[str, Callable[[], List[dict]]] = {
    "table1": experiments.table1_method_comparison,
    "table2": experiments.table2_loading_times,
    "fig8a": experiments.figure8a_dfs_query_size,
    "fig8b": experiments.figure8b_random_query_size,
    "fig8c": experiments.figure8c_random_edge_count,
    "fig9a": lambda: experiments.figure9_speedup(kind="dfs"),
    "fig9b": lambda: experiments.figure9_speedup(kind="random"),
    "fig10a": experiments.figure10a_graph_size_fixed_degree,
    "fig10b": experiments.figure10b_graph_size_fixed_density,
    "fig10c": experiments.figure10c_average_degree,
    "fig10d": experiments.figure10d_label_density,
    "ablation-opts": experiments.ablation_optimizations,
    "ablation-blocks": experiments.ablation_block_size,
    "throughput": future_work.throughput_vs_machines,
    "transmitted-data": future_work.transmitted_data_vs_machines,
    "latency-bounds": future_work.response_time_bounds,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.paper.experiment",
        description="run one paper experiment and print its table",
    )
    parser.add_argument("name", choices=sorted(EXPERIMENTS))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    rows = EXPERIMENTS[args.name]()
    print(format_table(rows, title=f"experiment: {args.name}"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
