"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures: it runs
the corresponding experiment driver from :mod:`repro.bench.experiments`,
saves the rows under ``benchmarks/results/``, prints them (visible with
``pytest -s``), and wraps one representative operation with the
``pytest-benchmark`` fixture so ``--benchmark-only`` also reports stable
timing statistics.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Sequence

import pytest

from repro.bench.reporting import format_table

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory where rendered experiment tables are written."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def save_rows(
    results_dir: Path, name: str, rows: Sequence[Dict[str, object]], title: str
) -> str:
    """Render ``rows`` as a text table, save it, print it, and return the text."""
    text = format_table(list(rows), title=title)
    path = results_dir / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    print(f"\n{text}\n[saved to {path}]")
    return text
