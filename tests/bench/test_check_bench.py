"""CI's benchmark gate (``tools/check_bench.py``) fails when it should."""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tools"))

import check_bench  # noqa: E402

TRAJECTORY = ROOT / "BENCH_e2e.json"


@pytest.fixture
def run():
    """A full run's report reading exactly the trajectory's last medians."""
    last = json.loads(TRAJECTORY.read_text(encoding="utf-8"))["entries"][-1]
    phase = {"correct": True, "attempted": 100, "failed": 0}
    return {
        "workloads": {
            workload: {
                "end_to_end": {
                    **phase,
                    "metrics": {name: {"value": value, "unit": ""} for name, value in medians.items()},
                },
                "per_layer": {**phase, "metrics": {}},
            }
            for workload, medians in last["end_to_end"].items()
        }
    }


def check(tmp_path, run) -> int:
    path = tmp_path / "run.json"
    path.write_text(json.dumps(run), encoding="utf-8")
    return check_bench.main([str(path), str(TRAJECTORY)])


def test_a_run_at_the_last_entry_passes_all_28_readings(tmp_path, run, capsys):
    assert sum(len(w["end_to_end"]["metrics"]) for w in run["workloads"].values()) == 28
    assert check(tmp_path, run) == 0
    assert "0 finding(s)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "workload, metric, factor",
    [("enumerate_all", "latency_p90_ms", 3.0), ("cold_update", "ops_per_s", 1 / 3)],
)
def test_one_reading_three_times_worse_fails_by_name(tmp_path, run, capsys, workload, metric, factor):
    run["workloads"][workload]["end_to_end"]["metrics"][metric]["value"] *= factor
    assert check(tmp_path, run) == 1
    out = capsys.readouterr().out
    assert f"{workload} {metric}" in out and "1 finding(s)" in out


def test_twice_the_bound_is_allowed_and_better_is_never_a_finding(tmp_path, run):
    metrics = run["workloads"]["limit1k_explore"]["end_to_end"]["metrics"]
    metrics["latency_p50_ms"]["value"] *= 1.49  # bound 0.25, allowed 50 %
    metrics["peak_rss_mb"]["value"] *= 1.19  # bound 0.10, allowed 20 %
    metrics["ops_per_s"]["value"] *= 5
    metrics["cpu_ms_per_op"]["value"] /= 5
    assert check(tmp_path, run) == 0
    metrics["peak_rss_mb"]["value"] *= 1.02
    assert check(tmp_path, run) == 1


@pytest.mark.parametrize("section", ["end_to_end", "per_layer"])
def test_a_failed_op_or_a_missing_phase_fails(tmp_path, run, capsys, section):
    broken = copy.deepcopy(run)
    broken["workloads"]["enumerate_process"][section].update(failed=1, correct=False)
    assert check(tmp_path, broken) == 1
    assert f"enumerate_process {section}: 1 of 100 ops failed" in capsys.readouterr().out
    run["workloads"]["enumerate_process"][section] = None  # the run itself died
    assert check(tmp_path, run) == 1
    assert f"enumerate_process {section}: no result" in capsys.readouterr().out


def test_a_zero_throughput_is_a_finding_not_a_crash(tmp_path, run, capsys):
    metrics = run["workloads"]["cold_update"]["end_to_end"]["metrics"]
    metrics["ops_per_s"]["value"] = 0.0  # every op of the phase failed
    metrics["rows_per_s"]["value"] = 0.0
    run["workloads"]["enumerate_all"]["end_to_end"]["metrics"]["latency_p50_ms"]["value"] *= 3
    assert check(tmp_path, run) == 1
    out = capsys.readouterr().out
    assert "cold_update ops_per_s: 0 vs" in out and "cold_update rows_per_s: 0 vs" in out
    # The other findings and the summary survive.
    assert "enumerate_all latency_p50_ms" in out and "3 finding(s)" in out


def test_a_workload_missing_from_the_last_entry_is_a_finding(tmp_path, run, capsys):
    trajectory = json.loads(TRAJECTORY.read_text(encoding="utf-8"))
    del trajectory["entries"][-1]["end_to_end"]["enumerate_process"]
    path = tmp_path / "trajectory.json"
    path.write_text(json.dumps(trajectory), encoding="utf-8")
    run["workloads"]["limit1k_explore"]["end_to_end"]["metrics"]["ops_per_s"]["value"] /= 3
    run_path = tmp_path / "run.json"
    run_path.write_text(json.dumps(run), encoding="utf-8")
    assert check_bench.main([str(run_path), str(path)]) == 1
    out = capsys.readouterr().out
    assert "enumerate_process: no reading at PR" in out
    assert "limit1k_explore ops_per_s" in out and "2 finding(s)" in out
