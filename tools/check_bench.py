"""CI's benchmark gate: one full run held against the trajectory's last entry.

    python3 benchmarks/e2e/run.py --out run.json
    python tools/check_bench.py run.json BENCH_e2e.json

Exit 1, one line per finding, when an operation failed (or a run came back
incorrect, or not at all) in either phase of any workload, when the last
``BENCH_e2e.json`` entry has no medians for a workload, or when one of the 28
end-to-end readings is worse than that entry's median by more than twice the
metric's ``bound`` in ``BENCHMARK.json`` — twice, because one run on a shared
CI host is noisier than the ten-pair median a PR is judged by.  A
higher-is-better reading of 0 is always a finding.  Both sides are in the
benchmark's reference-host units.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def findings(run: dict, last: dict, benchmark: dict) -> List[str]:
    rows = []
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        phases = run["workloads"].get(workload) or {}
        for section in ("end_to_end", "per_layer"):
            result = phases.get(section)
            if result is None:
                rows.append(f"{workload} {section}: no result")
            elif result["failed"] or not result["correct"]:
                rows.append(
                    f"{workload} {section}: {result['failed']} of {result['attempted']} "
                    f"ops failed (correct: {result['correct']})"
                )
        if not phases.get("end_to_end"):
            continue
        medians = last["end_to_end"].get(workload)
        if medians is None:
            rows.append(f"{workload}: no reading at PR {last['pr']} to hold the run against")
            continue
        for metric in benchmark["end_to_end"]:
            name, allowed = metric["name"], 2 * metric["bound"]
            was = medians[name]
            now = phases["end_to_end"]["metrics"][name]["value"]
            if metric["better"] == "lower":
                worse = now / was - 1
            else:  # a reading of 0 (every op failed) is infinitely worse
                worse = was / now - 1 if now > 0 else float("inf")
            if worse > allowed:
                rows.append(
                    f"{workload} {name}: {now:.6g} vs {was:.6g} {metric['unit']} at PR "
                    f"{last['pr']}, {worse:.0%} worse > {allowed:.0%}"
                )
    return rows


def main(argv: List[str]) -> int:
    run, trajectory = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    last = trajectory["entries"][-1]
    rows = findings(run, last, json.loads(BENCHMARK.read_text(encoding="utf-8")))
    print("\n".join(rows + [f"{len(rows)} finding(s) against PR {last['pr']}"]))
    return 1 if rows else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
