#!/usr/bin/env python3
"""The repo's benchmark: one command, four workloads, end to end and per layer.

    python3 benchmarks/e2e/run.py [--seed 7] [--seconds 10] [--out FILE]
        every workload, untraced timed phase then traced phase, every
        metric printed by name with its unit; non-zero exit on any failed op
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
        one run; the last stdout line is the result object BENCHMARK.json
        describes (end-to-end metrics with --trace 0, per-layer with --trace 1)
    python3 benchmarks/e2e/run.py --agree A.json B.json
        compare two --out files metric by metric against the bounds
    python3 benchmarks/e2e/run.py --record-expected
        re-run query selection and pin the operations in expected.json
    python3 benchmarks/e2e/run.py --selftest
        check the harness's own arithmetic (seconds, no graph)

Each run executes in a child interpreter with its own session, which is
waited on with a timeout and killed as a group on overrun; the parent then
looks for surviving group members and new ``/dev/shm`` segments and
reports either as a failed run.  See README.md for the glossary.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
SRC_ROOT = REPO_ROOT / "src"
sys.path.insert(0, str(SRC_ROOT))

import measure  # noqa: E402  (needs only numpy; the repro imports stay in the child)
RESULTS = HERE / "results"
WORK_ROOT = HERE / ".work"

#: A child (one workload, one phase) that runs longer is killed as a group.
CHILD_TIMEOUT_S = 170
#: An operation that runs longer counts as failed.
OP_DEADLINE_S = 60
#: Full builds (each with its warm-up pass) per untraced run; ``setup_s`` is their median.
BUILDS = 3
#: After SIGINT an overrunning child gets this long to clean up.
INTERRUPT_GRACE_S = 10
GROUP_EXIT_WAIT_S = 10


def load_benchmark() -> dict:
    with open(REPO_ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# The child: one workload, one phase
# ---------------------------------------------------------------------------


class OpDeadline(Exception):
    """An operation overran :data:`OP_DEADLINE_S`."""


@contextmanager
def deadline(seconds: int):
    def overrun(signum, frame):
        raise OpDeadline(f"operation exceeded {seconds} s")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def record(self, label: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{label}: {problems[0]}")


def _cpu_now(workers: List[int]) -> float:
    return time.process_time() + sum(measure.cpu_seconds(pid) for pid in workers)


def run_round(workload, tally: Tally, full: bool, run=None) -> dict:
    """One pass over the workload's operation list, one op in flight.

    Latency and CPU are read at each operation's own boundaries, so the
    harness's checks between operations cost the measurement nothing; a
    round's wall time is the sum of its operations' latencies.
    """
    import multiprocessing

    run = run or workload.run_op
    workers = [child.pid for child in multiprocessing.active_children()]
    latencies, indices, classes, rows_total, cpu_total = [], [], [], 0, 0.0
    for index, op in workload.round_ops():
        prepared = workload.prepare(index)
        label = f"{workload.name} op {index}"
        cpu = _cpu_now(workers)
        started = time.perf_counter()
        try:
            with deadline(OP_DEADLINE_S):
                outcome = run(index, op, prepared)
        except Exception as error:  # the op failed; the run goes on
            tally.record(label, [f"raised {type(error).__name__}: {error}"])
            continue
        latencies.append((time.perf_counter() - started) * 1e3)
        indices.append(index)
        cpu_total += _cpu_now(workers) - cpu
        classes.append(getattr(op, "klass", "update"))
        handed, problems = workload.check(index, op, outcome, prepared, full)
        rows_total += handed
        tally.record(label, problems)
    return {
        "latencies": latencies,
        "indices": indices,
        "classes": classes,
        "rows": rows_total,
        "wall_s": sum(latencies) / 1e3,
        "cpu_ms_per_op": cpu_total * 1e3 / max(len(latencies), 1),
    }


def timed_run(workload, seconds: float, tally: Tally, log) -> Dict[str, float]:
    """The untraced phase: build, warm up, rounds for ``seconds``, two more builds.

    Time metrics are reported in reference-host units: multiplied by
    :func:`measure.host_factor` of the run's calibration readings.

    ``setup_s`` is the median of :data:`BUILDS` builds.  The extra builds
    come *after* the timed phase and the memory reading: what the allocator
    keeps from a torn-down build differs from run to run (105-179 MB
    measured), and a second build on top of it moved ``peak_rss_mb`` by 15 %.
    """
    import multiprocessing

    from spans import Recorder

    def build_and_warm(full: bool) -> float:
        started = time.perf_counter()
        workload.build(Recorder())
        built = time.perf_counter() - started
        warmup = run_round(workload, tally, full=full)
        log(f"build: {built:.3f} s + warm-up {warmup['wall_s']:.3f} s")
        return built + warmup["wall_s"]

    setups = [build_and_warm(full=True)]
    rounds, calibs = [], []
    phase_started = time.perf_counter()
    while time.perf_counter() - phase_started < seconds:
        calib = measure.calibrate()
        calibs.append(calib)
        result = run_round(workload, tally, full=False)
        rounds.append(result)
        log(
            f"round {len(rounds) - 1}: {result['wall_s']:.3f} s, "
            f"{result['rows']} rows, calib {calib:.2f} ms"
        )
    pids = [os.getpid()] + [child.pid for child in multiprocessing.active_children()]
    peak_rss_mb = measure.peak_rss_mb(pids)
    for _ in range(BUILDS - 1):
        workload.close()
        gc.collect()
        setups.append(build_and_warm(full=False))

    latencies = [value for result in rounds for value in result["latencies"]]
    ops_per_round = len(workload.round_ops())
    walls = [result["wall_s"] for result in rounds if len(result["latencies"]) == ops_per_round]
    if not walls:
        raise RuntimeError("no complete round: every round had a failed operation")
    total = sum(latencies)
    by_class: Dict[str, float] = {}
    for result in rounds:
        for klass, value in zip(result["classes"], result["latencies"]):
            by_class[klass] = by_class.get(klass, 0.0) + value
    log(
        f"{len(latencies)} timed ops in {len(rounds)} rounds; share of timed wall: "
        + ", ".join(f"{k} {v / total:.1%}" for k, v in sorted(by_class.items()))
    )
    raw = {
        "setup_s": measure.median(setups),
        "latency_p50_ms": measure.percentile(latencies, 50),
        "latency_p90_ms": measure.percentile(latencies, 90),
        "ops_per_s": measure.per_round_rate(ops_per_round, walls),
        "rows_per_s": measure.per_round_rate(
            measure.median([result["rows"] for result in rounds]), walls
        ),
        "cpu_ms_per_op": measure.median([result["cpu_ms_per_op"] for result in rounds]),
    }
    # Times and rates are stated in reference-host units (measure.host_factor).
    factor = measure.host_factor(calibs)
    log(
        f"as measured: {', '.join(f'{k} {v:.6g}' for k, v in raw.items())}; calib "
        f"median {measure.median(calibs):.2f} ms, host factor {factor:.4f}"
    )
    values = {
        name: value / factor if name.endswith("_per_s") else value * factor
        for name, value in raw.items()
    }
    values["peak_rss_mb"] = peak_rss_mb
    return values


def traced_run(workload, seconds: float, tally: Tally, log, workdir: str) -> Dict[str, float]:
    """The traced phase: one build, interleaved untraced and replayed rounds,
    then the per-op, runtime and storage probes."""
    import repro.api as api
    from repro.cloud.config import RuntimeConfig
    from repro.runtime import create_executor

    import layers
    from spans import Recorder

    rec = Recorder()
    workload.build(rec)
    cold = workload.cold
    executor = create_executor(
        RuntimeConfig(backend=workload.executor, workers=workload.workers)
    )
    replayer = None if cold else layers.Replayer(rec, workload.cloud, executor)

    def replay_as(root):
        def run(index, op, prepared):
            klass = getattr(op, "klass", "update")
            with rec.span(root, index=index, klass=klass):
                if cold:
                    return layers.replay_cold_op(rec, workload, index, prepared)
                return replayer.query(op, external=False)

        return run

    probe_db = None
    try:
        # Warm-up through the replay (plan misses are timed here), fully
        # verified; then one untraced pass so the session is warm as well.
        run_round(workload, tally, full=True, run=replay_as("warmup"))
        run_round(workload, tally, full=False)
        # Per operation: latencies of the untraced and of the replayed runs.
        paired: Dict[int, tuple] = {}
        calibs = []
        phase_started = time.perf_counter()
        while len(calibs) < 2 or time.perf_counter() - phase_started < seconds:
            calibs.append(measure.calibrate())
            for side, run in ((0, None), (1, replay_as("op"))):
                result = run_round(workload, tally, full=False, run=run)
                for index, value in zip(result["indices"], result["latencies"]):
                    paired.setdefault(index, ([], []))[side].append(value)
        log(f"{len(calibs)} untraced + {len(calibs)} traced rounds")

        if cold:
            probe_db = api.connect(workload.snapshot)
            cloud = probe_db.cloud
            replayer = layers.Replayer(rec, cloud, executor)
        else:
            probe_db, cloud = workload.db, workload.cloud
        for op in workload.ops:
            replayer.probe(op, probe_db, external=cold)
        stats = probe_db.stats()
        values = layers.probe_runtime(rec, cloud, workload.ops)
        values.update(
            layers.probe_storage(
                rec, cloud, workload.graph, getattr(workload, "edge_list", None),
                workdir, workload.seed,
            )
        )
    finally:
        executor.close()
        if cold and probe_db is not None:
            probe_db.close()

    values.update(layers.layer_metrics(rec.spans))
    # Paired per operation, then the median over operations: where the
    # collector's full passes land differs between the two paths and moves
    # single operations by tens of percent either way.
    overhead = measure.median(
        [
            measure.median(replayed) / measure.median(plain) - 1.0
            for plain, replayed in paired.values()
            if plain and replayed
        ]
    )
    values.update(
        {
            "serve.failed": stats.failed,
            "serve.rejected": stats.rejected,
            "trace.overhead_frac": overhead,
            "env.calib_ms": measure.median(calibs),
            "repo.src_loc": measure.src_loc(SRC_ROOT),
            "repo.public_symbols": measure.public_symbols(SRC_ROOT),
        }
    )
    shares = layers.layer_shares(rec.spans)
    log("share of replayed op time: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    RESULTS.mkdir(exist_ok=True)
    rec.write(RESULTS / f"trace-{workload.name}.json")
    return values


def child_main(args) -> int:
    import multiprocessing

    import workloads

    def log(message: str) -> None:
        print(f"[{args.workload}] {message}", flush=True)

    benchmark = load_benchmark()
    section = "per_layer" if args.trace else "end_to_end"
    units = {entry["name"]: entry["unit"] for entry in benchmark[section]}
    shm_before = measure.shm_segments()
    tally = Tally()
    workload = workloads.make_workload(args.workload, args.seed, workloads.load_expected(), args.workdir)
    try:
        if args.trace:
            values = traced_run(workload, args.seconds, tally, log, args.workdir)
        else:
            values = timed_run(workload, args.seconds, tally, log)
        if args.workload == "cold_update":
            import verifier

            problems = verifier.vf2_sample_check(
                workload.truth, workload.motifs, 5000, args.seed
            )
            tally.record("cold_update VF2 sample", problems)
    finally:
        workload.close()

    leftovers = [child.pid for child in multiprocessing.active_children()]
    leaked = sorted(measure.shm_segments() - shm_before)
    hygiene = []
    if leftovers:
        hygiene.append(f"child processes still alive at exit: {leftovers}")
    if leaked:
        hygiene.append(f"/dev/shm segments left behind: {leaked}")
    if args.trace:
        values["runtime.shm_segments_leaked"] += len(leaked)
    for reason in tally.reasons + hygiene:
        log(f"FAILED {reason}")
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics out of step with BENCHMARK.json: "
            f"{sorted(set(values) ^ set(units))}"
        )
    result = {
        "correct": tally.failed == 0 and not hygiene,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]} for name in units
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------------
# The parent: supervision, full mode, --agree, --record-expected, --selftest
# ---------------------------------------------------------------------------


def supervise(workload: str, seed: int, seconds: float, trace: int) -> Optional[dict]:
    """Run one child to completion; its result, or ``None`` if it left a mess.

    Everything the child prints is relayed except its result line, which is
    returned (``correct`` false when operations failed).  Nothing the child
    started may outlive it: an overrun, a surviving member of its process
    group or a new ``/dev/shm`` segment fails the run and is reported —
    removed, but never silently.
    """
    if not (SRC_ROOT / "repro").is_dir():
        print(f"error: {SRC_ROOT / 'repro'} not found: run from a full checkout", file=sys.stderr)
        return None
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
    shm_before = measure.shm_segments()
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--workdir", workdir,
    ]
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    timed_out = threading.Event()

    def kill_group() -> None:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def stop_child() -> None:
        # SIGINT to the leader first: KeyboardInterrupt unwinds its
        # ``finally`` blocks, which close pools and unlink shared memory.
        # (Not a SIGTERM handler: pool workers would inherit it, and a
        # worker stuck on a lock it inherited locked at fork could then no
        # longer be killed by ``Pool.terminate`` — close() hung 1 run in 30.)
        timed_out.set()
        try:
            os.kill(child.pid, signal.SIGINT)
        except ProcessLookupError:
            pass
        threading.Timer(INTERRUPT_GRACE_S, kill_group).start()

    watchdog = threading.Timer(CHILD_TIMEOUT_S, stop_child)
    watchdog.start()
    last = None
    try:
        for line in child.stdout:
            if last is not None:
                print(last, flush=True)
            last = line.rstrip("\n")
        code = child.wait()
    finally:
        watchdog.cancel()

    waited = time.monotonic()
    survivors = measure.process_group_members(child.pid)
    while survivors and time.monotonic() - waited < GROUP_EXIT_WAIT_S:
        time.sleep(0.05)
        survivors = measure.process_group_members(child.pid)
    if survivors:
        kill_group()
    leaked = sorted(measure.shm_segments() - shm_before)
    for name in leaked:  # reported below; removed so the next run starts clean
        try:
            os.unlink(os.path.join("/dev/shm", name))
        except OSError:
            pass
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass  # another run is using it

    result = None
    if last is not None:
        try:
            result = json.loads(last)
        except ValueError:
            print(last, flush=True)
    problems = []
    if timed_out.is_set():
        problems.append(f"stopped after {CHILD_TIMEOUT_S} s")
    elif result is None:
        problems.append(f"child exited with code {code} and no result")
    if survivors:
        problems.append(f"processes outlived the child (killed): {survivors}")
    if leaked:
        problems.append(f"/dev/shm segments left behind (removed): {leaked}")
    for problem in problems:
        print(f"[{workload}] FAILED {problem}", file=sys.stderr, flush=True)
    return None if problems else result


def single_run(args) -> int:
    result = supervise(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return 1
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def full_run(args) -> int:
    """Every workload, both phases; prints every metric by name and unit."""
    benchmark = load_benchmark()
    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    failed = False
    for entry in benchmark["workloads"]:
        name = entry["name"]
        phases = {}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = supervise(name, args.seed, args.seconds, trace)
            if result is None or not result["correct"]:
                failed = True
            phases[section] = result
        report["workloads"][name] = phases
    for name, phases in report["workloads"].items():
        print(f"\n== {name} ==")
        for section in ("end_to_end", "per_layer"):
            result = phases[section]
            if result is None:
                print(f"  {section}: RUN FAILED")
                continue
            print(
                f"  {section}: attempted {result['attempted']} ops, failed "
                f"{result['failed']} (failed_frac "
                f"{result['failed'] / result['attempted']:.4f})"
            )
            for metric, reading in result["metrics"].items():
                print(f"    {metric:<36} {reading['value']:>16.6g} {reading['unit']}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
        print(f"\n[saved to {args.out}]")
    return 1 if failed else 0


def disagreements(first: dict, second: dict, benchmark: dict) -> List[str]:
    """Rows where two result sets differ by more than the metric's bound.

    Two readings agree when the larger exceeds the smaller by at most
    ``bound`` (as a share of the smaller), whichever file it came from.
    """
    rows = []
    for name in first["workloads"]:
        a = first["workloads"][name]["end_to_end"]
        b = second["workloads"].get(name, {}).get("end_to_end")
        if a is None or b is None:
            rows.append(f"{name}: a set has no end-to-end result")
            continue
        for entry in benchmark["end_to_end"]:
            x = a["metrics"][entry["name"]]["value"]
            y = b["metrics"][entry["name"]]["value"]
            gap = max(x, y) / min(x, y) - 1.0
            if gap > entry["bound"]:
                rows.append(
                    f"{name} {entry['name']}: {x:.6g} vs {y:.6g} {entry['unit']} "
                    f"differ by {gap:.1%} > bound {entry['bound']:.0%}"
                )
    return rows


def agree(paths: List[str]) -> int:
    with open(paths[0], "r", encoding="utf-8") as handle:
        first = json.load(handle)
    with open(paths[1], "r", encoding="utf-8") as handle:
        second = json.load(handle)
    rows = disagreements(first, second, load_benchmark())
    for row in rows:
        print(row)
    count = sum(len(w["end_to_end"]["metrics"]) for w in first["workloads"].values() if w["end_to_end"])
    print(f"{count - len(rows)} of {count} end-to-end readings agree within their bounds")
    return 1 if rows else 0


def record_expected() -> int:
    """Re-run selection for every workload and pin the result."""
    import workloads

    expected = {}
    for name in ("limit1k_explore", "enumerate_all", "cold_update"):
        ops = workloads.select_ops(name)
        expected[name] = {"ops": [vars(op) for op in ops]}
        for op in ops:
            print(f"{name} {op.klass}: volume {op.volume:.3g}, {op.rows} rows")
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1)
        handle.write("\n")
    print(f"[saved to {workloads.EXPECTED_PATH}]")
    return 0


def selftest() -> int:
    """Hand-computed cases for the harness's own arithmetic."""
    import numpy as np

    import verifier
    from spans import Recorder, self_times
    from workloads import Truth

    def near(value, wanted):
        assert abs(value - wanted) < 1e-9, (value, wanted)

    near(measure.percentile([4, 1, 3, 2], 50), 2.5)
    near(measure.percentile(list(range(1, 12)), 90), 10.0)
    near(measure.percentile([10, 20], 90), 19.0)
    near(measure.percentile([7], 90), 7.0)
    # One slow round must not move median-round throughput.
    near(measure.per_round_rate(30, [1.0, 1.0, 5.0]), 30.0)
    near(measure.per_round_rate(30, [1.0, 2.0]), 20.0)
    # A host reading twice the reference halves every time.
    near(measure.host_factor([measure.CALIB_REFERENCE_MS]), 1.0)
    near(measure.host_factor([29.0, 29.0, 290.0]), 0.5)

    rec = Recorder()
    with rec.span("outer"):
        with rec.span("a"):
            pass
        with rec.span("b"):
            with rec.span("c"):
                pass
    for span, (start, end) in zip(rec.spans, [(0, 100e6), (10e6, 30e6), (40e6, 90e6), (50e6, 60e6)]):
        span["start_ns"], span["end_ns"] = start, end
    own = self_times(rec.spans)
    near(own[0], 30.0), near(own[1], 20.0), near(own[2], 40.0), near(own[3], 10.0)
    assert [span["trace"] for span in rec.spans] == [0, 0, 0, 0]
    assert [span["parent"] for span in rec.spans] == [None, 0, 0, 2]

    # A 4-node path 0-1-2-3 labelled a,b,a,b.
    truth = Truth(
        node_count=4,
        labels=np.array([0, 1, 0, 1]),
        label_names=("a", "b"),
        edge_keys=np.array([0 * 4 + 1, 1 * 4 + 2, 2 * 4 + 3]),
    )
    from repro.query.query_graph import QueryGraph

    query = QueryGraph({"x": "a", "y": "b"}, [("x", "y")])
    assert verifier.check_rows(truth, query, ("x", "y"), [(0, 1), (2, 1), (2, 3)]) == []
    wrong_label = verifier.check_rows(truth, query, ("x", "y"), [(0, 1), (1, 2)])
    assert len(wrong_label) == 2 and "label" in wrong_label[0], wrong_label
    missing_edge = verifier.check_rows(truth, query, ("x", "y"), [(0, 3)])
    assert len(missing_edge) == 1 and "not in the graph" in missing_edge[0], missing_edge
    twice = QueryGraph({"x": "a", "y": "b", "z": "a"}, [("x", "y"), ("y", "z")])
    repeated = verifier.check_rows(truth, twice, ("x", "y", "z"), [(0, 1, 0)])
    assert len(repeated) == 1 and "same node" in repeated[0], repeated
    assert verifier.check_external(truth, [(0, 1)], [(0, 1)]) == []
    assert verifier.check_external(truth, [(0, 1)], [(0, 2)]) != []
    assert verifier.check_limit(1024, True, 1024, 5000) == []
    assert verifier.check_limit(1024, False, 1024, 1024) == []
    assert verifier.check_limit(1000, True, 1024, None) != []
    assert verifier.check_limit(7, False, 1024, 9) != []

    def result_set(value):
        metrics = {"latency_p50_ms": {"value": value, "unit": "ms"}}
        return {"workloads": {"w": {"end_to_end": {"metrics": metrics}}}}

    bounds = {"end_to_end": [{"name": "latency_p50_ms", "unit": "ms", "bound": 0.10}]}
    assert disagreements(result_set(100.0), result_set(109.9), bounds) == []
    assert disagreements(result_set(109.9), result_set(100.0), bounds) == []
    assert len(disagreements(result_set(100.0), result_set(110.1), bounds)) == 1
    assert len(disagreements(result_set(110.1), result_set(100.0), bounds)) == 1
    print("selftest ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="full mode: also write the results as JSON")
    parser.add_argument("--agree", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--record-expected", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest()
    if args.agree:
        return agree(args.agree)
    if args.record_expected:
        return record_expected()
    if args.seconds is None:
        args.seconds = float(load_benchmark()["run_seconds"])
    if args.child:
        return child_main(args)
    if args.workload:
        names = [entry["name"] for entry in load_benchmark()["workloads"]]
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; one of {names}")
        return single_run(args)
    return full_run(args)


if __name__ == "__main__":
    sys.exit(main())
