"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import ast
import multiprocessing
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro.api as api
from repro.cli import build_parser, main
from repro.graph.io import load_graph, save_graph

from benchmarks.paper import experiment, serve_bench
from tests.helpers import write_graph_only_snapshot
from tests.ingest.test_dblp import SMALL_DBLP

#: ``{verb: {flag: default}}`` of ``build_parser()``, dumped from the commit
#: before the flag groups were declared once (``parents=``): a refactor of the
#: parser may not drop, add or re-default a flag.
PINNED_FLAGS = {
    "generate": {
        "--kind": "rmat", "--nodes": 10000, "--degree": 8.0, "--edges": None,
        "--label-density": 0.01, "--scale": None, "--seed": 0, "--out": None,
    },
    "query": {
        "--graph": None, "--snapshot": None, "--dataset": None, "--query-file": None,
        "--machines": 4, "--limit": 1024, "--executor": None, "--workers": None,
        "--max-stwig-leaves": None, "--show": 5, "--explain": False,
    },
    "serve": {
        "--graph": None, "--snapshot": None, "--dataset": None, "--machines": 4,
        "--limit": 1024, "--max-in-flight": 8, "--max-row-budget": None,
        "--executor": None, "--workers": None, "--show": 3,
    },
    "save": {"--graph": None, "--out": None, "--machines": 4},
    "open": {"--snapshot": None, "--verify": False},
    "append": {"--snapshot": None, "--edge": [], "--node": []},
    "compact": {"--snapshot": None},
    "ingest": {
        "--edges": None, "--dblp-xml": None, "--dblp-mode": "coauthor",
        "--label-mode": "degree", "--out": None, "--machines": 4,
    },
}

#: The flags the retired ``bench-serve`` verb had, which
#: ``python -m benchmarks.paper.serve_bench`` keeps unchanged.
SERVE_BENCH_FLAGS = {
    "--graph": None, "--nodes": 20000, "--degree": 8.0, "--label-density": 0.01,
    "--machines": 4, "--clients": 4, "--queries": 12, "--query-nodes": 4,
    "--rounds": 2, "--limit": 1024, "--seed": 1, "--executor": None,
    "--workers": None,
}

#: Modules of the paper's evaluation periphery, which live in
#: ``benchmarks/paper/`` and must not be loaded by the package's front doors.
PERIPHERY_PREFIXES = (
    "repro.bench",
    "repro.serve.bench",
    "repro.workloads.suites",
    "repro.baselines.edge_join",
    "repro.baselines.neighborhood_index",
    "repro.baselines.naive_exploration",
    "repro.baselines.cost_models",
    "benchmarks",
)


def flag_table(parser: argparse.ArgumentParser) -> dict:
    """``{flag: default}`` of ``parser`` (positionals by dest)."""
    return {
        (action.option_strings or [action.dest])[0]: action.default
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
    }


def write_sparse_edges(path, node_count: int, edge_count: int) -> list:
    """An edge list over sparse 64-bit external IDs; returns the IDs used."""
    rng = random.Random(5)
    externals = rng.sample(range(10**12), node_count)
    edges = {tuple(sorted(rng.sample(externals, 2))) for _ in range(edge_count)}
    path.write_text("".join(f"{u} {v}\n" for u, v in sorted(edges)), encoding="utf-8")
    return externals


def printed_rows(output: str) -> list:
    """The match dicts ``repro query`` printed, parsed back."""
    return [
        ast.literal_eval(line.strip())
        for line in output.splitlines()
        if line.startswith("   {")
    ]


class TestParser:
    def test_every_verb_flag_and_default_is_pinned(self):
        verbs = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        table = {verb: flag_table(parser) for verb, parser in verbs.choices.items()}
        assert table == PINNED_FLAGS

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "--out", "/tmp/x"])
        assert args.command == "generate"
        assert args.kind == "rmat"
        assert args.nodes == 10_000

    def test_query_arguments(self):
        args = build_parser().parse_args(
            ["query", "--graph", "g", "--query-file", "q", "--machines", "2"]
        )
        assert args.machines == 2
        assert args.limit == 1024

    def test_experiment_requires_known_name(self):
        with pytest.raises(SystemExit):
            experiment.build_parser().parse_args(["not-an-experiment"])

    def test_experiment_registry_covers_all_figures(self):
        assert {"table1", "table2", "fig8a", "fig8b", "fig8c", "fig9a", "fig9b",
                "fig10a", "fig10b", "fig10c", "fig10d"} <= set(experiment.EXPERIMENTS)
        assert len(experiment.EXPERIMENTS) == 16

    @pytest.mark.parametrize(
        "argv", [["experiment", "table2"], ["bench-serve"], ["bench-serve", "--clients", "2"]]
    )
    def test_retired_verbs_are_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("module", ["repro.api", "repro.cli"])
    def test_front_doors_load_no_periphery(self, module):
        # A fresh interpreter: this test process has imported the periphery.
        src = Path(__file__).resolve().parent.parent / "src"
        loaded = subprocess.run(
            [sys.executable, "-c", f"import sys, {module}; print(*sorted(sys.modules))"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, check=True,
        ).stdout.split()
        assert module in loaded
        assert [name for name in loaded if name.startswith(PERIPHERY_PREFIXES)] == []

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_generate_then_query_roundtrip(self, tmp_path, capsys):
        prefix = tmp_path / "graph"
        exit_code = main(
            [
                "generate", "--kind", "gnm", "--nodes", "200", "--edges", "500",
                "--seed", "3", "--out", str(prefix),
            ]
        )
        assert exit_code == 0
        graph = load_graph(prefix)
        assert graph.node_count == 200

        query_file = tmp_path / "pattern.q"
        query_file.write_text("node u L0\nnode v L1\nedge u v\n", encoding="utf-8")
        exit_code = main(
            [
                "query", "--graph", str(prefix), "--query-file", str(query_file),
                "--machines", "2", "--limit", "10", "--explain",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "STwig plan" in output
        assert "matches in" in output

    def test_show_converts_only_the_shown_rows(self, tmp_path, capsys, monkeypatch):
        """``--show 3`` on a large result turns three rows into Python
        objects — in the dataset's sparse external IDs — not all of them."""
        from repro.core.result import MatchResult
        from repro.ingest import IdMap

        edge_file = tmp_path / "sparse.edges"
        externals = write_sparse_edges(edge_file, 300, 1500)
        query_file = tmp_path / "edge.q"
        query_file.write_text("node u rank2\nnode v rank2\nedge u v\n", encoding="utf-8")

        def refuse(self):
            raise AssertionError("the CLI converted the whole result")

        for accessor in ("external_rows", "as_dicts"):
            monkeypatch.setattr(MatchResult, accessor, refuse)
        monkeypatch.setattr(MatchResult, "rows", property(refuse))
        converted = []
        to_external = IdMap.to_external

        def recording(self, dense):
            converted.append(len(dense))
            return to_external(self, dense)

        monkeypatch.setattr(IdMap, "to_external", recording)
        assert main(
            [
                "query", "--dataset", str(edge_file), "--query-file", str(query_file),
                "--machines", "2", "--show", "3",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert int(output.split(" matches in")[0]) > 1000
        shown = printed_rows(output)
        assert len(shown) == 3 and converted == [3]
        assert all(set(match) == {"u", "v"} for match in shown)
        assert all(value in externals for match in shown for value in match.values())

    def test_limit_zero_is_unlimited_and_negative_is_refused(self, tmp_path, capsys):
        """``--limit 0`` means what ``serve`` documents (no limit), and a
        negative budget exits non-zero instead of printing "0 matches"."""
        query_file = tmp_path / "edge.q"
        query_file.write_text("node x a\nnode y b\nedge x y\n", encoding="utf-8")
        base = ["query", "--dataset", "tiny", "--query-file", str(query_file)]
        with api.connect("tiny") as db:
            total = db.query(query_file.read_text()).match_count
        assert total > 1
        assert main([*base, "--limit", "1"]) == 0
        assert capsys.readouterr().out.startswith("1 matches in")
        assert main([*base, "--limit", "0"]) == 0
        assert capsys.readouterr().out.startswith(f"{total} matches in")
        with pytest.raises(SystemExit) as exit_info:
            main([*base, "--limit", "-5"])
        assert exit_info.value.code not in (0, None)
        assert "--limit: must be non-negative, got -5" in capsys.readouterr().err

    def test_generate_powerlaw(self, tmp_path, capsys):
        prefix = tmp_path / "pl"
        assert main(
            [
                "generate", "--kind", "power-law", "--nodes", "300",
                "--degree", "4", "--seed", "2", "--out", str(prefix),
            ]
        ) == 0
        assert "generated 300 nodes" in capsys.readouterr().out

    def test_experiment_table2_prints_table(self, capsys, monkeypatch):
        monkeypatch.setitem(
            experiment.EXPERIMENTS, "table2", lambda: [{"nodes": 10, "load_time_s": 0.1}]
        )
        assert experiment.main(["table2"]) == 0
        output = capsys.readouterr().out
        assert "experiment: table2" in output
        assert "nodes" in output


class TestServeCommands:
    @pytest.fixture
    def graph_prefix(self, tmp_path):
        prefix = tmp_path / "graph"
        assert main(
            [
                "generate", "--kind", "gnm", "--nodes", "200", "--edges", "500",
                "--seed", "3", "--out", str(prefix),
            ]
        ) == 0
        return prefix

    def test_serve_answers_stdin_stream(self, graph_prefix, tmp_path, capsys, monkeypatch):
        import io

        query_file = tmp_path / "saved.q"
        query_file.write_text("node u L0\nnode v L1\nedge u v\n", encoding="utf-8")
        # Two inline queries (the second repeats the first's fingerprint),
        # one from a file, and one malformed block the loop must survive.
        stdin = (
            "node a L0\nnode b L1\nedge a b\n"
            "\n"
            "node a L0\nnode b L1\nedge a b\n"
            "\n"
            f"{query_file}\n"
            "\n"
            "node broken\n"
            "\n"
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        assert main(
            ["serve", "--graph", str(graph_prefix), "--machines", "2", "--show", "1"]
        ) == 0
        output = capsys.readouterr().out
        assert "serving 200 nodes" in output
        assert "plan cache miss" in output
        assert "plan cache hit" in output  # the repeated fingerprint
        assert "error:" in output  # the malformed block, survived
        assert "served 3 queries" in output
        assert "2 misses" in output  # inline shape + file shape

    def test_bench_serve_reports_throughput(self, capsys):
        assert serve_bench.main(
            [
                "--nodes", "1500", "--machines", "2",
                "--clients", "4", "--queries", "4", "--rounds", "2",
                "--query-nodes", "3", "--limit", "50",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "qps" in output
        assert "latency p50" in output
        assert "plan cache:" in output

    def test_bench_serve_parser_defaults(self):
        parser = serve_bench.build_parser()
        assert flag_table(parser) == SERVE_BENCH_FLAGS
        args = parser.parse_args([])
        assert args.clients == 4
        assert args.rounds == 2
        assert args.graph is None


class TestSnapshotCommands:
    @pytest.fixture
    def graph_prefix(self, tmp_path):
        prefix = tmp_path / "graph"
        assert main(
            [
                "generate", "--kind", "gnm", "--nodes", "150", "--edges", "400",
                "--seed", "9", "--out", str(prefix),
            ]
        ) == 0
        return prefix

    @pytest.fixture
    def snapshot_dir(self, graph_prefix, tmp_path, capsys):
        snap = tmp_path / "snap"
        assert main(
            ["save", "--graph", str(graph_prefix), "--out", str(snap),
             "--machines", "2"]
        ) == 0
        capsys.readouterr()
        return snap

    def test_save_reports_shape(self, graph_prefix, tmp_path, capsys):
        snap = tmp_path / "snap"
        assert main(
            ["save", "--graph", str(graph_prefix), "--out", str(snap),
             "--machines", "2"]
        ) == 0
        output = capsys.readouterr().out
        assert "saved 150 nodes" in output
        assert "2 machines" in output
        assert "generation 1" in output

    def test_save_one_machine(self, graph_prefix, tmp_path, capsys):
        """What ``--graph-only`` was for: a one-machine image, whose
        partition is the whole CSR, reopening on the fast path."""
        snap = tmp_path / "snap"
        assert main(
            ["save", "--graph", str(graph_prefix), "--out", str(snap),
             "--machines", "1"]
        ) == 0
        assert "1 machines" in capsys.readouterr().out
        assert main(["open", "--snapshot", str(snap)]) == 0
        assert "memmap fast path" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["save", "--graph", str(graph_prefix), "--out", str(snap),
                  "--graph-only"])

    def test_open_uses_fast_path(self, snapshot_dir, capsys):
        assert main(["open", "--snapshot", str(snapshot_dir), "--verify"]) == 0
        output = capsys.readouterr().out
        assert "150 nodes" in output
        assert "memmap fast path" in output
        assert "checksums verified" in output
        assert "0 pending delta records" in output

    def test_open_reports_a_graph_only_snapshot(self, graph_prefix, tmp_path, capsys):
        """A directory of the retired graph-only kind: one machine, whose
        partition map is built in RAM at open."""
        snap = write_graph_only_snapshot(load_graph(graph_prefix), tmp_path / "legacy")
        assert main(["open", "--snapshot", str(snap)]) == 0
        output = capsys.readouterr().out
        assert "graph-only snapshot: memmap image, partition map in RAM" in output
        assert "1 machines, 0 pending delta records" in output

    def test_append_then_open_then_compact(self, snapshot_dir, capsys):
        assert main(
            ["append", "--snapshot", str(snapshot_dir),
             "--node", "9000", "zz", "--edge", "9000", "0"]
        ) == 0
        assert "appended 2 records" in capsys.readouterr().out

        assert main(["open", "--snapshot", str(snapshot_dir)]) == 0
        output = capsys.readouterr().out
        assert "pending deltas merged into the memmap image" in output
        assert "2 pending delta records" in output

        assert main(["compact", "--snapshot", str(snapshot_dir)]) == 0
        output = capsys.readouterr().out
        assert "folded 2 delta records" in output
        assert "generation 1 -> 2" in output
        assert "151 nodes" in output  # the folded base includes the new node

        assert main(["compact", "--snapshot", str(snapshot_dir)]) == 0
        assert "nothing to compact" in capsys.readouterr().out

        assert main(["open", "--snapshot", str(snapshot_dir)]) == 0
        assert "memmap fast path" in capsys.readouterr().out

    @pytest.mark.parametrize("label", ["", "a\tb", " padded "])
    def test_append_unwritable_label_exits_nonzero(self, snapshot_dir, label):
        with pytest.raises(SystemExit) as exit_info:
            main(
                ["append", "--snapshot", str(snapshot_dir),
                 "--node", "9000", label, "--edge", "9000", "0"]
            )
        assert exit_info.value.code not in (0, None)
        assert "cannot be written to a delta log" in str(exit_info.value.code)
        assert not (snapshot_dir / "deltas.log").exists()

    def test_query_from_snapshot_matches_query_from_graph(
        self, graph_prefix, snapshot_dir, tmp_path, capsys
    ):
        query_file = tmp_path / "pattern.q"
        query_file.write_text("node u L0\nnode v L1\nedge u v\n", encoding="utf-8")
        assert main(
            ["query", "--graph", str(graph_prefix), "--query-file",
             str(query_file), "--machines", "2"]
        ) == 0
        from_graph = capsys.readouterr().out
        assert main(
            ["query", "--snapshot", str(snapshot_dir), "--query-file",
             str(query_file)]
        ) == 0
        from_snapshot = capsys.readouterr().out
        assert "matches in" in from_snapshot
        assert from_graph.split(" matches")[0] == from_snapshot.split(" matches")[0]

    def test_query_requires_exactly_one_source(self, graph_prefix, snapshot_dir, tmp_path):
        query_file = tmp_path / "pattern.q"
        query_file.write_text("node u L0\nnode v L1\nedge u v\n", encoding="utf-8")
        with pytest.raises(SystemExit, match="exactly one"):
            main(["query", "--query-file", str(query_file)])
        with pytest.raises(SystemExit, match="exactly one"):
            main(
                ["query", "--graph", str(graph_prefix), "--snapshot",
                 str(snapshot_dir), "--query-file", str(query_file)]
            )


class TestOneFrontDoor:
    """``repro query`` is argparse over ``api.connect``: whatever kind of
    source a flag names, both answer the same query with the same rows."""

    QUERIES = {
        "name": "node x a\nnode y b\nedge x y\n",
        "edge-list": "node u rank1\nnode v rank2\nedge u v\n",
        "dblp-xml": "node p author\nnode q author\nedge p q\n",
    }

    @pytest.fixture(params=sorted(QUERIES))
    def family(self, request, tmp_path):
        """One dataset as ``{flag kind: (flag, source)}`` plus its query file."""
        if request.param == "name":
            base = "tiny"
        elif request.param == "edge-list":
            base = tmp_path / "sparse.edges"
            write_sparse_edges(base, 60, 200)
        else:
            base = tmp_path / "slice.xml"
            base.write_text(SMALL_DBLP)
        graph = api.load_dataset(base)
        save_graph(tmp_path / "prefix", graph)
        with api.connect(graph, machines=2) as db:
            db.cloud.save_snapshot(tmp_path / "snap")
        query_file = tmp_path / "pattern.q"
        query_file.write_text(self.QUERIES[request.param], encoding="utf-8")
        return query_file, {
            "base": ("--dataset", base),
            "prefix": ("--graph", tmp_path / "prefix"),
            "snapshot": ("--snapshot", tmp_path / "snap"),
        }

    @pytest.mark.parametrize("kind", ["base", "prefix", "snapshot"])
    def test_query_prints_the_rows_connect_returns(self, family, kind, capsys):
        query_file, sources = family
        flag, source = sources[kind]
        with api.connect(source, machines=None if kind == "snapshot" else 2) as db:
            expected = db.query(query_file.read_text()).as_dicts()
        assert expected
        assert main(
            ["query", flag, str(source), "--query-file", str(query_file),
             "--machines", "2", "--limit", "0", "--show", "100000"]
        ) == 0
        output = capsys.readouterr().out
        assert int(output.split(" matches in")[0]) == len(expected)
        assert printed_rows(output) == expected

    def test_process_executor_leaves_nothing_behind(self, tmp_path, capsys):
        query_file = tmp_path / "edge.q"
        query_file.write_text(self.QUERIES["name"], encoding="utf-8")
        segments = set(os.listdir("/dev/shm"))
        assert main(
            ["query", "--dataset", "tiny", "--query-file", str(query_file),
             "--executor", "process", "--workers", "2"]
        ) == 0
        assert "process executor" in capsys.readouterr().out
        assert set(os.listdir("/dev/shm")) == segments
        assert multiprocessing.active_children() == []
