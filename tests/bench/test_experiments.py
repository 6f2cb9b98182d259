"""Smoke tests for the per-figure experiment drivers (tiny parameterizations).

Full-scale runs live under ``benchmarks/``; these tests only verify that each
driver produces rows of the expected shape so a broken experiment is caught
by ``pytest`` rather than at benchmark time.
"""

from __future__ import annotations


from repro.graph.generators.erdos_renyi import generate_gnm

from benchmarks.paper import experiments


class TestTable1:
    def test_rows_for_every_method(self):
        small = generate_gnm(200, 500, label_count=10, seed=1)
        rows = experiments.table1_method_comparison(measured_graph=small)
        methods = {row["method"] for row in rows}
        assert {"STwig", "R-Join", "RDF-3X", "GADDI"} <= methods

    def test_stwig_row_is_feasible_and_measured(self):
        small = generate_gnm(200, 500, label_count=10, seed=1)
        rows = experiments.table1_method_comparison(measured_graph=small)
        stwig = next(row for row in rows if row["method"] == "STwig")
        assert stwig["feasible_at_scale"] is True
        assert stwig["measured_entries"] > 0

    def test_superlinear_methods_infeasible(self):
        small = generate_gnm(100, 200, label_count=5, seed=1)
        rows = experiments.table1_method_comparison(measured_graph=small)
        rjoin = next(row for row in rows if row["method"] == "R-Join")
        assert rjoin["feasible_at_scale"] is False


class TestTable2:
    def test_loading_rows(self):
        rows = experiments.table2_loading_times(node_counts=(200, 400), machine_count=2)
        assert [row["nodes"] for row in rows] == [200, 400]
        assert all(row["load_time_s"] >= 0 for row in rows)
        assert rows[1]["edges"] > rows[0]["edges"]


class TestFigureDrivers:
    def test_figure8a_shape(self):
        rows = experiments.figure8a_dfs_query_size(
            query_sizes=(3, 4), batch_size=1, machine_count=2
        )
        assert [row["query_nodes"] for row in rows] == [3, 4]
        assert all("patents_ms" in row and "wordnet_ms" in row for row in rows)

    def test_figure9_shape(self):
        rows = experiments.figure9_speedup(
            kind="dfs", machine_counts=(1, 2), query_nodes=4, batch_size=1
        )
        assert [row["machines"] for row in rows] == [1, 2]
        assert all(row["patents_sim_ms"] > 0 for row in rows)

    def test_figure10a_shape(self):
        rows = experiments.figure10a_graph_size_fixed_degree(
            node_counts=(400, 800), average_degree=6, batch_size=1, machine_count=2
        )
        assert [row["nodes"] for row in rows] == [400, 800]
        assert all("dfs_ms" in row and "random_ms" in row for row in rows)

    def test_figure10d_shape(self):
        rows = experiments.figure10d_label_density(
            label_densities=(0.01, 0.1),
            node_count=600,
            average_degree=6,
            batch_size=1,
            machine_count=2,
        )
        assert [row["label_density"] for row in rows] == [0.01, 0.1]
        assert rows[1]["labels"] > rows[0]["labels"]


class TestAblations:
    def test_ablation_optimizations_variants(self):
        rows = experiments.ablation_optimizations(batch_size=1, machine_count=2, query_nodes=4)
        variants = {row["variant"] for row in rows}
        assert "full (paper)" in variants
        assert len(variants) == 5

    def test_ablation_block_size(self):
        rows = experiments.ablation_block_size(
            block_sizes=(None, 64), batch_size=1, machine_count=2
        )
        assert [row["block_size"] for row in rows] == ["none", 64]
