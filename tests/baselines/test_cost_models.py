"""Unit tests for the Table 1 analytic cost models."""

from __future__ import annotations

import pytest

from benchmarks.paper.cost_models import (
    FACEBOOK_SCALE,
    GraphScale,
    feasible_at_scale,
    table1_cost_models,
)


class TestGraphScale:
    def test_average_degree(self):
        scale = GraphScale(nodes=100, edges=500)
        assert scale.average_degree == 10.0

    def test_facebook_scale_matches_paper(self):
        assert FACEBOOK_SCALE.nodes == 8e8
        assert FACEBOOK_SCALE.edges == 1e11
        assert FACEBOOK_SCALE.average_degree == pytest.approx(250.0)


class TestCostModels:
    def test_all_paper_methods_present(self):
        names = {model.name for model in table1_cost_models(FACEBOOK_SCALE)}
        expected = {
            "Ullmann", "VF2", "RDF-3X", "BitMat", "Subdue", "SpiderMine",
            "R-Join", "Distance-Join", "GraphQL", "Zhao-Han", "GADDI", "STwig",
        }
        assert expected <= names

    def test_stwig_index_is_linear(self):
        models = {m.name: m for m in table1_cost_models(GraphScale(1e6, 1e7))}
        stwig = models["STwig"]
        assert stwig.index_size_entries == 1e6
        assert stwig.update_operations == 1.0

    def test_two_hop_methods_are_quartic(self):
        models = {m.name: m for m in table1_cost_models(GraphScale(1e3, 1e4))}
        assert models["R-Join"].index_build_operations == 1e12

    def test_only_lightweight_methods_feasible_at_facebook_scale(self):
        models = table1_cost_models(FACEBOOK_SCALE)
        feasible = {m.name for m in models if feasible_at_scale(m)}
        # The paper's claim: only the STwig string index (and the trivial
        # no-index methods) remain feasible at Facebook scale; even the
        # linear edge indices need ">20 days" to build there.
        assert feasible == {"Ullmann", "VF2", "STwig"}

    def test_stwig_cheaper_than_every_indexing_method(self):
        models = {m.name: m for m in table1_cost_models(FACEBOOK_SCALE)}
        stwig = models["STwig"]
        for name, model in models.items():
            if name in ("Ullmann", "VF2", "STwig"):
                continue
            assert stwig.index_size_entries <= model.index_size_entries
            assert stwig.index_build_operations <= model.index_build_operations

    def test_as_row_keys(self):
        row = table1_cost_models(FACEBOOK_SCALE)[0].as_row()
        assert {"method", "index_size_entries", "index_time_s", "update_ops"} <= set(row)

    def test_index_time_scales_with_throughput(self):
        model = table1_cost_models(GraphScale(1e6, 1e7))[2]  # RDF-3X
        assert model.index_time_seconds(throughput=1e6) == pytest.approx(10.0)
