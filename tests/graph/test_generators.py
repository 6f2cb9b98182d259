"""Unit tests for the synthetic graph generators."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.graph.generators.erdos_renyi import generate_gnm
from repro.graph.generators.labels import (
    assign_uniform_label_ids,
    assign_uniform_labels,
    assign_zipf_label_ids,
    assign_zipf_labels,
    label_count_for_density,
    label_ids_from_uniforms,
    make_label_collection,
    zipf_cumulative,
)
from repro.graph.generators.lookalike import (
    PATENTS_FULL,
    WORDNET_FULL,
    patents_like,
    wordnet_like,
)
from repro.graph.generators.power_law import generate_power_law
from repro.graph.generators.rmat import RmatParameters, generate_rmat
from repro.graph.stats import compute_stats, degree_summary, generation_report
from tests.helpers import (
    generate_gnm_scalar,
    generate_power_law_scalar,
    generate_rmat_scalar,
    power_law_weights,
)


class TestLabelHelpers:
    def test_make_label_collection(self):
        labels = make_label_collection(3, prefix="T")
        assert labels == ["T0", "T1", "T2"]

    def test_make_label_collection_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            make_label_collection(0)

    def test_label_count_for_density(self):
        assert label_count_for_density(1000, 0.01) == 10
        assert label_count_for_density(1000, 1.0) == 1000

    def test_label_count_clamped_to_one(self):
        assert label_count_for_density(100, 1e-9) == 1

    def test_density_out_of_range(self):
        with pytest.raises(ConfigurationError):
            label_count_for_density(100, 0.0)
        with pytest.raises(ConfigurationError):
            label_count_for_density(100, 1.5)

    def test_uniform_assignment_covers_all_nodes(self):
        labels = assign_uniform_labels(range(50), ["x", "y"], seed=1)
        assert set(labels) == set(range(50))
        assert set(labels.values()) <= {"x", "y"}

    def test_uniform_assignment_deterministic(self):
        first = assign_uniform_labels(range(20), ["x", "y", "z"], seed=5)
        second = assign_uniform_labels(range(20), ["x", "y", "z"], seed=5)
        assert first == second

    def test_zipf_assignment_skews_to_first_label(self):
        labels = assign_zipf_labels(range(2000), ["top", "mid", "rare"], exponent=1.5, seed=3)
        counts = {label: 0 for label in ["top", "mid", "rare"]}
        for label in labels.values():
            counts[label] += 1
        assert counts["top"] > counts["mid"] > counts["rare"]


class TestErdosRenyi:
    def test_gnm_exact_edge_count(self):
        graph = generate_gnm(50, 100, label_count=3, seed=2)
        assert graph.node_count == 50
        assert graph.edge_count == 100

    def test_gnm_edge_count_clamped(self):
        graph = generate_gnm(5, 100, label_count=2, seed=2)
        assert graph.edge_count == 10  # complete graph on 5 nodes

    def test_gnm_deterministic(self):
        first = generate_gnm(30, 60, seed=9)
        second = generate_gnm(30, 60, seed=9)
        assert sorted(first.edges()) == sorted(second.edges())
        assert first.labels() == second.labels()

    def test_gnm_zero_edges(self):
        graph = generate_gnm(10, 0, seed=1)
        assert graph.edge_count == 0


class TestRmat:
    def test_node_and_edge_counts(self):
        graph = generate_rmat(500, 8.0, label_density=0.02, seed=3)
        assert graph.node_count == 500
        # Duplicate collisions may lose a few edges, but we should be close.
        assert graph.edge_count >= 0.8 * 500 * 8 / 2

    def test_labels_respect_density(self):
        graph = generate_rmat(1000, 4.0, label_density=0.01, seed=3)
        assert len(graph.distinct_labels()) <= 10

    def test_deterministic(self):
        first = generate_rmat(200, 4.0, seed=11)
        second = generate_rmat(200, 4.0, seed=11)
        assert sorted(first.edges()) == sorted(second.edges())

    def test_skewed_degree_distribution(self):
        graph = generate_rmat(2000, 8.0, seed=5)
        stats = compute_stats(graph)
        # R-MAT should produce hubs well above the average degree.
        assert stats.max_degree > 3 * stats.average_degree

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            RmatParameters(a=0.5, b=0.5, c=0.5, d=0.5).validate()

    def test_no_self_loops(self):
        graph = generate_rmat(300, 6.0, seed=7)
        assert all(u != v for u, v in graph.edges())


class TestPowerLaw:
    def test_weights_scaled_to_average_degree(self):
        weights = power_law_weights(100, 2.5, 10.0)
        assert sum(weights) / 100 == pytest.approx(10.0)

    def test_exponent_must_exceed_one(self):
        with pytest.raises(ConfigurationError):
            power_law_weights(10, 1.0, 5.0)

    def test_generate_power_law_counts(self):
        graph = generate_power_law(800, 6.0, seed=2)
        assert graph.node_count == 800
        assert graph.edge_count >= 0.7 * 800 * 6 / 2

    def test_generate_power_law_has_hubs(self):
        graph = generate_power_law(2000, 6.0, exponent=2.2, seed=2)
        stats = compute_stats(graph)
        assert stats.max_degree > 4 * stats.average_degree


class TestLookalikes:
    def test_patents_like_label_count(self):
        graph = patents_like(scale=0.002, seed=1)
        # Label count stays near the original 418 regardless of scale.
        assert 200 <= len(graph.distinct_labels()) <= PATENTS_FULL[2]

    def test_patents_like_average_degree(self):
        graph = patents_like(scale=0.002, seed=1)
        stats = compute_stats(graph)
        original_degree = 2 * PATENTS_FULL[1] / PATENTS_FULL[0]
        assert stats.average_degree == pytest.approx(original_degree, rel=0.35)

    def test_wordnet_like_label_count(self):
        graph = wordnet_like(scale=0.05, seed=1)
        assert len(graph.distinct_labels()) <= WORDNET_FULL[2]

    def test_wordnet_like_sparser_than_patents(self):
        wordnet = wordnet_like(scale=0.05, seed=1)
        patents = patents_like(scale=0.002, seed=1)
        assert (
            compute_stats(wordnet).average_degree < compute_stats(patents).average_degree
        )

    def test_scale_out_of_range(self):
        with pytest.raises(ConfigurationError):
            patents_like(scale=0.0)
        with pytest.raises(ConfigurationError):
            wordnet_like(scale=1.5)


class _ReplayRandom(random.Random):
    """A ``random.Random`` that replays a preset uniform stream.

    Lets the scalar label-assignment draw loop consume the exact uniforms
    handed to the vectorized inverse-CDF path, so the two can be compared
    for byte-exact equality rather than just distributionally.
    """

    def __init__(self, uniforms):
        super().__init__(0)
        self._uniforms = list(uniforms)
        self._cursor = 0

    def random(self):
        value = self._uniforms[self._cursor]
        self._cursor += 1
        return value


class TestGeneratorParity:
    """Seeded scalar-vs-vectorized equivalence for the generator rewrite."""

    def test_zipf_label_assignment_exact_on_shared_uniforms(self):
        # Identical uniforms through the scalar binary search and the
        # vectorized searchsorted must yield identical labels.
        labels = make_label_collection(37)
        uniforms = np.random.default_rng(3).random(500)
        scalar = assign_zipf_labels(
            range(500), labels, exponent=1.3, seed=_ReplayRandom(uniforms)
        )
        vectorized = label_ids_from_uniforms(
            zipf_cumulative(37, exponent=1.3), uniforms
        )
        assert [scalar[node] for node in range(500)] == [
            labels[i] for i in vectorized.tolist()
        ]

    def test_zipf_label_ids_skew_to_first_label(self):
        ids = assign_zipf_label_ids(4000, 3, exponent=1.5, seed=3)
        counts = np.bincount(ids, minlength=3)
        assert counts[0] > counts[1] > counts[2]

    def test_uniform_label_ids_cover_labels(self):
        ids = assign_uniform_label_ids(2000, 7, seed=5)
        assert ids.dtype == np.int32
        assert set(np.unique(ids).tolist()) == set(range(7))

    @pytest.mark.parametrize(
        "vectorized, scalar, kwargs",
        [
            (generate_power_law, generate_power_law_scalar, {"label_density": 0.01}),
            (generate_rmat, generate_rmat_scalar, {"label_density": 0.01}),
        ],
    )
    def test_degree_sequence_parity(self, vectorized, scalar, kwargs):
        fast = vectorized(4000, 8.0, seed=11, **kwargs)
        reference = scalar(4000, 8.0, seed=11, **kwargs)
        assert fast.node_count == reference.node_count
        assert fast.edge_count == pytest.approx(reference.edge_count, rel=0.02)
        fast_summary = degree_summary(fast)
        reference_summary = degree_summary(reference)
        assert fast_summary["mean"] == pytest.approx(
            reference_summary["mean"], rel=0.05
        )
        assert fast_summary["p50"] == pytest.approx(reference_summary["p50"], abs=2)
        assert fast_summary["p90"] == pytest.approx(
            reference_summary["p90"], rel=0.25, abs=2
        )
        # Both samplers must produce hubs of the same order of magnitude.
        assert 0.3 <= fast_summary["max"] / reference_summary["max"] <= 3.0
        assert fast.distinct_labels() == reference.distinct_labels()

    def test_gnm_parity_exact_edge_count(self):
        fast = generate_gnm(300, 900, label_count=4, seed=2)
        reference = generate_gnm_scalar(300, 900, label_count=4, seed=2)
        assert fast.edge_count == reference.edge_count == 900
        assert fast.distinct_labels() == reference.distinct_labels()

    def test_label_distribution_parity(self):
        fast = generate_power_law(5000, 6.0, label_density=0.002, label_skew=1.2, seed=9)
        reference = generate_power_law_scalar(
            5000, 6.0, label_density=0.002, label_skew=1.2, seed=9
        )
        assert fast.distinct_labels() == reference.distinct_labels()
        fast_freq = np.array(sorted(fast.label_frequencies().values()))
        reference_freq = np.array(sorted(reference.label_frequencies().values()))
        # Same Zipf shape: the per-rank frequencies agree within 20% + slack.
        assert np.allclose(fast_freq, reference_freq, rtol=0.2, atol=30)

    @pytest.mark.parametrize(
        "generate",
        [generate_power_law, generate_rmat,
         generate_power_law_scalar, generate_rmat_scalar],
    )
    def test_deterministic_across_runs(self, generate):
        first = generate(600, 6.0, seed=13)
        second = generate(600, 6.0, seed=13)
        assert sorted(first.edges()) == sorted(second.edges())
        assert first.labels() == second.labels()

    def test_gnm_deterministic_across_runs(self):
        first = generate_gnm(600, 1800, seed=13)
        second = generate_gnm(600, 1800, seed=13)
        assert sorted(first.edges()) == sorted(second.edges())
        assert first.labels() == second.labels()

    def test_random_random_seed_bridging_deterministic(self):
        first = generate_power_law(400, 5.0, seed=random.Random(5))
        second = generate_power_law(400, 5.0, seed=random.Random(5))
        assert sorted(first.edges()) == sorted(second.edges())


class TestGenerationReport:
    def test_achieved_edges_recorded(self):
        graph = generate_rmat(1000, 8.0, seed=4)
        report = generation_report(graph)
        assert report is not None
        assert report.model == "rmat"
        assert report.achieved_edges == graph.edge_count
        assert report.target_edges == round(1000 * 8.0 / 2)
        assert report.shortfall == report.target_edges - report.achieved_edges

    def test_shortfall_is_traced_not_silent(self):
        # An extremely skewed R-MAT cannot meet its target inside the retry
        # budget (draws keep landing on the same hub pairs); the undershoot
        # must be visible in the report.
        graph = generate_rmat(
            64, 20.0, params=RmatParameters(0.9, 0.05, 0.04, 0.01), seed=1
        )
        report = generation_report(graph)
        assert report.achieved_edges == graph.edge_count
        assert report.achieved_edges < report.target_edges
        assert report.shortfall > 0
        assert report.achieved_ratio < 1.0
        assert report.rejected_duplicates > 0

    def test_scalar_generators_report_too(self):
        graph = generate_power_law_scalar(500, 6.0, seed=3)
        report = generation_report(graph)
        assert report.model == "chung-lu-scalar"
        assert report.achieved_edges == graph.edge_count

    def test_stats_surface_target_edges(self):
        graph = generate_power_law(800, 6.0, seed=2)
        stats = compute_stats(graph)
        assert stats.target_edge_count == round(800 * 6.0 / 2)
        assert stats.achieved_edge_ratio == pytest.approx(
            graph.edge_count / stats.target_edge_count
        )
        row = stats.as_row()
        assert row["target_edges"] == stats.target_edge_count

    def test_zero_edge_target_stats_row(self):
        stats = compute_stats(generate_gnm(10, 0, seed=1))
        assert stats.target_edge_count == 0
        assert stats.achieved_edge_ratio == 1.0
        assert stats.as_row()["achieved_edge_ratio"] == 1.0

    def test_non_generated_graphs_have_no_report(self):
        from repro.graph.labeled_graph import LabeledGraph

        graph = LabeledGraph.from_edges({1: "a", 2: "b"}, [(1, 2)])
        assert generation_report(graph) is None
        assert compute_stats(graph).target_edge_count is None
