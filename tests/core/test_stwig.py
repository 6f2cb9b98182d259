"""Unit tests for the STwig unit and cover validation."""

from __future__ import annotations

import pytest

from repro.core.stwig import STwig, validate_cover
from repro.errors import DecompositionError
from repro.query.query_graph import QueryGraph


@pytest.fixture
def paper_query() -> QueryGraph:
    """The 6-node query of Figure 4(a): a-b, a-c, b-c?, ... (tree + extra edges)."""
    return QueryGraph(
        {"a": "a", "b": "b", "c": "c", "d": "d", "e": "e", "f": "f"},
        [
            ("a", "b"), ("a", "c"),
            ("b", "d"), ("c", "d"),
            ("b", "e"), ("b", "f"),
            ("d", "e"), ("d", "f"),
        ],
    )


class TestSTwig:
    def test_nodes_and_size(self):
        stwig = STwig(root="a", leaves=("b", "c"))
        assert stwig.nodes == ("a", "b", "c")
        assert stwig.size == 3

    def test_covered_edges_normalized(self):
        stwig = STwig(root="d", leaves=("b", "c", "e", "f"))
        assert ("b", "d") in stwig.covered_edges()
        assert ("d", "e") in stwig.covered_edges()

    def test_root_cannot_be_leaf(self):
        with pytest.raises(DecompositionError):
            STwig(root="a", leaves=("a", "b"))

    def test_duplicate_leaves_rejected(self):
        with pytest.raises(DecompositionError):
            STwig(root="a", leaves=("b", "b"))

    def test_repr(self):
        assert "a" in repr(STwig(root="a", leaves=("b",)))

    def test_leafless_stwig_allowed(self):
        stwig = STwig(root="solo", leaves=())
        assert stwig.covered_edges() == ()


class TestValidateCover:
    def test_figure4b_decomposition_is_valid(self, paper_query):
        # The paper's decomposition 1 (Figure 4(b)).
        cover = [
            STwig("a", ("b", "c")),
            STwig("d", ("b", "c")),
            STwig("b", ("e", "f")),
            STwig("d", ("e", "f")),
        ]
        # q1 covers a-b, a-c; q2 covers d-b, d-c; q3 covers b-e, b-f; q4 covers d-e, d-f.
        validate_cover(paper_query, cover)

    def test_missing_edge_detected(self, paper_query):
        cover = [STwig("a", ("b", "c"))]
        with pytest.raises(DecompositionError, match="not covered"):
            validate_cover(paper_query, cover)

    def test_non_query_edge_detected(self, paper_query):
        cover = [STwig("a", ("b", "c", "f"))]  # a-f is not a query edge
        with pytest.raises(DecompositionError, match="not a query edge"):
            validate_cover(paper_query, cover)

    def test_double_coverage_detected(self, paper_query):
        cover = [
            STwig("a", ("b", "c")),
            STwig("b", ("a", "d", "e", "f")),  # a-b covered twice
            STwig("d", ("c", "e", "f")),
        ]
        with pytest.raises(DecompositionError, match="covered by both"):
            validate_cover(paper_query, cover)

    def test_single_node_query_cover(self):
        query = QueryGraph({"only": "x"}, [])
        validate_cover(query, [STwig("only", ())])

    def test_single_node_query_missing_node(self):
        query = QueryGraph({"only": "x"}, [])
        with pytest.raises(DecompositionError):
            validate_cover(query, [])
