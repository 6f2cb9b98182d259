"""Unit tests for the textual query parser."""

from __future__ import annotations

import re

import pytest

from repro.errors import QueryError
from repro.query.parser import format_query, parse_query
from repro.query.query_graph import QueryGraph


class TestParse:
    def test_parse_simple_query(self):
        query = parse_query(
            """
            node u person
            node v company
            edge u v
            """
        )
        assert query.node_count == 2
        assert query.label("u") == "person"
        assert query.has_edge("u", "v")

    def test_comments_and_blank_lines(self):
        query = parse_query(
            """
            # a triangle
            node a x
            node b y

            node c z
            edge a b   # trailing comment
            edge b c
            edge c a
            """
        )
        assert query.edge_count == 3

    def test_unknown_keyword(self):
        with pytest.raises(QueryError, match="unknown keyword"):
            parse_query("vertex a x")

    def test_malformed_node_line(self):
        with pytest.raises(QueryError):
            parse_query("node a")

    def test_malformed_edge_line(self):
        with pytest.raises(QueryError):
            parse_query("node a x\nedge a")

    def test_conflicting_redeclaration(self):
        with pytest.raises(QueryError, match="redeclared"):
            parse_query("node a x\nnode a y")

    def test_consistent_redeclaration_ok(self):
        query = parse_query("node a x\nnode a x\nnode b x\nedge a b")
        assert query.node_count == 2

    def test_empty_text_rejected(self):
        with pytest.raises(QueryError):
            parse_query("# only comments\n")


class TestFormat:
    def test_roundtrip(self):
        text = "node a x\nnode b y\nedge a b\n"
        query = parse_query(text)
        assert parse_query(format_query(query)).edges() == query.edges()

    @pytest.mark.parametrize(
        "labels",
        [{"u": "C#", "v": "b"}, {"u": "a b", "v": "b"}, {"u#": "a", "v": "b"},
         {"u v": "a", "v": "b"}, {"u": "", "v": "b"}, {"u": "a\tb", "v": "b"}],
    )
    def test_text_that_would_parse_differently_is_refused(self, labels):
        first, second = labels
        query = QueryGraph(labels, [(first, second)])
        with pytest.raises(QueryError, match=re.escape(f"query node {first!r}")):
            format_query(query)

    def test_format_contains_all_nodes(self):
        query = parse_query("node a x\nnode b y\nedge a b")
        formatted = format_query(query)
        assert "node a x" in formatted
        assert "edge a b" in formatted
