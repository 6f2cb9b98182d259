"""Unit tests for the text table/series rendering helpers."""

from __future__ import annotations

from benchmarks.paper.reporting import format_series, format_table


class TestFormatTable:
    def test_empty_rows(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_header_and_rows_present(self):
        text = format_table([{"x": 1, "y": "abc"}, {"x": 2, "y": "de"}], title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "x" in lines[1] and "y" in lines[1]
        assert len(lines) == 2 + 1 + 2  # title + header + separator + 2 rows

    def test_missing_values_render_empty(self):
        text = format_table([{"a": 1, "b": 2}, {"a": 3}])
        assert "3" in text

    def test_float_formatting(self):
        text = format_table([{"v": 0.000123456}, {"v": 1234567.0}, {"v": 0.0}])
        assert "1.235e-04" in text
        assert "1.235e+06" in text

    def test_bool_formatting(self):
        text = format_table([{"ok": True}, {"ok": False}])
        assert "yes" in text and "no" in text

    def test_columns_follow_first_row(self):
        text = format_table([{"z": 1, "a": 2}])
        header = text.splitlines()[0]
        assert header.index("z") < header.index("a")


class TestFormatSeries:
    def test_series_rendered_as_two_columns(self):
        text = format_series("x", "y", [(1, 10), (2, 20)], title="curve")
        assert "curve" in text
        assert "10" in text and "20" in text
