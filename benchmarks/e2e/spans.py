"""In-memory span recorder for the traced phase (outside-in tracing).

The benchmark times calls *into* each layer's public functions; nothing
under ``src/`` is instrumented.  A span is a plain dict::

    {"name", "id", "parent", "trace", "start_ns", "end_ns", "attrs"}

``parent`` is the id of the enclosing span (``None`` for a root) and
``trace`` the id of the root span of the operation, so all spans of one
operation share an identifier.  Spans are kept in memory and written out
once, when the run ends.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).  The recorder is
single-threaded by design: the load model is one client, one operation in
flight.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List


class Recorder:
    """Collects spans; ``span()`` nests by dynamic scope."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[dict] = []

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[dict]:
        parent = self._stack[-1] if self._stack else None
        record = {
            "name": name,
            "id": len(self.spans),
            "parent": None if parent is None else parent["id"],
            "trace": None,
            "start_ns": 0,
            "end_ns": 0,
            "attrs": attrs,
        }
        record["trace"] = record["id"] if parent is None else parent["trace"]
        self.spans.append(record)
        self._stack.append(record)
        record["start_ns"] = time.perf_counter_ns()
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle)


def duration_ms(span: dict) -> float:
    return (span["end_ns"] - span["start_ns"]) / 1e6


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Span id -> self time in ms (duration minus direct children)."""
    own = {span["id"]: duration_ms(span) for span in spans}
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= duration_ms(span)
    return own


def by_name(spans: List[dict], name: str, **attrs) -> List[dict]:
    """Spans called ``name`` whose attrs include every given key/value."""
    return [
        span
        for span in spans
        if span["name"] == name
        and all(span["attrs"].get(key) == value for key, value in attrs.items())
    ]

