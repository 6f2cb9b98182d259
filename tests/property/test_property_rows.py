"""Property tests for the one answer-to-Python conversion, ``rows_as_tuples``.

The reference is the per-cell spelling ``[tuple(int(v) for v in row) for
row in array]``.  The conversion picks its regime from the data alone — one
Python object per distinct value when the value span ``max - min + 1`` is
no wider than the cell count, one per cell otherwise — and both regimes
must give the reference's list, of plain Python ``int`` (or ``str``)
elements.  ``MatchResult.external_rows()`` / ``as_dicts()`` must be the
per-row ``IdMap`` image of the dense rows in both regimes, for integer and
string maps.  A dense answer's rows must also *hold* less memory than one
object per cell.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.result import MatchResult, MatchTable, rows_as_tuples
from repro.ingest import IdMap

from tests.helpers import traced

RELAXED = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: ``(low, step)`` placements of small value grids: dense, gapped, negative
#: and spread over 2**62.
PLACEMENTS = [(0, 1), (7, 3), (-40, 1), (-(2**61), 2**20), (-(2**62), 2**61)]


def reference(array: np.ndarray):
    return [tuple(int(value) for value in row) for row in array]


def dense_regime(array: np.ndarray) -> bool:
    return array.size > 0 and int(array.max()) - int(array.min()) + 1 <= array.size


@st.composite
def answer_arrays(draw):
    """``(n, width)`` integer arrays, empty and zero-width ones included."""
    count = draw(st.integers(min_value=0, max_value=40))
    width = draw(st.integers(min_value=0, max_value=5))
    low, step = draw(st.sampled_from(PLACEMENTS))
    # The grid's width: up to twice the cell count, kept inside int64.
    grid = draw(st.integers(min_value=1, max_value=max(1, 2 * count * width)))
    grid = min(grid, (2**62 - low) // step)
    cells = draw(
        st.lists(
            st.integers(min_value=0, max_value=grid - 1),
            min_size=count * width,
            max_size=count * width,
        )
    )
    array = (low + step * np.array(cells, dtype=object)).astype(np.int64).reshape(count, width)
    if draw(st.booleans()) and array.size and np.abs(array).max() < 2**31:
        array = array.astype(np.int32)
    return array


@RELAXED
@given(array=answer_arrays())
def test_rows_equal_the_per_cell_reference(array):
    rows = rows_as_tuples(array)
    assert rows == reference(array)
    assert all(type(row) is tuple and len(row) == array.shape[1] for row in rows)
    assert all(type(value) is int for row in rows for value in row)
    assert rows_as_tuples(array) is not rows


@RELAXED
@given(array=answer_arrays())
def test_the_dense_regime_makes_one_object_per_distinct_value(array):
    rows = rows_as_tuples(array)
    if dense_regime(array):
        objects = {id(value) for row in rows for value in row}
        assert len(objects) == len(np.unique(array))


@st.composite
def mapped_answers(draw):
    """A dense answer array over an ``IdMap``, in either regime."""
    kind = draw(st.sampled_from(["int", "str"]))
    node_count = draw(st.sampled_from([6, 40, 5_000]))
    count = draw(st.integers(min_value=0, max_value=30))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    if kind == "int":
        externals = rng.choice(2**62, size=node_count, replace=False)
    else:
        externals = [f"node-{value}" for value in rng.choice(10**9, size=node_count, replace=False)]
    dense = rng.integers(0, node_count, size=(count, 3))
    return IdMap.from_external(externals), dense


@RELAXED
@given(answer=mapped_answers())
def test_external_rows_are_the_per_row_id_map_image(answer):
    id_map, dense = answer
    columns = ("a", "b", "c")
    result = MatchResult(columns, MatchTable(columns, dense), id_map=id_map)
    expected = [tuple(id_map.external_of(int(value)) for value in row) for row in dense]
    external = result.external_rows()
    assert external == expected
    scalar = str if id_map.kind == "str" else int
    assert all(type(value) is scalar for row in external for value in row)
    assert result.as_dicts() == [dict(zip(columns, row)) for row in expected]
    assert result.rows == reference(dense)
    if dense_regime(dense):
        objects = {id(value) for row in external for value in row}
        assert len(objects) == len(np.unique(dense))


def test_a_dense_answer_holds_far_less_than_an_object_per_cell():
    """100,000 rows of 5 node IDs out of 50,000: one object per cell costs
    about 247 B per row, one per distinct node about 104."""
    array = np.random.default_rng(5).integers(0, 50_000, size=(100_000, 5))
    result = MatchResult(tuple("abcde"), MatchTable(tuple("abcde"), array))
    rows, held, _ = traced(lambda: result.rows)
    assert np.array_equal(np.array(rows), array)
    assert held / len(array) <= 120
