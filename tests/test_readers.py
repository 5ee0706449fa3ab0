"""The JSON matrix readers: a grid of Python floats and ints is converted
in one pass, anything else is checked entry by entry. Both routes must give
the same bits, or the same ``InvalidInput`` message."""

import math
from unittest import mock

import numpy as np
import pytest

from qcopula import jsonio
from qcopula.errors import InvalidInput

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(max_examples=150, derandomize=True, database=None, deadline=None)

SPECIAL = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308]
floats = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))
# ints that fit a float, and ones that do not
ints = st.one_of(st.integers(-(2**70), 2**70), st.integers(-(10**400), 10**400))
# floats twice, so that whole float grids are drawn often
entries = st.one_of(
    floats,
    floats,
    ints,
    st.booleans(),
    st.text(max_size=3),
    st.none(),
)
pairs = st.one_of(
    st.lists(entries, min_size=2, max_size=2),
    st.lists(floats, min_size=2, max_size=2),
    st.tuples(floats, floats),
    st.lists(floats, min_size=0, max_size=3),
    entries,
)


def outcome(read, rows):
    """``read(rows)`` as (dtype, shape, bytes), or the error's message."""
    try:
        a = read(rows)
    except InvalidInput as exc:
        return "InvalidInput", str(exc)
    return a.dtype, a.shape, a.tobytes()


def per_entry(read, rows):
    """``outcome`` with the one-pass conversion turned off."""
    with mock.patch.object(jsonio, "_number_grid", return_value=None):
        return outcome(read, rows)


def grids(cell, ragged=True):
    """Lists of rows of ``cell`` values: square-ish grids, and, when
    ``ragged``, rows of any length, empty rows included."""
    regular = st.integers(1, 4).flatmap(
        lambda c: st.lists(st.lists(cell, min_size=c, max_size=c), min_size=1, max_size=4)
    )
    if not ragged:
        return regular
    return st.one_of(regular, st.lists(st.lists(cell, max_size=4), max_size=4))


READERS = {"pairs": jsonio.pairs_to_complex, "real": jsonio.real_matrix_from_json}
CELLS = {"pairs": pairs, "real": entries}
FLOAT_CELLS = {"pairs": st.lists(floats, min_size=2, max_size=2), "real": floats}
numbers = st.one_of(floats, ints)
NUMBER_CELLS = {"pairs": st.lists(numbers, min_size=2, max_size=2), "real": numbers}


@pytest.mark.parametrize("kind", sorted(READERS))
class TestOnePassConversion:
    @SETTINGS
    @hypothesis.given(data=st.data())
    def test_float_grids_match_the_per_entry_loop(self, kind, data):
        rows = data.draw(grids(FLOAT_CELLS[kind], ragged=False))
        got = outcome(READERS[kind], rows)
        assert got == per_entry(READERS[kind], rows)

    @SETTINGS
    @hypothesis.given(data=st.data())
    def test_number_grids_match_the_per_entry_loop(self, kind, data):
        rows = data.draw(grids(NUMBER_CELLS[kind], ragged=False))
        assert outcome(READERS[kind], rows) == per_entry(READERS[kind], rows)

    @SETTINGS
    @hypothesis.given(data=st.data())
    def test_any_input_matches_the_per_entry_loop(self, kind, data):
        rows = data.draw(st.one_of(grids(CELLS[kind]), entries))
        assert outcome(READERS[kind], rows) == per_entry(READERS[kind], rows)

    @SETTINGS
    @hypothesis.given(data=st.data())
    def test_one_int_reads_as_its_float_twin(self, kind, data):
        rows = data.draw(grids(FLOAT_CELLS[kind], ragged=False))
        value = data.draw(st.integers(-(2**1000), 2**1000))
        r = data.draw(st.integers(0, len(rows) - 1))
        c = data.draw(st.integers(0, len(rows[0]) - 1))
        with_int = [list(row) for row in rows]
        twin = [list(row) for row in rows]
        if kind == "pairs":
            part = data.draw(st.integers(0, 1))
            with_int[r][c] = list(rows[r][c])
            twin[r][c] = list(rows[r][c])
            with_int[r][c][part], twin[r][c][part] = value, float(value)
        else:
            with_int[r][c], twin[r][c] = value, float(value)
        assert outcome(READERS[kind], with_int) == outcome(READERS[kind], twin)

    def test_int_grids_take_the_one_pass_route(self, kind):
        pairs = kind == "pairs"

        def grid(value):
            cell, other = ([value, 0], [2.5, -0.0]) if pairs else (value, 2.5)
            return jsonio._number_grid([[cell, cell], [cell, other]], pairs=pairs)

        assert grid(1).tobytes() == grid(1.0).tobytes()
        assert grid(10**400) is None  # the per-entry loop names the entry
        assert grid(True) is None

    def test_keeps_negative_zero(self, kind):
        cell = [-0.0, -0.0] if kind == "pairs" else -0.0
        a = READERS[kind]([[cell, cell], [cell, cell]])
        assert np.signbit(a.view(np.float64)).all()


class TestMessages:
    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[[1.0, 0.0], [True, 0.0]]], "matrix: entry (0, 1) is not a [re, im] pair"),
            ([[[1.0, 0.0]], [["1", 0.0]]], "matrix: entry (1, 0) is not a [re, im] pair"),
            ([[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]]], "matrix: ragged rows (1 vs 2)"),
            ([[[1.0, 0.0, 0.0]]], "matrix: entry (0, 0) is not a [re, im] pair"),
            ([[[1.0, 10**400]]], "matrix: entry (0, 0) is too large for a float"),
            ([[[1.0, math.nan]]], "matrix: entries must be finite"),
            ([[1.0, 0.0]], "matrix: entry (0, 0) is not a [re, im] pair"),
            ([[[1.0, 0.0]], None], "matrix: row 1 is not a list"),
            ([], "matrix: expected a non-empty list of rows"),
        ],
    )
    def test_pairs(self, rows, message):
        with pytest.raises(InvalidInput) as exc:
            jsonio.pairs_to_complex(rows)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[1.0, 2.0], [3.0, False]], "matrix: entry (1, 1) is not a number"),
            ([[1.0, "2"]], "matrix: entry (0, 1) is not a number"),
            ([[1.0, 2.0], [3.0]], "matrix: ragged rows (1 vs 2)"),
            ([[1.0, None]], "matrix: entry (0, 1) is not a number"),
            ([[1.0, -(10**400)]], "matrix: entry (0, 1) is too large for a float"),
            ([[1.0, math.inf]], "matrix: entries must be finite"),
            ({"matrix": "rows"}, "matrix: expected a non-empty list of rows"),
        ],
    )
    def test_real(self, rows, message):
        with pytest.raises(InvalidInput) as exc:
            jsonio.real_matrix_from_json(rows)
        assert str(exc.value) == message

    def test_tuples_read_as_lists(self):
        a = jsonio.pairs_to_complex([[(1.0, -2.0), [3.0, 4.0]]])
        b = jsonio.pairs_to_complex([[[1.0, -2.0], [3.0, 4.0]]])
        assert a.tobytes() == b.tobytes()
