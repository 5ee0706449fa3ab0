"""Deterministic JSON emission, complex-matrix packing and the JSON matrix
readers.

``json.dumps`` writes every value, so each float is its shortest
round-trip ``repr``: it reads back as the same double, an integral float
keeps its decimal point (``5.0``, ``-0.0``, ``1e+16``) and so reads back as
a float. The layout is fixed: an object has one member per line, indented
two spaces a level; an array whose elements are all objects (the
experiment cases) has one element per line; every other value, such an
element included, is written on one line.

Each reader converts a matrix once. A regular grid of Python floats and
ints, as ``json.loads`` gives for a valid file, is converted in one
``np.fromiter`` pass. Any other input is walked entry by entry first; the
walk only diagnoses, raising for the first bad entry, and a grid it passes
is converted by one ``np.array`` call.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .errors import InvalidInput

INDENT = 2  # spaces per level of nesting

_chain = itertools.chain.from_iterable
_NUMBER_TYPES = {float, int}  # not bool: ``type(True) is bool``


def _plain(obj):
    """A numpy scalar or array as the Python value ``json`` writes."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def _line(obj) -> str:
    return json.dumps(obj, allow_nan=False, default=_plain)


def _layout(obj, pad: str) -> str:
    inner = pad + " " * INDENT
    if isinstance(obj, dict) and obj:
        ends = "{}"
        items = [f"{json.dumps(key)}: {_layout(value, inner)}" for key, value in obj.items()]
    elif isinstance(obj, list) and obj and all(isinstance(item, dict) for item in obj):
        ends = "[]"
        items = [_line(item) for item in obj]
    else:
        return _line(obj)
    body = ",\n".join(inner + item for item in items)
    return f"{ends[0]}\n{body}\n{pad}{ends[1]}"


def canonical_dumps(obj) -> str:
    """Serialize ``obj`` deterministically, in the layout above; objects
    keep insertion order, and a non-finite float raises ``ValueError``."""
    return _layout(obj, "") + "\n"


def complex_matrix_to_pairs(mat) -> list:
    """Pack a complex matrix as nested lists of [re, im] pairs."""
    m = np.asarray(mat, dtype=np.complex128)
    return np.stack((m.real, m.imag), axis=-1).tolist()


def _number_grid(rows, pairs: bool):
    """``rows`` as one float64 array, a row's entries (with ``pairs``, its
    pairs' two numbers in turn) along its second axis, when ``rows`` is a
    non-empty list of equal-length non-empty lists whose entries are all
    Python floats or ints (with ``pairs``, all [re, im] lists of two such
    numbers), each of which converts to a float; else None. Each test is
    one pass at C speed, and an int converts as ``float`` does it."""
    if type(rows) is not list or set(map(type, rows)) != {list} or len(set(map(len, rows))) != 1:
        return None
    leaves = list(_chain(rows))
    if pairs:
        if set(map(type, leaves)) != {list} or set(map(len, leaves)) != {2}:
            return None
        leaves = list(_chain(leaves))
    kinds = set(map(type, leaves))
    if not kinds or not kinds <= _NUMBER_TYPES:
        return None
    try:
        grid = np.fromiter(leaves, np.float64, count=len(leaves))
    except OverflowError:  # an int too large for a float
        return None
    return grid.reshape(len(rows), -1)


def _diagnose(rows, what: str, pairs: bool) -> None:
    """Raise ``InvalidInput`` naming the first defect of ``rows``, read row
    by row and entry by entry: ``rows`` must be a non-empty list of
    equal-length lists whose entries are numbers (with ``pairs``, [re, im]
    lists or tuples of two numbers), each of which converts to a float. A
    number is an int or a float, subclasses included, but not a bool."""
    if not isinstance(rows, list) or not rows:
        raise InvalidInput(f"{what}: expected a non-empty list of rows")
    kind, width = ("a [re, im] pair", 2) if pairs else ("a number", 1)
    for r, row in enumerate(rows):
        if not isinstance(row, list):
            raise InvalidInput(f"{what}: row {r} is not a list")
        if len(row) != len(rows[0]):
            raise InvalidInput(f"{what}: ragged rows ({len(row)} vs {len(rows[0])})")
        for c, cell in enumerate(row):
            values = cell if pairs else (cell,)
            if not isinstance(values, (list, tuple)) or len(values) != width or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
            ):
                raise InvalidInput(f"{what}: entry ({r}, {c}) is not {kind}")
            try:
                list(map(float, values))
            except OverflowError:
                raise InvalidInput(f"{what}: entry ({r}, {c}) is too large for a float") from None


def _grid(rows, what: str, pairs: bool) -> np.ndarray:
    """``rows`` as the float64 array ``_number_grid`` describes. A grid that
    route refuses is walked by ``_diagnose`` and, if it passes, converted by
    ``np.array``. Raises ``InvalidInput`` unless every entry is finite."""
    grid = _number_grid(rows, pairs)
    if grid is None:
        _diagnose(rows, what, pairs)
        grid = np.array(rows, dtype=np.float64).reshape(len(rows), -1)
    if not np.all(np.isfinite(grid)):
        raise InvalidInput(f"{what}: entries must be finite")
    return grid


def pairs_to_complex(rows, what: str = "matrix") -> np.ndarray:
    """Unpack nested [re, im] pairs into a complex matrix: the complex128
    view of the float64 grid of the pairs' numbers, which keeps every bit,
    ``-0.0`` included, and reads an int as ``complex(re, im)`` does.

    A grid of Python floats and ints, as ``json.loads`` gives for a state
    file, is converted in one pass. Any other input is first walked entry by
    entry, so an error names the first bad entry: bools, strings, ragged
    rows, pairs of the wrong length and ints too large for a float are
    refused, while tuples, numeric subclasses and empty rows are read."""
    return _grid(rows, what, pairs=True).view(np.complex128)


def real_matrix_from_json(obj, what: str = "matrix") -> np.ndarray:
    """Read a plain real matrix given either as a bare 2-D array or under a
    "matrix" key.

    A grid of Python floats and ints is converted in one pass; any other
    input is first walked entry by entry, so an error names the first bad
    entry, as in ``pairs_to_complex``."""
    rows = obj.get("matrix") if isinstance(obj, dict) else obj
    return _grid(rows, what, pairs=False)
