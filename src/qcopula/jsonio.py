"""Deterministic JSON emission and complex-matrix packing.

``json.dumps`` writes every value, so each float is its shortest
round-trip ``repr``: it reads back as the same double, an integral float
keeps its decimal point (``5.0``, ``-0.0``, ``1e+16``) and so reads back as
a float. The layout is fixed: an object has one member per line, indented
two spaces a level; an array whose elements are all objects (the
experiment cases) has one element per line; every other value, such an
element included, is written on one line.
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


def _rows(rows, what: str):
    """Yield (index, row) over a non-empty list of equal-length list rows."""
    if not isinstance(rows, list) or not rows:
        raise InvalidInput(f"{what}: expected a non-empty list of rows")
    ncols = None
    for r, row in enumerate(rows):
        if not isinstance(row, list):
            raise InvalidInput(f"{what}: row {r} is not a list")
        if ncols is None:
            ncols = len(row)
        elif len(row) != ncols:
            raise InvalidInput(f"{what}: ragged rows ({len(row)} vs {ncols})")
        yield r, row


def _finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise InvalidInput(f"{what}: entries must be finite")
    return arr


def _too_large(what: str, r: int, c: int) -> InvalidInput:
    return InvalidInput(f"{what}: entry ({r}, {c}) is too large for a float")


def pairs_to_complex(rows, what: str = "matrix") -> np.ndarray:
    """Unpack nested [re, im] pairs into a complex matrix.

    A grid of Python floats and ints, as ``json.loads`` gives for a state
    file, is converted in one pass: the complex128 view of its float64
    pairs, which keeps every bit, ``-0.0`` included, and reads an int entry
    as ``complex(re, im)`` does. Anything else (bools, strings, tuples,
    ragged rows, pairs of the wrong length, ints too large for a float) is
    read entry by entry, so an error names the first bad entry."""
    grid = _number_grid(rows, pairs=True)
    if grid is not None:
        return _finite(grid.view(np.complex128), what)
    out = []
    for r, row in _rows(rows, what):
        vals = []
        for c, cell in enumerate(row):
            if (
                not isinstance(cell, (list, tuple))
                or len(cell) != 2
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in cell)
            ):
                raise InvalidInput(f"{what}: entry ({r}, {c}) is not a [re, im] pair")
            try:
                vals.append(complex(cell[0], cell[1]))
            except OverflowError:
                raise _too_large(what, r, c) from None
        out.append(vals)
    return _finite(np.array(out, dtype=np.complex128), what)


def real_matrix_from_json(obj, what: str = "matrix") -> np.ndarray:
    """Read a plain real matrix given either as a bare 2-D array or under a
    "matrix" key.

    A grid of Python floats and ints is converted in one pass; anything
    else is checked entry by entry, so an error names the first bad entry."""
    rows = obj.get("matrix") if isinstance(obj, dict) else obj
    grid = _number_grid(rows, pairs=False)
    if grid is not None:
        return _finite(grid, what)
    for r, row in _rows(rows, what):
        for c, cell in enumerate(row):
            if not isinstance(cell, (int, float)) or isinstance(cell, bool):
                raise InvalidInput(f"{what}: entry ({r}, {c}) is not a number")
            if isinstance(cell, int):
                try:
                    float(cell)
                except OverflowError:
                    raise _too_large(what, r, c) from None
    return _finite(np.array(rows, dtype=np.float64), what)
