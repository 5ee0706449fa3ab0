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

import json

import numpy as np

from .errors import InvalidInput

INDENT = 2  # spaces per level of nesting


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
    """Unpack nested [re, im] pairs into a complex matrix."""
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
    "matrix" key."""
    rows = obj.get("matrix") if isinstance(obj, dict) else obj
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
