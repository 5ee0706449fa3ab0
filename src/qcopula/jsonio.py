"""Deterministic JSON emission and complex-matrix packing.

Floats are written with 17 significant digits so identical runs produce
byte-identical documents and every value round-trips exactly.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import InvalidInput

INDENT = 2  # spaces per level of object nesting


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("non-finite float cannot be serialized")
    return format(x, ".17g")


def _emit(obj, parts: list, level: int) -> None:
    if obj is None:
        parts.append("null")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(format_float(obj))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        parts.append("[")
        for k, item in enumerate(items):
            if k:
                parts.append(", ")
            _emit(item, parts, level)
        parts.append("]")
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        pad = " " * (INDENT * (level + 1))
        parts.append("{\n")
        for k, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise ValueError("JSON object keys must be strings")
            if k:
                parts.append(",\n")
            parts.append(pad + json.dumps(key) + ": ")
            _emit(value, parts, level + 1)
        parts.append("\n" + " " * (INDENT * level) + "}")
    else:
        raise ValueError(f"cannot serialize object of type {type(obj).__name__}")


def canonical_dumps(obj) -> str:
    """Serialize ``obj`` deterministically; dicts keep insertion order,
    lists are emitted on one line."""
    parts: list = []
    _emit(obj, parts, 0)
    parts.append("\n")
    return "".join(parts)


def complex_matrix_to_pairs(mat) -> list:
    """Pack a complex matrix as nested lists of [re, im] pairs."""
    m = np.asarray(mat, dtype=np.complex128)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


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
