"""Tests for deterministic JSON emission and matrix packing."""

import json
import math
import struct

import numpy as np
import pytest

from qcopula import jsonio
from qcopula.errors import InvalidInput


class TestCanonicalDumps:
    def test_floats_roundtrip_exactly(self):
        rng = np.random.default_rng(0)
        values = list(rng.standard_normal(200)) + [1e-300, 1e300, -0.0, 0.1, 2.0 / 3.0]
        text = jsonio.canonical_dumps({"values": values})
        back = json.loads(text)["values"]
        assert all(a == b for a, b in zip(back, values))

    def test_byte_determinism(self):
        doc = {"a": 1, "b": [0.1, 0.2, [1.5, -2.5]], "c": {"nested": True, "x": None}}
        assert jsonio.canonical_dumps(doc) == jsonio.canonical_dumps(doc)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            jsonio.canonical_dumps({"x": math.inf})

    def test_layout_is_pinned(self):
        doc = {
            "nested": {"inner": {"empty_object": {}, "empty_list": []}},
            "cases": [{"index": 0, "pass": True}, {"index": 1, "pass": None}],
            "grid": [[1, 2.5], [-0.0, [3]]],
            "text": 'quote " backslash \\ non-ASCII \u00e9',
            "int": 7,
            "floats": [0.1, 5.0, -0.0, 1e-300, 1e16],
            "numpy": {
                "float64": np.float64(0.1),
                "int64": np.int64(-3),
                "bool": np.bool_(False),
                "array": np.array([[1.5, -0.0], [2.0, 1e16]]),
            },
        }
        text = jsonio.canonical_dumps(doc)
        assert text == (
            "{\n"
            '  "nested": {\n'
            '    "inner": {\n'
            '      "empty_object": {},\n'
            '      "empty_list": []\n'
            "    }\n"
            "  },\n"
            '  "cases": [\n'
            '    {"index": 0, "pass": true},\n'
            '    {"index": 1, "pass": null}\n'
            "  ],\n"
            '  "grid": [[1, 2.5], [-0.0, [3]]],\n'
            '  "text": "quote \\" backslash \\\\ non-ASCII \\u00e9",\n'
            '  "int": 7,\n'
            '  "floats": [0.1, 5.0, -0.0, 1e-300, 1e+16],\n'
            '  "numpy": {\n'
            '    "float64": 0.1,\n'
            '    "int64": -3,\n'
            '    "bool": false,\n'
            '    "array": [[1.5, -0.0], [2.0, 1e+16]]\n'
            "  }\n"
            "}\n"
        )
        # every float reads back as a float with the same bits, -0.0 included
        back = json.loads(text)
        assert back["text"] == doc["text"]
        got = back["floats"] + [back["numpy"]["float64"]] + sum(back["numpy"]["array"], [])
        want = doc["floats"] + [0.1] + doc["numpy"]["array"].ravel().tolist()
        for a, b in zip(got, want, strict=True):
            assert type(a) is float
            assert struct.pack("<d", a) == struct.pack("<d", b)

    def test_valid_json(self):
        doc = {"s": 'quote " and \\ backslash', "n": [1, 2.5], "empty": {}}
        json.loads(jsonio.canonical_dumps(doc))


class TestMatrixPacking:
    def test_complex_roundtrip(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        back = jsonio.pairs_to_complex(jsonio.complex_matrix_to_pairs(m))
        np.testing.assert_array_equal(back, m)

    def test_rejects_ragged(self):
        with pytest.raises(InvalidInput, match="ragged"):
            jsonio.pairs_to_complex([[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]])

    def test_rejects_non_pair(self):
        with pytest.raises(InvalidInput, match="pair"):
            jsonio.pairs_to_complex([[[1.0, 0.0, 0.0]]])

    def test_real_matrix_forms(self):
        bare = jsonio.real_matrix_from_json([[1.0, 2], [3, 4.0]])
        keyed = jsonio.real_matrix_from_json({"matrix": [[1.0, 2], [3, 4.0]]})
        np.testing.assert_array_equal(bare, keyed)

    def test_real_matrix_rejects_strings(self):
        with pytest.raises(InvalidInput, match="number"):
            jsonio.real_matrix_from_json([["1", "2"], ["3", "4"]])
