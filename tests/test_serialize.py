import json
import math
import sys

import numpy as np
import pytest

from qirc import serialize, states

from conftest import haar_state


class TestFloatFormat:
    def test_shortest_repr(self):
        # the shortest text that reads back as the same double, as json prints it
        assert serialize.fmt_float(1 / 3) == "0.3333333333333333"
        assert serialize.fmt_float(0.1) == "0.1"
        assert serialize.fmt_float(0.5) == "0.5"
        assert serialize.fmt_float(1.0) == "1.0"
        assert serialize.fmt_float(np.float32(0.5)) == "0.5"

    def test_round_trip_exact(self):
        for x in (math.pi, 1e-300, -2.5e17, 0.1):
            assert float(serialize.fmt_float(x)) == x

    def test_special_values(self):
        assert serialize.fmt_float(float("inf")) == "Infinity"
        assert serialize.fmt_float(-math.inf) == "-Infinity"
        assert serialize.fmt_float(float("nan")) == "NaN"


class TestDumps:
    def test_valid_json(self):
        doc = {"a": 1, "b": [1.5, "x", None, True], "c": {"d": 2 / 3}}
        parsed = json.loads(serialize.dumps(doc))
        assert parsed["c"]["d"] == 2 / 3

    def test_deterministic(self):
        doc = {"values": [1 / 7, 2 / 7], "n": 3}
        assert serialize.dumps(doc) == serialize.dumps(doc)

    def test_numpy_scalars(self):
        doc = {"f": np.float64(0.25), "i": np.int64(4)}
        assert json.loads(serialize.dumps(doc)) == {"f": 0.25, "i": 4}

    def test_compact_single_line(self):
        doc = {"a": [1, 2], "b": 0.5}
        text = serialize.dumps_compact(doc)
        assert "\n" not in text
        assert json.loads(text) == {"a": [1, 2], "b": 0.5}

    def test_compact_bytes(self):
        # the config comment of every CSV artifact is rendered this way
        doc = {"a": {"b": [1, [2.5, {}]], "c": []}, "none": None, "flag": True,
               "n": np.int64(-3), "x": np.float64(0.1), "s": 'say "hi"',
               "t": (False, 1e-14)}
        assert serialize.dumps_compact(doc) == (
            '{"a": {"b": [1, [2.5, {}]], "c": []}, "none": null, "flag": true, '
            '"n": -3, "x": 0.1, "s": "say \\"hi\\"", '
            '"t": [false, 1e-14]}')

    def test_indented_bytes(self):
        doc = {"a": [1, {"b": None}], "e": {}, "f": []}
        assert serialize.dumps(doc) == (
            '{\n  "a": [\n    1,\n    {\n      "b": null\n    }\n  ],\n'
            '  "e": {},\n  "f": []\n}\n')

    def test_float_lists_keep_the_layout(self):
        # lists of floats and lists mixing types render in the same layout
        doc = {"m": [[0.1, np.float64(-2.0)], [float("nan"), -math.inf, 1e-300]], "mix": [0.5, 1, (2.5,)]}
        assert serialize.dumps(doc) == (
            '{\n  "m": [\n    [\n      0.1,\n      -2.0\n    ],\n'
            '    [\n      NaN,\n      -Infinity,\n      1e-300\n    ]\n  ],\n'
            '  "mix": [\n    0.5,\n    1,\n    [\n      2.5\n    ]\n  ]\n}\n')
        assert serialize.dumps_compact(doc) == (
            '{"m": [[0.1, -2.0], [NaN, -Infinity, 1e-300]], '
            '"mix": [0.5, 1, [2.5]]}')

    def test_rows_of_float_pairs_keep_the_layout(self):
        # a list of equally long float lists, such as a witness matrix row,
        # special values included
        doc = {"m": [[[0.5, -0.0], [float("nan"), math.inf]],
                     [[1e-300, -math.inf], [2.0, 0.25]]]}
        assert serialize.dumps(doc) == (
            '{\n  "m": [\n    [\n      [\n        0.5,\n        -0.0\n      ],\n'
            '      [\n        NaN,\n        Infinity\n      ]\n    ],\n'
            '    [\n      [\n        1e-300,\n        -Infinity\n      ],\n'
            '      [\n        2.0,\n        0.25\n      ]\n    ]\n  ]\n}\n')
        assert serialize.dumps_compact(doc) == (
            '{"m": [[[0.5, -0.0], [NaN, Infinity]], [[1e-300, -Infinity], [2.0, 0.25]]]}')

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            serialize.dumps({"x": object()})


class TestWitnessMatrices:
    """dumps renders a state's matrix through a cached template and the rest
    through the encoder: the text is the encoder's, byte for byte."""

    @staticmethod
    def encoder(doc) -> str:
        return json.dumps(doc, indent=2, default=serialize._plain) + "\n"

    @pytest.fixture
    def rendered(self, monkeypatch) -> list:
        """The (rows, cols, indent) of every matrix rendered by template."""
        keys, real = [], serialize._template
        monkeypatch.setattr(serialize, "_template", lambda *k: keys.append(k) or real(*k))
        return keys

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 1, 2), (3, 3, 3)])
    def test_state_dicts_wherever_they_sit(self, dims, rendered):
        state = serialize.state_to_dict(haar_state(dims, states.Seed(3, 1)))
        d = 8 if dims == (2, 2, 2) else 4 if dims == (2, 1, 2) else 27
        for doc, indents in ((state, [2]),
                             ({"margin": 0.5, "worst_case": {"trial": 2, "state": state}}, [6]),
                             ([state, {"cases": [1, state]}, (state,)], [4, 8, 6]),
                             ({"claims": [{"worst_case": {"state": state,
                                                          "q": np.float64(0.25)}}] * 2}, [10, 10])):
            rendered.clear()
            assert serialize.dumps(doc) == self.encoder(doc)
            assert rendered == [(d, d, i) for i in indents]

    def test_special_and_extreme_entries(self, rendered):
        entries = [-0.0, 5e-324, 1e-300, 1e16, math.nan, math.inf, -math.inf, 0.1]
        matrix = [[[entries[2 * r + c], entries[(2 * r + c + 3) % 8]] for c in range(2)]
                  for r in range(4)]
        for doc in ({"dims": [4], "matrix": matrix}, {"worst_case": {"state": {"matrix": matrix}}}):
            assert serialize.dumps(doc) == self.encoder(doc)
        assert rendered == [(4, 2, 2), (4, 2, 6)]

    @pytest.mark.parametrize("matrix", [
        [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],            # ints
        [[[0.5, 0.0]], [[0.5, 0.0], [0.0, 0.0]]],        # ragged rows
        [[[0.5, 0.0, 0.0]]],                             # not pairs
        [[[0.5, True]]], [[(0.5, 0.0)]], [[]], [], [[[]]],  # a bool, a tuple, empty
        [[[np.float64(0.5), 0.0]]], "text", {"matrix": [[[0.5, 0.25]]]}])
    def test_other_matrix_values_go_through_the_encoder(self, matrix, rendered):
        doc = {"state": {"dims": [1], "matrix": matrix}, "matrix": matrix}
        assert serialize.dumps(doc) == self.encoder(doc)
        # a "matrix" dict is walked like any other: its own matrix is a template's
        assert rendered == ([(1, 1, 6), (1, 1, 4)] if isinstance(matrix, dict) else [])

    def test_a_string_equal_to_the_placeholder(self):
        state = serialize.state_to_dict(haar_state((2, 2, 2), states.Seed(3, 1)))
        for doc in ({"state": state, "note": serialize._MARK},
                    {"matrix": serialize._MARK}, {serialize._MARK: state}):
            assert serialize.dumps(doc) == self.encoder(doc)

    def test_does_not_change_the_document(self):
        state = serialize.state_to_dict(haar_state((2, 2, 2), states.Seed(3, 1)))
        doc = {"worst_case": {"state": state}}
        before = json.dumps(doc)
        serialize.dumps(doc)
        assert json.dumps(doc) == before and doc["worst_case"]["state"] is state


def _bits(values) -> list[int]:
    return np.array(values, dtype=float).view(np.uint64).tolist()


class TestRoundTrip:
    """Every finite double reloads bit for bit, and as a float, from the JSON
    and CSV text; NaN and the infinities reload by their spelling."""

    @pytest.fixture
    def values(self) -> list[float]:
        rng = np.random.default_rng(0)
        drawn = np.frombuffer(rng.bytes(8 * 4000), dtype=np.float64)
        subnormals = rng.integers(1, 2 ** 52, 200).view(np.float64)
        return [0.0, -0.0, 1.0, -2.0, 2.0 ** 53, 1e16, 1e17, 0.1, 1 / 3, 5e-324,
                sys.float_info.min, sys.float_info.max, -sys.float_info.max,
                *map(float, subnormals), *map(float, drawn[np.isfinite(drawn)])]

    def test_json_reloads_every_bit(self, values):
        for text in (serialize.dumps(values), serialize.dumps_compact(values),
                     serialize.dumps({"v": [values[:50], values[50:]]})):
            back = json.loads(text)
            if isinstance(back, dict):
                back = [x for part in back["v"] for x in part]
            assert all(type(x) is float for x in back)
            assert _bits(back) == _bits(values)

    def test_numpy_floats_reload_every_bit(self, values):
        back = json.loads(serialize.dumps_compact(list(np.array(values))))
        assert _bits(back) == _bits(values)

    def test_csv_reloads_every_bit(self, values):
        # a CSV cell spells a float as the JSON artifacts do
        lines = serialize.csv_lines(("x",), [(v,) for v in values])
        assert lines[1:] == [json.dumps(v) for v in values]
        assert _bits([float(cell) for cell in lines[1:]]) == _bits(values)

    def test_whole_floats_reload_as_floats(self):
        doc = {"f": 1.0, "g": np.float64(-3.0), "h": np.float32(2.0), "i": 1,
               "j": np.int64(2)}
        back = json.loads(serialize.dumps(doc))
        assert back == {"f": 1.0, "g": -3.0, "h": 2.0, "i": 1, "j": 2}
        assert [type(v) for v in back.values()] == [float, float, float, int, int]
        assert serialize.csv_lines(("a", "b"), [(1.0, 1)])[1] == "1.0,1"

    def test_special_values_by_spelling(self):
        specials = [math.nan, math.inf, -math.inf]
        assert serialize.dumps_compact(specials) == "[NaN, Infinity, -Infinity]"
        assert serialize.csv_lines(("x",), [(v,) for v in specials])[1:] == [
            "NaN", "Infinity", "-Infinity"]
        back = json.loads(serialize.dumps(specials))
        assert math.isnan(back[0]) and back[1:] == [math.inf, -math.inf]


class TestStateFiles:
    def test_round_trip(self):
        rho = haar_state((2, 2), states.Seed(61, 0))
        doc = serialize.state_to_dict(rho)
        back = serialize.state_from_dict(json.loads(json.dumps(doc)))
        assert back.dims == rho.dims
        assert np.abs(back.matrix - rho.matrix).max() <= 1e-15

    def test_rejects_missing_keys(self):
        with pytest.raises(ValueError):
            serialize.state_from_dict({"dims": [2]})

    def test_rejects_malformed_entries(self):
        with pytest.raises(ValueError):
            serialize.state_from_dict({"dims": [2], "matrix": [[1.0, 0.0]]})

    def test_entries_read_bit_for_bit(self, monkeypatch):
        # each [re, im] becomes complex(re, im) exactly, signed zeros and ints too
        rng = np.random.default_rng(5)
        raw = [[[float(x), float(y)] for x, y in rng.standard_normal((4, 2))] for _ in range(4)]
        raw[0][1], raw[1][0], raw[2][3] = [-0.0, 0.0], [0.0, -0.0], [3, -2]
        seen = []
        monkeypatch.setattr(states.DensityMatrix, "__init__",
                            lambda self, m, dims: seen.append(m))
        serialize.state_from_dict({"dims": [4], "matrix": raw})
        expected = np.array([[complex(re, im) for re, im in row] for row in raw])
        assert seen[0].dtype == complex and seen[0].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("entry", [[True, 0], [0, False], [1, 0, 0], [1], {"0": 1, "1": 0},
                                       ["1", "0"], "1", 1.0, [[1, 0], [0, 0]]])
    def test_rejects_entries_other_than_two_numbers(self, entry):
        doc = serialize.state_to_dict(states.maximally_mixed(2))
        doc["matrix"][1][0] = entry
        with pytest.raises(ValueError, match=r"^matrix entries must be \[re, im\] pairs"):
            serialize.state_from_dict(doc)

    def test_rejects_an_empty_matrix(self):
        with pytest.raises(ValueError, match="'matrix' must be a non-empty list of rows"):
            serialize.state_from_dict({"dims": [2], "matrix": []})

    def test_rejects_invalid_state(self):
        doc = {"dims": [2], "matrix": [[[2.0, 0.0], [0.0, 0.0]],
                                       [[0.0, 0.0], [0.0, 0.0]]]}
        with pytest.raises(ValueError, match="trace"):
            serialize.state_from_dict(doc)

    def test_load_state_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ValueError, match="JSON"):
            serialize.load_state(str(p))


class TestCsv:
    def test_formatting_and_comments(self):
        lines = serialize.csv_lines(("a", "b"), [(1, 0.5), (2, 1 / 3)],
                                    comments=["hello"])
        assert lines[0] == "# hello"
        assert lines[1] == "a,b"
        assert lines[2] == "1,0.5"
        assert lines[3] == "2,0.3333333333333333"
