"""Tests for canonical report serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codec_oracles import dumps_by_json
from qfactor.cli import main
from qfactor.reportio import (
    dumps_canonical,
    format_float,
    json_ready,
    make_report,
    round_float,
    strip_volatile,
)


class TestFloatRounding:
    def test_fifteen_significant_digits(self):
        assert round_float(1 / 3) == float(format(1 / 3, ".15g"))
        # A 15-digit value is a fixed point of the rounding.
        assert round_float(12.3851648071345) == 12.3851648071345
        # A 17-digit value loses its last two digits.
        assert round_float(12.385164807134505) == 12.3851648071345
        assert round_float(2.0) == 2.0

    def test_format_is_idempotent(self):
        x = 0.1 + 0.2
        assert format_float(round_float(x)) == format_float(x)


class TestJsonReady:
    def test_scalars_pass_through(self):
        assert json_ready(True) is True
        assert json_ready(7) == 7
        assert json_ready("s") == "s"
        assert json_ready(None) is None

    def test_float_rounded(self):
        out = json_ready([1 / 3])
        assert out == [round_float(1 / 3)]

    def test_containers(self):
        out = json_ready({"a": (1, 2), "b": [3, {"c": (1 / 3,)}]})
        assert out == {"a": [1, 2], "b": [3, {"c": [round_float(1 / 3)]}]}

    def test_numpy(self):
        # The spectral code works in numpy; its values reach a report only
        # as Python floats, and a numpy scalar or array that slips through
        # fails loudly instead of being converted.
        for value in (np.float64(0.5), np.int64(4), np.bool_(True), np.array([1.0])):
            with pytest.raises(TypeError):
                json_ready({"x": [value]})

    def test_unserializable_rejected(self):
        with pytest.raises(TypeError):
            json_ready(object())


class TestEnvelope:
    def test_make_report_shape(self):
        report = make_report("demo", {"k": 1}, {"rows": []}, seed=5, wall_time_s=0.25)
        assert report["schema"] == "qfactor.report/v1"
        assert report["tool"]["name"] == "qfactor"
        assert report["command"] == "demo"
        assert report["config"] == {"k": 1}
        assert report["seed"] == 5
        assert report["results"] == {"rows": []}
        assert set(report["meta"]) == {"timestamp", "wall_time_s"}

    def test_canonical_dump_round_trips(self):
        report = make_report("demo", {}, {"q": 1 / 3})
        text = dumps_canonical(report)
        assert text.endswith("\n")
        assert json.loads(text)["results"]["q"] == round_float(1 / 3)
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    def test_strip_volatile(self):
        report = make_report("demo", {}, {"x": 1}, wall_time_s=2.0)
        stripped = strip_volatile(report)
        assert "timestamp" not in stripped["meta"]
        assert "wall_time_s" not in stripped["meta"]
        # The original is not mutated.
        assert "timestamp" in report["meta"]

    def test_two_reports_differ_only_in_volatile_fields(self):
        a = make_report("demo", {"k": 2}, {"rows": [1, 2]}, wall_time_s=0.1)
        b = make_report("demo", {"k": 2}, {"rows": [1, 2]}, wall_time_s=9.9)
        assert dumps_canonical(strip_volatile(a)) == dumps_canonical(strip_volatile(b))


# ---------------------------------------------------------------------------
# The writer against json.dumps(indent=2, sort_keys=True)

_TEXT = st.one_of(
    st.text(),
    # Every code point, lone surrogates and control characters included.
    st.text(st.characters(exclude_categories=())),
    st.sampled_from(["", "\x00\x1f\x7f", '"\\/', "\u2028\u2029", "\udfff", "é ü 𝕏"]),
)
_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-8, 1e16, 5e-324, 1.7976931348623157e308]),
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**64)),
    _FLOATS,
    _FLOATS.map(np.float64),
    _TEXT,
)
# Keys of one dict must be mutually orderable for sort_keys: all str, all
# numbers (bool, int, float and numpy.float64 compare), or the one key None.
_NUMERIC_KEYS = st.one_of(st.booleans(), st.integers(), _FLOATS, _FLOATS.map(np.float64))


def _containers(children):
    return st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.lists(st.one_of(st.integers(), st.booleans())),
        st.lists(_TEXT),
        st.dictionaries(_TEXT, children),
        st.dictionaries(_NUMERIC_KEYS, children),
        st.dictionaries(st.none(), children),
    )


_JSON_TREES = st.recursive(_SCALARS, _containers, max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(_JSON_TREES)
@example([])
@example({})
@example(())
@example([[], {}, [[]], {"a": {}}, ((),)])
@example({"b": [1, True, 2], "a": [True, False], "c": [1.0, 1], "d": ["x", None]})
@example({2: 0, 10: 1, -1.5: 2, True: 3})
@example([math.nan, -math.inf, math.inf, -0.0, np.float64(-0.0), np.float64(math.nan)])
def test_writer_equals_json_dumps(tree):
    assert dumps_canonical(tree) == dumps_by_json(tree)


@pytest.mark.parametrize("bad", [
    {1: 0, "a": 0},          # unorderable keys
    {(1, 2): 0},             # a key json cannot convert
    [object()],
    {"a": {1, 2}},           # a set
    np.int64(3),             # not an int subclass
    {"k": [np.int64(3)]},
])
def test_writer_raises_where_json_dumps_raises(bad):
    with pytest.raises(TypeError):
        dumps_by_json(bad)
    with pytest.raises(TypeError):
        dumps_canonical(bad)


def test_every_command_report_re_renders_to_its_file(tmp_path, capsys):
    stream = tmp_path / "in.g6"
    # C8, K8, G*(8,2), G*(8,2) plus an edge, a factorless graph, a bad line.
    stream.write_text("GhCGKC\nG~~~~{\nG~~~}?\nG~~~}C\nG]o_GK\n!!bogus!!\n")
    commands = {
        "spectrum": ["spectrum", str(stream)],
        "extremal": ["extremal", "--family", "gstar", "--n", "14", "--delta", "3"],
        "factor": ["factor", str(stream)],
        "verify": ["verify", "--stream", str(stream), "--jobs", "2"],
        "lemmas": ["lemmas", "--seed", "1"],
        "identities": ["identities"],
        "agreement": ["agreement", "--n", "6", "--connected-only"],
    }
    for name, argv in commands.items():
        path = tmp_path / f"{name}.json"
        main([*argv, "--report", str(path)])
        text = path.read_text(encoding="ascii")
        parsed = json.loads(text)
        assert parsed["command"] == name
        assert dumps_canonical(parsed) == text == dumps_by_json(parsed), name
    capsys.readouterr()
