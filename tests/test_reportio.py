"""Tests for canonical report serialization."""

import json
import math
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codec_oracles import dumps_by_json
from qfactor.cli import main
from qfactor.reportio import (
    dumps_canonical,
    format_float,
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
    """The writer takes scalars as they are, rounds floats, writes tuples as
    lists and rejects any other type."""

    def test_scalars_pass_through(self):
        assert dumps_canonical(True) == "true\n"
        assert dumps_canonical(7) == "7\n"
        assert dumps_canonical("s") == '"s"\n'
        assert dumps_canonical(None) == "null\n"

    def test_float_rounded(self):
        assert dumps_canonical([1 / 3]) == "[\n  0.333333333333333\n]\n"

    def test_containers(self):
        out = dumps_canonical({"a": (1, 2), "b": [3, {"c": (1 / 3,)}]})
        plain = {"a": [1, 2], "b": [3, {"c": [round_float(1 / 3)]}]}
        assert out == json.dumps(plain, indent=2, sort_keys=True) + "\n"

    def test_numpy(self):
        # The spectral code works in numpy; its values reach a report only
        # as Python floats, and a numpy scalar or array that slips through
        # fails loudly instead of being converted.
        for value in (np.float64(0.5), np.int64(4), np.bool_(True), np.array([1.0])):
            for tree in ({"x": [value]}, {"x": [{"y": value}]}, {"x": [value, 1.0]}):
                with pytest.raises(TypeError):
                    dumps_canonical(tree)

    def test_unserializable_rejected(self):
        with pytest.raises(TypeError):
            dumps_canonical(object())


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

    def test_timestamp_is_utc_iso_with_microseconds(self, monkeypatch):
        from datetime import datetime, timedelta  # the test's parser, not reportio's

        now = time.time()
        stamp = make_report("demo", {}, {})["meta"]["timestamp"]
        parsed = datetime.fromisoformat(stamp)
        assert parsed.utcoffset() == timedelta(0) and stamp.endswith("+00:00")
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d{6}\+00:00", stamp)
        assert abs(parsed.timestamp() - now) < 5
        # A whole second keeps its six digits, which datetime.isoformat() dropped.
        for ns, text in [(1_700_000_000 * 10**9, "2023-11-14T22:13:20.000000+00:00"),
                         (1_700_000_000_123_456_789, "2023-11-14T22:13:20.123456+00:00")]:
            monkeypatch.setattr(time, "time_ns", lambda: ns)
            stamp = make_report("demo", {}, {})["meta"]["timestamp"]
            assert stamp == text
            assert datetime.fromisoformat(stamp).timestamp() == ns // 1000 / 10**6

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
    _TEXT,
)


def _containers(children):
    return st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.lists(st.one_of(st.integers(), st.booleans())),
        st.lists(_TEXT),
        st.dictionaries(_TEXT, children),
    )


# The report domain: str, int, bool, None, float, dicts with str keys, lists
# and tuples, exactly those types.
_REPORT_TREES = st.recursive(_SCALARS, _containers, max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(_REPORT_TREES)
@example([])
@example({})
@example(())
@example([[], {}, [[]], {"a": {}}, ((),)])
@example({"b": [1, True, 2], "a": [True, False], "c": [1.0, 1], "d": ["x", None]})
@example([math.nan, -math.inf, math.inf, -0.0])
# Rounded to 15 digits in a list and inline in a dict; the largest double
# rounds up to infinity.
@example([1 / 3, 0.1 + 0.2, 12.385164807134505, 5e-324, 1.7976931348623157e308])
@example({"a": (1, 2), "b": [3, {"c": (1 / 3,)}], "q": 1 / 3, "top": 1.7976931348623157e308})
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


def _sub(base, value):
    """*value* as an instance of a subclass of *base*."""
    return type(f"{base.__name__}_subclass", (base,), {})(value)


# Values json.dumps would write but a report never holds.
_NOT_IN_A_REPORT = {
    "int-key": {1: 0},
    "int-subclass": {"a": [_sub(int, 1)]},
    "float-subclass": {"a": _sub(float, 0.5)},
    "str-subclass": [_sub(str, "s")],
    "str-subclass-key": {_sub(str, "k"): 0},
    "dict-subclass": {"a": _sub(dict, {})},
    "list-subclass": [[_sub(list, [])]],
}


@pytest.mark.parametrize("bad", list(_NOT_IN_A_REPORT.values()), ids=list(_NOT_IN_A_REPORT))
def test_writer_rejects_values_outside_the_report_domain(bad):
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
