"""Report envelopes and deterministic serialization.

Every command that can write a report uses the same envelope::

    {
      "schema": "qfactor.report/v1",
      "tool": {"name": "qfactor", "version": ...},
      "command": "verify",
      "config": {...},          # resolved options, guards, tolerances
      "seed": ...,              # null when the command consumed no randomness
      "meta": {"timestamp": ..., "wall_time_s": ...},
      "results": {...}
    }

Serialization is deterministic: keys are sorted, floats are rounded to 15
significant digits before encoding, and the only volatile fields are
``meta.timestamp`` and ``meta.wall_time_s``.  Two runs over the same input
therefore produce byte-identical reports once those two fields are dropped;
:func:`strip_volatile` does exactly that for comparisons.

The text is ``json.dumps(report, indent=2, sort_keys=True)`` plus a newline,
byte for byte.  :func:`dumps_canonical` does not call it: with an
``indent``, CPython (3.10 to 3.12 at least) runs json's pure-Python
encoder, which takes about twice as long on a ``verify`` report.  The
writer uses json's own primitives (the C string escaper, ``int.__repr__``,
``float.__repr__``, and ``json.dumps`` for NaN, infinities, subclasses and
unsupported types), so the bytes and the TypeErrors are the same;
``tests/test_reportio.py`` checks that on random JSON trees.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii as _encode_str
from math import isfinite
from typing import Any

from . import REPORT_SCHEMA, __version__

FLOAT_DIGITS = 15


def round_float(x: float) -> float:
    """Round to 15 significant decimal digits (deterministic, correctly rounded)."""
    return float(format(float(x), f".{FLOAT_DIGITS}g"))


def format_float(x: float) -> str:
    """Fixed-width-free text form of a float with 15 significant digits."""
    return format(float(x), f".{FLOAT_DIGITS}g")


# Types that json_ready returns unchanged.
_AS_IS = frozenset({str, int, bool, type(None)})


def json_ready(obj: Any) -> Any:
    """Recursively convert *obj* into plain JSON types with rounded floats.

    Reports hold str, int, bool, None, float, dict, list and tuple, exactly
    those types; any other, subclasses included, raises TypeError."""
    kind = type(obj)
    if kind in _AS_IS:
        return obj
    if kind is float:
        return round_float(obj)
    if kind is dict:
        return {str(k): json_ready(v) for k, v in obj.items()}
    if kind is list or kind is tuple:
        return [json_ready(v) for v in obj]
    raise TypeError(f"cannot serialize {kind.__name__}")


def make_report(
    command: str,
    config: dict[str, Any],
    results: dict[str, Any],
    *,
    seed: int | None = None,
    wall_time_s: float = 0.0,
) -> dict[str, Any]:
    return {
        "schema": REPORT_SCHEMA,
        "tool": {"name": "qfactor", "version": __version__},
        "command": command,
        "config": json_ready(config),
        "seed": seed,
        "meta": {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "wall_time_s": round_float(wall_time_s),
        },
        "results": json_ready(results),
    }


def dumps_canonical(report: dict[str, Any]) -> str:
    """Canonical text of a JSON-ready report: make_report output or data
    already passed through json_ready (it is not converted again).

    Equal to ``json.dumps(report, indent=2, sort_keys=True) + "\\n"``.
    """
    out: list[str] = []
    _write(report, "\n", out)
    out.append("\n")
    return "".join(out)


def _key_text(key: Any) -> str:
    """A dict key as json.dumps converts it before encoding: str as is;
    int, float, bool and None as their JSON text."""
    if isinstance(key, str):
        return key
    if isinstance(key, (int, float)) or key is None:
        return json.dumps(key)
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _write(value: Any, newline: str, out: list[str]) -> None:
    """Append the indent=2, sort_keys text of *value* to *out*. *newline* is
    a line break plus the indent of the line that *value* starts on."""
    kind = type(value)
    if kind is str:
        out.append(_encode_str(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is float and isfinite(value):
        out.append(float.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        lead = "{" + inner
        for key, item in sorted(value.items()):
            if type(key) is not str:
                key = _key_text(key)
            head = f"{lead}{_encode_str(key)}: "
            lead = "," + inner
            # The common scalars inline, as json's own encoder does.
            kind = type(item)
            if kind is str:
                out.append(head + _encode_str(item))
            elif kind is int:
                out.append(head + int.__repr__(item))
            elif kind is float and isfinite(item):
                out.append(head + float.__repr__(item))
            elif item is None:
                out.append(head + "null")
            else:
                out.append(head)
                _write(item, inner, out)
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        kinds = set(map(type, value))
        if kinds == {int}:
            out.append(f"[{inner}{(',' + inner).join(map(int.__repr__, value))}{newline}]")
        elif kinds == {str}:
            out.append(f"[{inner}{(',' + inner).join(map(_encode_str, value))}{newline}]")
        else:
            lead = "[" + inner
            for item in value:
                out.append(lead)
                _write(item, inner, out)
                lead = "," + inner
            out.append(newline + "]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    else:
        # NaN, infinities and subclasses of str, int and float; any other
        # type raises json's TypeError.
        out.append(json.dumps(value))


def strip_volatile(report: dict[str, Any]) -> dict[str, Any]:
    """Copy of *report* without the run-dependent meta fields."""
    out = json.loads(json.dumps(report))
    meta = out.get("meta")
    if isinstance(meta, dict):
        meta.pop("timestamp", None)
        meta.pop("wall_time_s", None)
    return out
