"""Report envelopes and deterministic serialization.

Every command that can write a report uses the same envelope::

    {
      "schema": "qfactor.report/v1",
      "tool": {"name": "qfactor", "version": ...},
      "command": "verify",
      "config": {...},          # the command's resolved options
      "seed": ...,              # null when the command consumed no randomness
      "meta": {"timestamp": ..., "wall_time_s": ...},
      "results": {...}
    }

Serialization is deterministic: keys are sorted, floats are rounded to 15
significant digits as they are written, and the only volatile fields are
``meta.timestamp`` and ``meta.wall_time_s``.  Two runs over the same input
therefore produce byte-identical reports once those two fields are dropped;
:func:`strip_volatile` does exactly that for comparisons.

A report holds str, int, bool, None, float, dict with str keys, list and
tuple, exactly those types.  Its text is ``json.dumps(report, indent=2,
sort_keys=True)`` plus a newline, byte for byte, of the report with every
float rounded.  :func:`dumps_canonical` builds it in one pass over the tree,
rounding and checking types as it writes; any other type, subclasses and
numpy values included, raises TypeError.  It does not call ``json.dumps``:
with an ``indent``, CPython (3.10 to 3.12 at least) runs json's pure-Python
encoder, which takes about twice as long on a ``verify`` report.  The writer
uses json's own primitives (the C string escaper, ``int.__repr__``,
``float.__repr__`` and json's tokens for NaN and the infinities);
``tests/test_reportio.py`` checks the bytes on random report trees.
"""

from __future__ import annotations

import json
import time
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


def make_report(
    command: str,
    config: dict[str, Any],
    results: dict[str, Any],
    *,
    seed: int | None = None,
    wall_time_s: float = 0.0,
) -> dict[str, Any]:
    """The envelope around *config* and *results*, which are neither copied
    nor converted: :func:`dumps_canonical` rounds and checks them."""
    seconds, us = divmod(time.time_ns() // 1000, 10**6)
    return {
        "schema": REPORT_SCHEMA,
        "tool": {"name": "qfactor", "version": __version__},
        "command": command,
        "config": config,
        "seed": seed,
        "meta": {
            "timestamp": time.strftime(f"%Y-%m-%dT%H:%M:%S.{us:06d}+00:00", time.gmtime(seconds)),
            "wall_time_s": wall_time_s,
        },
        "results": results,
    }


def dumps_canonical(report: dict[str, Any]) -> str:
    """Canonical text of a report: ``json.dumps(report, indent=2,
    sort_keys=True) + "\\n"`` with every float rounded to 15 significant
    digits.  A value outside the report domain raises TypeError."""
    out: list[str] = []
    _write(report, "\n", out)
    out.append("\n")
    return "".join(out)


def _float_text(x: float) -> str:
    """json's text of *x* rounded to 15 significant digits."""
    x = round_float(x)  # NaN and the infinities stay; 1.8e308 rounds to inf
    return float.__repr__(x) if isfinite(x) else json.dumps(x)


def _write(value: Any, newline: str, out: list[str]) -> None:
    """Append the indent=2, sort_keys text of *value* to *out*. *newline* is
    a line break plus the indent of the line that *value* starts on."""
    kind = type(value)
    if kind is str:
        out.append(_encode_str(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is float:
        out.append(_float_text(value))
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        lead = "{" + inner
        for key, item in sorted(value.items()):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(f"{lead}{_encode_str(key)}: ")
            _write(item, inner, out)
            lead = "," + inner
        out.append(newline + "}")
    elif kind is list or kind is tuple:
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
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def strip_volatile(report: dict[str, Any]) -> dict[str, Any]:
    """Copy of *report* without the run-dependent meta fields."""
    out = json.loads(json.dumps(report))
    meta = out.get("meta")
    if isinstance(meta, dict):
        meta.pop("timestamp", None)
        meta.pop("wall_time_s", None)
    return out
