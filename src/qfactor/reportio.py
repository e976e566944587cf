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
"""

from __future__ import annotations

import json
from dataclasses import asdict, is_dataclass
from datetime import datetime, timezone
from fractions import Fraction
from typing import Any

from . import REPORT_SCHEMA, __version__

FLOAT_DIGITS = 15


def round_float(x: float) -> float:
    """Round to 15 significant decimal digits (deterministic, correctly rounded)."""
    return float(format(float(x), f".{FLOAT_DIGITS}g"))


def format_float(x: float) -> str:
    """Fixed-width-free text form of a float with 15 significant digits."""
    return format(float(x), f".{FLOAT_DIGITS}g")


def json_ready(obj: Any) -> Any:
    """Recursively convert *obj* into plain JSON types with rounded floats."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return round_float(obj)
    if isinstance(obj, Fraction):
        return str(obj) if obj.denominator != 1 else int(obj)
    if is_dataclass(obj) and not isinstance(obj, type):
        return json_ready(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [json_ready(v) for v in seq]
    if hasattr(obj, "tolist"):  # numpy arrays and scalars
        return json_ready(obj.tolist())
    if hasattr(obj, "item"):  # other numpy-like scalars
        return json_ready(obj.item())
    raise TypeError(f"cannot serialize {type(obj).__name__}")


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
    already passed through json_ready (it is not converted again)."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def strip_volatile(report: dict[str, Any]) -> dict[str, Any]:
    """Copy of *report* without the run-dependent meta fields."""
    out = json.loads(json.dumps(report))
    meta = out.get("meta")
    if isinstance(meta, dict):
        meta.pop("timestamp", None)
        meta.pop("wall_time_s", None)
    return out
