"""The string-based codec steps, kept as test oracles.

``parse_graph6_by_strings`` is the graph6 decoder that turned the payload into
one text character per bit and transposed the lower triangle with ``zip``
before ``qfactor.graphs.parse_graph6`` moved to an int bit matrix.
``dumps_by_json`` is the report writer that copied the report with its
floats rounded, then called ``json.dumps``, before
``qfactor.reportio.dumps_canonical`` built the same text itself in one pass.
The tests compare the package's codec against both.
"""

from __future__ import annotations

import json
from typing import Any

from qfactor.graphs import Graph, Graph6Error
from qfactor.reportio import round_float

_GRAPH6_HEADER = b">>graph6<<"
_GRAPH6_BYTES = bytes(range(63, 127))
_SIX_BITS = {63 + v: format(v, "06b") for v in range(64)}


def parse_graph6_by_strings(text: str | bytes) -> Graph:
    """Decode one short-form graph6 string, with or without its header,
    accepting exactly what ``parse_graph6`` accepts."""
    if isinstance(text, str):
        try:
            data = text.encode("ascii", errors="strict")
        except UnicodeEncodeError as exc:
            raise Graph6Error(f"non-ascii byte in graph6 string: {exc}") from None
    else:
        data = bytes(text)
    data = data.strip()
    if data.startswith(_GRAPH6_HEADER):
        data = data[len(_GRAPH6_HEADER):]
    if not data:
        raise Graph6Error("empty graph6 string")
    if data[0] == 126:  # '~' starts the long form
        raise Graph6Error("long-form graph6 (n > 62) not supported")
    n = data[0] - 63
    if not 0 <= n <= 62:
        raise Graph6Error(f"bad order byte {data[0]!r}")
    npairs = n * (n - 1) // 2
    nbytes = (npairs + 5) // 6
    if len(data) != 1 + nbytes:
        raise Graph6Error(
            f"expected {1 + nbytes} bytes for n={n}, got {len(data)}")
    bad = data[1:].translate(None, _GRAPH6_BYTES)
    if bad:
        raise Graph6Error(f"byte {bad[0]!r} outside graph6 range")
    # bits[k] is pair k of the column order, one character per bit
    bits = data[1:].decode("ascii").translate(_SIX_BITS)
    if "1" in bits[npairs:]:
        raise Graph6Error("nonzero padding bits")
    # lower[j][i] is x(i, j) for i < j; its transpose holds each vertex's
    # higher neighbours, so row v reads lower[v][:v] + upper[v][v:].
    lower = []
    start = 0
    for j in range(n):
        lower.append(bits[start:start + j].ljust(n, "0"))
        start += j
    upper = ["".join(column) for column in zip(*lower)]
    return Graph(n, tuple(int((lower[v][:v] + upper[v][v:])[::-1], 2) for v in range(n)))


def _rounded(obj: Any) -> Any:
    """A copy of a report tree with every float rounded to 15 significant
    digits and tuples as lists; a value of a type outside the report domain
    raises, and json.dumps then judges the keys."""
    kind = type(obj)
    if kind in (str, int, bool, type(None)):
        return obj
    if kind is float:
        return round_float(obj)
    if kind is dict:
        return {k: _rounded(v) for k, v in obj.items()}
    if kind is list or kind is tuple:
        return [_rounded(v) for v in obj]
    raise TypeError(f"cannot serialize {kind.__name__}")


def dumps_by_json(report: Any) -> str:
    """The canonical report text: the rounded copy as json.dumps writes it."""
    return json.dumps(_rounded(report), indent=2, sort_keys=True) + "\n"
