"""Small dense graphs as immutable adjacency bitrows, plus graph6 I/O.

Vertices are 0..n-1. Row v is a Python int whose bit u is set iff uv is an
edge. Everything downstream (component scans, enumeration, the blossom
matchings) runs on these bitmasks, so the representation is part of the
determinism contract: two graphs are equal iff they have identical rows.

The graph6 codec implements the short form only (n <= 62): header byte
n+63, then ceil(n(n-1)/2 / 6) payload bytes. Upper-triangle bits are taken
in column order x(0,1), x(0,2), x(1,2), x(0,3), ..., packed six per byte
most-significant bit first, each byte offset by 63. Trailing pad bits must
be zero. An optional ">>graph6<<" prefix is accepted on input.

line_chunks and chunk_rows turn graph6 lines into report rows, one batched
evaluation per chunk of lines: every per-line command reads through them.

random_graph draws edges from a bit-exact splitmix64 stream so that seeded
populations are reproducible down to the byte across platforms.  The
exhaustive census's edge masks, isomorphism classes and mask encoder live
in census, which only ``agreement`` loads.
"""

from __future__ import annotations

import sys
from array import array
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence


class Graph6Error(ValueError):
    """Malformed graph6 input."""


_GRAPH6_HEADER = b">>graph6<<"
# The 64 payload bytes, and each one's six bits as text, most significant first.
_GRAPH6_BYTES = bytes(range(63, 127))
_SIX_BITS = {63 + v: format(v, "06b") for v in range(64)}

# splitmix64 constants (wrapping 64-bit arithmetic)
_MASK64 = (1 << 64) - 1
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MUL1 = 0xBF58476D1CE4E5B9
_SM_MUL2 = 0x94D049BB133111EB


class _Frozen:
    """Immutable value whose fields are its __slots__, set by __init__ through
    object.__setattr__: equal to an instance of its class iff their fields are."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other: object) -> bool:
        same = other.__class__ is self.__class__
        return self._fields() == other._fields() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._fields()

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    __delattr__ = __setattr__


class Graph(_Frozen):
    """Undirected graph on 0..n-1 with bitmask adjacency rows, validated in __post_init__."""

    __slots__ = ("n", "rows")
    n: int
    rows: tuple[int, ...]

    def __init__(self, n: int, rows: tuple[int, ...]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("order must be nonnegative")
        if len(self.rows) != self.n:
            raise ValueError("row count must equal order")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.rows):
            if row & (1 << v):
                raise ValueError(f"loop at vertex {v}")
            if row & ~full:
                raise ValueError(f"row {v} has bits outside 0..n-1")
        for u in range(self.n):
            mask = self.rows[u]
            while mask:
                v = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                if not self.rows[v] >> u & 1:
                    raise ValueError(f"asymmetric adjacency {u},{v}")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError("loops not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, tuple(rows))

    @staticmethod
    def empty(n: int) -> "Graph":
        return Graph(n, (0,) * n)

    def degrees(self) -> tuple[int, ...]:
        return tuple(r.bit_count() for r in self.rows)

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        out = []
        for u in range(self.n):
            mask = self.rows[u] >> (u + 1) << (u + 1)
            while mask:
                v = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                out.append((u, v))
        return out

    def add_edges(self, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = list(self.rows)
        for u, v in edges:
            if u == v or not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"bad edge ({u},{v})")
            if rows[u] >> v & 1:
                raise ValueError(f"edge ({u},{v}) already present")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(self.n, tuple(rows))

    def remove_edges(self, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = list(self.rows)
        for u, v in edges:
            if not (0 <= u < self.n and 0 <= v < self.n) or not rows[u] >> v & 1:
                raise ValueError(f"edge ({u},{v}) not present")
            rows[u] &= ~(1 << v)
            rows[v] &= ~(1 << u)
        return Graph(self.n, tuple(rows))


def _trusted_graph(n: int, rows: tuple[int, ...]) -> Graph:
    """A Graph from rows that are symmetric and loop-free by construction,
    without the public constructor's validation pass."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "rows", rows)
    return g


def complete(k: int) -> Graph:
    """K_k. Requires k >= 1."""
    if k < 1:
        raise ValueError("complete graph needs k >= 1")
    full = (1 << k) - 1
    return _trusted_graph(k, tuple(full & ~(1 << v) for v in range(k)))


def disjoint_union(a: Graph, b: Graph) -> Graph:
    """a followed by b, with b's vertices shifted up by a.n."""
    rows = list(a.rows) + [row << a.n for row in b.rows]
    return _trusted_graph(a.n + b.n, tuple(rows))


def join(a: Graph, b: Graph) -> Graph:
    """Disjoint union plus every cross edge (a's vertices first)."""
    amask = (1 << a.n) - 1
    bmask = ((1 << b.n) - 1) << a.n
    rows = [row | bmask for row in a.rows]
    rows += [(row << a.n) | amask for row in b.rows]
    return _trusted_graph(a.n + b.n, tuple(rows))


def _component_masks(rows: Sequence[int], alive: int) -> Iterator[int]:
    """Yield component bitmasks of the subgraph induced on `alive`."""
    remaining = alive
    while remaining:
        seed = remaining & -remaining
        comp = seed
        frontier = seed
        while frontier:
            nxt = 0
            m = frontier
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                nxt |= rows[v]
            frontier = nxt & alive & ~comp
            comp |= frontier
        yield comp
        remaining &= ~comp


def odd_components_after_removal(g: Graph, removed_mask: int) -> int:
    """o(G - S) for S given as a bitmask; checks criterion witnesses."""
    alive = ((1 << g.n) - 1) & ~removed_mask
    odd = 0
    for mask in _component_masks(g.rows, alive):
        if mask.bit_count() % 2:
            odd += 1
    return odd


def min_degree(g: Graph) -> int:
    if g.n == 0:
        raise ValueError("min_degree undefined for the empty graph")
    return min(r.bit_count() for r in g.rows)


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return False
    if g.n == 1:
        return True
    alive = (1 << g.n) - 1
    first = next(_component_masks(g.rows, alive))
    return first == alive


# ---------------------------------------------------------------------------
# graph6 codec (short form, n <= 62)

def _pair_stream(n: int) -> Iterator[tuple[int, int]]:
    # column order: for each j, all i < j
    for j in range(1, n):
        for i in range(j):
            yield i, j


def write_graph6(g: Graph) -> str:
    if g.n > 62:
        raise Graph6Error("short-form graph6 supports n <= 62 only")
    out = [g.n + 63]
    acc = 0
    nbits = 0
    for i, j in _pair_stream(g.n):
        acc = (acc << 1) | (g.rows[i] >> j & 1)
        nbits += 1
        if nbits == 6:
            out.append(acc + 63)
            acc = 0
            nbits = 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return bytes(out).decode("ascii")


# Column j of the column order: its first pair index and a j-bit mask.
_COLUMNS = tuple((j * (j - 1) // 2, (1 << j) - 1) for j in range(62))


def _transpose_stages() -> tuple[tuple[int, int], ...]:
    """Delta-swap stages that transpose a 64 x 64 bit matrix held in one
    int, row r at bits 64r .. 64r + 63 (Hacker's Delight, 7-3). Stage s
    swaps the entries (r, c) with r & s == 0 and c & s != 0 with
    (r + s, c - s), which sit 63s bits higher."""
    stages = []
    for s in (32, 16, 8, 4, 2, 1):
        cols = sum(1 << c for c in range(64) if c & s)
        mask = sum(cols << 64 * r for r in range(64) if not r & s)
        stages.append((63 * s, mask))
    return tuple(stages)


# The decoder's only tables, fixed at import: nothing is built per order.
_TRANSPOSE = _transpose_stages()
_BIG_ENDIAN = sys.byteorder == "big"


def parse_graph6(text: str | bytes) -> Graph:
    """Decode one short-form graph6 string, with or without its header.

    Only canonical payloads are accepted: exact length, bytes in 63..126 and
    zero pad bits. So the stripped text minus its header is exactly what
    write_graph6 returns for the graph (see graph6_payload).

    The payload becomes one int with pair k of the column order at bit k.
    Column j (vertex j's lower neighbours) is one shift and mask of it and
    becomes word j of a bit matrix; a delta-swap transpose of that matrix
    gives every vertex's higher neighbours, and the OR of the two is the
    adjacency matrix. The cost is a few big-int operations per vertex, with
    no per-order table.
    """
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
    # Reversed, the payload's bit text puts pair k of the column order at bit k.
    bits = int(data[1:].decode("ascii").translate(_SIX_BITS)[::-1] or "0", 2)
    if bits >> npairs:
        raise Graph6Error("nonzero padding bits")
    # The matrix of columns is strictly lower triangular: OR its transpose
    # and row v of the adjacency matrix is word v.
    words = array("Q", [bits >> start & mask for start, mask in _COLUMNS[:n]])
    if _BIG_ENDIAN:
        words.byteswap()
    lower = upper = int.from_bytes(words.tobytes(), "little")
    for delta, mask in _TRANSPOSE:
        swap = (upper ^ upper >> delta) & mask
        upper ^= swap ^ swap << delta
    rows = array("Q", (lower | upper).to_bytes(8 * n, "little"))
    if _BIG_ENDIAN:
        rows.byteswap()
    return _trusted_graph(n, tuple(rows))


def graph6_payload(text: str) -> str:
    """The canonical graph6 of a stripped line that parse_graph6 accepts:
    the line without its optional header, equal to write_graph6 of the
    parsed graph, so it need not be re-encoded."""
    return text.removeprefix(_GRAPH6_HEADER.decode("ascii"))


# Lines evaluated together: one eigh call per graph order per chunk, and the
# unit of work of verify's process pool. 128 lines keep a Q stack under 4 MB
# even at n = 62, and leave the pool enough chunks to balance streams whose
# costly lines cluster (on the benchmark sweep, 256 made --jobs 2 slower).
CHUNK_LINES = 128


def line_chunks(lines: Iterable[str]) -> list[list[tuple[int, str]]]:
    """(line number from 1, stripped text) of each nonblank line, in chunks."""
    work = [(lineno, text) for lineno, raw in enumerate(lines, start=1) if (text := raw.strip())]
    return [work[i:i + CHUNK_LINES] for i in range(0, len(work), CHUNK_LINES)]


def chunk_rows(fields_of: Callable, chunk: Sequence[tuple[int, str]]) -> list[dict]:
    """The rows of a chunk. The lines that parse go through one fields_of
    call, which gives each graph's fields or the exception that stopped it.
    A malformed line or an exception gives {line, graph6, error} with the
    text as read, anything else {line, graph6, **fields} with its payload."""
    results: list = [None] * len(chunk)
    parsed = []
    for pos, (_, text) in enumerate(chunk):
        try:
            parsed.append((pos, parse_graph6(text)))
        except Graph6Error as exc:
            results[pos] = exc
    for (pos, _), result in zip(parsed, fields_of([g for _, g in parsed])):
        results[pos] = result
    return [{"line": lineno, "graph6": text, "error": str(result)}
            if isinstance(result, Exception)
            else {"line": lineno, "graph6": graph6_payload(text), **result}
            for (lineno, text), result in zip(chunk, results)]


# ---------------------------------------------------------------------------
# deterministic populations

def splitmix64(seed: int) -> Iterator[int]:
    """The documented 64-bit stream behind every seeded population."""
    state = seed & _MASK64
    while True:
        state = (state + _SM_GAMMA) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * _SM_MUL1) & _MASK64
        z = ((z ^ (z >> 27)) * _SM_MUL2) & _MASK64
        yield z ^ (z >> 31)


def random_graph(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with one splitmix64 draw per lexicographic pair.

    Edge (i, j) is included iff (output >> 11) * 2**-53 < p, so the same
    (n, p, seed) triple yields the same graph everywhere.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    stream = splitmix64(seed)
    rows = [0] * n
    for i, j in combinations(range(n), 2):
        if (next(stream) >> 11) * 2.0 ** -53 < p:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return Graph(n, tuple(rows))
