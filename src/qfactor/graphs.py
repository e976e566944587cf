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

random_graph draws edges from a bit-exact splitmix64 stream so that seeded
populations are reproducible down to the byte across platforms.
isomorphism_classes labels every edge mask of an exhaustive population with
its isomorphism class, so a census can evaluate one graph per class, and
mask_graph6_encoder writes the graph6 of such a mask by table lookups.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

from . import DEFAULT_ENUM_ORDER


class Graph6Error(ValueError):
    """Malformed graph6 input."""


class GuardExceeded(RuntimeError):
    """A size guard blocked a computation; raise the guard to proceed."""


_GRAPH6_HEADER = b">>graph6<<"
# The 64 payload bytes, and each one's six bits as text, most significant first.
_GRAPH6_BYTES = bytes(range(63, 127))
_SIX_BITS = {63 + v: format(v, "06b") for v in range(64)}

# splitmix64 constants (wrapping 64-bit arithmetic)
_MASK64 = (1 << 64) - 1
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MUL1 = 0xBF58476D1CE4E5B9
_SM_MUL2 = 0x94D049BB133111EB


@dataclass(frozen=True)
class Graph:
    """Undirected graph on vertices 0..n-1 with bitmask adjacency rows."""

    n: int
    rows: tuple[int, ...]

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


# ---------------------------------------------------------------------------
# deterministic populations

def lexicographic_pairs(n: int) -> list[tuple[int, int]]:
    """(0,1), (0,2), ..., (0,n-1), (1,2), ...: the seeded-edge bit order."""
    return list(combinations(range(n), 2))


def mask_graph(n: int, pairs: Sequence[tuple[int, int]], mask: int) -> Graph:
    """The graph whose edges are the pairs[k] for every bit k set in mask.

    The pairs must be distinct vertices of 0..n-1, as lexicographic_pairs(n)
    gives them; the rows are then symmetric and loop-free by construction.
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    rows = [0] * n
    while mask:
        k = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        i, j = pairs[k]
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return _trusted_graph(n, tuple(rows))


def isomorphism_classes(
    n: int, *, max_order: int = DEFAULT_ENUM_ORDER
) -> tuple[array, list[Graph]]:
    """Label every edge mask on n vertices with its isomorphism class.

    Bit k of a mask is the k-th pair of lexicographic_pairs(n), as in
    mask_graph. Returns (labels, representatives): labels[mask] is the class
    index of the mask, and representatives[c] is the graph of the lowest
    mask in class c, so classes are numbered in ascending order of their
    lowest mask.

    Orbits are flood-filled under the n - 1 adjacent transpositions
    (i, i+1), which generate the symmetric group. Each transposition
    permutes the pair bits and is applied to a mask with two precomputed
    table lookups, one per half of the mask, so no Graph is built per mask.
    The guard is checked before anything is allocated.
    """
    if n > max_order:
        raise GuardExceeded(
            f"isomorphism_classes(n={n}) exceeds guard max_order={max_order}")
    pairs = lexicographic_pairs(n)
    index = {pair: k for k, pair in enumerate(pairs)}
    half = (len(pairs) + 1) // 2
    low = (1 << half) - 1
    swaps = []
    for i in range(n - 1):
        image = {i: i + 1, i + 1: i}
        targets = []
        for a, b in pairs:
            a, b = image.get(a, a), image.get(b, b)
            targets.append(index[(a, b) if a < b else (b, a)])
        swaps.append((_bit_table(targets[:half]), _bit_table(targets[half:])))

    labels = array("i", [-1]) * (1 << len(pairs))
    representatives = []
    for mask in range(len(labels)):
        if labels[mask] >= 0:
            continue
        label = len(representatives)
        representatives.append(mask_graph(n, pairs, mask))
        labels[mask] = label
        stack = [mask]
        while stack:
            x = stack.pop()
            x_low, x_high = x & low, x >> half
            for lo, hi in swaps:
                y = lo[x_low] | hi[x_high]
                if labels[y] < 0:
                    labels[y] = label
                    stack.append(y)
    return labels, representatives


def mask_graph6_encoder(n: int, *, max_order: int = DEFAULT_ENUM_ORDER) -> Callable[[int], str]:
    """A function taking an edge mask on n vertices (bit k is the k-th
    lexicographic pair) to its graph6, equal to
    write_graph6(mask_graph(n, lexicographic_pairs(n), mask)).

    Two table lookups, one per half of the mask, move each pair bit to its
    graph6 column-order position, counted from the top of the padded
    payload; the 6-bit groups are then read off directly. The tables have
    2**ceil(n(n-1)/4) entries, as in isomorphism_classes, and the same
    guard is checked before they are built.
    """
    if n > max_order:
        raise GuardExceeded(
            f"mask_graph6_encoder(n={n}) exceeds guard max_order={max_order}")
    position = {pair: k for k, pair in enumerate(_pair_stream(n))}
    pairs = lexicographic_pairs(n)
    width = 6 * ((len(pairs) + 5) // 6)
    targets = [width - 1 - position[pair] for pair in pairs]
    half = (len(pairs) + 1) // 2
    low = (1 << half) - 1
    lo, hi = _bit_table(targets[:half]), _bit_table(targets[half:])
    header = chr(n + 63)
    shifts = range(width - 6, -1, -6)
    chars = [chr(v) for v in _GRAPH6_BYTES]

    def encode(mask: int) -> str:
        bits = lo[mask & low] | hi[mask >> half]
        return header + "".join([chars[bits >> s & 63] for s in shifts])

    return encode


def _bit_table(targets: Sequence[int]) -> list[int]:
    """table[v] has bit targets[k] set for every bit k set in v."""
    table = [0] * (1 << len(targets))
    for v in range(1, len(table)):
        k = (v & -v).bit_length() - 1
        table[v] = table[v & (v - 1)] | 1 << targets[k]
    return table


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
