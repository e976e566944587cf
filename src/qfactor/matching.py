"""Maximum-cardinality matching by Edmonds' blossom algorithm, on bitrows.

Edmonds, "Paths, trees, and flowers", Canad. J. Math. 17 (1965). A greedy
matching (lowest degree first, ties to the lowest index, each vertex taking
its lowest-index free neighbour) is extended by one alternating-tree search,
with blossom contraction, from each vertex it leaves exposed: a vertex with
no augmenting path never gains one later, so the result is maximum.

:func:`two_factor` is the even-factor fast path: two edge-disjoint perfect
matchings form a 2-factor. Its ``None`` proves nothing about even factors.
"""

from __future__ import annotations

from .graphs import Graph


def _augment(rows: list[int], mate: list[int], root: int) -> int:
    """Search for an augmenting path from the exposed ``root``, and augment
    ``mate`` along it if there is one (then return 0).

    Otherwise return the outer vertices of the search tree as a bitmask:
    exactly the vertices an even alternating path reaches from ``root``. If
    one such path ended at an unscanned x, hanging a new exposed leaf on x
    would give an augmenting path from ``root`` that this search, which
    never scans x, misses."""
    n = len(rows)
    base = list(range(n))
    parent = [-1] * n
    members: dict[int, int] = {}  # blossom base -> its vertices, once merged
    in_tree = 1 << root
    queue = [root]

    def lca(a: int, b: int) -> int:
        seen = 0
        while True:
            a = base[a]
            seen |= 1 << a
            if mate[a] == -1:
                break
            a = parent[mate[a]]
        while True:
            b = base[b]
            if seen >> b & 1:
                return b
            b = parent[mate[b]]

    def mark(v: int, top: int, child: int, blossom: int) -> int:
        while base[v] != top:
            blossom |= 1 << base[v] | 1 << base[mate[v]]
            parent[v] = child
            child = mate[v]
            v = parent[child]
        return blossom

    for v in queue:
        nbrs = rows[v]
        while nbrs:
            to = (nbrs & -nbrs).bit_length() - 1
            nbrs &= nbrs - 1
            if base[v] == base[to] or mate[v] == to:
                continue
            if to == root or mate[to] != -1 and parent[mate[to]] != -1:
                # v and to are both outer: contract the blossom they close
                top = lca(v, to)
                blossom = mark(to, top, v, mark(v, top, to, 0))
                grouped = 0
                while blossom:
                    b = (blossom & -blossom).bit_length() - 1
                    blossom &= blossom - 1
                    grouped |= members.pop(b, 1 << b)
                members[top] = members.get(top, 1 << top) | grouped
                fresh = grouped & ~in_tree
                in_tree |= grouped
                while grouped:
                    i = (grouped & -grouped).bit_length() - 1
                    grouped &= grouped - 1
                    base[i] = top
                while fresh:
                    i = (fresh & -fresh).bit_length() - 1
                    fresh &= fresh - 1
                    queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if mate[to] == -1:
                    while to != -1:
                        v = parent[to]
                        nxt = mate[v]
                        mate[to], mate[v] = v, to
                        to = nxt
                    return 0
                in_tree |= 1 << mate[to]
                queue.append(mate[to])
    return in_tree


def _mates(rows: list[int]) -> list[int]:
    """``mate[v]`` (``-1`` if exposed) of a maximum matching."""
    n = len(rows)
    mate = [-1] * n
    free = (1 << n) - 1
    for v in sorted(range(n), key=lambda v: (rows[v].bit_count(), v)):
        if free >> v & 1 and rows[v] & free:
            u = (rows[v] & free & -(rows[v] & free)).bit_length() - 1
            mate[u], mate[v] = v, u
            free &= ~(1 << u | 1 << v)
    for v in range(n):
        if mate[v] == -1:
            _augment(rows, mate, v)
    return mate


def maximum_matching(g: Graph) -> tuple[tuple[int, int], ...]:
    """A maximum matching of ``g`` as sorted edges ``(u, v)`` with u < v."""
    mate = _mates(list(g.rows))
    return tuple((v, u) for v, u in enumerate(mate) if v < u)


def two_factor(g: Graph) -> tuple[tuple[int, int], ...] | None:
    """Sorted edges of M1 ∪ M2 for edge-disjoint perfect matchings M1 of G
    and M2 of G − M1, or ``None`` when either maximum matching is not
    perfect."""
    rows = list(g.rows)
    edges = []
    for _ in range(2):
        mate = _mates(rows)
        if -1 in mate:
            return None
        for v, u in enumerate(mate):
            rows[v] &= ~(1 << u)
            if v < u:
                edges.append((v, u))
    return tuple(sorted(edges))
