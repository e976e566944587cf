"""Even factors and the strong Tutte-type criterion, on one blossom engine.

An even factor is a spanning subgraph in which every vertex has positive
even degree (each vertex picks its own even degree >= 2; a 2-factor is the
special case). The criterion implemented here is the strict form: an
even-order graph passes iff o(G - S) < |S| for every vertex subset S with
|S| >= 2, where o counts odd components. At every even n >= 4 the
criterion implies an even factor: it forces minimum degree 3 and
2-connectivity, and every bridgeless graph of minimum degree 3 has an even
factor (Fleischner, Discrete Math. 101, 1992). Order 2 is the only
exception: K2 and its complement pass vacuously and have none. The converse
fails, as G*(n, delta) shows, so factor_verdict reports the agreement class
instead of treating either notion as ground truth.

The criterion is decided in polynomial time: by Tutte-Berge on G - T for
each pair T, it holds exactly when G is bicritical, i.e. G - u - v has a
perfect matching for every pair u != v (Lovasz & Plummer, Matching Theory,
1986), which takes one blossom search per vertex u, not one per pair.
Even factors are decided exactly, also in polynomial time: by the
two-factor fast path, else by one perfect-matching question on a gadget
(see even_factor). Neither has a size guard, and every answer carries a
hard-checked certificate. Every matching is Edmonds' blossom algorithm on
bitrows ("Paths, trees, and flowers", Canad. J. Math. 17, 1965): a greedy
start extended by one search from each vertex it leaves exposed is maximum,
as a vertex with no augmenting path never gains one later.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

from .graphs import Graph, _trusted_graph, odd_components_after_removal


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


def strong_tutte_check(g: Graph) -> tuple[bool, tuple[int, ...] | None]:
    """Evaluate the printed criterion on an even-order graph.

    Returns (True, None) when every S with |S| >= 2 satisfies
    o(G - S) < |S|; otherwise (False, S) with S = T u A(G - T), where T is
    the lexicographically first pair for which G - T has no perfect
    matching and A(G - T) is its Gallai-Edmonds barrier. Then
    o(G - S) >= |S|: the odd components of G - T - A are the components of
    D(G - T), and their number exceeds |A| by the deficiency of G - T,
    which is even and positive. The witness is hard-checked.

    G - u - v has a perfect matching iff a maximum matching of G - u leaves
    exactly one vertex w exposed and v lies in D(G - u), the outer set of
    the failed search from w. So each u costs one maximum matching of the
    rows with u isolated and at most one search, and the first v > u
    outside D(G - u) completes T. Only G - T is matched again, for A.
    """
    if g.n % 2:
        raise ValueError("criterion requires even order")
    for u in range(g.n - 1):
        rows = [r & ~(1 << u) for r in g.rows]
        rows[u] = 0
        mate = _mates(rows)
        exposed = [w for w, m in enumerate(mate) if m == -1 and w != u]
        outer = _augment(rows, mate, exposed[0]) if len(exposed) == 1 else 0
        v = next((v for v in range(u + 1, g.n) if not outer >> v & 1), None)
        if v is None:
            continue
        rows = [r & ~(1 << v) for r in rows]
        rows[v] = 0
        blocking = tuple(sorted((u, v) + _gallai_edmonds_a(rows, _mates(rows))))
        mask = sum(1 << x for x in blocking)
        if odd_components_after_removal(g, mask) < len(blocking):
            raise ValueError(f"criterion witness {blocking} does not block")
        return False, blocking
    return True, None


def _gallai_edmonds_a(rows: list[int], mate: list[int]) -> tuple[int, ...]:
    """A = N(D) - D, where D is the set of vertices that some maximum
    matching misses and ``mate`` is a maximum matching. D is the set of
    vertices an even alternating path reaches from an exposed vertex: the
    union of the outer sets of the failed searches from the exposed
    vertices, which leave ``mate`` as it is."""
    deficient = 0
    for v, w in enumerate(mate):
        if w == -1:
            deficient |= _augment(rows, mate, v)
    reach = 0
    for v in range(len(rows)):
        if deficient >> v & 1:
            reach |= rows[v]
    reach &= ~deficient
    return tuple(v for v in range(len(rows)) if reach >> v & 1)


def even_factor(g: Graph) -> tuple[tuple[int, int], ...] | None:
    """An even factor of g as sorted edges, or None when g has none.

    The two-factor fast path runs first. Otherwise an even factor is a
    gap-1 general factor, decided by one perfect-matching question
    (Cornuejols, "General factors of graphs", JCTB 45, 1988) on the gadget
    H: each vertex v of degree d gets one end node per incident edge and a
    core path c_1 ... c_{d-2}, every end of v is joined to every core of v,
    and each edge uv of G joins its two ends. In a perfect matching of H
    the k ends of v not matched across their edge go into the core, so
    k <= d - 2, and the other d - 2 - k cores pair up along the path, so
    d - k is even. Conversely, matching those ends to c_1 ... c_k leaves a
    run of even length. So G has an even factor iff H has a perfect
    matching, and the edges whose two ends are matched form one.

    Every answer is hard-checked: an edge list by verify_even_factor, a
    None by a vertex of degree < 2 or by H's Gallai-Edmonds set X with
    o(H - X) > |X| (Tutte). Anything else raises ValueError.
    """
    factor = two_factor(g)
    if factor is None:
        factor = _gadget_factor(g)
    if factor is not None and not verify_even_factor(g, factor):
        raise ValueError("even_factor produced a non-factor")
    return factor


def two_factor(g: Graph) -> tuple[tuple[int, int], ...] | None:
    """Sorted edges of M1 ∪ M2 for edge-disjoint perfect matchings M1 of G
    and M2 of G − M1, or ``None`` when either maximum matching is not
    perfect: a ``None`` that proves nothing about even factors."""
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


def _gadget_factor(g: Graph) -> tuple[tuple[int, int], ...] | None:
    """The gadget route of even_factor. Edge k of g has its ends at nodes
    2k and 2k + 1, so every end pairs with ``end ^ 1``; the cores follow,
    vertex by vertex. With ends before cores, the greedy start of the
    blossom matches every end across its edge and leaves one core exposed
    per odd-degree vertex."""
    degrees = g.degrees()
    if min(degrees, default=2) < 2:
        return None
    edges = g.edges()
    first = list(accumulate((d - 2 for d in degrees), initial=2 * len(edges)))
    cores = [((1 << d - 2) - 1) << first[v] for v, d in enumerate(degrees)]
    ends = [0] * g.n
    rows = []
    for k, (u, v) in enumerate(edges):
        rows += [1 << 2 * k + 1 | cores[u], 1 << 2 * k | cores[v]]
        ends[u] |= 1 << 2 * k
        ends[v] |= 1 << 2 * k + 1
    for v in range(g.n):
        for c in range(first[v], first[v + 1]):
            rows.append(ends[v] | (1 << c - 1 | 1 << c + 1) & cores[v])
    mate = _mates(rows)
    if -1 not in mate:
        return tuple(e for k, e in enumerate(edges) if mate[2 * k] == 2 * k + 1)
    barrier = _gallai_edmonds_a(rows, mate)
    h = _trusted_graph(len(rows), tuple(rows))
    if odd_components_after_removal(h, sum(1 << x for x in barrier)) <= len(barrier):
        raise ValueError(f"even-factor gadget barrier {barrier} does not block")
    return None


def verify_even_factor(g: Graph, edges) -> bool:
    """True iff the given edge set is an even factor of g."""
    deg = [0] * g.n
    seen = set()
    for u, v in edges:
        a, b = (u, v) if u < v else (v, u)
        if not g.has_edge(a, b):
            raise ValueError(f"edge ({a},{b}) not in host graph")
        if (a, b) in seen:
            raise ValueError(f"duplicate edge ({a},{b})")
        seen.add((a, b))
        deg[a] += 1
        deg[b] += 1
    return all(d >= 2 and d % 2 == 0 for d in deg)


AGREEMENT_CLASSES = (
    "both_yes",
    "both_no",
    "criterion_yes_factor_no",
    "criterion_no_factor_yes",
)


class FactorVerdict(NamedTuple):
    criterion_holds: bool
    blocking: tuple[int, ...] | None
    certificate: tuple[tuple[int, int], ...] | None
    agreement: str


def factor_verdict(g: Graph) -> FactorVerdict:
    """Run the criterion and the exact even-factor test side by side and
    classify their agreement."""
    crit, blocking = strong_tutte_check(g)
    cert = even_factor(g)
    if crit:
        agreement = "both_yes" if cert is not None else "criterion_yes_factor_no"
    else:
        agreement = "criterion_no_factor_yes" if cert is not None else "both_no"
    return FactorVerdict(crit, blocking, cert, agreement)
