"""Even-factor certificates and the strong Tutte-type criterion.

An even factor is a spanning subgraph in which every vertex has positive
even degree (each vertex picks its own even degree >= 2; a 2-factor is the
special case). The criterion implemented here is the strict form: an
even-order graph passes iff o(G - S) < |S| for every vertex subset S with
|S| >= 2, where o counts odd components. The two notions provably disagree
on small graphs in both directions, which is why factor_verdict reports
their agreement class instead of treating either as ground truth.

Both operations carry size guards (configuration, not constants): the
criterion enumerates the subsets with |S| <= min(n/2, alpha(G)), which is
still exponential in n, and the certificate search branches over edges.
The criterion's guard caps n. Exceeding a guard raises GuardExceeded
rather than silently degrading.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph, GuardExceeded, odd_components_after_removal

DEFAULT_SUBSET_ORDER = 22
DEFAULT_CERT_ORDER = 12
DEFAULT_CERT_EDGES = 40


def strong_tutte_check(
    g: Graph, *, max_order: int = DEFAULT_SUBSET_ORDER
) -> tuple[bool, tuple[int, ...] | None]:
    """Evaluate the printed criterion on an even-order graph.

    Returns (True, None) when every S with |S| >= 2 satisfies
    o(G - S) < |S|; otherwise (False, S) for the lexicographically first
    violating S at the smallest violating size.

    Subsets are scanned by size, then lexicographically, and only up to
    size min(n // 2, alpha(G)); no larger S can violate:

    - o(G - S) <= n - |S|, so o(G - S) >= |S| forces |S| <= n / 2.
    - One vertex from each component of G - S is an independent set of G,
      so o(G - S) <= c(G - S) <= alpha(G - S) <= alpha(G), and
      o(G - S) >= |S| forces |S| <= alpha(G).

    alpha(G) is computed only once size 2 has passed without a violation,
    so a graph that fails at size 2 never pays for it.
    """
    if g.n % 2:
        raise ValueError("criterion requires even order")
    if g.n > max_order:
        raise GuardExceeded(
            f"strong_tutte_check(n={g.n}) exceeds guard max_order={max_order}")
    limit = g.n // 2
    k = 2
    while k <= limit:
        for combo in combinations(range(g.n), k):
            mask = 0
            for v in combo:
                mask |= 1 << v
            if odd_components_after_removal(g, mask) >= k:
                return False, combo
        if k == 2 and limit > 2:
            limit = min(limit, _independence_number(g))
        k += 1
    return True, None


def _independence_number(g: Graph) -> int:
    """alpha(G), the largest size of an independent vertex set.

    Branch and bound: a vertex of degree <= 1 belongs to some maximum
    independent set, so it is taken outright; otherwise the search
    branches on a vertex of maximum degree (take it, or delete it) and
    prunes a branch that cannot beat the best set found so far.
    """
    rows = g.rows
    best = 0

    def grow(alive: int, size: int) -> None:
        nonlocal best
        if size + alive.bit_count() <= best:
            return
        if not alive:
            best = size
            return
        top = top_degree = -1
        m = alive
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            d = (rows[v] & alive).bit_count()
            if d <= 1:
                grow(alive & ~(rows[v] | 1 << v), size + 1)
                return
            if d > top_degree:
                top, top_degree = v, d
        grow(alive & ~(rows[top] | 1 << top), size + 1)
        grow(alive & ~(1 << top), size)

    grow((1 << g.n) - 1, 0)
    return best


_UNDEC, _IN, _OUT = 0, 1, 2


def find_even_factor(
    g: Graph,
    *,
    max_order: int = DEFAULT_CERT_ORDER,
    max_edges: int = DEFAULT_CERT_EDGES,
) -> tuple[tuple[int, int], ...] | None:
    """Exhaustive certificate search; returns a sorted edge list or None.

    Branching follows a fixed edge order (descending endpoint-degree sum,
    ties lexicographic), include before exclude while an endpoint still
    needs degree. A state dies when some vertex can no longer reach
    positive even degree: too few undecided edges left, or the wrong
    parity with none left. The contrapositive of that prune runs as unit
    propagation, so forced edges (a vertex that needs every remaining
    incident edge, or whose last undecided edge is fixed by parity) are
    applied immediately instead of being discovered at the bottom of the
    tree. Propagation only applies forced values, so the search stays
    exhaustive, and the whole procedure is deterministic.
    """
    if g.n > max_order:
        raise GuardExceeded(
            f"find_even_factor(n={g.n}) exceeds guard max_order={max_order}")
    if g.edge_count > max_edges:
        raise GuardExceeded(
            f"find_even_factor(e={g.edge_count}) exceeds guard "
            f"max_edges={max_edges}")
    n = g.n
    if n == 0:
        return ()
    full_deg = list(g.degrees())
    if min(full_deg) < 2:
        return None
    edges = sorted(
        g.edges(), key=lambda uv: (-(full_deg[uv[0]] + full_deg[uv[1]]), uv))
    m = len(edges)
    incident: list[list[int]] = [[] for _ in range(n)]
    for k, (u, v) in enumerate(edges):
        incident[u].append(k)
        incident[v].append(k)

    state = [_UNDEC] * m
    deg = [0] * n
    undec = full_deg[:]

    def apply(k: int, value: int, trail: list[int]) -> bool:
        # returns False on immediate infeasibility of an endpoint
        state[k] = value
        trail.append(k)
        ok = True
        for w in edges[k]:
            undec[w] -= 1
            if value == _IN:
                deg[w] += 1
            if deg[w] + undec[w] < 2:
                ok = False
            if undec[w] == 0 and (deg[w] < 2 or deg[w] % 2):
                ok = False
        return ok

    def undo(trail: list[int]) -> None:
        for k in reversed(trail):
            value = state[k]
            state[k] = _UNDEC
            for w in edges[k]:
                undec[w] += 1
                if value == _IN:
                    deg[w] -= 1

    def forced_value(w: int) -> tuple[int, int] | None:
        # (edge, value) forced at vertex w, if any
        if undec[w] == 0:
            return None
        if deg[w] + undec[w] == 2:
            # needs every remaining incident edge
            for k in incident[w]:
                if state[k] == _UNDEC:
                    return k, _IN
        if undec[w] == 1:
            k = next(k for k in incident[w] if state[k] == _UNDEC)
            return k, (_IN if deg[w] % 2 else _OUT)
        return None

    def propagate(k0: int, value: int, trail: list[int]) -> bool:
        if not apply(k0, value, trail):
            return False
        queue = list(edges[k0])
        while queue:
            w = queue.pop()
            forced = forced_value(w)
            if forced is None:
                continue
            k, val = forced
            if not apply(k, val, trail):
                return False
            queue.extend(edges[k])
            queue.append(w)  # w may force more than one edge
        return True

    def search(k: int) -> bool:
        while k < m and state[k] != _UNDEC:
            k += 1
        if k == m:
            return True
        u, v = edges[k]
        if deg[u] < 2 or deg[v] < 2:
            branches = (_IN, _OUT)
        else:
            branches = (_OUT, _IN)
        for value in branches:
            trail: list[int] = []
            if propagate(k, value, trail) and search(k + 1):
                return True
            undo(trail)
        return False

    # seed propagation: vertices of full degree exactly 2 force their edges
    root_trail: list[int] = []
    ok = True
    for w in range(n):
        if not ok:
            break
        forced = forced_value(w)
        while forced is not None and ok:
            kf, val = forced
            ok = propagate(kf, val, root_trail)
            forced = forced_value(w) if ok else None
    if ok and search(0):
        return tuple(sorted(e for e, st in zip(edges, state) if st == _IN))
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


@dataclass(frozen=True)
class FactorVerdict:
    criterion_holds: bool
    blocking: tuple[int, ...] | None
    certificate: tuple[tuple[int, int], ...] | None
    agreement: str


def factor_verdict(
    g: Graph,
    *,
    max_order: int = DEFAULT_SUBSET_ORDER,
    cert_max_order: int = DEFAULT_CERT_ORDER,
    cert_max_edges: int = DEFAULT_CERT_EDGES,
) -> FactorVerdict:
    """Run criterion and certificate search side by side and classify
    their agreement. Guards raise GuardExceeded; nothing is inferred from
    a blocked side."""
    crit, blocking = strong_tutte_check(g, max_order=max_order)
    cert = find_even_factor(g, max_order=cert_max_order, max_edges=cert_max_edges)
    if cert is not None and not verify_even_factor(g, cert):
        raise ValueError("certificate search returned a non-factor")
    if crit:
        agreement = "both_yes" if cert is not None else "criterion_yes_factor_no"
    else:
        agreement = "criterion_no_factor_yes" if cert is not None else "both_no"
    return FactorVerdict(crit, blocking, cert, agreement)
