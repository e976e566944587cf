"""Even-factor certificates and the strong Tutte-type criterion.

An even factor is a spanning subgraph in which every vertex has positive
even degree (each vertex picks its own even degree >= 2; a 2-factor is the
special case). The criterion implemented here is the strict form: an
even-order graph passes iff o(G - S) < |S| for every vertex subset S with
|S| >= 2, where o counts odd components. The two notions provably disagree
on small graphs in both directions, which is why factor_verdict reports
their agreement class instead of treating either as ground truth.

The criterion is decided in polynomial time: by Tutte-Berge on G - T for
each pair T, it holds exactly when G is bicritical, i.e. G - u - v has a
perfect matching for every pair u != v (Lovasz & Plummer, Matching Theory,
1986). The certificate search branches over edges and carries size guards
(configuration, not constants); exceeding one raises GuardExceeded rather
than silently degrading.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph, GuardExceeded, odd_components_after_removal
from .matching import _augment, _mates

DEFAULT_CERT_ORDER = 12
DEFAULT_CERT_EDGES = 40


def strong_tutte_check(g: Graph) -> tuple[bool, tuple[int, ...] | None]:
    """Evaluate the printed criterion on an even-order graph.

    Returns (True, None) when every S with |S| >= 2 satisfies
    o(G - S) < |S|; otherwise (False, S) with S = T u A(G - T), where T is
    the lexicographically first pair for which G - T has no perfect
    matching and A(G - T) is its Gallai-Edmonds barrier. Then
    o(G - S) >= |S|: the odd components of G - T - A are the components of
    D(G - T), and their number exceeds |A| by the deficiency of G - T,
    which is even and positive. The witness is hard-checked.

    One maximum matching of G is computed; each G - T starts from a copy
    with T and the mates of T unmatched and is repaired by one augmenting
    search from each exposed vertex outside T. That covers the vertices G
    itself leaves exposed, which may gain augmenting paths once T's edges
    are unmatched. T stays in the rows as two isolated vertices.
    """
    if g.n % 2:
        raise ValueError("criterion requires even order")
    rows = list(g.rows)
    mate = _mates(rows)
    for pair in combinations(range(g.n), 2):
        keep = ~(1 << pair[0] | 1 << pair[1])
        sub = [r & keep for r in rows]
        sub_mate = mate[:]
        for t in pair:
            sub[t] = 0
            if sub_mate[t] != -1:
                sub_mate[sub_mate[t]] = sub_mate[t] = -1
        for v in range(g.n):
            if sub_mate[v] == -1 and v not in pair:
                _augment(sub, sub_mate, v)
        if any(m == -1 and v not in pair for v, m in enumerate(sub_mate)):
            barrier = _gallai_edmonds_a(sub, sub_mate)
            blocking = tuple(sorted(pair + barrier))
            mask = sum(1 << v for v in blocking)
            if odd_components_after_removal(g, mask) < len(blocking):
                raise ValueError(f"criterion witness {blocking} does not block")
            return False, blocking
    return True, None


def _gallai_edmonds_a(rows: list[int], mate: list[int]) -> tuple[int, ...]:
    """A = N(D) - D, where D is the set of vertices that some maximum
    matching misses and ``mate`` is a maximum matching. A covered v is in D
    iff, with v deleted, its mate starts an augmenting path: any augmenting
    path must end there, since ``mate`` is maximum."""
    deficient = 0
    for v, w in enumerate(mate):
        if w != -1:
            without = [r & ~(1 << v) for r in rows]
            without[v] = 0
            trial = mate[:]
            trial[v] = trial[w] = -1
            _augment(without, trial, w)
            if trial[w] == -1:
                continue
        deficient |= 1 << v
    reach = 0
    for v in range(len(rows)):
        if deficient >> v & 1:
            reach |= rows[v]
    reach &= ~deficient
    return tuple(v for v in range(len(rows)) if reach >> v & 1)


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
    cert_max_order: int = DEFAULT_CERT_ORDER,
    cert_max_edges: int = DEFAULT_CERT_EDGES,
) -> FactorVerdict:
    """Run criterion and certificate search side by side and classify
    their agreement. Guards raise GuardExceeded; nothing is inferred from
    a blocked side."""
    crit, blocking = strong_tutte_check(g)
    cert = find_even_factor(g, max_order=cert_max_order, max_edges=cert_max_edges)
    if cert is not None and not verify_even_factor(g, cert):
        raise ValueError("certificate search returned a non-factor")
    if crit:
        agreement = "both_yes" if cert is not None else "criterion_yes_factor_no"
    else:
        agreement = "criterion_no_factor_yes" if cert is not None else "both_no"
    return FactorVerdict(crit, blocking, cert, agreement)
