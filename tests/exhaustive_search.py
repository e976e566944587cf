"""Exhaustive searches kept as test oracles.

find_even_factor is the edge-branching search that decided even factors
before the blossom gadget (``qfactor.factors.even_factor``) replaced it.
enumerate_labeled lists every labeled graph of an order, one per edge mask,
which the per-class census of ``qfactor.graphs.isomorphism_classes``
replaced. Both are exponential, so their size guards stay with them; the
tests compare the polynomial code against them.
"""

from __future__ import annotations

from typing import Iterator

from qfactor.graphs import (
    Graph,
    is_connected,
    lexicographic_pairs,
    mask_graph,
)


class GuardExceeded(RuntimeError):
    """A size guard blocked an exhaustive search; raise the guard to proceed."""


DEFAULT_CERT_ORDER = 12
DEFAULT_CERT_EDGES = 40

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


def enumerate_labeled(
    n: int,
    connected_only: bool = False,
    min_deg: int = 0,
    *,
    max_order: int = 7,
) -> Iterator[Graph]:
    """All labeled graphs on n vertices in ascending edge-mask order.

    Bit k of the mask is the k-th lexicographic pair. Guarded at n <= 7 by
    default (2^21 masks); pass a larger max_order to go beyond.
    """
    if n > max_order:
        raise GuardExceeded(
            f"enumerate_labeled(n={n}) exceeds guard max_order={max_order}")
    pairs = lexicographic_pairs(n)
    for mask in range(1 << len(pairs)):
        g = mask_graph(n, pairs, mask)
        if min_deg and (n == 0 or min(r.bit_count() for r in g.rows) < min_deg):
            continue
        if connected_only and not is_connected(g):
            continue
        yield g
