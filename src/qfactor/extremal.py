"""Extremal family builders, their quotient polynomials, and the threshold.

The families are joins of a clique S with disjoint clique unions:

* gstar(n, delta): K_delta joined to (K_{n-2delta+1} union (delta-1)K_1),
  the tight graph for the spectral threshold, for any n >= 2*delta. Layout:
  join cell first, then the big clique, then the singletons. The proof's
  G2(n, s) is gstar(n, s), for any n >= 2*s. recognize_gstar tells it from
  its degree multiset.
* g1(s, parts): K_s joined to arbitrary cliques (the blocking-set family).
* g3(n, delta, s): K_s joined to the cliques g3_parts(n, delta, s): (s-1)
  copies of K_{delta+1-s}, then K_m. Layout [S | V_1 cells | V_2].
* g4(n, delta, s): g3 after a degree-raising surgery that empties the
  first V_1 clique, detaches each later clique's first vertex, and wires
  V_1 to V_2 (e1 from all of V_1 to V_2's first delta-s vertices, e2 from
  the detached cliques' interiors to the rest of V_2).

The characteristic polynomial of gstar's 3x3 quotient is kept in closed
form as an exact integer polynomial (phi_bstar), so identity checks are
coefficient-exact. Every family has a known equitable partition (the
*_cells functions; g4 takes the coarsest one), so the radius of each member
is an exact quotient root (spectra.quotient_root), never an eigensolver
value.
threshold_q is the load-bearing number: the largest root of the quotient
polynomial counted from the built gstar, bisected in integers and correctly
rounded to a double, after that polynomial is checked against the closed
form.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import NamedTuple, Sequence

from .graphs import Graph, complete, disjoint_union, join
from .spectra import quotient_root


def _join_cliques(s: int, parts: Sequence[int]) -> Graph:
    body = complete(parts[0])
    for p in parts[1:]:
        body = disjoint_union(body, complete(p))
    return join(complete(s), body)


def _cells(s: int, parts: Sequence[int]) -> list[list[int]]:
    out = [list(range(s))]
    base = s
    for p in parts:
        out.append(list(range(base, base + p)))
        base += p
    return out


def _check_gstar_params(n: int, delta: int) -> None:
    if delta < 2:
        raise ValueError("delta must be >= 2")
    if n < 2 * delta:
        raise ValueError("need n >= 2*delta")


def build_gstar(n: int, delta: int) -> Graph:
    """The extremal graph for (n, delta), of either parity. Requires
    delta >= 2 and n >= 2*delta."""
    _check_gstar_params(n, delta)
    return _join_cliques(delta, [n - 2 * delta + 1] + [1] * (delta - 1))


def gstar_cells(n: int, delta: int) -> list[list[int]]:
    """Natural 3-cell partition: join cell, big clique, all singletons."""
    return _cells(delta, [n - 2 * delta + 1, delta - 1])


def recognize_gstar(g: Graph) -> tuple[int, int] | None:
    """Decide whether ``g`` *is* the extremal graph
    ``K_delta v (K_{n-2*delta+1} u (delta-1)K_1)`` for some ``delta >= 2``
    with ``n > 2*delta``, up to relabeling.  Returns ``(n, delta)`` or
    ``None``.

    The degree multiset alone decides it: ``delta`` universal vertices of
    degree ``n-1``, ``n-2*delta+1`` of degree ``n-delta`` and ``delta-1`` of
    degree ``delta``, with ``delta`` the number of degree-``(n-1)``
    vertices.  Any graph with that multiset is ``G*(n, delta)``: each
    degree-``delta`` vertex touches the ``delta`` universal vertices, so it
    touches nothing else; each degree-``(n-delta)`` vertex then has
    ``n-2*delta`` further neighbours, all inside its own set of
    ``n-2*delta+1`` vertices, so that set is a clique.
    """
    n = g.n
    degs = g.degrees()
    delta = degs.count(n - 1)
    if delta < 2 or n <= 2 * delta:
        return None
    big = n - 2 * delta + 1
    if sorted(degs) != sorted([n - 1] * delta + [n - delta] * big + [delta] * (delta - 1)):
        return None
    return (n, delta)


def build_g1(s: int, parts: Sequence[int]) -> Graph:
    """K_s joined to cliques of the given sizes, in the given order."""
    if s < 1:
        raise ValueError("s must be >= 1")
    if not parts or any(p < 1 for p in parts):
        raise ValueError("parts must be nonempty positive sizes")
    return _join_cliques(s, list(parts))


def g1_cells(s: int, parts: Sequence[int]) -> list[list[int]]:
    return _cells(s, list(parts))


def g3_parts(n: int, delta: int, s: int) -> list[int]:
    """The orders of g3's cliques after S: (s-1) copies of delta+1-s (V_1),
    then m = n - s - (delta+1-s)(s-1) (V_2). Requires 2 <= s <= delta-1
    and m >= delta+1-s."""
    if not 2 <= s <= delta - 1:
        raise ValueError("need 2 <= s <= delta-1")
    m = n - s - (delta + 1 - s) * (s - 1)
    if m < delta + 1 - s:
        raise ValueError(f"big part m={m} must be >= delta+1-s={delta + 1 - s}")
    return [delta + 1 - s] * (s - 1) + [m]


def build_g3(n: int, delta: int, s: int) -> Graph:
    """K_s joined to ((s-1) copies of K_{delta+1-s}, then K_m)."""
    return _join_cliques(s, g3_parts(n, delta, s))


def g3_cells(n: int, delta: int, s: int) -> list[list[int]]:
    return _cells(s, g3_parts(n, delta, s))


class SurgeryPlan(NamedTuple):
    """Edge rewiring that turns g3 into g4. All edges are (u, v), u < v."""

    n: int
    delta: int
    s: int
    removed: tuple[tuple[int, int], ...]
    added_e1: tuple[tuple[int, int], ...]
    added_e2: tuple[tuple[int, int], ...]

    @property
    def added(self) -> tuple[tuple[int, int], ...]:
        return self.added_e1 + self.added_e2


def surgery_plan(n: int, delta: int, s: int) -> SurgeryPlan:
    """The documented rewiring, over g3's layout: S = range(s), then the
    s-1 V_1 cliques range(s + i*t, s + (i+1)*t) with t = delta+1-s, then
    V_2 = range(w, n) with w = s + (s-1)*t. Removed: every edge inside the
    first V_1 clique, plus each later clique's star at its first vertex
    (its anchor). Added: e1 = all of V_1 to w..w+delta-s-1; e2 = the later
    cliques' interiors to the rest of V_2. Each tuple comes out sorted."""
    g3_parts(n, delta, s)  # validates (n, delta, s)
    t = delta + 1 - s
    w = s + (s - 1) * t
    anchors = range(s + t, w, t)
    removed = [*combinations(range(s, s + t), 2)]
    removed += [(a, v) for a in anchors for v in range(a + 1, a + t)]
    e1 = [(v, x) for v in range(s, w) for x in range(w, w + delta - s)]
    e2 = [(v, x) for a in anchors for v in range(a + 1, a + t) for x in range(w + delta - s, n)]
    return SurgeryPlan(n, delta, s, tuple(removed), tuple(e1), tuple(e2))


def build_g4(g3: Graph, plan: SurgeryPlan) -> Graph:
    """build_g3(n, delta, s) rewired by surgery_plan(n, delta, s), both given."""
    return g3.remove_edges(plan.removed).add_edges(plan.added)


def g4_containment(plan: SurgeryPlan, g4: Graph, gs: Graph) -> tuple[int, ...] | None:
    """Check (never assume) that g4, built by the plan, is a spanning
    subgraph of gs = gstar(plan.n, plan.delta): the embedding, or None.

    The map sends g4's universal vertices (S plus V_2's first delta-s)
    onto the join cell, its degree-delta independent set (first V_1 clique
    plus the later cliques' detached anchors) onto the singleton slots, and
    the rest onto the big clique. It is verified edge by edge. The identity
    map never works: g4's vertex w (V_2's first) is universal, and w > delta,
    outside gstar's join cell 0..delta-1.
    """
    n, delta, s = plan.n, plan.delta, plan.s
    t = delta + 1 - s
    w = s + (s - 1) * t
    anchors = range(s + t, w, t)
    universal = [*range(s), *range(w, w + delta - s)]
    big = [v for a in anchors for v in range(a + 1, a + t)] + [*range(w + delta - s, n)]
    low = [*range(s, s + t), *anchors]
    mapping = [0] * n
    for image, v in enumerate(universal + big + low):  # join cell, big clique, singletons
        mapping[v] = image
    if all(gs.has_edge(mapping[u], mapping[v]) for u, v in g4.edges()):
        return tuple(mapping)
    return None


# ---------------------------------------------------------------------------
# closed-form quotient polynomials

def phi_bstar(n: int, s: int) -> tuple[int, ...]:
    """Characteristic polynomial of the quotient of Q(gstar(n, s)) over
    [join, big clique, singletons], closed form: the proof's phi_B2(n, s),
    and phi_B*(n, delta) at s = delta. That quotient is
    [[n+s-2, n-2s+1, s-1], [s, 2n-3s, 0], [s, 0, s]]."""
    _check_gstar_params(n, s)
    return (
        -2 * s * n * n + 4 * n * s * s + 2 * n * s - 2 * s ** 3 - 2 * s * s,
        2 * n * n + n * s - 4 * n - 4 * s * s + 4 * s,
        -(3 * n - s - 2),
        1,
    )


def f_poly(n: int, s: int, delta: int) -> tuple[int, ...]:
    """The quadratic with phi_bstar(n, s) - phi_bstar(n, delta) == (s - delta) * f."""
    return (
        -2 * n * n + 2 * n * (2 * s + 2 * delta + 1)
        - 2 * (s * s + s * delta + delta * delta) - 2 * (s + delta),
        n - 4 * s - 4 * delta + 4,
        1,
    )


@lru_cache(maxsize=None)
def threshold_q(n: int, delta: int) -> float:
    """q(gstar(n, delta)): the largest root of the quotient polynomial counted
    from the built graph, correctly rounded, once that polynomial is checked
    equal to the closed form phi_bstar (a mismatch raises RuntimeError, also
    under python -O)."""
    poly = phi_bstar(n, delta)
    counted, root = quotient_root(build_gstar(n, delta), gstar_cells(n, delta))
    if counted != poly:
        raise RuntimeError(f"threshold cross-validation failed at (n={n}, delta={delta}): "
                           f"phi_bstar {poly} is not the quotient's polynomial")
    return root
