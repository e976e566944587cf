"""The lemma and identity suites behind ``qfactor lemmas`` and
``qfactor identities``.

lemma_suite checks the supporting lemmas of the proof (clique
redistribution, edge monotonicity, the quotient radius, Perron vectors
constant on cells, cell ordering), and identity_suite the polynomial
identities behind the threshold and the surgery chain that pins G*(n, delta)
at the top of the near-threshold family.

Both suites are exact.  Every radius they compare is the correctly rounded
largest root of an equitable quotient's integer characteristic polynomial,
and each edge-removal margin of the lemma suite is an integer certificate,
so neither suite runs an eigensolver or loads numpy.  Neither needs the
even-factor code, so the suites load no factors or matching.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Any, Sequence

from .extremal import (
    build_g1,
    build_g3,
    build_g4,
    build_gstar,
    f_poly,
    g1_cells,
    g3_cells,
    g3_parts,
    g4_containment,
    gstar_cells,
    phi_bstar,
    surgery_plan,
    threshold_q,
)
from .graphs import Graph, is_connected, random_graph, splitmix64
from .spectra import (
    above_roots,
    char_poly,
    equitable_partition,
    largest_real_root,
    quotient,
    quotient_root,
)


def min_theorem_order(delta: int) -> int:
    """Least even order ``n >= 7*delta - 7``: the smallest graph the
    hypotheses admit at degree parameter ``delta``."""
    n = 7 * delta - 7
    return n + n % 2


# ---------------------------------------------------------------------------
# lemma suite


def odd_compositions(total: int, parts: int, minimum: int = 1):
    """Nondecreasing tuples of ``parts`` odd integers ``>= minimum`` summing
    to ``total``, in lexicographic order."""
    lo = minimum if minimum % 2 == 1 else minimum + 1

    def rec(remaining: int, k: int, floor: int):
        if k == 1:
            if remaining >= floor and remaining % 2 == 1:
                yield (remaining,)
            return
        v = floor
        while v * k <= remaining:
            for tail in rec(remaining - v, k - 1, v):
                yield (v,) + tail
            v += 2

    yield from rec(total, parts, lo)


def _redistribution_lemma() -> dict[str, Any]:
    """Merging clique mass into the largest part never lowers the radius:
    q(K_s v union K_{n_i}) <= q(K_s v ((t-1)K_p u K_{n-s-p(t-1)})) whenever
    every n_i >= p, with equality exactly when the smaller parts already
    all equal p.  Checked for s <= 4 and even n <= 16 on correctly rounded
    quotient roots: rounding is monotone, so a strict comparison of two
    decides the radii, and a tie is an equality only between equal
    polynomials."""
    comparisons = []
    for s in range(2, 5):
        for n in range(2 * s + 2, 17, 2):
            for parts in odd_compositions(n - s, s):
                for p in range(1, parts[0] + 1, 2):
                    big = n - s - p * (s - 1)
                    if big < p or big % 2 == 0:
                        continue
                    comparisons.append((s, parts, p, (p,) * (s - 1) + (big,)))
    radius = {key: quotient_root(build_g1(*key), g1_cells(*key)) for key in dict.fromkeys(
        key for s, parts, _, merged in comparisons for key in ((s, parts), (s, merged)))}

    cases = equalities = strict = violations = 0
    min_strict = math.inf
    bad: list[dict[str, Any]] = []
    for s, parts, p, merged in comparisons:
        (left_poly, left), (right_poly, right) = radius[s, parts], radius[s, merged]
        cases += 1
        if left == right and left_poly != right_poly:
            raise ValueError(f"radii of K_{s} v {parts} and {merged} round to one double")
        if left < right:
            strict += 1
            min_strict = min(min_strict, right - left)
        elif left == right and parts == merged:
            equalities += 1
        else:
            violations += 1
            bad.append({"s": s, "parts": list(parts), "p": p})
    return {
        "cases": cases,
        "equality_cases": equalities,
        "strict_cases": strict,
        "violations": violations,
        "violating_cases": bad,
        "min_strict_margin": None if strict == 0 else min_strict,
        "max_equality_deviation": 0.0,
        "passed": violations == 0,
    }


# Power steps the edge certificate takes before it gives up on a pair.  The
# suite's pairs need at most 14; sparse graphs on 12 vertices about 100.
EDGE_POWER_STEPS = 1000


def _edge_certificate(h: Graph, u: int, v: int) -> tuple[int, int, int, int] | None:
    """Integers a, b, c, d with q(h + uv) >= a/b > c/d >= q(h), proving
    that adding the non-edge uv to h raises its signless-Laplacian radius,
    or None if EDGE_POWER_STEPS power steps find none.

    For every positive vector y, Collatz-Wielandt gives
    q(h) <= max_i (Q y)_i / y_i, and the Rayleigh quotient with
    Q(h + uv) = Q + (e_u + e_v)(e_u + e_v)^T gives
    q(h + uv) >= (y^T Q y + (y_u + y_v)^2) / y^T y.  y starts at all ones
    and steps to Q y + y, which stays positive on isolated vertices, until
    the two bounds, compared by cross-multiplication, separate.  Q y is
    counted from the bitrows.
    """
    neighbours = [[j for j in range(h.n) if row >> j & 1] for row in h.rows]
    y = [1] * h.n
    for _ in range(EDGE_POWER_STEPS):
        qy = [len(nbrs) * y[i] + sum(y[j] for j in nbrs) for i, nbrs in enumerate(neighbours)]
        c, d = qy[0], y[0]
        for qi, yi in zip(qy, y):
            if qi * d > c * yi:
                c, d = qi, yi
        a = sum(map(mul, y, qy)) + (y[u] + y[v]) ** 2
        b = sum(yi * yi for yi in y)
        if a * d > c * b:
            return a, b, c, d
        y = [qi + yi for qi, yi in zip(qy, y)]
    return None


def _edge_monotonicity_lemma(seed: int) -> dict[str, Any]:
    """Removing an edge from a connected graph strictly lowers the
    signless-Laplacian radius; checked on 100 seeded random connected
    graphs of order 10, each pair by an exact certificate.  A pair whose
    certificate is not found is a violation; min_margin is the smallest
    certified lower bound on q(G) - q(G - uv)."""
    pairs = 100
    stream = splitmix64(seed)
    margins: list[float | None] = []
    attempts = 0
    while len(margins) < pairs:
        attempts += 1
        if attempts > 50 * pairs:
            raise RuntimeError("random graph stream failed to produce enough cases")
        g = random_graph(10, 0.5, next(stream))
        edges = g.edges()
        if not edges or not is_connected(g):
            continue
        u, v = edges[next(stream) % len(edges)]
        bounds = _edge_certificate(g.remove_edges([(u, v)]), u, v)
        if bounds is None:
            margins.append(None)
        else:
            a, b, c, d = bounds
            margins.append((a * d - c * b) / (b * d))
    certified = [margin for margin in margins if margin is not None]
    violations = pairs - len(certified)
    return {
        "pairs": pairs,
        "violations": violations,
        "min_margin": min(certified, default=None),
        "passed": violations == 0,
    }


def _gstar_grid() -> list[tuple[int, int]]:
    grid = []
    for delta in (2, 3):
        for n in range(max(2 * delta + 2, min_theorem_order(delta)), 19, 2):
            grid.append((n, delta))
    return grid


def _quotient_radius_lemma() -> dict[str, Any]:
    """For the extremal graph's equitable partition, the largest real root
    of the quotient characteristic polynomial is the full
    signless-Laplacian radius.  The quotient's polynomial divides the exact
    order-n characteristic polynomial, the quotient over the discrete
    partition (Godsil & Royle, Algebraic Graph Theory, section 9.3):
    checked as quotient times cofactor equal to it, the cofactor from exact
    long division (both are monic, so it is integral).  If the cofactor and
    all its derivatives are positive just below the correctly rounded root,
    no other eigenvalue reaches it, so root_vs_perron is 0.0; otherwise it
    is None and the case fails.  A partition that is not equitable fails
    its case."""
    rows = []
    for n, delta in _gstar_grid():
        g, cells = build_gstar(n, delta), gstar_cells(n, delta)
        equitable = quotient(g, cells) is not None
        row = {"n": n, "delta": delta, "equitable": equitable,
               "root_vs_perron": None, "divides": False}
        if equitable:
            poly, root = quotient_root(g, cells)
            full = char_poly(quotient(g, [[v] for v in range(n)]))
            cofactor = full // poly
            row["divides"] = poly * cofactor == full
            if above_roots(cofactor, math.nextafter(root, 0)):
                row["root_vs_perron"] = 0.0
        rows.append(row)
    proved = all(r["root_vs_perron"] is not None for r in rows)
    all_divide = all(r["divides"] for r in rows)
    all_equitable = all(r["equitable"] for r in rows)
    return {
        "cases": rows,
        "max_root_vs_perron": 0.0 if proved else None,
        "all_divide": all_divide,
        "all_equitable": all_equitable,
        "passed": all_equitable and proved and all_divide,
    }


def _eigenvector_cell_lemma() -> dict[str, Any]:
    """Perron vectors are constant on the cells of the equitable partition,
    for both the adjacency and signless-Laplacian matrices.  Checked as the
    theorem's hypotheses, for each matrix: the partition is equitable for
    it (for A exactly when for Q = D + A) and the graph is connected, so
    the Perron root is simple and its eigenvector lifts from the quotient
    (Godsil & Royle, section 9.3; Perron-Frobenius).  A proved case has
    max_spread 0.0, any other None."""
    rows = []
    for n, delta in _gstar_grid():
        g = build_gstar(n, delta)
        proved = quotient(g, gstar_cells(n, delta)) is not None and is_connected(g)
        for label in ("q", "rho"):
            rows.append({"n": n, "delta": delta, "matrix": label,
                         "max_spread": 0.0 if proved else None})
    passed = all(r["max_spread"] is not None for r in rows)
    return {"cases": rows, "max_spread": 0.0 if passed else None, "passed": passed}


def _join_perron_values(s: int, sizes: Sequence[int], r: float,
                        alpha: int) -> list[float] | None:
    """The Perron vector of a join K_s v union K_{n_i} of cliques on its
    clique cells, scaled to a unit vector, from the radius r of
    alpha*D + A (Q for alpha 1, A for alpha 0); None when some
    denominator below is not positive.

    With x_0 on the join cell, the eigenvalue equations give
    x_i = s x_0 / (r - 2 n_i - s + 2) for Q and s x_0 / (r - n_i + 1) for
    A.  Every denominator is positive exactly when r exceeds
    2 max n_i + s - 2 (Q) or max n_i - 1 (A).  r is correctly rounded and
    the bound an integer, so one float comparison decides it."""
    k, j = (2, s - 2) if alpha else (1, -1)  # x_i = s x_0 / (r - k n_i - j)
    if r <= k * max(sizes) + j:
        return None
    x = [s / (r - k * size - j) for size in sizes]
    norm = math.sqrt(s + sum(size * xi * xi for size, xi in zip(sizes, x)))
    return [xi / norm for xi in x]


def _cell_ordering_lemma() -> dict[str, Any]:
    """On a join K_s v union K_{n_i} of cliques the Perron value on a
    clique cell increases with the clique's size (equal sizes give equal
    values), for both the adjacency matrix and the signless Laplacian.

    By the eigenvalue equations (_join_perron_values) the ordering holds
    exactly when every denominator there is positive, where r is the
    radius: the largest root of the quotient over the cells.  cell_values
    are the unit-scaled x_i."""
    instances: list[tuple[Graph, Sequence[Sequence[int]], int, tuple[int, ...]]] = []
    for s, parts in [
        (2, (3, 3)),
        (2, (1, 9)),
        (2, (3, 7)),
        (2, (5, 5)),
        (3, (1, 3, 5)),
        (3, (3, 3, 3)),
        (4, (1, 1, 3, 7)),
    ]:
        instances.append((build_g1(s, parts), g1_cells(s, parts), s, tuple(parts)))
    for n, delta, s in [(14, 3, 2), (22, 4, 2), (22, 4, 3)]:
        instances.append((build_g3(n, delta, s), g3_cells(n, delta, s), s,
                          tuple(g3_parts(n, delta, s))))

    rows = []
    violations = 0
    for g, cells, s, sizes in instances:
        equitable = quotient(g, cells) is not None
        for alpha in (0, 1):
            x = None
            if equitable:
                x = _join_perron_values(s, sizes, quotient_root(g, cells, alpha)[1], alpha)
            values = None if x is None else sorted(x)
            ok = values is not None
            violations += not ok
            rows.append({"sizes": list(sizes), "alpha": alpha, "cell_values": values, "ok": ok})
    return {"cases": rows, "violations": violations, "passed": violations == 0}


def lemma_suite(*, seed: int = 0) -> dict[str, Any]:
    """Run every supporting-lemma check and return one section per lemma,
    each with a ``passed`` flag and its measured margins.  Every check is
    exact: radii are correctly rounded roots of integer quotient
    polynomials, compared strictly or against integers, and the edge
    margins integer certificates, so no eigensolver runs and numpy is
    never loaded."""
    sections = {
        "clique_redistribution": _redistribution_lemma(),
        "edge_monotonicity": _edge_monotonicity_lemma(seed),
        "quotient_radius": _quotient_radius_lemma(),
        "eigenvector_cells": _eigenvector_cell_lemma(),
        "cell_ordering": _cell_ordering_lemma(),
    }
    sections["all_passed"] = all(
        section["passed"] for section in sections.values() if isinstance(section, dict)
    )
    return sections


# ---------------------------------------------------------------------------
# identity suite


def _identity_grid() -> list[tuple[int, int, int]]:
    """(n, delta, s) triples for delta <= 6 spanning both sides of s = delta,
    with n even and large enough for every block of the quotient to be
    nonempty."""
    grid = []
    for delta in range(2, 7):
        for s in range(2, delta + 4):
            for n in range(max(min_theorem_order(delta), 2 * s), 7 * delta + 9, 2):
                grid.append((n, delta, s))
    return grid


def identity_suite() -> dict[str, Any]:
    """Exact-arithmetic checks of the polynomial identities behind the
    threshold, plus the comparison chain that pins the extremal graph at the
    top of the near-threshold family.  Each radius is the correctly rounded
    largest root of a quotient polynomial, so a strict comparison of two
    decides the radii; a tie passes only between equal polynomials."""
    sections: dict[str, Any] = {}

    # (a) phi_{B_2}(n, s) - phi_{B_*}(n, delta) == (s - delta) * f(n, s, delta), exactly.
    grid = _identity_grid()
    mismatches = []
    for n, delta, s in grid:
        lhs = phi_bstar(n, s) - phi_bstar(n, delta)
        rhs = f_poly(n, s, delta).scaled(s - delta)
        if not (lhs - rhs).is_zero():
            mismatches.append({"n": n, "delta": delta, "s": s})
    sections["difference_identity"] = {
        "cases": len(grid),
        "mismatches": mismatches,
        "passed": not mismatches,
    }

    # (b) for s >= delta + 1 (the range where the proof divides by s - delta
    # with positive sign), f evaluated at 2n - 2*delta is a positive integer
    # (>= 3), and the parabola's axis sits strictly left of that point —
    # both in exact ints.
    f_rows = []
    ok = True
    for n, delta, s in grid:
        if s < delta + 1:
            continue
        value = f_poly(n, s, delta)(2 * n - 2 * delta)
        axis_ok = 4 * s + 4 * delta - n - 4 < 2 * (2 * n - 2 * delta)
        if value < 3 or not axis_ok:
            ok = False
        f_rows.append(
            {"n": n, "delta": delta, "s": s, "f_at_2n_minus_2delta": value, "axis_ok": axis_ok}
        )
    sections["f_positivity"] = {
        "cases": f_rows,
        "min_value": min(r["f_at_2n_minus_2delta"] for r in f_rows),
        "passed": ok,
    }

    # (c) joins with s >= delta + 1 fall strictly below the threshold.
    rows = []
    ok = True
    for delta in (2, 3, 4):
        n = min_theorem_order(delta) + 14
        for s in range(delta + 1, delta + 4):
            margin = threshold_q(n, delta) - quotient_root(build_gstar(n, s), gstar_cells(n, s))[1]
            ok = ok and margin > 0
            rows.append({"n": n, "delta": delta, "s": s, "threshold_margin": margin})
    sections["large_join_below_threshold"] = {"cases": rows, "passed": ok}

    # (d) the surgery chain: rewiring the layered join strictly raises the
    # radius (the Rayleigh step's closed-form gain is positive), lands at or
    # below the extremal graph, and the rewired graph embeds in it.
    rows = []
    ok = True
    g3_roots = {}
    for delta in (3, 4, 5):
        n = min_theorem_order(delta)
        gs, qstar = build_gstar(n, delta), threshold_q(n, delta)
        for s in range(2, delta):
            plan, g3 = surgery_plan(n, delta, s), build_g3(n, delta, s)
            g4 = build_g4(g3, plan)
            poly3, q3 = g3_roots[delta, s] = quotient_root(g3, g3_cells(n, delta, s))
            poly4, q4 = quotient_root(g4, equitable_partition(g4))
            # The paper's Rayleigh step on G3's unit Perron vector, whose value
            # is x[0] on V_1 and x[-1] on V_2.
            x = _join_perron_values(s, g3_parts(n, delta, s), q3, 1)
            closed = None if x is None else (
                len(plan.added) * (x[0] + x[-1]) ** 2 - len(plan.removed) * (2 * x[0]) ** 2)
            case_ok = (
                closed is not None and closed > 0
                and q3 < q4
                and (q4 < qstar or poly4 == phi_bstar(n, delta))
                and g4_containment(plan, g4, gs) is not None
            )
            ok = ok and case_ok
            rows.append({"n": n, "delta": delta, "s": s, "closed_form_gain": closed,
                         "q_g3": q3, "q_g4": q4, "threshold": qstar, "ok": case_ok})
    sections["surgery_chain"] = {"cases": rows, "passed": ok}

    # (e) every admissible layered configuration dominates the general join:
    # q(K_s v union K_{n_i}) <= q(G_3) when all parts are >= delta + 1 - s.
    rows = []
    ok = True
    for delta, s in [(3, 2), (4, 2), (4, 3)]:
        n = min_theorem_order(delta)
        poly3, q3 = g3_roots[delta, s]
        for parts in odd_compositions(n - s, s, minimum=delta + 1 - s):
            poly, value = quotient_root(build_g1(s, parts), g1_cells(s, parts))
            margin = q3 - value
            ok = ok and (margin > 0 or poly == poly3)
            rows.append({"n": n, "delta": delta, "s": s, "parts": list(parts), "margin": margin})
    sections["layered_dominates"] = {"cases": rows, "passed": ok}

    # (f) the threshold root is a signless-Laplacian quantity: the largest
    # real root of phi_bstar is q(G), the root of G's Q quotient, not rho(G),
    # the root of its adjacency quotient.
    rows = []
    ok = True
    for n, s in [(8, 2), (14, 3), (20, 4)]:
        root = largest_real_root(phi_bstar(n, s), 0.0, 2.0 * n)
        g2, cells = build_gstar(n, s), gstar_cells(n, s)
        q_diff = abs(root - quotient_root(g2, cells)[1])
        rho = quotient_root(g2, cells, 0)[1]
        rho_diff = abs(root - rho)
        case_ok = q_diff == 0 and rho_diff > 0
        ok = ok and case_ok
        rows.append({"n": n, "s": s, "vs_q": q_diff, "vs_rho": rho_diff, "ok": case_ok})
    sections["root_semantics"] = {"cases": rows, "passed": ok}

    sections["all_passed"] = all(
        section["passed"] for section in sections.values() if isinstance(section, dict)
    )
    return sections
