"""Theorem checking, stream verification, and empirical study runners.

The theorem under test: a connected graph of even order ``n`` with minimum
degree ``delta >= 2`` and ``n >= 7*delta - 7`` has an even factor (a spanning
subgraph with every degree positive and even) whenever its signless-Laplacian
spectral radius is at least the radius of the extremal graph
``K_delta v (K_{n-2*delta+1} u (delta-1)K_1)`` — with that extremal graph
itself the unique exception.  ``G*(n, delta)`` itself *has* an even factor
(a Hamiltonian cycle, for one); it is the unique exception for the
parity criterion, which it fails on its join cell, not for even factors.

:func:`check_theorem_instance` and :func:`verify_stream` classify graphs
against that statement by one ladder, the table :data:`RUNGS`: the
hypotheses, the threshold, the recognizer, then the exact even-factor test
:func:`~qfactor.factors.even_factor` (the two-factor fast path, else one
perfect-matching question on a gadget).  The hypotheses need no Perron
value, so they run on a whole chunk of lines before its eigh stack is
built.  Above the threshold, a non-extremal graph is ``confirmed_factor``
with a checked edge list, or a ``counterexample`` whose ``no_even_factor``
witness rests on a checked Tutte barrier of the gadget (or a vertex of
degree below 2).  Every such graph is decided; no size guard applies.

The threshold itself is the largest real root of an exact integer
characteristic polynomial, isolated by a Sturm chain with integer signs at
dyadic points and correctly rounded to a double, then cross-checked against
a directly computed spectral radius, so a near-band instance cannot be
misclassified by float drift greater than the stated ``eps``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from . import DEFAULT_ENUM_ORDER
from .extremal import (
    build_g1,
    build_g2,
    build_g3,
    build_g4,
    build_gstar,
    f_poly,
    g1_cells,
    g3_cells,
    g4_containment,
    gstar_cells,
    phi_b2,
    phi_bstar,
    surgery_plan,
    threshold_q,
)
from .factors import (
    AGREEMENT_CLASSES,
    even_factor,
    factor_verdict,
)
from .graphs import (
    Graph,
    Graph6Error,
    graph6_payload,
    is_connected,
    isomorphism_classes,
    mask_graph6_encoder,
    min_degree,
    parse_graph6,
    random_graph,
    splitmix64,
    write_graph6,
)
from .spectra import (
    cell_values,
    char_poly,
    largest_real_root,
    perron,
    perron_many,
    perron_q,
    perron_rho,
    quotient,
    signless_laplacian,
)

DEFAULT_EPS = 1e-8
# Sampled connected-only studies give up after this many disconnected draws
# in a row: connected graphs are then too rare at (n, p) to sample.
MAX_REJECTED_DRAWS = 10_000

CLASSIFICATIONS = (
    "not_applicable",
    "below_threshold",
    "confirmed_factor",
    "extremal_match",
    "counterexample",
)


def max_theorem_delta(n: int) -> int:
    """Largest minimum-degree parameter the order-vs-degree hypothesis
    ``n >= 7*delta - 7`` admits for a graph on ``n`` vertices."""
    return (n + 7) // 7


@dataclass(frozen=True)
class TheoremOutcome:
    """Classification of one graph against the even-factor theorem.

    ``witness`` carries the evidence object: an even factor's edge list,
    ``{"kind": "no_even_factor"}`` for a counterexample, or ``None``.
    ``note`` explains ``not_applicable`` verdicts.
    """

    classification: str
    q: float | None = None
    threshold: float | None = None
    delta: int | None = None
    witness: dict[str, Any] | None = None
    note: str | None = None

    def as_row(self, graph6: str | None = None, line: int | None = None) -> dict[str, Any]:
        row = {
            "classification": self.classification,
            "q": self.q,
            "threshold": self.threshold,
            "delta": self.delta,
            "witness": self.witness,
        }
        for key, value in (("graph6", graph6), ("line", line), ("note", self.note)):
            if value is not None:
                row[key] = value
        return row


def recognize_gstar(g: Graph) -> tuple[int, int] | None:
    """Decide whether ``g`` *is* (not merely is isomorphic in spirit to) the
    extremal graph ``K_delta v (K_{n-2*delta+1} u (delta-1)K_1)`` for some
    ``delta >= 2`` with ``n > 2*delta``, up to relabeling.

    Works from the degree multiset: the join vertices have degree ``n-1``,
    the big-clique vertices ``n-delta``, the singletons ``delta``; those
    three values are pairwise distinct exactly when ``delta >= 2`` and
    ``n != 2*delta``, so membership reduces to checking the multiset and
    then the two adjacency constraints the degrees do not already force.
    Returns ``(n, delta)`` or ``None``.
    """
    n = g.n
    degs = g.degrees()
    delta = sum(1 for d in degs if d == n - 1)
    if delta < 2 or n <= 2 * delta:
        return None
    big = n - 2 * delta + 1
    if sorted(degs) != sorted([n - 1] * delta + [n - delta] * big + [delta] * (delta - 1)):
        return None
    rest_mask = 0
    low = []
    for v, d in enumerate(degs):
        if d == n - delta:
            rest_mask |= 1 << v
        elif d == delta:
            low.append(v)
    universal_mask = sum(1 << v for v, d in enumerate(degs) if d == n - 1)
    for v in low:
        if g.rows[v] != universal_mask:
            return None
    for v in range(n):
        if rest_mask >> v & 1 and g.rows[v] & rest_mask != rest_mask ^ (1 << v):
            return None
    return (n, delta)


def _hypotheses(g: Graph, fixed: dict[str, Any]) -> TheoremOutcome | None:
    """Even order >= 4, connected, and ``delta = min(delta(G), floor((n+7)/7))
    >= 2``: a minimum degree above what the order supports is capped, which
    is sound because the hypothesis only bounds it from below."""
    n = g.n
    if n < 4 or n % 2 == 1:
        return TheoremOutcome("not_applicable", note="order must be even and at least 4")
    if not is_connected(g):
        return TheoremOutcome("not_applicable", note="graph is disconnected")
    fixed["delta"] = min(min_degree(g), max_theorem_delta(n))
    if fixed["delta"] < 2:
        return TheoremOutcome("not_applicable", note="minimum degree below 2")


def _decided(classification: str, fixed: dict[str, Any], witness=None) -> TheoremOutcome:
    return TheoremOutcome(classification, fixed["q"], fixed["threshold"], fixed["delta"], witness)


def _threshold(g: Graph, fixed: dict[str, Any]) -> TheoremOutcome | None:
    fixed["threshold"] = threshold_q(g.n, fixed["delta"])
    if fixed["q"] < fixed["threshold"] - fixed["eps"]:
        return _decided("below_threshold", fixed)


def _extremal(g: Graph, fixed: dict[str, Any]) -> TheoremOutcome | None:
    if recognize_gstar(g) == (g.n, fixed["delta"]):
        return _decided("extremal_match", fixed)


def _even_factor(g: Graph, fixed: dict[str, Any]) -> TheoremOutcome:
    factor = even_factor(g)
    if factor is None:
        return _decided("counterexample", fixed, {"kind": "no_even_factor"})
    return _decided("confirmed_factor", fixed,
                    {"kind": "even_factor", "edges": [list(e) for e in factor]})


# The theorem's ladder as (rung, needs q) pairs.  A rung maps a graph and the
# values earlier rungs fixed (delta, q, threshold, and the run's eps) to an
# outcome, or to None to pass the graph on.  The rungs that need no Perron
# value run first, before a chunk's eigh stack is built; the last rung
# decides every graph that reaches it.
RUNGS = (
    (_hypotheses, False),
    (_threshold, True),
    (_extremal, True),
    (_even_factor, True),
)


def _climb(g: Graph, fixed: dict[str, Any], with_q: bool) -> Any:
    """The first outcome of the rungs whose need for q is *with_q*, None if
    none decides, or the error that stopped the graph."""
    try:
        for rung, needs_q in RUNGS:
            if needs_q == with_q and (outcome := rung(g, fixed)) is not None:
                return outcome
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        return exc


def _classify(graphs: Sequence[Graph], eps: float) -> list[Any]:
    """Each graph's outcome on RUNGS, or the error that stopped it (the
    residual gate or LinAlgError, a rejected certificate, the threshold
    cross-check).  The graphs the rungs without q leave open get it from one
    perron_many call, one eigh per order.  Raises ValueError for a negative
    eps, which would call graphs above the threshold below it, or a NaN."""
    if not eps >= 0:
        raise ValueError(f"eps must be a nonnegative number, got {eps!r}")
    fixed = [{"eps": eps} for _ in graphs]
    results = [_climb(g, f, False) for g, f in zip(graphs, fixed)]
    pending = [i for i, result in enumerate(results) if result is None]
    for i, pd in zip(pending, perron_many([graphs[i] for i in pending], 1)):
        if isinstance(pd, Exception):
            results[i] = pd
        else:
            fixed[i]["q"] = pd.value
            results[i] = _climb(graphs[i], fixed[i], True)
    return results


def check_theorem_instance(g: Graph, *, eps: float = DEFAULT_EPS) -> TheoremOutcome:
    """Classify one graph: the one-graph case of the classifier that
    :func:`verify_stream` runs per chunk, raising the error that stops the
    graph, or ValueError for a negative or NaN *eps*."""
    result = _classify([g], eps)[0]
    if isinstance(result, Exception):
        raise result
    return result


# ---------------------------------------------------------------------------
# stream verification


# Lines classified together: one eigh call per graph order per chunk, and the
# unit of work of the process pool. 128 lines keep a Q stack under 4 MB even
# at n = 62, and leave the pool enough chunks to balance streams whose
# costly lines cluster (on the benchmark sweep, 256 made --jobs 2 slower).
CHUNK_LINES = 128


def _classify_chunk(chunk: Sequence[tuple[int, str]], eps: float) -> list[dict[str, Any]]:
    """Rows of a chunk of (line number, stripped text) pairs: the lines that
    parse go through one _classify call.  A malformed line or a graph's
    error becomes its error row and the run goes on."""
    results: list[Any] = [None] * len(chunk)
    parsed = []
    for pos, (_, text) in enumerate(chunk):
        try:
            parsed.append((pos, parse_graph6(text)))
        except Graph6Error as exc:
            results[pos] = exc
    for (pos, _), result in zip(parsed, _classify([g for _, g in parsed], eps)):
        results[pos] = result
    return [{"line": lineno, "graph6": text, "error": str(result)}
            if isinstance(result, Exception) else result.as_row(graph6_payload(text), lineno)
            for (lineno, text), result in zip(chunk, results)]


def verify_stream(
    lines: Iterable[str],
    *,
    eps: float = DEFAULT_EPS,
    jobs: int = 1,
) -> dict[str, Any]:
    """Classify every graph6 line of a stream.

    Blank lines are skipped; malformed lines and instances whose numeric
    or certificate checks fail become error rows (they make the run a
    usage failure but do not stop it).  Lines are classified in chunks of
    CHUNK_LINES, with one LAPACK eigh call per graph order per chunk.  With
    ``jobs > 1`` the chunks fan out over a process pool; rows are returned
    in input order either way, so reports are independent of ``jobs``.
    Raises ValueError for a negative or NaN *eps* if a line is nonblank.
    """
    work = [
        (lineno, stripped)
        for lineno, raw in enumerate(lines, start=1)
        if (stripped := raw.strip())
    ]
    chunks = [work[i:i + CHUNK_LINES] for i in range(0, len(work), CHUNK_LINES)]
    classify = functools.partial(_classify_chunk, eps=eps)
    if jobs > 1 and len(chunks) > 1:
        import multiprocessing

        import numpy  # before the fork, so workers inherit it instead of each importing it

        with multiprocessing.Pool(processes=min(jobs, len(chunks))) as pool:
            done = pool.map(classify, chunks, chunksize=1)
    else:
        done = map(classify, chunks)
    rows = [row for chunk_rows in done for row in chunk_rows]

    decided = [row["classification"] for row in rows if "error" not in row]
    counts = {name: decided.count(name) for name in CLASSIFICATIONS}
    # Benchmark holdover, always 0: perfbench/test_perfbench.py increments
    # this key, and perfbench/ changes only in a benchmark change.
    counts["undecided"] = 0
    return {
        "items": rows,
        "counts": counts,
        "errors": len(rows) - len(decided),
        "total": len(rows),
        "counterexamples": [row["graph6"] for row in rows
                            if row.get("classification") == "counterexample"],
    }


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


def _require_minimums(**limits: tuple[int, int]) -> None:
    """Reject a grid key below its minimum, the smallest value at which its
    section still has a case to check: an empty section passes vacuously."""
    for key, (value, minimum) in limits.items():
        if value < minimum:
            raise ValueError(f"grid key {key} must be at least {minimum}, got {value}")


def _q_values(graphs: Sequence[Graph]) -> list[float]:
    """Signless-Laplacian radii from one perron_many call, raising the first
    error as perron_q would."""
    out = []
    for result in perron_many(graphs, 1):
        if isinstance(result, Exception):
            raise result
        out.append(result.value)
    return out


def _redistribution_lemma(*, max_n: int, max_s: int) -> dict[str, Any]:
    """Merging clique mass into the largest part never lowers the radius:
    q(K_s v union K_{n_i}) <= q(K_s v ((t-1)K_p u K_{n-s-p(t-1)})) whenever
    every n_i >= p, with equality exactly when the smaller parts already
    all equal p."""
    comparisons = []
    for s in range(2, max_s + 1):
        for n in range(2 * s + 2, max_n + 1, 2):
            for parts in odd_compositions(n - s, s):
                for p in range(1, parts[0] + 1, 2):
                    big = n - s - p * (s - 1)
                    if big < p or big % 2 == 0:
                        continue
                    comparisons.append((s, parts, p, (p,) * (s - 1) + (big,)))
    joins = list(dict.fromkeys(
        key for s, parts, _, merged in comparisons for key in ((s, parts), (s, merged))))
    radius = dict(zip(joins, _q_values([build_g1(s, parts) for s, parts in joins])))

    cases = equalities = strict = violations = 0
    min_strict = math.inf
    max_eq_dev = 0.0
    bad: list[dict[str, Any]] = []
    for s, parts, p, merged in comparisons:
        left, right = radius[s, parts], radius[s, merged]
        cases += 1
        if left > right + 1e-8:
            violations += 1
            bad.append({"s": s, "parts": list(parts), "p": p})
        elif parts == merged:
            equalities += 1
            max_eq_dev = max(max_eq_dev, abs(left - right))
        else:
            strict += 1
            min_strict = min(min_strict, right - left)
    return {
        "cases": cases,
        "equality_cases": equalities,
        "strict_cases": strict,
        "violations": violations,
        "violating_cases": bad,
        "min_strict_margin": None if strict == 0 else min_strict,
        "max_equality_deviation": max_eq_dev,
        "passed": violations == 0
        and (strict == 0 or min_strict > 1e-6)
        and max_eq_dev <= 1e-9,
    }


def _edge_monotonicity_lemma(*, seed: int, pairs: int) -> dict[str, Any]:
    """Removing an edge from a connected graph strictly lowers the
    signless-Laplacian radius; checked on seeded random connected graphs."""
    stream = splitmix64(seed)
    drawn: list[Graph] = []  # g, h for each pair
    attempts = 0
    while len(drawn) < 2 * pairs:
        attempts += 1
        if attempts > 50 * pairs:
            raise RuntimeError("random graph stream failed to produce enough cases")
        g = random_graph(10, 0.5, next(stream))
        edges = g.edges()
        if not edges or not is_connected(g):
            continue
        drop = edges[next(stream) % len(edges)]
        drawn += [g, g.remove_edges([drop])]
    values = _q_values(drawn)
    margins = [q_g - q_h for q_g, q_h in zip(values[::2], values[1::2])]
    violations = sum(margin <= 0 for margin in margins)
    return {
        "pairs": len(margins),
        "violations": violations,
        "min_margin": min((margin for margin in margins if margin > 0), default=None),
        "passed": violations == 0,
    }


def _gstar_grid(max_order: int = 18) -> list[tuple[int, int]]:
    grid = []
    for delta in (2, 3):
        for n in range(max(2 * delta + 2, 7 * delta - 7 + (7 * delta - 7) % 2), max_order + 1, 2):
            grid.append((n, delta))
    return grid


def _quotient_radius_lemma() -> dict[str, Any]:
    """For the extremal graph's equitable partition, the largest real root
    of the quotient characteristic polynomial equals the full
    signless-Laplacian radius; additionally the quotient's characteristic
    polynomial divides the exact order-n integer characteristic polynomial,
    the quotient over the discrete partition (Godsil & Royle, Algebraic
    Graph Theory, section 9.3), checked by exact long division: both are
    monic, so the quotient and remainder are integral.  A partition that is
    not equitable fails its case."""
    rows = []
    max_root_diff = 0.0
    for n, delta in _gstar_grid():
        g = build_gstar(n, delta)
        b = quotient(g, gstar_cells(n, delta))
        row = {"n": n, "delta": delta, "equitable": b is not None,
               "root_vs_perron": None, "divides": False}
        if b is not None:
            poly = char_poly(b)
            diff = abs(largest_real_root(poly, 0, 2 * n) - perron_q(g).value)
            max_root_diff = max(max_root_diff, diff)
            row["root_vs_perron"] = diff
            row["divides"] = (char_poly(quotient(g, [[v] for v in range(n)])) % poly).is_zero()
        rows.append(row)
    all_divide = all(r["divides"] for r in rows)
    return {
        "cases": rows,
        "max_root_vs_perron": max_root_diff,
        "all_divide": all_divide,
        "all_equitable": all(r["equitable"] for r in rows),
        "passed": all(r["equitable"] for r in rows)
        and max_root_diff < 1e-8
        and all_divide,
    }


def _cell_spread(vector, cells: Sequence[Sequence[int]]) -> float:
    """The largest max - min of the vector on one cell.  For the unit
    Perron vectors checked here, 1e-8 absolute is 1e-8 relative to
    max(1, largest magnitude)."""
    return max(float(vector[cell].max() - vector[cell].min()) for cell in cells)


def _eigenvector_cell_lemma() -> dict[str, Any]:
    """Perron vectors are constant on the cells of the equitable partition,
    for both the adjacency and signless-Laplacian matrices."""
    rows = []
    max_spread = 0.0
    for n, delta in _gstar_grid():
        g = build_gstar(n, delta)
        cells = gstar_cells(n, delta)
        for label, data in (("q", perron_q(g)), ("rho", perron_rho(g))):
            spread = _cell_spread(data.vector, cells)
            max_spread = max(max_spread, spread)
            rows.append({"n": n, "delta": delta, "matrix": label, "max_spread": spread})
    return {"cases": rows, "max_spread": max_spread, "passed": bool(max_spread < 1e-8)}


def _cell_ordering_lemma() -> dict[str, Any]:
    """On a join of cliques the Perron value on a clique cell increases with
    the clique's size (equal sizes give equal values), for both the
    adjacency matrix and the signless Laplacian."""
    instances: list[tuple[Graph, Sequence[Sequence[int]], tuple[int, ...]]] = []
    for s, parts in [
        (2, (3, 3)),
        (2, (1, 9)),
        (2, (3, 7)),
        (2, (5, 5)),
        (3, (1, 3, 5)),
        (3, (3, 3, 3)),
        (4, (1, 1, 3, 7)),
    ]:
        instances.append((build_g1(s, parts), g1_cells(s, parts), tuple(parts)))
    for n, delta, s in [(14, 3, 2), (22, 4, 2), (22, 4, 3)]:
        g = build_g3(n, delta, s)
        sizes = tuple([delta + 1 - s] * (s - 1) + [n - s - (delta + 1 - s) * (s - 1)])
        instances.append((g, g3_cells(n, delta, s), sizes))

    rows = []
    violations = 0
    for g, cells, sizes in instances:
        for alpha in (0, 1):
            data = perron(g, alpha)
            values = cell_values(data.vector, cells)[1:]  # skip the join cell
            ordered = sorted(range(len(sizes)), key=lambda i: sizes[i])
            ok = _cell_spread(data.vector, cells) <= 1e-8
            for a, b in zip(ordered, ordered[1:]):
                if sizes[a] == sizes[b]:
                    if abs(values[a] - values[b]) > 1e-8:
                        ok = False
                else:
                    if values[b] - values[a] <= 1e-9:
                        ok = False
            if not ok:
                violations += 1
            rows.append(
                {
                    "sizes": list(sizes),
                    "alpha": alpha,
                    "cell_values": sorted(values),
                    "ok": ok,
                }
            )
    return {"cases": rows, "violations": violations, "passed": violations == 0}


def lemma_suite(
    *,
    seed: int = 0,
    max_n: int = 16,
    max_s: int = 4,
    pairs: int = 100,
) -> dict[str, Any]:
    """Run every supporting-lemma check and return one section per lemma,
    each with a ``passed`` flag and its measured margins.  Raises ValueError
    for a grid that would leave a section without cases."""
    _require_minimums(max_n=(max_n, 6), max_s=(max_s, 2), pairs=(pairs, 1))
    sections = {
        "clique_redistribution": _redistribution_lemma(max_n=max_n, max_s=max_s),
        "edge_monotonicity": _edge_monotonicity_lemma(seed=seed, pairs=pairs),
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


def _identity_grid(max_delta: int = 6) -> list[tuple[int, int, int]]:
    """(n, delta, s) triples spanning both sides of s = delta, with n even
    and large enough for every block of the quotient to be nonempty."""
    grid = []
    for delta in range(2, max_delta + 1):
        lo = 7 * delta - 7
        lo += lo % 2
        for s in range(2, delta + 4):
            for n in range(max(lo, 2 * s), 7 * delta + 9, 2):
                grid.append((n, delta, s))
    return grid


def identity_suite(*, max_delta: int = 6) -> dict[str, Any]:
    """Exact-arithmetic checks of the polynomial identities behind the
    threshold, plus the numeric comparison chain that pins the extremal
    graph at the top of the near-threshold family.  Raises ValueError for
    ``max_delta < 2``, which leaves the identity grid empty."""
    _require_minimums(max_delta=(max_delta, 2))
    sections: dict[str, Any] = {}

    # (a) phi_{B_2}(n, s) - phi_{B_*}(n, delta) == (s - delta) * f(n, s, delta), exactly.
    grid = _identity_grid(max_delta)
    mismatches = []
    for n, delta, s in grid:
        lhs = phi_b2(n, s) - phi_bstar(n, delta)
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
        for s in range(delta + 1, delta + 4):
            for n in (7 * delta - 7 + (7 * delta - 7) % 2 + 14,):
                if n < 2 * s or (n - 2 * s + 1) < 1:
                    continue
                margin = threshold_q(n, delta) - perron_q(build_g2(n, s)).value
                ok = ok and margin > 0
                rows.append({"n": n, "delta": delta, "s": s, "threshold_margin": margin})
    sections["large_join_below_threshold"] = {"cases": rows, "passed": ok}

    # (d) the surgery chain: rewiring the layered join strictly raises the
    # radius (Rayleigh quotient certificate + closed form), lands at or
    # below the extremal graph, and the rewired graph embeds in it.
    rows = []
    ok = True
    q_g3 = {}
    for delta in (3, 4, 5):
        for s in range(2, delta):
            n = 7 * delta - 7 + (7 * delta - 7) % 2
            plan = surgery_plan(n, delta, s)
            g3 = build_g3(n, delta, s)
            g4 = build_g4(n, delta, s)
            g3_perron = perron_q(g3)
            x = g3_perron.vector
            q3_matrix = signless_laplacian(g3)
            q4_matrix = signless_laplacian(g4)
            diff_form = float(x @ q4_matrix @ x) - float(x @ q3_matrix @ x)

            cells = g3_cells(n, delta, s)
            values = cell_values(x, cells)
            x2 = values[1]
            x3 = values[-1]
            closed = len(plan.added) * (x2 + x3) ** 2 - len(plan.removed) * (2 * x2) ** 2
            q3 = q_g3[delta, s] = g3_perron.value
            q4 = perron_q(g4).value
            qstar = threshold_q(n, delta)
            containment = g4_containment(n, delta, s)
            case_ok = (
                _cell_spread(x, cells) <= 1e-8
                and diff_form > 0
                and abs(diff_form - closed) <= 1e-6 * max(1.0, abs(closed))
                and q4 - q3 > 1e-6
                and q4 <= qstar + 1e-9
                and containment.embedded
            )
            ok = ok and case_ok
            rows.append(
                {
                    "n": n,
                    "delta": delta,
                    "s": s,
                    "rayleigh_gain": diff_form,
                    "closed_form_gain": closed,
                    "q_g3": q3,
                    "q_g4": q4,
                    "threshold": qstar,
                    "embedding": containment.identity and "identity" or "mapped",
                    "ok": case_ok,
                }
            )
    sections["surgery_chain"] = {"cases": rows, "passed": ok}

    # (e) every admissible layered configuration dominates the general join:
    # q(K_s v union K_{n_i}) <= q(G_3) when all parts are >= delta + 1 - s.
    rows = []
    ok = True
    for delta, s in [(3, 2), (4, 2), (4, 3)]:
        n = 7 * delta - 7 + (7 * delta - 7) % 2
        g3_value = q_g3[delta, s]
        for parts in odd_compositions(n - s, s, minimum=delta + 1 - s):
            value = perron_q(build_g1(s, parts)).value
            margin = g3_value - value
            ok = ok and margin >= -1e-8
            rows.append(
                {"n": n, "delta": delta, "s": s, "parts": list(parts), "margin": margin}
            )
    sections["layered_dominates"] = {"cases": rows, "passed": ok}

    # (f) the threshold root is a signless-Laplacian quantity: the largest
    # real root of the quotient polynomial matches q(G),  not rho(G).
    rows = []
    ok = True
    for n, s in [(8, 2), (14, 3), (20, 4)]:
        root = largest_real_root(phi_b2(n, s), 0, 2 * n)
        g2 = build_g2(n, s)
        q_diff = abs(root - perron_q(g2).value)
        rho_diff = abs(root - perron_rho(g2).value)
        case_ok = q_diff < 1e-8 and rho_diff > 1.0
        ok = ok and case_ok
        rows.append({"n": n, "s": s, "vs_q": q_diff, "vs_rho": rho_diff, "ok": case_ok})
    sections["root_semantics"] = {"cases": rows, "passed": ok}

    sections["all_passed"] = all(
        section["passed"] for section in sections.values() if isinstance(section, dict)
    )
    return sections


# ---------------------------------------------------------------------------
# agreement study


def agreement_study(
    n: int,
    *,
    connected_only: bool = False,
    samples: int | None = None,
    p: float = 0.5,
    seed: int = 0,
    max_order: int = DEFAULT_ENUM_ORDER,
) -> dict[str, Any]:
    """Cross-tabulate the parity-subset criterion against the exact
    even-factor test over a population of graphs of even order ``n``:
    either every labeled graph (optionally connected-only, with
    ``max_order`` capping the enumeration) or a seeded random sample.
    Off-diagonal graphs are listed in graph6 form.

    An exhaustive census runs :func:`~qfactor.factors.factor_verdict` once
    per isomorphism class, on the class's lowest edge mask, and counts the
    verdict for every labeled graph in the class.  That is exact: a
    relabeling pi maps o(G - S) to o(G' - pi(S)), maps even factors to even
    factors and preserves connectivity, so the agreement class is constant
    on each orbit.  Counts
    and the graph6 of each labeled disagreement come out in ascending
    edge-mask order, as in a per-graph pass over every labeled graph.
    """
    if n % 2 == 1:
        raise ValueError("agreement study requires even order")
    def agreement(g: Graph) -> str:
        return factor_verdict(g).agreement

    counts = {name: 0 for name in AGREEMENT_CLASSES}
    disagreements: dict[str, list[str]] = {
        "criterion_yes_factor_no": [],
        "criterion_no_factor_yes": [],
    }
    if samples is None:
        mode = "exhaustive"
        labels, representatives = isomorphism_classes(n, max_order=max_order)
        by_class = [
            agreement(g) if not connected_only or is_connected(g) else None
            for g in representatives
        ]
        encode = mask_graph6_encoder(n, max_order=max_order)
        for mask, label in enumerate(labels):
            verdict = by_class[label]
            if verdict is not None:
                counts[verdict] += 1
                if verdict in disagreements:
                    disagreements[verdict].append(encode(mask))
    else:
        mode = "sampled"
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {samples}")
        if connected_only and (n == 0 or (p == 0 and n >= 2)):
            raise ValueError(
                f"no connected graph can be drawn with n={n}, p={p}")
        stream = splitmix64(seed)
        produced = 0
        rejected = 0
        while produced < samples:
            g = random_graph(n, p, next(stream))
            if connected_only and not is_connected(g):
                rejected += 1
                if rejected == MAX_REJECTED_DRAWS:
                    raise ValueError(
                        f"no connected graph in {rejected} draws in a row "
                        f"with n={n}, p={p}")
                continue
            rejected = 0
            produced += 1
            verdict = agreement(g)
            counts[verdict] += 1
            if verdict in disagreements:
                disagreements[verdict].append(write_graph6(g))

    return {
        "n": n,
        "mode": mode,
        "connected_only": connected_only,
        "p": p if mode == "sampled" else None,
        "seed": seed if mode == "sampled" else None,
        "total": sum(counts.values()),
        "counts": counts,
        "disagreements": disagreements,
        "criterion_matches_factor": not disagreements["criterion_yes_factor_no"]
        and not disagreements["criterion_no_factor_yes"],
    }
