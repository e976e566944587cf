"""Theorem checking, stream verification, and empirical study runners.

The theorem under test: a connected graph of even order ``n`` with minimum
degree ``delta >= 2`` and ``n >= 7*delta - 7`` has an even factor (a spanning
subgraph with every degree positive and even) whenever its signless-Laplacian
spectral radius is at least the radius of the extremal graph
``K_delta v (K_{n-2*delta+1} u (delta-1)K_1)`` — with that extremal graph
itself the unique exception.  ``G*(n, delta)`` itself *has* an even factor
(a Hamiltonian cycle, for one); it is the unique exception for the
parity criterion, which it fails on its join cell, not for even factors.

:func:`check_theorem_instance` classifies one graph against that statement.
The ladder is threshold, recognizer, then the exact even-factor test
:func:`~qfactor.factors.even_factor` (the two-factor fast path, else one
perfect-matching question on a gadget).  Above the threshold, a
non-extremal graph is ``confirmed_factor`` with a checked edge list, or a
``counterexample`` whose ``no_even_factor`` witness rests on a checked
Tutte barrier of the gadget (or a vertex of degree below 2).  Every such
graph is decided; no size guard applies.

The threshold itself is the largest real root of an exact integer
characteristic polynomial, isolated by a Sturm chain with integer signs at
dyadic points and correctly rounded to a double, then cross-checked against
a directly computed spectral radius, so a near-band instance cannot be
misclassified by float drift greater than the stated ``eps``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

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
    strong_tutte_check,
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
    is_equitable,
    largest_real_root,
    perron,
    perron_many,
    perron_q,
    perron_rho,
    quadratic_form,
    quotient_matrix,
    signless_laplacian,
)

DEFAULT_ENUM_ORDER = 7
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

    def as_row(self, graph6: str | None = None) -> dict[str, Any]:
        row = {
            "classification": self.classification,
            "q": self.q,
            "threshold": self.threshold,
            "delta": self.delta,
            "witness": self.witness,
        }
        if graph6 is not None:
            row["graph6"] = graph6
        if self.note is not None:
            row["note"] = self.note
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


def _gate(g: Graph) -> TheoremOutcome | int:
    """The pre-spectral gate: a not_applicable outcome, or the effective
    degree parameter ``min(delta(G), floor((n+7)/7))``.

    A graph whose minimum degree exceeds what its order supports is tested
    against the largest admissible parameter, which is sound because the
    theorem's hypothesis only bounds the minimum degree from below.
    """
    n = g.n
    if n < 4 or n % 2 == 1:
        return TheoremOutcome("not_applicable", note="order must be even and at least 4")
    if not is_connected(g):
        return TheoremOutcome("not_applicable", note="graph is disconnected")
    delta = min(min_degree(g), max_theorem_delta(n))
    if delta < 2:
        return TheoremOutcome("not_applicable", note="minimum degree below 2")
    return delta


def check_theorem_instance(g: Graph, *, eps: float = DEFAULT_EPS) -> TheoremOutcome:
    """Classify one graph.  See the module docstring for the ladder.

    The one-graph case of :func:`verify_stream`: the same gate and ladder
    around :func:`~qfactor.spectra.perron_q`.
    """
    gate = _gate(g)
    if isinstance(gate, TheoremOutcome):
        return gate
    return _ladder(g, perron_q(g).value, gate, eps)


def _ladder(g: Graph, q: float, delta: int, eps: float) -> TheoremOutcome:
    """The rungs after the gate, given the graph's Perron value q."""
    n = g.n
    threshold = threshold_q(n, delta)
    if q < threshold - eps:
        return TheoremOutcome("below_threshold", q, threshold, delta)

    rec = recognize_gstar(g)
    if rec == (n, delta):
        return TheoremOutcome("extremal_match", q, threshold, delta)

    factor = even_factor(g)
    if factor is None:
        return TheoremOutcome("counterexample", q, threshold, delta,
                              witness={"kind": "no_even_factor"})
    return TheoremOutcome(
        "confirmed_factor",
        q,
        threshold,
        delta,
        witness={"kind": "even_factor", "edges": [list(e) for e in factor]},
    )


# ---------------------------------------------------------------------------
# stream verification


# Lines classified together: one eigh call per graph order per chunk, and the
# unit of work of the process pool. 128 lines keep a Q stack under 4 MB even
# at n = 62, and leave the pool enough chunks to balance streams whose
# costly lines cluster (on the benchmark sweep, 256 made --jobs 2 slower).
CHUNK_LINES = 128

def _row(lineno: int, text: str, result: TheoremOutcome | Exception) -> dict[str, Any]:
    if isinstance(result, Exception):
        return {"line": lineno, "graph6": text, "error": str(result)}
    row = result.as_row(graph6=graph6_payload(text))
    row["line"] = lineno
    return row


def _classify_chunk(chunk: Sequence[tuple[int, str]], eps: float) -> list[dict[str, Any]]:
    """Rows of a chunk of (line number, stripped text) pairs.

    Every line is parsed and gated first; the applicable graphs then get
    their Perron values from one perron_many call (one eigh per order), and
    each runs the ladder with its q.  A failing line becomes its error row
    and the run goes on: Graph6Error, the perron residual gate or
    LinAlgError, a rejected certificate or the threshold cross-check.
    """
    results: list[Any] = [None] * len(chunk)
    pending = []
    for pos, (_, text) in enumerate(chunk):
        try:
            g = parse_graph6(text)
        except Graph6Error as exc:
            results[pos] = exc
            continue
        gate = _gate(g)
        if isinstance(gate, TheoremOutcome):
            results[pos] = gate
        else:
            pending.append((pos, g, gate))
    spectra = perron_many([g for _, g, _ in pending], 1)
    for (pos, g, delta), pd in zip(pending, spectra):
        try:
            results[pos] = pd if isinstance(pd, Exception) else _ladder(
                g, pd.value, delta, eps)
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            results[pos] = exc
    return [_row(lineno, text, r) for (lineno, text), r in zip(chunk, results)]


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

        with multiprocessing.Pool(processes=min(jobs, len(chunks))) as pool:
            done = pool.map(classify, chunks, chunksize=1)
    else:
        done = map(classify, chunks)
    rows = [row for chunk_rows in done for row in chunk_rows]

    counts = {name: 0 for name in CLASSIFICATIONS}
    # Benchmark holdover, always 0: perfbench/test_perfbench.py increments
    # this key, and perfbench/ changes only in a benchmark change.
    counts["undecided"] = 0
    errors = 0
    counterexamples = []
    for row in rows:
        if "error" in row:
            errors += 1
            continue
        counts[row["classification"]] += 1
        if row["classification"] == "counterexample":
            counterexamples.append(row["graph6"])
    return {
        "items": rows,
        "counts": counts,
        "errors": errors,
        "total": len(rows),
        "counterexamples": counterexamples,
    }


# ---------------------------------------------------------------------------
# sharpness probe


def sharpness_probe(
    n: int,
    delta: int,
    *,
    eps: float = DEFAULT_EPS,
    perturbations: bool = True,
) -> dict[str, Any]:
    """Measure — without asserting — how tight the threshold is at the
    extremal graph: its radius vs the threshold root, whether the criterion
    fails and on which blocking set, its even factor, and what
    happens to the radius under every single-edge addition and deletion
    (additions that clear the threshold are checked against the recognizer,
    probing uniqueness of the exceptional graph)."""
    g = build_gstar(n, delta)
    q = perron_q(g).value
    threshold = threshold_q(n, delta)
    join_cell = tuple(range(delta))

    result: dict[str, Any] = {
        "n": n,
        "delta": delta,
        "graph6": write_graph6(g),
        "q": q,
        "threshold": threshold,
        "q_minus_threshold": q - threshold,
        "meets_threshold": q >= threshold - eps,
        "join_cell": list(join_cell),
    }

    holds, blocking = strong_tutte_check(g)
    result["criterion_holds"] = holds
    result["blocking_set"] = list(blocking) if blocking is not None else None
    result["blocking_set_is_join_cell"] = blocking == join_cell

    factor = even_factor(g)
    result["even_factor"] = [list(e) for e in factor] if factor is not None else None
    result["has_even_factor"] = factor is not None

    if perturbations:
        additions = []
        edge_set = set(g.edges())
        for u, v in itertools.combinations(range(n), 2):
            if (u, v) in edge_set:
                continue
            h = g.add_edges([(u, v)])
            hq = perron_q(h).value
            additions.append(
                {
                    "edge": [u, v],
                    "q": hq,
                    "ge_threshold": hq >= threshold - eps,
                    "is_extremal_graph": recognize_gstar(h) == (n, delta),
                }
            )
        deletions = []
        for u, v in g.edges():
            h = g.remove_edges([(u, v)])
            hq = perron_q(h).value
            deletions.append(
                {"edge": [u, v], "q": hq, "ge_threshold": hq >= threshold - eps}
            )
        result["additions"] = additions
        result["deletions"] = deletions
        result["additions_above_threshold"] = sum(
            1 for row in additions if row["ge_threshold"]
        )
        result["deletions_above_threshold"] = sum(
            1 for row in deletions if row["ge_threshold"]
        )
    return result


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


def _q_values(graphs: Sequence[Graph]) -> list[float]:
    """Signless-Laplacian radii from one perron_many call, raising the first
    error as perron_q would."""
    out = []
    for result in perron_many(graphs, 1):
        if isinstance(result, Exception):
            raise result
        out.append(result.value)
    return out


def _redistribution_lemma(
    *, max_n: int, max_s: int, tol: float, strict_margin: float, eq_tol: float
) -> dict[str, Any]:
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
        if left > right + tol:
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
        and (strict == 0 or min_strict > strict_margin)
        and max_eq_dev <= eq_tol,
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
    min_margin = min((margin for margin in margins if margin > 0), default=math.inf)
    return {
        "pairs": len(margins),
        "violations": violations,
        "min_margin": min_margin,
        "passed": violations == 0 and min_margin > 0,
    }


def _gstar_grid(max_order: int = 18) -> list[tuple[int, int]]:
    grid = []
    for delta in (2, 3):
        for n in range(max(2 * delta + 2, 7 * delta - 7 + (7 * delta - 7) % 2), max_order + 1, 2):
            grid.append((n, delta))
    return grid


def _quotient_radius_lemma(*, det_eval_max_order: int) -> dict[str, Any]:
    """For the extremal graph's equitable partition, the largest real root
    of the quotient characteristic polynomial equals the full
    signless-Laplacian radius; additionally the quotient's characteristic
    polynomial divides the exact order-n integer characteristic polynomial
    (Godsil & Royle, Algebraic Graph Theory, section 9.3), checked by exact
    long division: both are monic, so the quotient and remainder are
    integral."""
    rows = []
    max_root_diff = 0.0
    for n, delta in _gstar_grid():
        g = build_gstar(n, delta)
        q_matrix = signless_laplacian(g)
        cells = gstar_cells(n, delta)
        equitable = is_equitable(q_matrix, cells)
        quotient = quotient_matrix(q_matrix, cells)
        poly = char_poly(quotient)
        root = largest_real_root(poly, 0, 2 * n)
        direct = perron_q(g).value
        diff = abs(root - direct)
        max_root_diff = max(max_root_diff, diff)
        row = {"n": n, "delta": delta, "equitable": equitable, "root_vs_perron": diff}
        if n <= det_eval_max_order:
            row["divides"] = (char_poly(q_matrix) % poly).is_zero()
        rows.append(row)
    all_divide = all(r.get("divides", True) for r in rows)
    return {
        "cases": rows,
        "max_root_vs_perron": max_root_diff,
        "all_divide": all_divide,
        "all_equitable": all(r["equitable"] for r in rows),
        "passed": all(r["equitable"] for r in rows)
        and max_root_diff < 1e-8
        and all_divide,
    }


def _eigenvector_cell_lemma(*, tol: float) -> dict[str, Any]:
    """Perron vectors are constant on the cells of the equitable partition,
    for both the adjacency and signless-Laplacian matrices."""
    rows = []
    max_spread = 0.0
    for n, delta in _gstar_grid():
        g = build_gstar(n, delta)
        cells = gstar_cells(n, delta)
        for label, data in (("q", perron_q(g)), ("rho", perron_rho(g))):
            spreads = []
            for cell in cells:
                values = [float(data.vector[v]) for v in cell]
                spreads.append(max(values) - min(values))
            cell_values(data, cells, tol=tol)  # raises CellSpreadError on failure
            spread = max(spreads)
            max_spread = max(max_spread, spread)
            rows.append({"n": n, "delta": delta, "matrix": label, "max_spread": spread})
    return {"cases": rows, "max_spread": max_spread, "passed": bool(max_spread < tol)}


def _cell_ordering_lemma(*, eq_tol: float, strict_floor: float) -> dict[str, Any]:
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
            values = cell_values(data, cells)[1:]  # skip the join cell
            ordered = sorted(range(len(sizes)), key=lambda i: sizes[i])
            ok = True
            for a, b in zip(ordered, ordered[1:]):
                if sizes[a] == sizes[b]:
                    if abs(values[a] - values[b]) > eq_tol:
                        ok = False
                else:
                    if values[b] - values[a] <= strict_floor:
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
    tol: float = 1e-8,
    strict_margin: float = 1e-6,
    eq_tol: float = 1e-9,
    det_eval_max_order: int = 20,
) -> dict[str, Any]:
    """Run every supporting-lemma check and return one section per lemma,
    each with a ``passed`` flag and its measured margins."""
    sections = {
        "clique_redistribution": _redistribution_lemma(
            max_n=max_n, max_s=max_s, tol=tol, strict_margin=strict_margin, eq_tol=eq_tol
        ),
        "edge_monotonicity": _edge_monotonicity_lemma(seed=seed, pairs=pairs),
        "quotient_radius": _quotient_radius_lemma(det_eval_max_order=det_eval_max_order),
        "eigenvector_cells": _eigenvector_cell_lemma(tol=tol),
        "cell_ordering": _cell_ordering_lemma(eq_tol=1e-8, strict_floor=1e-9),
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


def identity_suite(
    *, max_delta: int = 6, strict_margin: float = 1e-6, slack: float = 1e-9
) -> dict[str, Any]:
    """Exact-arithmetic checks of the polynomial identities behind the
    threshold, plus the numeric comparison chain that pins the extremal
    graph at the top of the near-threshold family."""
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
            diff_form = quadratic_form(q4_matrix, x) - quadratic_form(q3_matrix, x)

            values = cell_values(g3_perron, g3_cells(n, delta, s))
            x2 = values[1]
            x3 = values[-1]
            closed = len(plan.added) * (x2 + x3) ** 2 - len(plan.removed) * (2 * x2) ** 2
            q3 = q_g3[delta, s] = g3_perron.value
            q4 = perron_q(g4).value
            qstar = threshold_q(n, delta)
            containment = g4_containment(n, delta, s)
            case_ok = (
                diff_form > 0
                and abs(diff_form - closed) <= 1e-6 * max(1.0, abs(closed))
                and q4 - q3 > strict_margin
                and q4 <= qstar + slack
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
    edge-mask order, as in a per-graph pass over
    :func:`~qfactor.graphs.enumerate_labeled`.
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
