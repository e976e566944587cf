"""Theorem checking and stream verification.

The theorem under test: a connected graph of even order ``n`` with minimum
degree ``delta >= 2`` and ``n >= 7*delta - 7`` has an even factor (a spanning
subgraph with every degree positive and even) whenever its signless-Laplacian
spectral radius is at least the radius of the extremal graph
``K_delta v (K_{n-2*delta+1} u (delta-1)K_1)`` — with that extremal graph
itself the unique exception.  ``G*(n, delta)`` itself *has* an even factor
(a Hamiltonian cycle, for one); it is the unique exception for the
parity criterion, which it fails on its join cell, not for even factors.

:func:`check_theorem_instance` and :func:`verify_stream` classify graphs
against that statement in two steps.  ``_applicable`` checks the
hypotheses, which need no Perron value, so they run on a whole chunk of
lines (read by graphs.chunk_rows, as spectrum and factor read theirs)
before its eigh stack is built.  ``_decide`` then takes each applicable
graph with its q through the threshold, the recognizer and the
exact even-factor test :func:`~qfactor.factors.even_factor` (the
two-factor fast path, else one perfect-matching question on a gadget).
Above the threshold, a non-extremal graph is ``confirmed_factor``
with a checked edge list, or a ``counterexample`` whose ``no_even_factor``
witness rests on a checked Tutte barrier of the gadget (or a vertex of
degree below 2).  Every such graph is decided; no size guard applies.

The threshold itself is the largest real root of the closed-form integer
polynomial phi_bstar, checked equal to the quotient polynomial counted from
the built extremal graph, then bisected in integers and correctly rounded
to a double.  q is an eigh value behind the residual gate, so only a q more
than :data:`EPS` below the threshold counts as below it.

The lemma and identity suites live in suites, and the
criterion-vs-even-factor census in census, so ``verify`` compiles neither.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Iterable, NamedTuple, Sequence

from .extremal import recognize_gstar, threshold_q
from .factors import even_factor
from .graphs import Graph, chunk_rows, is_connected, line_chunks, min_degree
from .spectra import perron_many

# A graph is below the threshold only when its q is more than EPS below it.
EPS = 1e-8

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


class TheoremOutcome(NamedTuple):
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

    def as_row(self) -> dict[str, Any]:
        """The fields in order, without ``note`` when it is None."""
        return {k: v for k, v in self._asdict().items() if k != "note" or v is not None}


def _applicable(g: Graph) -> TheoremOutcome | int:
    """The theorem's hypotheses: the ``not_applicable`` outcome, or delta.

    Even order >= 8, connected, and ``delta = min(delta(G), floor((n+7)/7))
    >= 2``: a minimum degree above what the order supports is capped, which
    is sound because the hypothesis only bounds it from below.  Below order
    8 that cap is 1, so no graph is applicable whatever its degrees."""
    n = g.n
    if n < 8 or n % 2 == 1:
        return TheoremOutcome("not_applicable", note="order must be even and at least 8")
    if not is_connected(g):
        return TheoremOutcome("not_applicable", note="graph is disconnected")
    delta = min(min_degree(g), max_theorem_delta(n))
    if delta < 2:
        return TheoremOutcome("not_applicable", note="minimum degree below 2")
    return delta


def _decide(g: Graph, delta: int, q: float) -> TheoremOutcome:
    """The verdict on an applicable graph with Perron value q: below the
    threshold, the extremal graph itself, or else the exact even-factor
    test's confirmed factor or counterexample."""
    threshold = threshold_q(g.n, delta)
    if q < threshold - EPS:
        return TheoremOutcome("below_threshold", q, threshold, delta)
    if recognize_gstar(g) == (g.n, delta):
        return TheoremOutcome("extremal_match", q, threshold, delta)
    factor = even_factor(g)
    if factor is None:
        return TheoremOutcome("counterexample", q, threshold, delta, {"kind": "no_even_factor"})
    return TheoremOutcome("confirmed_factor", q, threshold, delta,
                          {"kind": "even_factor", "edges": [list(e) for e in factor]})


def _classify(graphs: Sequence[Graph]) -> list[Any]:
    """Each graph's outcome, or the error that stopped it (the residual
    gate or LinAlgError, a rejected certificate, the threshold
    cross-check).  The hypotheses need no Perron value, so the applicable
    graphs get theirs from one perron_many call, one eigh per order."""
    results: list[Any] = [_applicable(g) for g in graphs]
    pending = [i for i, result in enumerate(results) if isinstance(result, int)]
    for i, q in zip(pending, perron_many([graphs[i] for i in pending], 1)):
        if isinstance(q, Exception):
            results[i] = q
            continue
        try:
            results[i] = _decide(graphs[i], results[i], q)
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            results[i] = exc
    return results


def check_theorem_instance(g: Graph) -> TheoremOutcome:
    """Classify one graph: the one-graph case of the classifier that
    :func:`verify_stream` runs per chunk, raising the error that stops the
    graph."""
    result = _classify([g])[0]
    if isinstance(result, Exception):
        raise result
    return result


# ---------------------------------------------------------------------------
# stream verification


def _classify_rows(graphs: Sequence[Graph]) -> list[Any]:
    """verify's fields_of for chunk_rows: each graph's outcome row or error."""
    return [result if isinstance(result, Exception) else result.as_row()
            for result in _classify(graphs)]


def verify_stream(lines: Iterable[str], *, jobs: int = 1) -> dict[str, Any]:
    """Classify every graph6 line of a stream.

    The lines are read in chunks as spectrum and factor read theirs
    (graphs.chunk_rows): malformed lines and instances whose numeric or
    certificate checks fail become error rows, which make the run a usage
    failure but do not stop it.  A chunk costs one eigh call per graph
    order.  With ``jobs > 1`` the chunks fan out over a process pool; rows
    come in input order either way, so reports are independent of ``jobs``.
    """
    chunks = line_chunks(lines)
    classify = partial(chunk_rows, _classify_rows)
    if jobs > 1 and len(chunks) > 1:
        import multiprocessing

        import numpy  # before the fork, so workers inherit it instead of each importing it

        with multiprocessing.Pool(processes=min(jobs, len(chunks))) as pool:
            done = pool.map(classify, chunks, chunksize=1)
    else:
        done = map(classify, chunks)
    rows = [row for chunk in done for row in chunk]

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
