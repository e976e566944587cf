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
against that statement in two steps, each of which may give verify's row.
``_applicable`` checks the hypotheses, which need no Perron value, so they
run on a whole chunk of lines (read by graphs.chunk_rows, as spectrum and
factor read theirs) before its eigh stack is built, and gives the
``not_applicable`` row or delta.  ``_decide`` then takes each applicable
graph with its q through the threshold, the recognizer and the exact
even-factor test :func:`~qfactor.factors.even_factor` (the two-factor fast
path, else one perfect-matching question on a gadget) to its row.
Above the threshold, a non-extremal graph is ``confirmed_factor``
with a checked edge list, or a ``counterexample`` whose ``no_even_factor``
witness rests on a checked Tutte barrier of the gadget (or a vertex of
degree below 2).  Every such graph is decided; no size guard applies.
A check that fails raises, and chunk_rows makes that the line's error row.

The threshold itself is the largest real root of the closed-form integer
polynomial phi_bstar, checked equal to the quotient polynomial counted from
the built extremal graph, then bisected in integers and correctly rounded
to a double.  q is an eigh value behind the residual gate, so only a q more
than :data:`EPS` below the threshold counts as below it.

The lemma and identity suites live in suites, and the
criterion-vs-even-factor census in census, so ``verify`` compiles neither.
With ``jobs > 1`` it runs min(jobs, chunks, usable CPUs) workers, this
process among them, so ``--jobs 2`` forks one child; each child sends its
rows back over a pipe while this process classifies a share of its own.
One worker is the same code with no child.
"""

from __future__ import annotations

import os
from typing import Any, Iterable, Sequence

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


def _row(classification: str, q: float | None = None, threshold: float | None = None,
         delta: int | None = None, witness: dict[str, Any] | None = None,
         **note: str) -> dict[str, Any]:
    """verify's fields of one graph.  ``witness`` is an even factor's edge
    list, ``{"kind": "no_even_factor"}`` or None; a ``note`` explains a
    ``not_applicable`` row and appears on no other."""
    return {"classification": classification, "q": q, "threshold": threshold,
            "delta": delta, "witness": witness, **note}


def _applicable(g: Graph) -> dict[str, Any] | int:
    """The theorem's hypotheses: the ``not_applicable`` row, or delta.

    Even order >= 8, connected, and ``delta = min(delta(G), floor((n+7)/7))
    >= 2``: a minimum degree above what the order supports is capped, which
    is sound because the hypothesis only bounds it from below.  Below order
    8 that cap is 1, so no graph is applicable whatever its degrees."""
    n = g.n
    if n < 8 or n % 2 == 1:
        return _row("not_applicable", note="order must be even and at least 8")
    if not is_connected(g):
        return _row("not_applicable", note="graph is disconnected")
    delta = min(min_degree(g), max_theorem_delta(n))
    if delta < 2:
        return _row("not_applicable", note="minimum degree below 2")
    return delta


def _decide(g: Graph, delta: int, q: float) -> dict[str, Any]:
    """The row of an applicable graph with Perron value q: below the
    threshold, the extremal graph itself, or else the exact even-factor
    test's confirmed factor or counterexample."""
    threshold = threshold_q(g.n, delta)
    if q < threshold - EPS:
        return _row("below_threshold", q, threshold, delta)
    if recognize_gstar(g) == (g.n, delta):
        return _row("extremal_match", q, threshold, delta)
    factor = even_factor(g)
    if factor is None:
        return _row("counterexample", q, threshold, delta, {"kind": "no_even_factor"})
    return _row("confirmed_factor", q, threshold, delta, {"kind": "even_factor", "edges": factor})


def _classify(graphs: Sequence[Graph]) -> list[dict[str, Any]]:
    """Each graph's row. The hypotheses need no Perron value, so the
    applicable graphs get theirs from one perron_many call, one eigh per
    order. An error (the residual gate or LinAlgError, a rejected
    certificate, the threshold cross-check) raises."""
    results: list[Any] = [_applicable(g) for g in graphs]
    pending = [i for i, result in enumerate(results) if isinstance(result, int)]
    for i, q in zip(pending, perron_many([graphs[i] for i in pending], 1)):
        results[i] = _decide(graphs[i], results[i], q)
    return results


def check_theorem_instance(g: Graph) -> dict[str, Any]:
    """verify's row of one graph, without line and graph6: the one-graph
    case of the classifier that :func:`verify_stream` runs per chunk,
    raising the error that stops the graph."""
    return _classify([g])[0]


# ---------------------------------------------------------------------------
# stream verification


def _fan_out(chunks: Sequence, workers: int) -> list:
    """Each chunk's rows, in input order, from ``workers`` processes, this
    one included.  One worker classifies every chunk here and forks
    nothing.  Otherwise child k classifies chunks ``k::workers`` and pickles
    its rows to a pipe, while this process classifies chunks ``0::workers``,
    then reads each pipe.  Every child is reaped before this returns or
    raises.  A child that exits nonzero or is killed raises RuntimeError;
    an error in this process's own share, or in reading a pipe, kills the
    children and propagates."""
    if workers <= 1:
        return [chunk_rows(_classify, chunk) for chunk in chunks]
    import pickle

    import numpy  # before the fork, so the children inherit it instead of each importing it

    readers: list = []
    pids: list[int] = []
    try:
        for k in range(1, workers):
            read_fd, write_fd = os.pipe()
            readers.append(open(read_fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    # The child: close the read ends (so a parent that stops
                    # reading makes the write fail instead of block), send
                    # the rows, and leave by os._exit, never returning here.
                    code = 1
                    try:
                        for reader in readers:
                            reader.close()
                        with open(write_fd, "wb") as out:
                            pickle.dump([chunk_rows(_classify, c) for c in chunks[k::workers]],
                                        out, pickle.HIGHEST_PROTOCOL)
                        code = 0
                    except Exception:
                        import traceback

                        traceback.print_exc()
                    finally:
                        os._exit(code)
            finally:
                os.close(write_fd)  # this process's copy
            pids.append(pid)
        own = [chunk_rows(_classify, chunk) for chunk in chunks[0::workers]]
        sent = [reader.read() for reader in readers]
    except BaseException:
        import signal

        for pid in pids:  # their rows would be discarded: stop them instead of waiting
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for reader in readers:
            reader.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for pid, code in zip(pids, codes):
        if code < 0:
            raise RuntimeError(f"verify worker {pid} was killed by signal {-code}")
        if code:
            raise RuntimeError(f"verify worker {pid} exited with status {code}")
    done: list = [None] * len(chunks)
    done[0::workers] = own
    for k, data in enumerate(sent, start=1):
        done[k::workers] = pickle.loads(data)
    return done


def verify_stream(lines: Iterable[str], *, jobs: int = 1) -> dict[str, Any]:
    """Classify every graph6 line of a stream.

    The lines are read in chunks as spectrum and factor read theirs
    (graphs.chunk_rows): malformed lines and instances whose numeric or
    certificate checks raise become error rows, which make the run a usage
    failure but do not stop it.  A chunk costs one eigh call per graph
    order.  With ``jobs > 1`` the chunks are dealt round-robin over at most
    ``jobs`` processes, this one included, no more than the chunks and the
    usable CPUs (:func:`_fan_out`); one worker, as without ``os.fork``,
    forks nothing.  Rows come in input order either way, so reports are
    independent of ``jobs``.
    """
    chunks = line_chunks(lines)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(jobs, len(chunks), cpus or 1) if hasattr(os, "fork") else 1
    rows = [row for chunk in _fan_out(chunks, workers) for row in chunk]

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
    }
