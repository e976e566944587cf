"""Spectral machinery: Perron values, equitable quotients, exact polynomials.

Two arithmetic regimes coexist on purpose and are kept separate:

* float64 + LAPACK ``eigh`` for the Perron value of ``alpha*D + A``, each
  graph solved whole behind a hard residual gate. The matrices are
  unpacked from the bitrows by numpy, and perron_many stacks many graphs
  by order, so each order costs one ``eigh`` call; stacked and one-matrix
  calls give bitwise-equal values, so a value does not depend on which
  graphs share its call. A failure raises: graphs.chunk_rows re-runs the
  chunk one graph at a time, which gives the same values for the others.
  This regime imports numpy on its first call, so a process that stays in
  the exact regime never loads it;
* exact integer arithmetic: quotient matrices counted from the bitrows (over
  given cells or the coarsest equitable partition), characteristic
  polynomials (Hessenberg reduction modulo a prime above twice the
  coefficient bound, O(n**3)) and the largest root of such a polynomial,
  bracketed around a float Newton estimate where integer signs prove the
  ends, then bisected over dyadic points by the integer signs of the
  polynomial and its derivatives until it is correctly rounded to a double.
  quotient_root chains the three. The same signs (above_roots) prove that a
  polynomial has no root at or above a given double.

A graph whose equitable partition is known (the extremal families, the
threshold, the lemma and identity suites) gets its radius from
quotient_root. Only arbitrary input graphs, in ``spectrum`` and
``verify``, take theirs from the float regime, one perron_many call per
chunk of input lines. Nothing here collapses the two.
"""

from __future__ import annotations

import math
from operator import mul
from typing import TYPE_CHECKING, Sequence

from .graphs import Graph

if TYPE_CHECKING:
    import numpy as np


# Hard gate on ||M x - value x||_inf. eigh stays below 2e-13 on random
# graphs, K_n and G*(n, delta) up to n = 62, the graph6 short-form limit.
RESIDUAL_GATE = 1e-11


def _alpha_stack(graphs: Sequence[Graph], alpha: int) -> np.ndarray:
    """alpha*D + A of graphs of one order n as one (len(graphs), n, n) stack,
    unpacked from the bitrows by numpy."""
    import numpy as np

    if alpha not in (0, 1):
        raise ValueError("alpha must be 0 or 1")
    n = graphs[0].n
    width = (n + 7) // 8
    raw = b"".join(row.to_bytes(width, "little") for g in graphs for row in g.rows)
    packed = np.frombuffer(raw, np.uint8).reshape(len(graphs), n, width)
    m = np.unpackbits(packed, axis=2, count=n, bitorder="little").astype(float)
    if alpha:
        diagonal = np.arange(n)
        m[:, diagonal, diagonal] = m.sum(axis=2)
    return m


def perron_many(graphs: Sequence[Graph], alpha: int) -> list[float]:
    """The Perron value of alpha*D + A for each graph.

    Each graph is one matrix in the stack of its order, so each order costs
    one LAPACK eigh call. The value is the largest eigenvalue; the spectrum
    of a disjoint union is the union of its parts' spectra, so for a
    disconnected graph it is the largest over its components. A value is
    returned only once its eigenvector x, taken nonnegative, passes the
    residual gate; ArithmeticError if ||M x - value x||_inf exceeds
    RESIDUAL_GATE, ValueError for order 0 or from eigh (LinAlgError).
    graphs.chunk_rows retries a failed chunk line by line. One stack holds
    every graph of an order, so the caller bounds memory by the number of
    graphs it passes.
    """
    out = [0.0] * len(graphs)
    by_order: dict[int, list[int]] = {}
    for i, g in enumerate(graphs):
        if g.n == 0:
            raise ValueError("graph must be nonempty")
        by_order.setdefault(g.n, []).append(i)
    for members in by_order.values():
        import numpy as np  # here, so a call with nothing to solve never loads it

        stack = _alpha_stack([graphs[i] for i in members], alpha)
        values, vectors = np.linalg.eigh(stack)
        top = values[:, -1]
        x = np.abs(vectors[:, :, -1])
        residual = np.abs((stack @ x[:, :, None])[:, :, 0] - top[:, None] * x).max(axis=1)
        for i, value, r in zip(members, top.tolist(), residual.tolist()):
            if not r <= RESIDUAL_GATE:  # NaN fails too
                raise ArithmeticError(
                    f"eigenpair residual {r:.3e} exceeds gate {RESIDUAL_GATE:.0e}")
            out[i] = value
    return out


# ---------------------------------------------------------------------------
# partitions and exact quotients

Cells = Sequence[Sequence[int]]


def _check_partition(n: int, cells: Cells) -> list[list[int]]:
    norm = [sorted(int(v) for v in cell) for cell in cells]
    flat = [v for cell in norm for v in cell]
    if not norm or any(not cell for cell in norm):
        raise ValueError("cells must be nonempty")
    if sorted(flat) != list(range(n)):
        raise ValueError("cells must partition 0..n-1")
    return norm


def quotient(g: Graph, cells: Cells, alpha: int = 1) -> list[list[int]] | None:
    """The quotient of alpha*D + A over an equitable partition, or None:
    of Q for alpha = 1, of A for 0, as in perron_many.

    Entry (r, c) is the matrix's row sum over cell c for a vertex i of cell
    r: the neighbours of i in c, plus alpha*deg(i) when c is r. The
    partition is equitable when these counts agree for every vertex of each
    cell, and then its quotient's characteristic polynomial divides the
    matrix's (Godsil & Royle, Algebraic Graph Theory, section 9.3). Counted
    in integers from the bitrows; the discrete partition gives the matrix
    itself.
    """
    norm = _check_partition(g.n, cells)
    masks = [sum(1 << v for v in cell) for cell in norm]
    out = []
    for r, cell in enumerate(norm):
        sums = {tuple((g.rows[i] & mask).bit_count() for mask in masks) for i in cell}
        if len(sums) > 1:
            return None
        row = list(sums.pop())
        row[r] += alpha * g.rows[cell[0]].bit_count()
        out.append(row)
    return out


def equitable_partition(g: Graph) -> list[list[int]]:
    """The coarsest equitable partition of g, by colour refinement from one
    cell: each round splits every cell by how many neighbours a vertex has in
    each cell, until no cell splits. Cells are listed by least vertex."""
    cells = [list(range(g.n))]
    while True:
        masks = [sum(1 << v for v in cell) for cell in cells]
        split: dict[tuple, list[int]] = {}
        for i, cell in enumerate(cells):
            for v in cell:
                key = (i, tuple((g.rows[v] & mask).bit_count() for mask in masks))
                split.setdefault(key, []).append(v)
        if len(split) == len(cells):
            return cells
        cells = sorted(split.values())


# ---------------------------------------------------------------------------
# exact integer polynomials: tuples of int coefficients, ascending by degree

_PRIMES = ((1 << 61) - 1, (1 << 127) - 1, (1 << 521) - 1)  # Mersenne


def char_poly(a: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """det(xI - A) for the integer rows of a square matrix (as quotient
    returns them), exactly, in O(n**3) operations modulo a prime p.

    Every eigenvalue lies within the largest absolute row sum r, so each
    coefficient is at most (1 + r)**n in absolute value, and modulo the
    first of _PRIMES above twice that the symmetric residues are the
    coefficients (Q of any graph up to n = 62 fits the last; beyond every
    prime, ArithmeticError). A is reduced to upper Hessenberg form H by
    similarities, and p_(m+1) = (x - h_mm) p_m - sum over i < m of
    h_im h_(i+1,i) ... h_(m,m-1) p_i gives the characteristic polynomial of
    each leading block (Cohen, A Course in Computational Algebraic Number
    Theory, 2.2.4).
    """
    if not all(type(v) is int for row in a for v in row):
        raise ValueError("matrix entries must be ints")
    n = len(a)
    bound = (1 + max((sum(map(abs, row)) for row in a), default=0)) ** n
    p = next((p for p in _PRIMES if p > 2 * bound), None)
    if p is None:
        raise ArithmeticError(f"coefficient bound of {bound.bit_length()} bits exceeds every prime")
    h = [[v % p for v in row] for row in a]
    for j in range(n - 2):
        k = j + 1
        i = next((i for i in range(k, n) if h[i][j]), None)
        if i is None:
            continue
        if i != k:
            h[i], h[k] = h[k], h[i]
            for row in h:
                row[i], row[k] = row[k], row[i]
        # row r -= u_r row k, then column k += u_r column r: a similarity
        inv = pow(h[k][j], -1, p)
        us = [h[r][j] * inv % p for r in range(k + 1, n)]
        for r, u in enumerate(us, k + 1):
            if u:
                h[r] = [(x - u * y) % p for x, y in zip(h[r], h[k])]
        for row in h:
            row[k] = (row[k] + sum(map(mul, us, row[k + 1:]))) % p
    polys = [[1]]  # p_0, p_1, ..., coefficients ascending by degree
    for m in range(n):
        cur = [0] + polys[m]
        t = 1  # h_(i+1,i) ... h_(m,m-1)
        for i in range(m, -1, -1):
            c = t * h[i][m] % p
            if c:
                cur[:i + 1] = [x - c * v for x, v in zip(cur, polys[i])]
            if i:
                t = t * h[i][i - 1] % p
        polys.append([v % p for v in cur])
    half = p // 2
    return tuple(v - p if v > half else v for v in polys[n])


def _sign_at(coeffs: tuple[int, ...], m: int, e: int) -> int:
    """Sign of the polynomial at the dyadic point m / 2**e, by integer
    Horner on 2**(e*deg) times its value."""
    d = len(coeffs) - 1
    acc = coeffs[d]
    for i in range(d - 1, -1, -1):
        acc = acc * m + (coeffs[i] << (e * (d - i)))
    return (acc > 0) - (acc < 0)


def _derivatives(coeffs: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The coefficients of the polynomial and of each of its derivatives."""
    out = [coeffs]
    while len(out[-1]) > 1:
        out.append(tuple(k * c for k, c in enumerate(out[-1]))[1:])
    return out


def above_roots(p: tuple[int, ...], x: float) -> bool:
    """Whether p and all its derivatives are positive at the double x, each
    sign an integer Horner evaluation. If so, Taylor's formula at x leaves
    p no root at or above x."""
    m, d = x.as_integer_ratio()
    return all(_sign_at(c, m, d.bit_length() - 1) > 0 for c in _derivatives(p))


def largest_real_root(p: tuple[int, ...], hi: float) -> float:
    """Largest root of p in (0, hi), correctly rounded to a double, for a
    real-rooted p whose largest root is simple, as that of a quotient of Q
    of a connected graph is: its largest root is the Perron root.

    If p and all its derivatives are positive at x, Taylor's formula at x
    leaves p no root at or above x. For such a p the roots of every
    derivative lie below its largest root (Rolle), so this test holds
    exactly at the points above that root. A float Newton estimate x from
    hi narrows the bracket (a, b) = (0, hi) first: x + 2**-40 |x| becomes b
    where the test holds there, x - 2**-40 |x| becomes a where p < 0 there,
    and an end not so proved (as with a NaN estimate) keeps its value.
    Bisection over dyadic points m / 2**e, every sign an integer Horner
    evaluation, keeps b where the test holds and moves a to every midpoint
    where it fails; a midpoint where p is 0 and every derivative positive
    is the root and is returned as it is. It stops when a and b round to
    the same double, and p(a) < 0 then proves a root in (a, b), which
    rounds to that double too.
    Raises ValueError when the test fails at hi, or p(a) < 0 fails at the
    end (a repeated largest root, a derivative root above it, or two roots
    within one double), so a value returned is always proved.
    """
    a, (b, db) = 0, hi.as_integer_ratio()
    e = db.bit_length() - 1
    derivatives = _derivatives(p)
    if not all(_sign_at(c, b, e) > 0 for c in derivatives):
        raise ValueError("p and its derivatives must be positive at hi")
    try:  # float Newton from hi; an estimate of the largest root
        floats, x = [float(v) for v in reversed(p)], float(hi)
        for _ in range(100):
            f = df = 0.0
            for v in floats:
                f, df = f * x + v, df * x + f
            step = f / df
            x -= step
            if not abs(step) > 2.0 ** -50 * abs(x):  # NaN stops too
                break
    except (OverflowError, ZeroDivisionError):
        x = math.nan
    if math.isfinite(x):  # x and 2**-40 |x| as multiples of a common 2**-e
        m, d = x.as_integer_ratio()
        shift = max(e, d.bit_length() + 39) - e
        a, b, e = a << shift, b << shift, e + shift
        m <<= e - d.bit_length() + 1
        upper, lower = m + (abs(m) >> 40), m - (abs(m) >> 40)
        if a < upper < b and all(_sign_at(c, upper, e) > 0 for c in derivatives):
            b = upper
        if a < lower < b and _sign_at(p, lower, e) < 0:
            a = lower
    while a / (1 << e) != b / (1 << e):
        mid, a, b, e = a + b, 2 * a, 2 * b, e + 1
        sign = _sign_at(p, mid, e)
        if sign < 0 or not all(_sign_at(c, mid, e) > 0 for c in derivatives[1:]):
            a = mid
        elif sign:
            b = mid
        else:
            return mid / (1 << e)
    if _sign_at(p, a, e) >= 0:
        raise ValueError("no proved largest root in (0, hi)")
    return b / (1 << e)


def quotient_root(g: Graph, cells: Cells, alpha: int = 1) -> tuple[tuple[int, ...], float]:
    """The characteristic polynomial of the quotient of alpha*D + A over the
    cells, which must be equitable, and its largest root: q(g) for alpha = 1
    and rho(g) for 0 of a connected g, correctly rounded.  Every eigenvalue
    of Q, and so of A, lies below 2n."""
    b = quotient(g, cells, alpha)
    if b is None:
        raise ValueError("the cells are not an equitable partition")
    poly = char_poly(b)
    return poly, largest_real_root(poly, 2.0 * g.n)
