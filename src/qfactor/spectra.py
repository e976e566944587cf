"""Spectral machinery: Perron values, equitable quotients, exact polynomials.

Two arithmetic regimes coexist on purpose and are kept separate:

* float64 + LAPACK ``eigh`` for Perron values of ``alpha*D + A``, each
  graph solved whole behind a hard residual gate. The matrices are
  unpacked from the bitrows by numpy, and perron_many stacks many graphs
  by order, so each order costs one ``eigh`` call; stacked and one-matrix
  calls give bitwise-equal eigenpairs. perron is its one-graph case.
  This regime imports numpy on its first call, so a process that stays in
  the exact regime never loads it;
* exact integer arithmetic: quotient matrices counted from the bitrows,
  characteristic polynomials (Faddeev-LeVerrier over Python ints) and
  root isolation (a Sturm chain with integer signs at dyadic points,
  bisected until the largest root is correctly rounded to a double).

Every identity check downstream compares a float route against an exact
route; nothing here collapses the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import TYPE_CHECKING, Sequence

from .graphs import Graph

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class PerronData:
    value: float
    vector: np.ndarray


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


def signless_laplacian(g: Graph) -> np.ndarray:
    """Q = D + A."""
    return _alpha_stack([g], 1)[0]


def perron_many(
    graphs: Sequence[Graph], alpha: int
) -> list[PerronData | ValueError | ArithmeticError]:
    """Perron data of alpha*D + A for each graph, or the error it raises.

    Each graph is one matrix in the stack of its order, so each order costs
    one LAPACK eigh call. value is the largest eigenvalue and vector the
    absolute value of its unit eigenvector: the Perron vector of a
    connected graph. The spectrum of a disjoint union is the union of its
    parts' spectra, so for a disconnected graph value is the largest over
    its components and vector a nonnegative unit eigenvector for it, which
    on a tie may spread over the tied components. If a stacked call raises
    (LinAlgError is a ValueError), that order is retried one graph at a
    time, so an error stays with its own graph. A graph whose residual
    ||M x - value x||_inf exceeds RESIDUAL_GATE gets an ArithmeticError;
    an order-0 graph a ValueError. One stack holds every graph of an
    order, so the caller bounds memory by the number of graphs it passes.
    """
    out: list = [None] * len(graphs)
    by_order: dict[int, list[int]] = {}
    for i, g in enumerate(graphs):
        if g.n == 0:
            out[i] = ValueError("graph must be nonempty")
        else:
            by_order.setdefault(g.n, []).append(i)
    for members in by_order.values():
        import numpy as np  # here, so a call with nothing to solve never loads it

        stack = _alpha_stack([graphs[i] for i in members], alpha)
        try:
            solved = [(members, stack, *np.linalg.eigh(stack))]
        except ValueError:
            solved = []
            for k, i in enumerate(members):
                try:
                    solved.append(([i], stack[k:k + 1], *np.linalg.eigh(stack[k:k + 1])))
                except ValueError as exc:
                    out[i] = exc
        for ids, mats, values, vectors in solved:
            top = values[:, -1]
            x = np.abs(vectors[:, :, -1])
            residual = np.abs((mats @ x[:, :, None])[:, :, 0] - top[:, None] * x).max(axis=1)
            for i, value, xi, r in zip(ids, top.tolist(), x, residual.tolist()):
                if not r <= RESIDUAL_GATE:  # NaN fails too
                    out[i] = ArithmeticError(
                        f"eigenpair residual {r:.3e} exceeds gate {RESIDUAL_GATE:.0e}")
                else:
                    out[i] = PerronData(value, xi)
    return out


def perron(g: Graph, alpha: int) -> PerronData:
    """Largest eigenvalue and nonnegative unit eigenvector of alpha*D + A.

    The one-graph case of perron_many: one LAPACK eigh call, whose residual
    ``||M x - value x||_inf`` must stay within RESIDUAL_GATE, else
    ArithmeticError.
    """
    result = perron_many([g], alpha)[0]
    if isinstance(result, Exception):
        raise result
    return result


def perron_q(g: Graph) -> PerronData:
    """Perron data of the signless Laplacian."""
    return perron(g, 1)


def perron_rho(g: Graph) -> PerronData:
    """Perron data of the adjacency matrix."""
    return perron(g, 0)


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


def quotient(g: Graph, cells: Cells) -> list[list[int]] | None:
    """The quotient of Q = D + A over an equitable partition, or None.

    Entry (r, c) is Q's row sum over cell c for a vertex i of cell r: the
    neighbours of i in c, plus deg(i) when c is r. The partition is
    equitable when these counts agree for every vertex of each cell, and
    then its quotient's characteristic polynomial divides Q's (Godsil &
    Royle, Algebraic Graph Theory, section 9.3). Counted in integers from
    the bitrows; the discrete partition gives Q itself.
    """
    norm = _check_partition(g.n, cells)
    masks = [sum(1 << v for v in cell) for cell in norm]
    out = []
    for r, cell in enumerate(norm):
        sums = {tuple((g.rows[i] & mask).bit_count() for mask in masks) for i in cell}
        if len(sums) > 1:
            return None
        row = list(sums.pop())
        row[r] += g.rows[cell[0]].bit_count()
        out.append(row)
    return out


def cell_values(vector: np.ndarray, cells: Cells) -> list[float]:
    """The mean of the vector on each cell."""
    return [float(vector[cell].mean()) for cell in _check_partition(len(vector), cells)]


# ---------------------------------------------------------------------------
# exact integer polynomials

@dataclass(frozen=True)
class IntPolynomial:
    """Integer-coefficient polynomial, coefficients ascending by degree."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("need at least one coefficient")
        if any(not isinstance(c, int) for c in self.coeffs):
            raise ValueError("coefficients must be ints")
        trimmed = list(self.coeffs)
        while len(trimmed) > 1 and trimmed[-1] == 0:
            trimmed.pop()
        object.__setattr__(self, "coeffs", tuple(trimmed))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        """Horner evaluation; exact for int and Fraction arguments."""
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        size = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (size - len(self.coeffs))
        b = list(other.coeffs) + [0] * (size - len(other.coeffs))
        return IntPolynomial(tuple(x - y for x, y in zip(a, b)))

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        size = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (size - len(self.coeffs))
        b = list(other.coeffs) + [0] * (size - len(other.coeffs))
        return IntPolynomial(tuple(x + y for x, y in zip(a, b)))

    def __mod__(self, divisor: "IntPolynomial") -> "IntPolynomial":
        """Remainder of exact long division by a monic divisor."""
        if divisor.coeffs[-1] != 1:
            raise ValueError("divisor must be monic")
        d = divisor.degree
        rem = list(self.coeffs)
        for top in range(len(rem) - 1, d - 1, -1):
            lead = rem[top]
            if lead:
                for i, c in enumerate(divisor.coeffs):
                    rem[top - d + i] -= lead * c
        return IntPolynomial(tuple(rem[:d]) or (0,))

    def scaled(self, k: int) -> "IntPolynomial":
        return IntPolynomial(tuple(k * c for c in self.coeffs))

    def is_zero(self) -> bool:
        return self.coeffs == (0,)


def char_poly(a: Sequence[Sequence[int]]) -> IntPolynomial:
    """det(xI - A) over exact integers via Faddeev-LeVerrier, for the
    integer rows of a square matrix (as quotient returns them).

    Python ints never overflow, so coefficients are exact at every order
    this toolkit touches. Each inner product is one sum(map(mul, row,
    column)) over a row of A and a column of M_k.
    """
    if not all(type(v) is int for row in a for v in row):
        raise ValueError("matrix entries must be ints")
    n = len(a)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    columns = [(0,) * n] * n  # of M_0 = 0
    c_prev = 1                 # c_n
    for k in range(1, n + 1):
        # M_k = A @ M_{k-1} + c_{n-k+1} I
        mk = [[sum(map(mul, row, col)) for col in columns] for row in a]
        for i in range(n):
            mk[i][i] += c_prev
        columns = list(zip(*mk))
        trace = sum(sum(map(mul, row, col)) for row, col in zip(a, columns))
        q, r = divmod(-trace, k)
        if r:
            raise ArithmeticError("Faddeev-LeVerrier division not exact")
        coeffs[n - k] = q
        c_prev = q
    return IntPolynomial(tuple(coeffs))


def _poly_divmod(
    a: list[Fraction], b: list[Fraction]
) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of a by b, coefficients ascending and b's
    leading one nonzero. The remainder is trimmed, to [] when it is zero."""
    rem = a[:]
    d = len(b) - 1
    quo = [Fraction(0)] * (len(a) - d)
    for top in range(len(rem) - 1, d - 1, -1):
        lead = quo[top - d] = rem[top] / b[-1]
        if lead:
            for i, c in enumerate(b):
                rem[top - d + i] -= lead * c
    rem = rem[:d]
    while rem and not rem[-1]:
        rem.pop()
    return quo, rem


def _sturm_chain(p: IntPolynomial) -> list[tuple[int, ...]]:
    """The Sturm chain of p's squarefree part, each member scaled by a
    positive rational to integer coefficients.

    The chain p, p', -rem(p, p'), ... ends in g = gcd(p, p'); dividing every
    member by g gives a Sturm chain of p/g, which has p's roots, each once.
    For such a chain the sign variations V(x), zeros dropped, count the
    roots in (a, b] as V(a) - V(b), also when a or b is a root.
    """
    chain = [[Fraction(c) for c in p.coeffs]]
    derivative = [k * c for k, c in enumerate(chain[0])][1:]
    if derivative:
        chain.append(derivative)
    while len(chain) > 1:
        rem = _poly_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append([-c for c in rem])
    gcd = chain[-1]
    if len(gcd) > 1:
        chain = [_poly_divmod(member, gcd)[0] for member in chain]
    out = []
    for member in chain:
        scale = math.lcm(*(c.denominator for c in member))
        ints = [int(c * scale) for c in member]
        content = math.gcd(*ints)
        out.append(tuple(c // content for c in ints))
    return out


def _sign_at(coeffs: tuple[int, ...], m: int, e: int) -> int:
    """Sign of the polynomial at the dyadic point m / 2**e, by integer
    Horner on 2**(e*deg) times its value."""
    d = len(coeffs) - 1
    acc = coeffs[d]
    for i in range(d - 1, -1, -1):
        acc = acc * m + (coeffs[i] << (e * (d - i)))
    return (acc > 0) - (acc < 0)


def _variations(chain: list[tuple[int, ...]], m: int, e: int) -> int:
    """Sign changes along the chain at m / 2**e, zeros dropped."""
    count = 0
    last = 0
    for member in chain:
        sign = _sign_at(member, m, e)
        if sign:
            if sign != last and last:
                count += 1
            last = sign
    return count


def largest_real_root(p: IntPolynomial, lo: float, hi: float) -> float:
    """Largest real root of p in [lo, hi], correctly rounded to a double.

    Sturm isolation (Basu, Pollack & Roy, Algorithms in Real Algebraic
    Geometry, ch. 2). The chain is built once, and every sign is that of an
    integer Horner evaluation at a dyadic point m / 2**e, so every bracket
    is proved. Bisection keeps the largest root in (a, b] by root counts
    until it is the only root there, then by the sign of p alone, and stops
    when a and b round to the same double: the root rounds to it too. A
    midpoint that is itself the largest root is returned as it is.
    Requires p(hi) > 0.
    """
    lo_f, hi_f = Fraction(lo), Fraction(hi)
    if lo_f >= hi_f:
        raise ValueError("need lo < hi")
    if p(hi_f) <= 0:
        raise ValueError("p(hi) must be positive")
    e = max(lo_f.denominator, hi_f.denominator).bit_length() - 1
    a, b = lo_f * (1 << e), hi_f * (1 << e)
    if a.denominator != 1 or b.denominator != 1:
        raise ValueError("lo and hi must be dyadic, as floats are")
    a, b = int(a), int(b)
    chain = _sturm_chain(p)
    v_b = _variations(chain, b, e)
    count = _variations(chain, a, e) - v_b
    if not count:
        if p(lo_f) == 0:
            return float(lo_f)
        raise ValueError("no root in [lo, hi]")
    squarefree = chain[0]
    while count > 1:
        mid, a, b, e = a + b, 2 * a, 2 * b, e + 1
        v_mid = _variations(chain, mid, e)
        if v_mid > v_b:
            a, count = mid, v_mid - v_b
        elif _sign_at(squarefree, mid, e):
            b, v_b = mid, v_mid
        else:
            return mid / (1 << e)
    # the one root in (a, b] is simple and b is no root
    sign_b = _sign_at(squarefree, b, e)
    while a / (1 << e) != b / (1 << e):
        mid, a, b, e = a + b, 2 * a, 2 * b, e + 1
        sign = _sign_at(squarefree, mid, e)
        if not sign:
            return mid / (1 << e)
        if sign == sign_b:
            b = mid
        else:
            a = mid
    return b / (1 << e)
