"""The exact kernels' earlier forms, kept as test oracles.

``faddeev_leverrier`` is the O(n**4) characteristic polynomial over Python
ints that ``qfactor.spectra.char_poly`` computed before it moved to a
Hessenberg reduction modulo a prime. ``transposition_classes`` is the census
flood under the n - 1 adjacent transpositions that
``qfactor.census.isomorphism_classes`` ran before it moved to two
generators. ``fraction_root`` bisects a sign change with ``Fraction``
arithmetic until both ends round to one double, independently of the
dyadic bisection in ``qfactor.spectra.largest_real_root``. The tests compare
the package's kernels against all three. ``evaluate`` is the oracles' own
Horner rule over ``Fraction``; polynomials are coefficient tuples ascending
by degree, as in the package.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from operator import mul
from typing import Sequence

from qfactor.census import _bit_table, lexicographic_pairs, mask_graph
from qfactor.graphs import Graph


def faddeev_leverrier(a: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """det(xI - A) over exact integers: M_k = A M_(k-1) + c_(n-k+1) I and
    c_(n-k) = -trace(A M_k) / k, every division exact."""
    n = len(a)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    columns = [(0,) * n] * n  # of M_0 = 0
    c_prev = 1                 # c_n
    for k in range(1, n + 1):
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
    return tuple(coeffs)


def transposition_classes(n: int) -> tuple[array, list[Graph]]:
    """isomorphism_classes(n) by flooding each orbit under the n - 1
    adjacent transpositions (i, i+1), each applied with two table lookups."""
    pairs = lexicographic_pairs(n)
    index = {pair: k for k, pair in enumerate(pairs)}
    half = (len(pairs) + 1) // 2
    low = (1 << half) - 1
    swaps = []
    for i in range(n - 1):
        image = {i: i + 1, i + 1: i}
        targets = []
        for a, b in pairs:
            a, b = image.get(a, a), image.get(b, b)
            targets.append(index[(a, b) if a < b else (b, a)])
        swaps.append((_bit_table(targets[:half]), _bit_table(targets[half:])))

    labels = array("i", [-1]) * (1 << len(pairs))
    representatives = []
    for mask in range(len(labels)):
        if labels[mask] >= 0:
            continue
        label = len(representatives)
        representatives.append(mask_graph(n, pairs, mask))
        labels[mask] = label
        stack = [mask]
        while stack:
            x = stack.pop()
            x_low, x_high = x & low, x >> half
            for lo, hi in swaps:
                y = lo[x_low] | hi[x_high]
                if labels[y] < 0:
                    labels[y] = label
                    stack.append(y)
    return labels, representatives


def evaluate(p: Sequence[int], x: Fraction | int) -> Fraction:
    """p at x by Horner's rule over Fraction: exact at every rational x."""
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def fraction_root(p: Sequence[int], lo: Fraction, hi: Fraction) -> float:
    """The double nearest the root of p in (lo, hi), given p(lo) < 0 < p(hi)
    and no other root there: Fraction bisection until both ends round to the
    same double, which the root between them rounds to as well."""
    lo, hi = Fraction(lo), Fraction(hi)
    if not evaluate(p, lo) < 0 < evaluate(p, hi):
        raise ValueError(f"no sign change of {p} in ({lo}, {hi})")
    while float(lo) != float(hi):
        mid = (lo + hi) / 2
        value = evaluate(p, mid)
        if value == 0:
            return float(mid)
        lo, hi = (mid, hi) if value < 0 else (lo, mid)
    return float(lo)
