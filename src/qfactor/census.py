"""The criterion-vs-even-factor census behind ``qfactor agreement``.

agreement_study cross-tabulates the parity-subset criterion against the
exact even-factor test over a population of graphs of one even order:
every labeled graph, or a seeded random sample.

The exhaustive census never builds most of its graphs.  An edge mask on n
vertices stands for the graph whose edges are the pairs of
lexicographic_pairs(n) at its set bits (mask_graph builds it).
isomorphism_classes labels every mask with its isomorphism class, so the
census evaluates one graph per class, and mask_graph6_encoder writes the
graph6 of a mask through graphs' packer.  Both are capped at MAX_ENUM_ORDER.

This module needs graphs and factors, and no spectral code, so
``agreement`` loads neither spectra nor extremal.
"""

from __future__ import annotations

from array import array
from itertools import combinations
from typing import Any, Callable, Sequence

from .factors import AGREEMENT_CLASSES, factor_verdict
from .graphs import (
    Graph,
    _COLUMNS,
    _graph6_text,
    _trusted_graph,
    check_graph6_order,
    is_connected,
    random_graph,
    splitmix64,
    write_graph6,
)

# The largest order an exhaustive census labels: at n = 7 the label array
# has 2**21 entries; n = 8 would need 2**28.
MAX_ENUM_ORDER = 7
# Sampled connected-only studies give up after this many disconnected draws
# in a row: connected graphs are then too rare at (n, p) to sample.
MAX_REJECTED_DRAWS = 10_000


def lexicographic_pairs(n: int) -> list[tuple[int, int]]:
    """(0,1), (0,2), ..., (0,n-1), (1,2), ...: the seeded-edge bit order."""
    return list(combinations(range(n), 2))


def mask_graph(n: int, pairs: Sequence[tuple[int, int]], mask: int) -> Graph:
    """The graph whose edges are the pairs[k] for every bit k set in mask.

    The pairs must be distinct vertices of 0..n-1, as lexicographic_pairs(n)
    gives them; the rows are then symmetric and loop-free by construction.
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    rows = [0] * n
    while mask:
        k = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        i, j = pairs[k]
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return _trusted_graph(n, tuple(rows))


def isomorphism_classes(n: int) -> tuple[array, list[Graph]]:
    """Label every edge mask on n vertices with its isomorphism class.

    Bit k of a mask is the k-th pair of lexicographic_pairs(n), as in
    mask_graph. Returns (labels, representatives): labels[mask] is the class
    index of the mask, and representatives[c] is the graph of the lowest
    mask in class c, so classes are numbered in ascending order of their
    lowest mask.

    Orbits are flood-filled under two generators of the symmetric group:
    the transposition (0 1) and the n-cycle v -> v + 1 mod n. Each permutes
    the pair bits and is applied to a mask with two precomputed table
    lookups, one per half of the mask, so no Graph is built per mask.
    Raises ValueError, before anything is allocated, for n > MAX_ENUM_ORDER.
    """
    _check_enum_order(n)
    pairs = lexicographic_pairs(n)
    index = {pair: k for k, pair in enumerate(pairs)}
    half = (len(pairs) + 1) // 2
    low = (1 << half) - 1
    generators = []
    for image in ([1, 0, *range(2, n)], [*range(1, n), 0]):  # (0 1), v -> v + 1
        targets = []
        for a, b in pairs:
            a, b = image[a], image[b]
            targets.append(index[(a, b) if a < b else (b, a)])
        generators.append((_bit_table(targets[:half]), _bit_table(targets[half:])))

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
            for lo, hi in generators:
                y = lo[x_low] | hi[x_high]
                if labels[y] < 0:
                    labels[y] = label
                    stack.append(y)
    return labels, representatives


def mask_graph6_encoder(n: int) -> Callable[[int], str]:
    """A function taking an edge mask on n vertices (bit k is the k-th
    lexicographic pair) to its graph6, equal to
    write_graph6(mask_graph(n, lexicographic_pairs(n), mask)).

    Two table lookups, one per half of the mask, move each pair bit to its
    graph6 column-order position, and graphs' packer writes the text. The
    tables have 2**ceil(n(n-1)/4) entries, as in isomorphism_classes, and
    the same order cap is checked before they are built.
    """
    _check_enum_order(n)
    pairs = lexicographic_pairs(n)
    targets = [_COLUMNS[j][0] + i for i, j in pairs]
    half = (len(pairs) + 1) // 2
    low = (1 << half) - 1
    lo, hi = _bit_table(targets[:half]), _bit_table(targets[half:])

    def encode(mask: int) -> str:
        return _graph6_text(n, lo[mask & low] | hi[mask >> half])

    return encode


def _check_enum_order(n: int) -> None:
    if n > MAX_ENUM_ORDER:
        raise ValueError(f"an exhaustive census needs n <= {MAX_ENUM_ORDER}, got n={n}")


def _bit_table(targets: Sequence[int]) -> list[int]:
    """table[v] has bit targets[k] set for every bit k set in v."""
    table = [0] * (1 << len(targets))
    for v in range(1, len(table)):
        k = (v & -v).bit_length() - 1
        table[v] = table[v & (v - 1)] | 1 << targets[k]
    return table


def agreement_study(
    n: int,
    *,
    connected_only: bool = False,
    samples: int | None = None,
    p: float = 0.5,
    seed: int = 0,
) -> dict[str, Any]:
    """Cross-tabulate the parity-subset criterion against the exact
    even-factor test over a population of graphs of even order ``n``:
    either every labeled graph (optionally connected-only; n at most
    :data:`MAX_ENUM_ORDER`) or a seeded random sample (n at most 62, the
    short-form graph6 limit, since disagreements are listed in graph6
    form; checked before the first draw).

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
        return factor_verdict(g)["agreement"]

    counts = {name: 0 for name in AGREEMENT_CLASSES}
    disagreements: dict[str, list[str]] = {
        "criterion_yes_factor_no": [],
        "criterion_no_factor_yes": [],
    }
    if samples is None:
        mode = "exhaustive"
        labels, representatives = isomorphism_classes(n)
        by_class = [
            agreement(g) if not connected_only or is_connected(g) else None
            for g in representatives
        ]
        encode = mask_graph6_encoder(n)
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
        # write_graph6's limit, checked before a run whose first
        # disagreement could not be written
        check_graph6_order(n)
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
