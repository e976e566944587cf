"""Seeded workload definitions: the graph6 streams and the CLI invocations.

Every stream is a pure function of the workload seed (and the size scale),
built with the package's own bit-exact generators (``random_graph`` over
splitmix64, ``build_gstar``), so two commits that agree on those generators
read identical inputs; the sha256 of each stream is reported with the
results to show it.  The program only ever sees the written stream files.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from qfactor.extremal import build_gstar
from qfactor.graphs import (
    Graph,
    is_connected,
    min_degree,
    random_graph,
    splitmix64,
    write_graph6,
)

# Guards of the acceptance sweep (tests/test_acceptance.py::test_08): raised
# certificate guards, so the certificate search decides every instance.
SWEEP_GUARDS = ("--max-cert-order", "24", "--max-cert-edges", "400")

# Random G(n, p) instances per (n, p) combination at scale 1.  Each takes a
# few hundred microseconds, about 80% fall below the threshold.
SWEEP_PER_COMBO = 150

# near_extremal: perturbed G* instances per (n, delta, k) at scale 1.  At
# n = 14 and 16 the parity-criterion scan decides (tens and hundreds of ms);
# at n = 24 and 26 both search guards fire and the verdict is undecided.
NEAR_PER_CELL = {14: 2, 16: 1, 24: 4, 26: 4}
NEAR_DELTAS = {14: (2, 3), 16: (2, 3), 24: (2, 3, 4), 26: (2, 3, 4)}
NEAR_GSTAR_COPIES = 2
NEAR_ADDED = (1, 2, 3)
NEAR_BIG_ORDER = 24  # from here on, undecided is accepted in place of a factor


@dataclass
class Line:
    """One stream line and what the generator knows about it."""

    graph6: str
    kind: str  # "random", "gstar_plus_edge", "gstar", "perturbed"
    n: int
    delta: int | None = None  # the G* parameter, for generated G* families


@dataclass
class Invocation:
    """One ``qfactor`` CLI process: its argument vector, the stream it reads
    (the runner appends ``--stream PATH`` and ``--report PATH``)."""

    name: str
    argv: list[str]
    stream: str | None = None


@dataclass
class Workload:
    name: str
    invocations: list[Invocation]
    streams: dict[str, list[Line]] = field(default_factory=dict)


def stream_text(lines: list[Line]) -> str:
    return "".join(line.graph6 + "\n" for line in lines)


def stream_sha256(lines: list[Line]) -> str:
    return hashlib.sha256(stream_text(lines).encode("ascii")).hexdigest()


def _scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def sweep_lines(seed: int, scale: float = 1.0) -> list[Line]:
    """The test_08 recipe: connected G(n, p) with minimum degree >= 2 for
    n in {8, 10, 12} and p in {.5, .7, .9}, then every one-edge augmentation
    of G*(n, delta) for n in 14..20 and delta in {2, 3}.  The splitmix64
    seed bases are those of test_08 offset by ``seed * 10**8``."""
    per_combo = _scaled(SWEEP_PER_COMBO, scale)
    lines = []
    combo = 0
    for n in (8, 10, 12):
        for p in (0.5, 0.7, 0.9):
            base = seed * 10**8 + combo * 10**6
            accepted = 0
            draw = 0
            while accepted < per_combo:
                g = random_graph(n, p, seed=base + draw)
                draw += 1
                if min_degree(g) >= 2 and is_connected(g):
                    lines.append(Line(write_graph6(g), "random", n))
                    accepted += 1
            combo += 1
    for delta in (2, 3):
        for n in (14, 16, 18, 20):
            g = build_gstar(n, delta)
            for u in range(n):
                for v in range(u + 1, n):
                    if not g.has_edge(u, v):
                        h = g.add_edges([(u, v)])
                        lines.append(Line(write_graph6(h), "gstar_plus_edge", n, delta))
    return lines


def _permutation(n: int, stream) -> list[int]:
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = next(stream) % (i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def _relabeled(g: Graph, perm: list[int]) -> Graph:
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def near_extremal_lines(seed: int, scale: float = 1.0) -> list[Line]:
    """G*(n, delta) under a seeded random relabeling, unperturbed and with
    k in {1, 2, 3} distinct random non-edges added."""
    stream = splitmix64(seed)
    lines = []
    for n, per_cell in NEAR_PER_CELL.items():
        for delta in NEAR_DELTAS[n]:
            base = build_gstar(n, delta)
            non_edges = [
                (u, v) for u in range(n) for v in range(u + 1, n) if not base.has_edge(u, v)
            ]
            for _ in range(NEAR_GSTAR_COPIES):
                g = _relabeled(base, _permutation(n, stream))
                lines.append(Line(write_graph6(g), "gstar", n, delta))
            for k in NEAR_ADDED:
                for _ in range(_scaled(per_cell, scale)):
                    chosen: set[tuple[int, int]] = set()
                    while len(chosen) < k:
                        chosen.add(non_edges[next(stream) % len(non_edges)])
                    g = _relabeled(base.add_edges(sorted(chosen)), _permutation(n, stream))
                    lines.append(Line(write_graph6(g), "perturbed", n, delta))
    return lines


def build(name: str, seed: int, scale: float = 1.0) -> Workload:
    """The workload ``name`` for ``seed``."""
    if name in ("sweep", "sweep_j2"):
        jobs = "2" if name == "sweep_j2" else "1"
        argv = ["verify", "--jobs", jobs, *SWEEP_GUARDS]
        return Workload(name, [Invocation("verify", argv, "sweep")],
                        {"sweep": sweep_lines(seed, scale)})
    if name == "near_extremal":
        argv = ["verify", "--jobs", "1", "--allow-undecided"]
        return Workload(name, [Invocation("verify", argv, "near_extremal")],
                        {"near_extremal": near_extremal_lines(seed, scale)})
    if name == "studies":
        return Workload(name, [
            Invocation("agreement", ["agreement", "--n", "6", "--connected-only"]),
            Invocation("lemmas", ["lemmas", "--seed", str(seed)]),
            Invocation("identities", ["identities"]),
        ])
    raise ValueError(f"unknown workload {name!r}")


def undecided_ok(workload: str, line: Line) -> bool:
    """Where an undecided verdict is accepted: large near-extremal graphs,
    where the default guards block both searches today and a polynomial
    even-factor test would decide them."""
    return workload == "near_extremal" and line.n >= NEAR_BIG_ORDER


WORKLOADS = ("sweep", "sweep_j2", "near_extremal", "studies")
