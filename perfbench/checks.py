"""Independent checks of the CLI's reports.

Nothing here calls the program's own checkers: graph6 is decoded by a
separate decoder, spectral radii come from ``numpy.linalg.eigvalsh``, even
factors are re-verified by a degree-parity count, G* is recognised by its
component structure (not by the program's degree-multiset test), and the
census is compared byte for byte with the frozen golden file.

Every check counts *operations*: one graph instance of a ``verify`` stream
or of the census, or one section of a suite.  An operation fails on an error
row, on a failed check, or when its process exits unexpectedly or leaves no
readable report (then every operation of that process fails).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

EPS = 1e-8  # the CLI's default --eps, used by every verify invocation here
TOL = 1e-9  # q and threshold must match eigvalsh this closely

LEMMA_SECTIONS = (
    "clique_redistribution",
    "edge_monotonicity",
    "quotient_radius",
    "eigenvector_cells",
    "cell_ordering",
)
IDENTITY_SECTIONS = (
    "difference_identity",
    "f_positivity",
    "large_join_below_threshold",
    "surgery_chain",
    "layered_dominates",
    "root_semantics",
)
ABOVE = ("extremal_match", "confirmed_factor", "counterexample", "undecided")


@dataclass
class Tally:
    """Operations checked, operations failed, and why (first few reasons)."""

    attempted: int = 0
    failed: int = 0
    undecided: int = 0
    instances: int = 0
    reasons: list[str] = field(default_factory=list)

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.undecided += other.undecided
        self.instances += other.instances
        for reason in other.reasons:
            if len(self.reasons) < 20:
                self.reasons.append(reason)


# ---------------------------------------------------------------------------
# graphs, decoded and measured without the package


def decode_graph6(text: str) -> list[int]:
    """Adjacency bitrows of a short-form graph6 string (n <= 62)."""
    data = text.encode("ascii")
    n = data[0] - 63
    if not 0 <= n <= 62:
        raise ValueError(f"bad graph6 order byte in {text!r}")
    bits = []
    for byte in data[1:]:
        value = byte - 63
        if not 0 <= value < 64:
            raise ValueError(f"bad graph6 byte in {text!r}")
        bits.extend((value >> shift) & 1 for shift in range(5, -1, -1))
    npairs = n * (n - 1) // 2
    if len(bits) != 6 * ((npairs + 5) // 6) or any(bits[npairs:]):
        raise ValueError(f"bad graph6 length or padding in {text!r}")
    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return rows


def _vertices(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def components(rows: list[int], alive: int) -> list[int]:
    """Component masks of the subgraph induced on the ``alive`` mask."""
    out = []
    todo = alive
    while todo:
        start = todo & -todo
        comp, stack = start, [start.bit_length() - 1]
        while stack:
            fresh = rows[stack.pop()] & alive & ~comp
            comp |= fresh
            stack.extend(_vertices(fresh))
        out.append(comp)
        todo &= ~comp
    return out


def signless_radius(rows: list[int]) -> float:
    n = len(rows)
    q = np.zeros((n, n))
    for u, row in enumerate(rows):
        for v in _vertices(row):
            q[u, v] = 1.0
        q[u, u] = bin(row).count("1")
    return float(np.linalg.eigvalsh(q)[-1])


def gstar_rows(n: int, delta: int) -> list[int]:
    """K_delta joined to K_{n-2delta+1} plus delta-1 isolated vertices."""
    full = (1 << n) - 1
    join = (1 << delta) - 1
    big = ((1 << (n - delta + 1)) - 1) & ~join
    rows = []
    for v in range(n):
        if v < delta:
            rows.append(full & ~(1 << v))
        elif big >> v & 1:
            rows.append((join | big) & ~(1 << v))
        else:
            rows.append(join)
    return rows


@lru_cache(maxsize=None)
def threshold(n: int, delta: int) -> float:
    return signless_radius(gstar_rows(n, delta))


def gstar_delta(rows: list[int]) -> int | None:
    """delta if the graph is G*(n, delta) up to relabeling, else None: its
    universal vertices number delta >= 2 with n > 2*delta, and deleting them
    leaves one clique on n-2*delta+1 vertices plus delta-1 isolated ones."""
    n = len(rows)
    full = (1 << n) - 1
    universal = sum(1 << v for v, row in enumerate(rows) if row | (1 << v) == full)
    delta = bin(universal).count("1")
    if delta < 2 or n <= 2 * delta:
        return None
    sizes = []
    for comp in components(rows, full & ~universal):
        members = _vertices(comp)
        if any((rows[v] & ~universal) | (1 << v) != comp for v in members):
            return None  # a component that is not a clique
        sizes.append(len(members))
    if sorted(sizes) != [1] * (delta - 1) + [n - 2 * delta + 1]:
        return None
    return delta


def is_even_factor(rows: list[int], edges) -> bool:
    """Every listed edge is a distinct edge of the graph and every vertex
    meets a positive even number of them."""
    degree = [0] * len(rows)
    seen = set()
    for u, v in edges:
        key = (min(u, v), max(u, v))
        if key in seen or not 0 <= key[0] < key[1] < len(rows) or not rows[u] >> v & 1:
            return False
        seen.add(key)
        degree[u] += 1
        degree[v] += 1
    return all(d > 0 and d % 2 == 0 for d in degree)


def blocks(rows: list[int], vertices) -> bool:
    """o(G - S) >= |S|: the set S blocks an even factor per the criterion."""
    removed = sum(1 << v for v in vertices)
    alive = ((1 << len(rows)) - 1) & ~removed
    odd = sum(1 for comp in components(rows, alive) if bin(comp).count("1") % 2)
    return len(set(vertices)) >= 2 and odd >= len(set(vertices))


# ---------------------------------------------------------------------------
# report checks


def _expected_outcome(rows: list[int]):
    """(delta, q, threshold, gstar) for an instance the theorem applies to,
    or None when it is not applicable."""
    n = len(rows)
    if n < 4 or n % 2 or len(components(rows, (1 << n) - 1)) != 1:
        return None
    delta = min(min(bin(r).count("1") for r in rows), (n + 7) // 7)
    if delta < 2:
        return None
    return delta, signless_radius(rows), threshold(n, delta), gstar_delta(rows) == delta


def check_row(row: dict, line, undecided_ok: bool) -> str | None:
    """Why ``row`` is wrong for the stream line ``line``, or None."""
    if "error" in row:
        return f"error row: {row['error']}"
    if row.get("graph6") != line.graph6:
        return "row graph6 differs from the input line"
    rows = decode_graph6(line.graph6)
    expected = _expected_outcome(rows)
    cls = row.get("classification")
    if expected is None:
        return None if cls == "not_applicable" else f"{cls} for an inapplicable graph"
    delta, q, thr, gstar = expected
    if row.get("delta") != delta:
        return f"delta {row.get('delta')} != {delta}"
    if not isinstance(row.get("q"), (int, float)) or abs(row["q"] - q) > TOL:
        return f"q {row.get('q')} != eigvalsh {q}"
    if not isinstance(row.get("threshold"), (int, float)) or abs(row["threshold"] - thr) > TOL:
        return f"threshold {row.get('threshold')} != eigvalsh {thr}"
    if cls == "below_threshold":
        return None if q < thr - EPS + TOL else "below_threshold but q clears threshold - eps"
    if cls not in ABOVE:
        return f"unexpected classification {cls}"
    if q < thr - EPS - TOL:
        return f"{cls} but q is below threshold - eps"
    if (cls == "extremal_match") != gstar:
        return f"{cls} on a graph that {'is' if gstar else 'is not'} G*(n, delta)"
    try:
        return _check_verdict(cls, row.get("witness") or {}, rows, undecided_ok)
    except (TypeError, ValueError, KeyError, IndexError):
        return "malformed witness"


def _check_verdict(cls: str, witness: dict, rows: list[int], undecided_ok: bool) -> str | None:
    if cls == "confirmed_factor":
        if witness.get("kind") == "even_factor":
            ok = is_even_factor(rows, witness.get("edges", []))
            return None if ok else "even_factor witness fails the parity check"
        return None if witness.get("kind") == "criterion" else "confirmed_factor without witness"
    if cls == "undecided":
        if not undecided_ok:
            return "undecided where a decision is required"
        if witness.get("kind") == "blocking_set" and not blocks(rows, witness["vertices"]):
            return "undecided with a blocking set that does not block"
        return None
    if cls == "counterexample":
        return "counterexample reported"
    return None


def check_verify(report: dict | None, lines, undecided_ok) -> Tally:
    """Check a ``verify`` report against its input stream.  ``undecided_ok``
    says per line whether an undecided verdict is acceptable."""
    tally = Tally(attempted=len(lines), instances=len(lines))
    if report is None:
        tally.fail(len(lines), "no readable report")
        return tally
    results = report.get("results", {})
    items = {row.get("line"): row for row in results.get("items", [])}
    if results.get("total") != len(lines) or len(items) != len(lines):
        tally.fail(len(lines), f"report has {results.get('total')} rows for {len(lines)} lines")
        return tally
    counts: dict[str, int] = {}
    errors = 0
    for number, line in enumerate(lines, start=1):
        row = items.get(number)
        reason = "missing row" if row is None else check_row(row, line, undecided_ok(line))
        if reason is not None:
            tally.fail(1, f"line {number} {line.graph6}: {reason}")
        if row is not None and "classification" in row:
            counts[row["classification"]] = counts.get(row["classification"], 0) + 1
        errors += row is not None and "error" in row
    tally.undecided = counts.get("undecided", 0)
    reported = {k: v for k, v in results.get("counts", {}).items() if v}
    if reported != counts or results.get("errors") != errors:
        tally.fail(len(lines) - tally.failed, f"summary {reported} disagrees with rows {counts}")
    return tally


def check_agreement(report: dict | None, golden_path: Path) -> Tally:
    golden = golden_path.read_text()
    total = json.loads(golden)["total"]
    tally = Tally(attempted=total, instances=total)
    if report is None:
        tally.fail(total, "no readable agreement report")
    elif json.dumps(report.get("results"), indent=2, sort_keys=True) + "\n" != golden:
        tally.fail(total, "census differs from tests/golden/agreement_n6.json")
    return tally


def _sections(report: dict | None, names, extra) -> Tally:
    tally = Tally(attempted=len(names))
    results = (report or {}).get("results", {})
    for name in names:
        section = results.get(name)
        if not isinstance(section, dict) or section.get("passed") is not True:
            tally.fail(1, f"section {name} missing or not passed")
            continue
        reason = extra(name, section)
        if reason:
            tally.fail(1, f"section {name}: {reason}")
    return tally


def _lemma_extra(name: str, section: dict) -> str | None:
    if name == "edge_monotonicity":
        if section["violations"] != 0 or not section["min_margin"] > 0:
            return "an edge removal did not lower q"
    if name == "quotient_radius":
        if not all(c["equitable"] and c["root_vs_perron"] < 1e-8 for c in section["cases"]):
            return "quotient root does not match the radius"
    return None


def _identity_extra(name: str, section: dict) -> str | None:
    if name == "difference_identity" and section["mismatches"]:
        return "polynomial identity mismatches"
    if name == "surgery_chain":
        for case in section["cases"]:
            if abs(case["threshold"] - threshold(case["n"], case["delta"])) > TOL:
                return f"threshold at {case['n']},{case['delta']} != eigvalsh"
            if not case["q_g3"] < case["q_g4"] <= case["threshold"] + 1e-9:
                return "surgery does not raise q up to the threshold"
    if name == "large_join_below_threshold":
        if not all(c["threshold_margin"] > 0 for c in section["cases"]):
            return "a large join reaches the threshold"
    return None


def check_lemmas(report: dict | None) -> Tally:
    return _sections(report, LEMMA_SECTIONS, _lemma_extra)


def check_identities(report: dict | None) -> Tally:
    return _sections(report, IDENTITY_SECTIONS, _identity_extra)


def rows_differ(a: dict, b: dict) -> int:
    """Number of verify rows that differ between two reports (all of them
    when the row lists have different lengths)."""
    rows_a = a.get("results", {}).get("items", [])
    rows_b = b.get("results", {}).get("items", [])
    if len(rows_a) != len(rows_b):
        return max(len(rows_a), len(rows_b))
    return sum(1 for x, y in zip(rows_a, rows_b) if x != y)
