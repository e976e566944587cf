"""Acceptance gate: one test per shipping criterion, each printing a
single PASS line with its key measurement when it succeeds.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is stated inline; none is loosened to make a test pass.
"""

import itertools
import json
import math
import time

import pytest

from qfactor import harness
from qfactor.cli import main
from qfactor.extremal import (
    build_gstar,
    f_poly,
    gstar_cells,
    phi_bstar,
    surgery_plan,
    threshold_q,
)
from qfactor.factors import even_factor, strong_tutte_check, verify_even_factor
from qfactor.graphs import (
    is_connected,
    min_degree,
    odd_components_after_removal,
    parse_graph6,
    random_graph,
    write_graph6,
)
from qfactor.census import agreement_study
from qfactor.harness import recognize_gstar
from qfactor.reportio import dumps_canonical, strip_volatile
from qfactor.spectra import char_poly, perron_many, quotient
from qfactor.suites import identity_suite, lemma_suite

FACTORLESS = "G]o_GK"


def even_up(x: int) -> int:
    return x if x % 2 == 0 else x + 1


def announce(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS — {message}")


# ---------------------------------------------------------------------------


def test_01_quotient_polynomials_exact():
    """The closed-form 3x3 quotient matrices reproduce the graph quotients
    entry-exactly and their characteristic polynomials match the closed-form
    coefficients, for every even order 8 <= n <= 40 and every 2 <= s <= n/2."""
    start = time.perf_counter()
    cases = 0
    for n in range(8, 41, 2):
        for s in range(2, n // 2 + 1):
            closed = [[n + s - 2, n - 2 * s + 1, s - 1], [s, 2 * n - 3 * s, 0], [s, 0, s]]
            assert phi_bstar(n, s) == char_poly(closed), (n, s)
            # The closed form agrees with the quotient of the real graph.
            g = build_gstar(n, s) if n > 2 * s else None
            if g is not None:
                assert quotient(g, gstar_cells(n, s)) == closed, (n, s)
            cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"budget exceeded: {elapsed:.1f}s"
    announce(1, f"quotient polynomials coefficient-exact on {cases} (n,s) cases "
                f"in {elapsed:.2f}s")


def test_02_difference_identity_exact():
    """phi_B2(n,s) - phi_B*(n,delta) factors exactly as (s - delta) * f
    for 2 <= delta <= 6, delta+1 <= s <= n/2, even n up to 7*delta+13."""
    start = time.perf_counter()
    cases = 0
    for delta in range(2, 7):
        for n in range(even_up(7 * delta - 7), 7 * delta + 14, 2):
            for s in range(delta + 1, n // 2 + 1):
                difference = tuple(
                    a - b for a, b in zip(phi_bstar(n, s), phi_bstar(n, delta)))
                predicted = tuple((s - delta) * c for c in f_poly(n, s, delta)) + (0,)
                assert difference == predicted, (n, delta, s)
                cases += 1
    elapsed = time.perf_counter() - start
    assert cases > 400
    assert elapsed < 5.0, f"budget exceeded: {elapsed:.1f}s"
    announce(2, f"difference identity coefficient-exact on {cases} cases "
                f"in {elapsed:.2f}s")


def test_03_f_positive_beyond_vertex():
    """On the same grid, the quadratic f evaluated at 2n-2*delta is an
    integer >= 3, and its vertex abscissa sits strictly left of 2n-2*delta
    (so f is increasing there) — both checked in exact arithmetic."""
    start = time.perf_counter()
    cases = 0
    minimum = None
    for delta in range(2, 7):
        for n in range(even_up(7 * delta - 7), 7 * delta + 14, 2):
            for s in range(delta + 1, n // 2 + 1):
                f = f_poly(n, s, delta)
                assert len(f) == 3 and f[2] == 1, (n, delta, s)
                x = 2 * n - 2 * delta
                value = sum(c * x ** k for k, c in enumerate(f))
                assert isinstance(value, int) and value >= 3, (n, delta, s, value)
                minimum = value if minimum is None else min(minimum, value)
                # Vertex of x^2 + bx + c is at -b/2; compare 2*(-b/2) < 2x0.
                assert -f[1] < 2 * x, (n, delta, s)
                cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"budget exceeded: {elapsed:.1f}s"
    announce(3, f"f(2n-2δ) >= 3 on {cases} cases (minimum {minimum}) "
                f"in {elapsed:.2f}s")


def test_04_threshold_root_matches_spectrum():
    """The polynomial root used as the threshold agrees with the eigh
    radius of the built extremal graph to 1e-8, and complete graphs hit
    q(K_m) = 2m-2 to 1e-10."""
    start = time.perf_counter()
    worst = 0.0
    cases = 0
    for delta in (2, 3, 4):
        for n in range(even_up(7 * delta - 7), 7 * delta + 14, 2):
            root = threshold_q(n, delta)
            q = perron_many([build_gstar(n, delta)], 1)[0]
            worst = max(worst, abs(q - root))
            assert abs(q - root) < 1e-8, (n, delta, q, root)
            cases += 1
    from qfactor.graphs import complete

    for m in range(2, 51):
        q = perron_many([complete(m)], 1)[0]
        assert abs(q - (2 * m - 2)) < 1e-10, m
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.1f}s"
    announce(4, f"threshold root vs spectrum: {cases} extremal cases, "
                f"worst |q - root| = {worst:.2e} (< 1e-8), complete graphs "
                f"exact to 1e-10, in {elapsed:.2f}s")


def test_05_lemma_suite_green():
    """The supporting-lemma suite passes."""
    start = time.perf_counter()
    report = lemma_suite()
    elapsed = time.perf_counter() - start
    assert report["all_passed"] is True
    sections = [k for k in report if k != "all_passed"]
    for name in sections:
        assert report[name]["passed"] is True, name
    assert report["clique_redistribution"]["violations"] == 0
    assert report["clique_redistribution"]["max_equality_deviation"] <= 1e-8
    assert report["edge_monotonicity"]["violations"] == 0
    assert report["quotient_radius"]["all_equitable"] is True
    assert report["quotient_radius"]["max_root_vs_perron"] < 1e-6
    assert report["eigenvector_cells"]["max_spread"] < 1e-8
    assert elapsed < 120.0, f"budget exceeded: {elapsed:.1f}s"
    announce(5, f"lemma suite green: {len(sections)} sections, "
                f"max root-vs-spectrum {report['quotient_radius']['max_root_vs_perron']:.2e}, "
                f"in {elapsed:.2f}s")


def test_06_surgery_chain_certified():
    """The interior-to-join surgery: exact removed/added counts from the
    closed forms, a positive closed-form Rayleigh gain, a strict radius
    increase of more than 1e-6, a final radius at most threshold + 1e-9, and
    a verified subgraph embedding — over the whole delta in {3,4,5} grid."""
    start = time.perf_counter()
    report = identity_suite()
    assert report["all_passed"] is True
    chain = report["surgery_chain"]
    assert chain["passed"] is True
    cases = chain["cases"]
    assert len(cases) >= 6
    for case in cases:
        n, delta, s = case["n"], case["delta"], case["s"]
        plan = surgery_plan(n, delta, s)
        removed_expected = math.comb(delta + 1 - s, 2) + (s - 2) * (delta - s)
        assert len(plan.removed) == removed_expected, (n, delta, s)
        assert case["closed_form_gain"] > 0
        assert case["q_g4"] - case["q_g3"] > 1e-6, (n, delta, s)
        assert case["q_g4"] <= case["threshold"] + 1e-9, (n, delta, s)
        assert case["ok"] is True, (n, delta, s)
    for section in ("difference_identity", "f_positivity",
                    "large_join_below_threshold", "layered_dominates",
                    "root_semantics"):
        assert report[section]["passed"] is True, section
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"budget exceeded: {elapsed:.1f}s"
    announce(6, f"surgery chain certified on {len(cases)} cases in {elapsed:.2f}s")


def test_07_agreement_tables_frozen(tmp_path):
    """Criterion-vs-search cross-tabulations reproduce frozen censuses:
    both order-2 graphs are criterion-yes/factor-no, order 4 has no
    criterion-yes/factor-no graphs, and the connected order-6 census matches
    the golden file byte-for-byte."""
    start = time.perf_counter()
    two = agreement_study(2)
    assert two["counts"] == {
        "both_yes": 0, "both_no": 0,
        "criterion_yes_factor_no": 2, "criterion_no_factor_yes": 0,
    }
    assert "A_" in two["disagreements"]["criterion_yes_factor_no"]

    four = agreement_study(4)
    assert four["total"] == 64
    assert four["counts"] == {
        "both_yes": 1, "both_no": 54,
        "criterion_yes_factor_no": 0, "criterion_no_factor_yes": 9,
    }
    assert four["disagreements"]["criterion_yes_factor_no"] == []

    six = agreement_study(6, connected_only=True)
    assert six["total"] == 26704
    assert six["counts"] == {
        "both_yes": 1708, "both_no": 14826,
        "criterion_yes_factor_no": 0, "criterion_no_factor_yes": 10170,
    }
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden" / "agreement_n6.json"
    assert dumps_canonical(six) == golden.read_text()
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"budget exceeded: {elapsed:.1f}s"
    announce(7, f"agreement censuses frozen (orders 2, 4, 6-connected; "
                f"{six['total']} connected order-6 graphs) in {elapsed:.1f}s")


def test_08_theorem_sweep(tmp_path, capsys):
    """A 100k+ seeded population (connected, minimum degree >= 2) plus every
    one-edge augmentation of the extremal graphs classifies with zero
    counterexamples and zero undecided instances, with at least 100
    instances at or above the threshold, through the real CLI."""
    start = time.perf_counter()
    lines = []
    per_combo = 11112
    combo = 0
    for n in (8, 10, 12):
        for p in (0.5, 0.7, 0.9):
            base = combo * 10 ** 6
            accepted = 0
            seed = 0
            while accepted < per_combo:
                g = random_graph(n, p, seed=base + seed)
                seed += 1
                if min_degree(g) >= 2 and is_connected(g):
                    lines.append(write_graph6(g))
                    accepted += 1
            combo += 1
    additions = 0
    for delta in (2, 3):
        for n in (14, 16, 18, 20):
            g = build_gstar(n, delta)
            for u in range(n):
                for v in range(u + 1, n):
                    if not g.has_edge(u, v):
                        lines.append(write_graph6(g.add_edges([(u, v)])))
                        additions += 1
    assert len(lines) == 9 * per_combo + additions
    assert additions == 156

    stream = tmp_path / "sweep.g6"
    stream.write_text("\n".join(lines) + "\n")
    code = main(["verify", "--stream", str(stream)])
    out = capsys.readouterr().out
    assert code == 0, out
    summary = [ln for ln in out.splitlines() if ln.startswith("verify:")][-1]
    fields = dict(part.split("=") for part in summary.split()[1:])
    counts = {k: int(v) for k, v in fields.items()}
    assert counts["total"] == len(lines)
    assert counts["errors"] == 0
    assert counts["counterexample"] == 0
    assert counts["undecided"] == 0
    assert counts["not_applicable"] == 0
    above = counts["confirmed_factor"] + counts["extremal_match"]
    assert above >= 100, counts
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"budget exceeded: {elapsed:.1f}s"
    announce(8, f"theorem sweep: {counts['total']} instances, "
                f"0 counterexamples, 0 undecided, {above} at/above threshold, "
                f"in {elapsed:.0f}s")
    print(f"    {summary}")


def test_09_sharpness_probes():
    """At (8,2) and (14,3) the extremal graph meets the threshold exactly,
    the parity criterion fails precisely on the join cell (which leaves
    exactly delta odd components), and an explicit even factor verifies.
    Every band below is 1e-8."""
    start = time.perf_counter()
    for n, delta in ((8, 2), (14, 3)):
        g = build_gstar(n, delta)
        threshold = threshold_q(n, delta)
        q = perron_many([g], 1)[0]
        assert q >= threshold - 1e-8
        assert abs(q - threshold) < 1e-8, (n, delta)
        assert strong_tutte_check(g) == (False, tuple(range(delta)))
        mask = sum(1 << v for v in range(delta))
        assert odd_components_after_removal(g, mask) == delta
        factor = even_factor(g)
        assert factor is not None and verify_even_factor(g, factor)
        # Deleting any edge falls below; adding any edge rises above.
        for edge in g.edges():
            assert perron_many([g.remove_edges([edge])], 1)[0] < threshold - 1e-8, edge
        for edge in itertools.combinations(range(n), 2):
            if not g.has_edge(*edge):
                h = g.add_edges([edge])
                assert perron_many([h], 1)[0] >= threshold - 1e-8, edge
                assert recognize_gstar(h) != (n, delta), edge
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.1f}s"
    announce(9, f"sharpness probes at (8,2) and (14,3): threshold met to 1e-8, "
                f"criterion fails exactly on the join cell, factors verified, "
                f"in {elapsed:.1f}s")


def test_10_round_trip_and_exit_codes(tmp_path, capsys, monkeypatch):
    """graph6 round-trips 1000 seeded graphs; verify reports are
    byte-identical across runs after dropping volatile metadata; and the
    CLI exit codes hit their contract end-to-end: 0 clean, 1 counterexample,
    2 malformed input or a census above order 7."""
    start = time.perf_counter()
    for i in range(1000):
        g = random_graph(1 + i % 20, 0.1 + 0.8 * (i % 7) / 6, seed=i)
        assert parse_graph6(write_graph6(g)).rows == g.rows, i

    smoke = tmp_path / "smoke.g6"
    smoke.write_text("GhCGKC\nG~~~~{\nG~~~}?\n")
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["verify", "--stream", str(smoke), "--report", str(r1)]) == 0
    assert main(["verify", "--stream", str(smoke), "--report", str(r2)]) == 0
    capsys.readouterr()
    a = strip_volatile(json.loads(r1.read_text()))
    b = strip_volatile(json.loads(r2.read_text()))
    assert dumps_canonical(a) == dumps_canonical(b)

    bad = tmp_path / "bad.g6"
    bad.write_text("GhCGKC\n!!bogus!!\n")
    assert main(["verify", "--stream", str(bad)]) == 2

    noeven = tmp_path / "noeven.g6"
    noeven.write_text(FACTORLESS + "\n")
    assert main(["verify", "--stream", str(noeven)]) == 0  # below threshold
    with monkeypatch.context() as patch:
        patch.setattr(harness, "EPS", 1e6)  # lifts the threshold
        assert main(["verify", "--stream", str(noeven)]) == 1

    # The exhaustive census is capped at order 7: order 8 is a usage error.
    assert main(["agreement", "--n", "8"]) == 2
    capsys.readouterr()
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.1f}s"
    announce(10, f"1000 graph6 round-trips, byte-stable reports, and the "
                 f"0/1/2 exit-code contract verified in {elapsed:.1f}s")
