"""Tests for classification, streaming verification, and the study suites."""

import itertools

import numpy as np
import pytest

from exhaustive_search import find_even_factor
from qfactor.factors import AGREEMENT_CLASSES, factor_verdict, verify_even_factor
from qfactor.graphs import (
    Graph,
    GuardExceeded,
    complete,
    enumerate_labeled,
    is_connected,
    min_degree,
    parse_graph6,
    random_graph,
    write_graph6,
)
from qfactor.extremal import build_gstar, threshold_q
from qfactor.spectra import IntPolynomial, char_poly, perron_many, perron_q
from qfactor.harness import (
    CHUNK_LINES,
    CLASSIFICATIONS,
    TheoremOutcome,
    agreement_study,
    check_theorem_instance,
    identity_suite,
    lemma_suite,
    max_theorem_delta,
    odd_compositions,
    recognize_gstar,
    sharpness_probe,
    verify_stream,
)

# A connected order-8 graph with delta = 2 and no even factor: a complete
# bipartite K_{2,3} bridged by one edge to a triangle.  Its q exceeds no
# threshold at the default eps, but with eps large enough to disable the
# threshold test it exercises the counterexample branch honestly.
FACTORLESS = "G]o_GK"


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


# ---------------------------------------------------------------------------
# Brute-force isomorphism oracle for the recognizer cross-check
# ---------------------------------------------------------------------------


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    n = g.n
    hdeg = h.degrees()
    gdeg = g.degrees()
    mapping = [-1] * n
    used = [False] * n

    def extend(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used[w] or gdeg[v] != hdeg[w]:
                continue
            ok = True
            for u in range(v):
                if (g.rows[v] >> u & 1) != (h.rows[w] >> mapping[u] & 1):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if extend(v + 1):
                    return True
                used[w] = False
                mapping[v] = -1
        return False

    return extend(0)


def brute_force_gstar_match(g: Graph):
    """Reference recognizer: try every admissible parameter pair."""
    n = g.n
    if n % 2 == 1:
        return None
    for delta in range(2, n // 2):
        if n > 2 * delta and is_isomorphic(g, build_gstar(n, delta)):
            return (n, delta)
    return None


def permuted(g: Graph, perm) -> Graph:
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


class TestRecognizer:
    def test_canonical_instances(self):
        for n, delta in [(6, 2), (8, 2), (10, 2), (14, 3), (20, 4)]:
            assert recognize_gstar(build_gstar(n, delta)) == (n, delta)

    def test_rejects_near_misses(self):
        g = build_gstar(8, 2)
        plus = g.add_edges([(2, 7)])  # connect the isolated cell to the clique
        assert recognize_gstar(plus) is None
        minus = g.remove_edges([g.edges()[0]])
        assert recognize_gstar(minus) is None
        assert recognize_gstar(complete(8)) is None
        assert recognize_gstar(cycle(8)) is None

    def test_relabeling_invariance(self):
        g = build_gstar(8, 2)
        for perm in itertools.islice(itertools.permutations(range(8)), 0, 720, 97):
            assert recognize_gstar(permuted(g, list(perm))) == (8, 2)

    def test_matches_brute_force_on_small_orders(self):
        # Oracle cross-check on every graph the backtracker can afford:
        # permuted extremal graphs, their one-edge perturbations, and a
        # seeded random population of orders 4..8.
        cases = []
        for n, delta in [(6, 2), (8, 2), (8, 3)]:
            try:
                base = build_gstar(n, delta)
            except ValueError:
                continue
            cases.append(base)
            cases.append(permuted(base, list(range(n))[::-1]))
            non_edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if not base.has_edge(u, v)
            ]
            if non_edges:
                cases.append(base.add_edges([non_edges[0]]))
            cases.append(base.remove_edges([base.edges()[-1]]))
        for n in (4, 6, 8):
            for seed in range(25):
                cases.append(random_graph(n, 0.5, seed=seed))
        for g in cases:
            assert recognize_gstar(g) == brute_force_gstar_match(g), write_graph6(g)


# ---------------------------------------------------------------------------
# Classification ladder
# ---------------------------------------------------------------------------


class TestMaxTheoremDelta:
    def test_values(self):
        assert max_theorem_delta(6) == 1
        assert max_theorem_delta(7) == 2
        assert max_theorem_delta(8) == 2
        assert max_theorem_delta(14) == 3
        assert max_theorem_delta(21) == 4


class TestCheckTheoremInstance:
    def test_not_applicable_reasons(self):
        assert check_theorem_instance(Graph.empty(3)).classification == "not_applicable"
        assert "even" in check_theorem_instance(cycle(7)).note
        assert "disconnected" in check_theorem_instance(Graph.empty(8)).note
        path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert "minimum degree" in check_theorem_instance(path).note

    def test_complete_graph_confirmed_with_capped_delta(self):
        out = check_theorem_instance(complete(8))
        assert out.classification == "confirmed_factor"
        assert out.delta == 2  # min degree 7 capped by (8+7)//7
        assert out.witness["kind"] == "even_factor"
        assert out.q == pytest.approx(14.0, abs=1e-9)
        assert out.threshold == pytest.approx(threshold_q(8, 2), abs=1e-12)

    def test_cycle_below_threshold(self):
        out = check_theorem_instance(cycle(8))
        assert out.classification == "below_threshold"
        assert out.q == pytest.approx(4.0, abs=1e-9)
        assert out.witness is None

    def test_extremal_match(self):
        out = check_theorem_instance(build_gstar(8, 2))
        assert out.classification == "extremal_match"
        assert out.witness is None
        assert out.q == pytest.approx(out.threshold, abs=1e-9)

    def test_counterexample_with_disabled_threshold(self):
        g = parse_graph6(FACTORLESS)
        out = check_theorem_instance(g, eps=1e6)
        assert out.classification == "counterexample"
        assert out.witness == {"kind": "no_even_factor"}

    def test_factorless_graph_is_below_threshold_at_default_eps(self):
        out = check_theorem_instance(parse_graph6(FACTORLESS))
        assert out.classification == "below_threshold"

    def test_confirmed_by_two_factor_fast_path(self):
        # The two perfect matchings decide K8: a 2-factor has 8 edges.
        out = check_theorem_instance(complete(8))
        assert out.classification == "confirmed_factor"
        assert out.witness["kind"] == "even_factor"
        assert len(out.witness["edges"]) == 8

    def test_confirmed_by_gadget_when_fast_path_fails(self, monkeypatch):
        monkeypatch.setattr("qfactor.factors.two_factor", lambda g: None)
        out = check_theorem_instance(complete(8))
        assert out.classification == "confirmed_factor"
        assert out.witness["kind"] == "even_factor"
        assert verify_even_factor(complete(8), [tuple(e) for e in out.witness["edges"]])

    def test_classification_vocabulary(self):
        assert set(CLASSIFICATIONS) == {
            "not_applicable",
            "below_threshold",
            "confirmed_factor",
            "extremal_match",
            "counterexample",
        }

    def test_as_row_shape(self):
        row = TheoremOutcome("below_threshold", 4.0, 12.0, 2).as_row("Ghello")
        assert row["graph6"] == "Ghello"
        assert "note" not in row


# ---------------------------------------------------------------------------
# Streaming verification
# ---------------------------------------------------------------------------


class TestVerifyStream:
    LINES = ["GhCGKC", "", "G~~~~{", "G~~~}?", "!!bogus!!"]

    def test_counts_errors_and_order(self):
        report = verify_stream(self.LINES)
        assert report["total"] == 4
        assert report["counts"]["below_threshold"] == 1
        assert report["counts"]["confirmed_factor"] == 1
        assert report["counts"]["extremal_match"] == 1
        assert report["errors"] == 1
        assert [row["line"] for row in report["items"]] == [1, 3, 4, 5]
        error_row = report["items"][-1]
        assert error_row["line"] == 5 and "error" in error_row
        assert report["counterexamples"] == []

    def test_jobs_invariance(self):
        lines = [write_graph6(random_graph(9, 0.5, seed=s)) for s in range(12)]
        assert verify_stream(lines) == verify_stream(lines, jobs=3)

    def test_counterexample_listed(self):
        report = verify_stream([FACTORLESS], eps=1e6)
        assert report["counts"]["counterexample"] == 1
        assert report["counterexamples"] == [FACTORLESS]

    def test_non_factor_certificate_is_never_confirmed(self, monkeypatch):
        # A fast path that hands back one edge, which is no even factor; then
        # a gadget matching with every end matched across its edge, which
        # gives K8 all its edges (degree 7 everywhere), with the fast path
        # patched out.
        for name, tampered in (("two_factor", lambda g: ((0, 1),)),
                               ("_mates", lambda rows: [v ^ 1 for v in range(len(rows))])):
            if name == "_mates":
                monkeypatch.setattr("qfactor.factors.two_factor", lambda g: None)
            monkeypatch.setattr(f"qfactor.factors.{name}", tampered)
            with pytest.raises(ValueError, match="non-factor"):
                check_theorem_instance(complete(8))
            report = verify_stream(["G~~~~{"])
            assert report["errors"] == 1
            assert report["counts"]["confirmed_factor"] == 0
            assert "non-factor" in report["items"][0]["error"]
        monkeypatch.undo()
        monkeypatch.setattr("qfactor.factors.two_factor", lambda g: ((0, 1),))
        with pytest.raises(ValueError, match="non-factor"):
            sharpness_probe(8, 2, perturbations=False)


def _interleaved_stream(count):
    """Orders 4..12 (and odd 7) interleaved line by line, with blank,
    header-prefixed and malformed lines mixed in."""
    lines = []
    for i in range(count):
        n = (8, 10, 4, 12, 6, 7, 10, 8)[i % 8]
        text = write_graph6(random_graph(n, (0.3, 0.6, 0.8)[i % 3], seed=i))
        if i % 50 == 7:
            text = ">>graph6<<" + text
        lines.append(text)
        if i % 97 == 3:
            lines.append("")
    lines[101] = "!!bogus!!"
    return lines


def _reference_rows(lines):
    """Rows of the one-graph path: check_theorem_instance line by line."""
    rows = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        try:
            g = parse_graph6(text)
        except ValueError as exc:
            rows.append({"line": lineno, "graph6": text, "error": str(exc)})
            continue
        row = check_theorem_instance(g).as_row(graph6=write_graph6(g))
        row["line"] = lineno
        rows.append(row)
    return rows


# Dense graphs of orders 8 and 10, alternating, all past the pre-spectral gate.
_TWO_ORDERS = [write_graph6(random_graph((8, 10)[i % 2], 0.8, seed=50 + i)) for i in range(12)]


class TestChunkedVerify:
    def test_jobs_invariance_across_chunk_boundaries(self):
        lines = _interleaved_stream(2 * CHUNK_LINES + 37)
        nonblank = sum(1 for line in lines if line.strip())
        assert nonblank % CHUNK_LINES and nonblank > 2 * CHUNK_LINES
        one = verify_stream(lines)
        assert one["items"] == _reference_rows(lines)
        assert one["errors"] == 1 and one["counts"]["below_threshold"] > 0
        assert verify_stream(lines, jobs=2) == one
        assert verify_stream(lines, jobs=3) == one

    def test_prefixed_line_reports_its_canonical_graph6(self):
        row = verify_stream([">>graph6<<G~~~~{"])["items"][0]
        assert row["graph6"] == "G~~~~{"

    def test_linalg_error_on_one_order_errors_exactly_its_lines(self, monkeypatch):
        clean = verify_stream(_TWO_ORDERS)
        assert clean["errors"] == 0 and clean["counts"]["not_applicable"] == 0
        eigh = np.linalg.eigh

        def failing(m):
            if m.shape[-1] == 10:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", failing)
        report = verify_stream(_TWO_ORDERS)
        for row, before in zip(report["items"], clean["items"]):
            if parse_graph6(row["graph6"]).n == 10:
                assert row == {"line": row["line"], "graph6": row["graph6"],
                               "error": "Eigenvalues did not converge"}
            else:
                assert row == before
        assert report["errors"] == 6

    def test_failed_stack_is_retried_one_graph_at_a_time(self, monkeypatch):
        clean = verify_stream(_TWO_ORDERS)
        eigh = np.linalg.eigh

        def single_only(m):
            if len(m) > 1:
                raise np.linalg.LinAlgError("stack refused")
            return eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", single_only)
        assert verify_stream(_TWO_ORDERS) == clean

    def test_residual_gate_errors_only_its_own_line(self, monkeypatch):
        # Skew the first matrix of every stack: the first line of each order.
        clean = verify_stream(_TWO_ORDERS)
        eigh = np.linalg.eigh

        def skew_first(m):
            values, vectors = eigh(m)
            values = values.copy()
            values[0] += 1e-9
            return values, vectors

        monkeypatch.setattr(np.linalg, "eigh", skew_first)
        report = verify_stream(_TWO_ORDERS)
        for k, (row, before) in enumerate(zip(report["items"], clean["items"])):
            if k < 2:
                assert "residual" in row["error"] and "exceeds gate" in row["error"]
            else:
                assert row == before
        assert report["errors"] == 2


def _sweep_style_lines():
    """Connected G(n, p) with minimum degree >= 2 for n in {8, 10, 12} and
    p in {.5, .7, .9}, then every one-edge augmentation of G*(n, delta) for
    n in {14, 16} and delta in {2, 3}."""
    lines = []
    for n, p in itertools.product((8, 10, 12), (0.5, 0.7, 0.9)):
        graphs = (random_graph(n, p, seed=100_000 * n + 1_000 * round(10 * p) + s)
                  for s in itertools.count())
        lines += [write_graph6(g) for g in itertools.islice(
            (g for g in graphs if min_degree(g) >= 2 and is_connected(g)), 15)]
    for n, delta in itertools.product((14, 16), (2, 3)):
        g = build_gstar(n, delta)
        lines += [write_graph6(g.add_edges([e])) for e in itertools.combinations(range(n), 2)
                  if not g.has_edge(*e)]
    return lines


def _without_edge_lists(rows):
    out = []
    for row in rows:
        witness = row.get("witness") or {}
        out.append({**row, "witness": {k: v for k, v in witness.items() if k != "edges"}})
    return out


class TestFastPath:
    def test_same_verdicts_as_the_exhaustive_search(self, monkeypatch):
        # The fast path and the gadget give the same rows apart from the
        # witness edge lists, and every above-threshold verdict is the
        # exhaustive search's.
        lines = _sweep_style_lines()
        assert len(lines) == 9 * 15 + 66
        fast = verify_stream(lines)
        monkeypatch.setattr("qfactor.factors.two_factor", lambda g: None)
        gadget = verify_stream(lines)
        assert _without_edge_lists(fast["items"]) == _without_edge_lists(gadget["items"])
        assert fast["counts"] == gadget["counts"]
        assert fast["counts"]["confirmed_factor"] >= 66
        assert fast["counts"]["counterexample"] == fast["errors"] == 0
        for row in fast["items"]:
            if row["classification"] == "confirmed_factor":
                g = parse_graph6(row["graph6"])
                assert find_even_factor(g, max_order=24, max_edges=400) is not None


# ---------------------------------------------------------------------------
# Sharpness probe
# ---------------------------------------------------------------------------


class TestSharpnessProbe:
    def test_8_2(self):
        probe = sharpness_probe(8, 2)
        assert probe["q"] == pytest.approx(probe["threshold"], abs=1e-9)
        assert probe["meets_threshold"] is True
        assert probe["join_cell"] == [0, 1]
        assert probe["criterion_holds"] is False
        assert probe["blocking_set"] == [0, 1]
        assert probe["blocking_set_is_join_cell"] is True
        assert probe["has_even_factor"] is True
        assert len(probe["even_factor"]) == 8  # a Hamiltonian cycle
        # Every single-edge deletion drops the radius below the threshold.
        assert probe["deletions_above_threshold"] == 0
        assert all(not row["ge_threshold"] for row in probe["deletions"])
        # Additions only increase the radius.
        assert probe["additions_above_threshold"] == len(probe["additions"])
        assert all(row["q"] > probe["q"] for row in probe["additions"])
        assert all(row["is_extremal_graph"] is False for row in probe["additions"])

    def test_without_perturbations(self):
        probe = sharpness_probe(14, 3, perturbations=False)
        assert "additions" not in probe and "deletions" not in probe
        assert probe["meets_threshold"] is True
        assert probe["has_even_factor"] is True
        assert probe["blocking_set"] == [0, 1, 2]
        assert probe["blocking_set_is_join_cell"] is True


# ---------------------------------------------------------------------------
# Helpers and configuration
# ---------------------------------------------------------------------------


class TestHelpers:
    def test_odd_compositions(self):
        assert list(odd_compositions(6, 2)) == [(1, 5), (3, 3)]
        assert list(odd_compositions(9, 3)) == [(1, 1, 7), (1, 3, 5), (3, 3, 3)]
        assert list(odd_compositions(5, 2)) == []  # parity mismatch
        assert list(odd_compositions(10, 2, minimum=3)) == [(3, 7), (5, 5)]


# ---------------------------------------------------------------------------
# Study suites (reduced grids for speed; full grids run in acceptance)
# ---------------------------------------------------------------------------


class TestSuites:
    def test_lemma_suite_passes(self):
        report = lemma_suite(seed=0, max_n=12, max_s=3, pairs=20)
        assert report["all_passed"] is True
        sections = {
            "clique_redistribution",
            "edge_monotonicity",
            "quotient_radius",
            "eigenvector_cells",
            "cell_ordering",
        }
        assert sections <= set(report)
        for name in sections:
            assert report[name]["passed"] is True, name
        assert report["clique_redistribution"]["violations"] == 0
        assert report["edge_monotonicity"]["violations"] == 0
        assert report["quotient_radius"]["all_equitable"] is True
        assert report["quotient_radius"]["max_root_vs_perron"] < 1e-8
        assert report["quotient_radius"]["all_divide"] is True
        assert all(case["divides"] for case in report["quotient_radius"]["cases"])

    def test_lemma_spectra_batched_equal_one_by_one(self, monkeypatch):
        # The redistribution and edge-monotonicity lemmas take their radii
        # from one stacked perron_many call; one eigh per graph gives the
        # same floats bit for bit, so the same report bytes.
        batched = lemma_suite(seed=3)
        one_by_one = lambda graphs, alpha: [perron_many([g], alpha)[0] for g in graphs]
        monkeypatch.setattr("qfactor.harness.perron_many", one_by_one)
        assert lemma_suite(seed=3) == batched

    def test_quotient_radius_rejects_a_non_dividing_polynomial(self, monkeypatch):
        # Add 1 to the constant term of every full order-n polynomial; the
        # cubic quotient polynomials (three cells) stay exact.
        def skewed(m):
            poly = char_poly(m)
            if poly.degree <= 3:
                return poly
            return poly + IntPolynomial((1,))

        monkeypatch.setattr("qfactor.harness.char_poly", skewed)
        report = lemma_suite(seed=0, max_n=6, max_s=2, pairs=2)["quotient_radius"]
        assert report["all_equitable"] is True
        assert report["max_root_vs_perron"] < 1e-8
        assert not any(case["divides"] for case in report["cases"])
        assert report["all_divide"] is False and report["passed"] is False

    def test_identity_suite_passes(self):
        report = identity_suite(max_delta=4)
        assert report["all_passed"] is True
        sections = {
            "difference_identity",
            "f_positivity",
            "large_join_below_threshold",
            "surgery_chain",
            "layered_dominates",
            "root_semantics",
        }
        assert sections <= set(report)
        for name in sections:
            assert report[name]["passed"] is True, name
        assert report["difference_identity"]["mismatches"] == []
        assert report["f_positivity"]["min_value"] >= 3


def reference_census(n, connected_only=False):
    """Reference oracle: the per-graph exhaustive census, one factor_verdict
    per labeled graph in ascending edge-mask order."""
    counts = {name: 0 for name in AGREEMENT_CLASSES}
    disagreements = {"criterion_yes_factor_no": [], "criterion_no_factor_yes": []}
    for g in enumerate_labeled(n, connected_only=connected_only):
        agreement = factor_verdict(g).agreement
        counts[agreement] += 1
        if agreement in disagreements:
            disagreements[agreement].append(write_graph6(g))
    return {
        "n": n,
        "mode": "exhaustive",
        "connected_only": connected_only,
        "p": None,
        "seed": None,
        "total": sum(counts.values()),
        "counts": counts,
        "disagreements": disagreements,
        "criterion_matches_factor": not disagreements["criterion_yes_factor_no"]
        and not disagreements["criterion_no_factor_yes"],
    }


class TestAgreementStudy:
    @pytest.mark.parametrize("n, connected_only", [
        (0, False), (2, False), (4, False), (4, True), (6, False), (6, True),
    ])
    def test_exhaustive_matches_reference_census(self, n, connected_only):
        # Equal dicts compare the disagreement lists in order, too.
        assert agreement_study(n, connected_only=connected_only) == reference_census(
            n, connected_only)

    @pytest.mark.parametrize("connected_only, classes", [(False, 156), (True, 112)])
    def test_one_verdict_per_isomorphism_class(self, monkeypatch, connected_only, classes):
        seen = []

        def counted(g):
            seen.append(g)
            return factor_verdict(g)

        monkeypatch.setattr("qfactor.harness.factor_verdict", counted)
        report = agreement_study(6, connected_only=connected_only)
        assert len(seen) == classes
        assert report["total"] == (26704 if connected_only else 32768)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            agreement_study(-2)
        with pytest.raises(ValueError):
            agreement_study(-2, samples=3)

    @pytest.mark.parametrize("n, p", [(8, 0.0), (0, 0.5), (0, 0.0)])
    def test_sampled_connected_impossible_rejected(self, n, p):
        with pytest.raises(ValueError):
            agreement_study(n, samples=5, p=p, connected_only=True)

    def test_n2_exhaustive(self):
        report = agreement_study(2)
        assert report["total"] == 2
        assert report["counts"] == {
            "both_yes": 0,
            "both_no": 0,
            "criterion_yes_factor_no": 2,
            "criterion_no_factor_yes": 0,
        }
        assert report["criterion_matches_factor"] == 0

    def test_n4_exhaustive(self):
        report = agreement_study(4)
        assert report["total"] == 64
        assert report["counts"] == {
            "both_yes": 1,
            "both_no": 54,
            "criterion_yes_factor_no": 0,
            "criterion_no_factor_yes": 9,
        }

    def test_sampled_beyond_the_old_certificate_guard(self):
        # No order guard applies: both sides of the census are polynomial.
        report = agreement_study(20, samples=20, seed=1)
        assert report["total"] == 20
        assert sum(report["counts"].values()) == 20

    def test_sampled_mode(self):
        report = agreement_study(8, samples=30, p=0.6, seed=7)
        assert report["mode"] == "sampled"
        assert report["total"] == 30
        assert sum(report["counts"].values()) == 30
        # Determinism under the same seed.
        assert agreement_study(8, samples=30, p=0.6, seed=7) == report

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError):
            agreement_study(5)

    def test_enum_guard(self):
        with pytest.raises(GuardExceeded):
            agreement_study(8, max_order=7)
