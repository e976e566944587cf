"""Tests for classification, streaming verification, and the study suites."""

import errno
import gc
import itertools
import json
import os
import signal
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exhaustive_search import enumerate_labeled, find_even_factor
from rotation_search import hamiltonian_cycle
from qfactor import harness, suites
from qfactor.census import agreement_study, isomorphism_classes
from qfactor.cli import _CSV_COLUMNS
from qfactor.factors import (
    AGREEMENT_CLASSES,
    even_factor,
    factor_verdict,
    strong_tutte_check,
    verify_even_factor,
)
from qfactor.graphs import (
    CHUNK_LINES,
    Graph,
    complete,
    is_connected,
    min_degree,
    parse_graph6,
    random_graph,
    write_graph6,
)
from qfactor.extremal import (
    build_g1,
    build_g3,
    build_g4,
    build_gstar,
    g1_cells,
    surgery_plan,
    threshold_q,
)
from qfactor.reportio import dumps_canonical, make_report
from qfactor.spectra import (
    _alpha_stack,
    char_poly,
    equitable_partition,
    perron_many,
)
from qfactor.harness import (
    CLASSIFICATIONS,
    check_theorem_instance,
    max_theorem_delta,
    recognize_gstar,
    verify_stream,
)
from qfactor.suites import identity_suite, lemma_suite, min_theorem_order, odd_compositions

# A connected order-8 graph with delta = 2 and no even factor: a complete
# bipartite K_{2,3} bridged by one edge to a triangle.  Its q exceeds no
# threshold, but with harness.EPS large enough to disable the threshold test
# it exercises the counterexample branch honestly.
FACTORLESS = "G]o_GK"


@pytest.fixture
def no_threshold(monkeypatch):
    """A threshold band so wide that every applicable graph climbs past it."""
    monkeypatch.setattr(harness, "EPS", 1e6)


def _usable_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@pytest.fixture
def many_cpus(monkeypatch):
    """Four usable CPUs, so that jobs > 1 forks on any machine."""
    _usable_cpus(monkeypatch, 4)


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def signless_laplacian(g):
    """Q = D + A, entry by entry from the bitrows."""
    a = np.array([[row >> j & 1 for j in range(g.n)] for row in g.rows], float).reshape(g.n, g.n)
    return np.diag(a.sum(axis=1)) + a


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
        # Labels reversed, so no vertex keeps its canonical role, at every
        # even order the graph6 short form holds.
        for n in range(6, 63, 2):
            for delta in range(2, n // 2):
                g = permuted(build_gstar(n, delta), list(range(n))[::-1])
                assert recognize_gstar(g) == (n, delta), (n, delta)

    def test_matches_brute_force_on_small_orders(self):
        # Oracle cross-check on every graph the backtracker can afford:
        # one representative of each of the 156 isomorphism classes of
        # order 6, which covers every degree multiset on six vertices;
        # permuted extremal graphs, their one-edge perturbations, and a
        # seeded random population of orders 4..8.
        cases = list(isomorphism_classes(6)[1])
        assert len(cases) == 156
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

    def test_min_theorem_order(self):
        assert [min_theorem_order(delta) for delta in range(2, 7)] == [8, 14, 22, 28, 36]
        # the least even n the order-vs-degree hypothesis admits at delta
        for delta in range(2, 12):
            n = min_theorem_order(delta)
            assert n % 2 == 0 and max_theorem_delta(n) >= delta > max_theorem_delta(n - 2)


class TestCheckTheoremInstance:
    def test_not_applicable_reasons(self):
        assert check_theorem_instance(Graph.empty(3))["classification"] == "not_applicable"
        assert "even" in check_theorem_instance(cycle(7))["note"]
        assert "disconnected" in check_theorem_instance(Graph.empty(8))["note"]
        path = Graph.from_edges(8, [(v, v + 1) for v in range(7)])
        assert "minimum degree" in check_theorem_instance(path)["note"]

    @pytest.mark.parametrize("text", ["C~", "E~~w"], ids=["K4", "K6"])
    def test_order_below_8_is_not_applicable_whatever_its_degrees(self, text):
        # K4 and K6 have minimum degrees 3 and 5, but below order 8 the cap
        # (n+7)//7 is 1: the order, not the degree, rules them out.
        out = check_theorem_instance(parse_graph6(text))
        assert (out["classification"], out["note"]) == ("not_applicable",
                                                         "order must be even and at least 8")

    def test_complete_graph_confirmed_with_capped_delta(self):
        out = check_theorem_instance(complete(8))
        assert out["classification"] == "confirmed_factor"
        assert out["delta"] == 2  # min degree 7 capped by (8+7)//7
        assert out["witness"]["kind"] == "even_factor"
        assert out["q"] == pytest.approx(14.0, abs=1e-9)
        assert out["threshold"] == pytest.approx(threshold_q(8, 2), abs=1e-12)

    def test_cycle_below_threshold(self):
        out = check_theorem_instance(cycle(8))
        assert out["classification"] == "below_threshold"
        assert out["q"] == pytest.approx(4.0, abs=1e-9)
        assert out["witness"] is None

    def test_extremal_match(self):
        out = check_theorem_instance(build_gstar(8, 2))
        assert out["classification"] == "extremal_match"
        assert out["witness"] is None
        assert out["q"] == pytest.approx(out["threshold"], abs=1e-9)

    def test_counterexample_with_disabled_threshold(self, no_threshold):
        g = parse_graph6(FACTORLESS)
        out = check_theorem_instance(g)
        assert out["classification"] == "counterexample"
        assert out["witness"] == {"kind": "no_even_factor"}

    def test_factorless_graph_is_below_threshold_at_default_eps(self):
        out = check_theorem_instance(parse_graph6(FACTORLESS))
        assert out["classification"] == "below_threshold"

    def test_confirmed_by_two_factor_fast_path(self):
        # The two perfect matchings decide K8: a 2-factor has 8 edges.
        out = check_theorem_instance(complete(8))
        assert out["classification"] == "confirmed_factor"
        assert out["witness"]["kind"] == "even_factor"
        assert len(out["witness"]["edges"]) == 8

    def test_confirmed_by_gadget_when_fast_path_fails(self, monkeypatch):
        monkeypatch.setattr("qfactor.factors.two_factor", lambda g: None)
        out = check_theorem_instance(complete(8))
        assert out["classification"] == "confirmed_factor"
        assert out["witness"]["kind"] == "even_factor"
        assert verify_even_factor(complete(8), [tuple(e) for e in out["witness"]["edges"]])

    def test_classification_vocabulary(self):
        assert set(CLASSIFICATIONS) == {
            "not_applicable",
            "below_threshold",
            "confirmed_factor",
            "extremal_match",
            "counterexample",
        }

    def test_zero_eps_accepted(self, monkeypatch):
        # G*(8,2) plus one edge lies above the threshold with no band at all.
        monkeypatch.setattr(harness, "EPS", 0.0)
        out = check_theorem_instance(build_gstar(8, 2).add_edges([(6, 7)]))
        assert out["classification"] == "confirmed_factor"

    def test_row_shape(self, monkeypatch):
        # One row per classification, each graph as the tests above build it:
        # the counterexample is G]o_GK with the threshold band widened.
        rows = [check_theorem_instance(g) for g in
                (complete(7), parse_graph6(FACTORLESS), complete(8), build_gstar(8, 2))]
        monkeypatch.setattr(harness, "EPS", 1e6)
        rows.append(check_theorem_instance(parse_graph6(FACTORLESS)))
        assert [row["classification"] for row in rows] == [
            "not_applicable", "below_threshold", "confirmed_factor", "extremal_match",
            "counterexample"]
        fields = {"classification", "q", "threshold", "delta", "witness"}
        for row in rows:
            noted = row["classification"] == "not_applicable"
            assert set(row) == (fields | {"note"} if noted else fields), row
            assert set(row) <= set(_CSV_COLUMNS["verify"])


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
        assert report["counts"]["counterexample"] == 0

    def test_jobs_invariance(self):
        lines = [write_graph6(random_graph(9, 0.5, seed=s)) for s in range(12)]
        assert verify_stream(lines) == verify_stream(lines, jobs=3)

    def test_counterexample_listed(self, no_threshold):
        report = verify_stream([FACTORLESS])
        assert report["counts"]["counterexample"] == 1
        assert report["items"][0]["graph6"] == FACTORLESS
        assert report["items"][0]["classification"] == "counterexample"

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


class TestHypothesesBeforeEigh:
    """The hypotheses need no Perron value: a graph they rule out never
    reaches perron_many, on the one-graph path or in the chunked stream."""

    K8, K10 = "G~~~~{", "I~~~~~~~w"

    def test_inapplicable_graphs_stay_out_of_the_eigh_stack(self, monkeypatch):
        received = []

        def recording(graphs, alpha):
            received.extend(g.n for g in graphs)
            return perron_many(graphs, alpha)

        monkeypatch.setattr("qfactor.harness.perron_many", recording)
        path = Graph.from_edges(8, [(v, v + 1) for v in range(7)])
        inapplicable = [parse_graph6("F~~~w"), Graph.empty(8), path]
        for g in inapplicable:
            assert check_theorem_instance(g)["classification"] == "not_applicable"
        assert received == []

        lines = [self.K8, *map(write_graph6, inapplicable), self.K10]
        rows = verify_stream(lines, jobs=1)["items"]
        assert received == [8, 10]
        assert [row["classification"] for row in rows] == [
            "confirmed_factor", "not_applicable", "not_applicable", "not_applicable",
            "confirmed_factor"]
        assert all(row["q"] is None and row["delta"] is None for row in rows[1:4])


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
        rows.append({"line": lineno, "graph6": write_graph6(g),
                     **check_theorem_instance(g)})
    return rows


# Dense graphs of orders 8 and 10, alternating, all past the pre-spectral gate.
_TWO_ORDERS = [write_graph6(random_graph((8, 10)[i % 2], 0.8, seed=50 + i)) for i in range(12)]


class TestChunkedVerify:
    def test_jobs_invariance_across_chunk_boundaries(self, many_cpus):
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
        # Skew the eigenvalues of one graph's matrix, wherever it sits in its
        # stack: the fourth line, the second graph of order 10.
        clean = verify_stream(_TWO_ORDERS)
        target = _alpha_stack([parse_graph6(_TWO_ORDERS[3])], 1)[0]
        eigh = np.linalg.eigh

        def skew_target(m):
            values, vectors = eigh(m)
            values = values.copy()
            for k, matrix in enumerate(m):
                if np.array_equal(matrix, target):
                    values[k] += 1e-9
            return values, vectors

        monkeypatch.setattr(np.linalg, "eigh", skew_target)
        report = verify_stream(_TWO_ORDERS)
        for k, (row, before) in enumerate(zip(report["items"], clean["items"])):
            if k == 3:
                assert "residual" in row["error"] and "exceeds gate" in row["error"]
            else:
                assert row == before
        assert report["errors"] == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_hypothesis_check_errors_only_its_own_lines(self, monkeypatch, many_cpus,
                                                                jobs):
        # An error raised before any Perron value, on every order-10 line of
        # a three-chunk stream: exactly those lines are error rows. verify
        # forks, so its children see the patch.
        lines = _interleaved_stream(2 * CHUNK_LINES + 37)
        clean = verify_stream(lines)

        def failing(g):
            if g.n == 10:
                raise ValueError("component scan failed")
            return is_connected(g)

        monkeypatch.setattr("qfactor.harness.is_connected", failing)
        report = verify_stream(lines, jobs=jobs)
        assert len(report["items"]) == len(clean["items"])
        tens = 0
        for row, before in zip(report["items"], clean["items"]):
            if "error" not in before and parse_graph6(row["graph6"]).n == 10:
                tens += 1
                assert row == {"line": before["line"], "graph6": lines[before["line"] - 1],
                               "error": "component scan failed"}
            else:
                assert row == before
        assert tens > 50 and report["errors"] == tens + clean["errors"]


@pytest.fixture
def forks(monkeypatch):
    """os.fork wrapped to record each fork in this process; a child's own
    appends stay in the child."""
    made = []
    fork = os.fork

    def recording():
        made.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", recording)
    return made


@pytest.fixture
def within_a_minute():
    """SIGALRM raises TimeoutError in the test if it runs past a minute, so a
    fan-out that waits forever fails instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError("verify_stream did not return within a minute")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _no_child_left():
    """True when this process has no child, exited or running."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _failing_in(where, fail):
    """An is_connected that first runs ``fail`` in this process ("parent")
    or in the forked children ("child")."""
    parent = os.getpid()

    def checked(g):
        if where == ("parent" if os.getpid() == parent else "child"):
            fail()
        return is_connected(g)

    return checked


def _raise_lookup():
    raise LookupError("scan lost its place")


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


class TestPool:
    LINES = _interleaved_stream(3 * CHUNK_LINES + 5)  # four chunks

    @pytest.mark.parametrize("cpus, jobs, workers", [
        (3, 5000, 3),  # capped at the usable CPUs
        (8, 5000, 4),  # capped at the chunks
        (8, 2, 2),
        (1, 5000, None),  # one worker: no fork
        (8, 1, None),
    ])
    def test_workers_are_capped_at_cpus_and_chunks(self, monkeypatch, forks, cpus, jobs,
                                                   workers):
        # this process is one of the workers, so it forks one fewer
        _usable_cpus(monkeypatch, cpus)
        assert verify_stream(self.LINES, jobs=jobs) == verify_stream(self.LINES)
        assert len(forks) == (0 if workers is None else workers - 1)

    @pytest.mark.parametrize("count, workers", [(None, None), (1, None), (3, 3)])
    def test_cpu_count_caps_workers_without_affinity(self, monkeypatch, forks, count,
                                                     workers):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert verify_stream(self.LINES, jobs=5000) == verify_stream(self.LINES)
        assert len(forks) == (0 if workers is None else workers - 1)

    def test_serial_without_fork(self, monkeypatch, many_cpus):
        serial = verify_stream(self.LINES)
        monkeypatch.delattr(os, "fork")
        assert verify_stream(self.LINES, jobs=4) == serial

    def test_heap_is_unfrozen_after_the_pool(self, monkeypatch, many_cpus, forks):
        serial = verify_stream(self.LINES)
        assert verify_stream(self.LINES, jobs=2) == serial
        assert forks == [1]
        assert gc.get_freeze_count() == 0 and gc.isenabled()
        assert _no_child_left()

    def test_heap_is_unfrozen_when_a_chunk_raises(self, monkeypatch, many_cpus):
        # LookupError is not a line error, so this process's own share
        # raises it through the fan-out's finally.
        monkeypatch.setattr("qfactor.harness.is_connected", _failing_in("parent", _raise_lookup))
        with pytest.raises(LookupError, match="scan lost its place"):
            verify_stream(self.LINES, jobs=2)
        assert gc.get_freeze_count() == 0 and gc.isenabled()
        assert _no_child_left()

    @pytest.mark.parametrize("fail, error", [
        (_raise_lookup, "exited with status 1"),
        (_kill_self, f"killed by signal {signal.SIGKILL.value}"),
    ], ids=["raises", "killed"])
    def test_a_failed_child_raises_and_is_reaped(self, monkeypatch, many_cpus,
                                                 within_a_minute, fail, error):
        # A child's rows are lost either way: the run stops with
        # RuntimeError (exit 2 from the CLI) instead of waiting for them.
        monkeypatch.setattr("qfactor.harness.is_connected", _failing_in("child", fail))
        with pytest.raises(RuntimeError, match=error):
            verify_stream(self.LINES, jobs=4)
        assert gc.get_freeze_count() == 0 and gc.isenabled()
        assert _no_child_left()

    def test_a_failed_fork_raises_and_reaps_the_forked_child(self, monkeypatch,
                                                             within_a_minute):
        # Three workers: the first fork succeeds and the second fails, as
        # when the process table is full. The error propagates, the child
        # already forked is reaped, and no pipe end is left open.
        _usable_cpus(monkeypatch, 3)
        fork, calls = os.fork, []

        def second_fails():
            calls.append(1)
            if len(calls) == 2:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", second_fails)
        fds = sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
        with pytest.raises(BlockingIOError):
            verify_stream(self.LINES, jobs=3)
        assert _no_child_left()
        if fds is not None:
            assert sorted(os.listdir("/proc/self/fd")) == fds


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
        g = build_gstar(8, 2)
        threshold = threshold_q(8, 2)
        q = perron_many([g], 1)[0]
        assert q == pytest.approx(threshold, abs=1e-9)
        assert q >= threshold - 1e-8
        # The criterion fails on the join cell, yet there is an even factor
        # (the one found is two 4-cycles).
        assert strong_tutte_check(g) == (False, (0, 1))
        factor = even_factor(g)
        assert len(factor) == 8 and verify_even_factor(g, factor)
        # Every single-edge deletion drops the radius below the threshold.
        for edge in g.edges():
            assert perron_many([g.remove_edges([edge])], 1)[0] < threshold - 1e-8, edge
        # Additions only increase the radius, and none gives G*(8, 2) again.
        for edge in itertools.combinations(range(8), 2):
            if not g.has_edge(*edge):
                h = g.add_edges([edge])
                hq = perron_many([h], 1)[0]
                assert hq >= threshold - 1e-8 and hq > q, edge
                assert recognize_gstar(h) != (8, 2), edge


# ---------------------------------------------------------------------------
# Hamiltonicity at and above the threshold
# ---------------------------------------------------------------------------


def is_hamiltonian_cycle(g: Graph, cycle) -> bool:
    """True iff cycle lists the n vertices of g once each and every
    consecutive pair, the closing pair included, is an edge of g."""
    return (cycle is not None and sorted(cycle) == list(range(g.n))
            and all(g.has_edge(u, v) for u, v in zip(cycle, cycle[1:] + cycle[:1])))


def test_gstar_and_its_one_edge_augmentations_are_hamiltonian():
    # Erdos's edge bound would give a Hamiltonian cycle above the threshold
    # at most admitted pairs (ROADMAP item 19); that argument is not checked
    # here. This is evidence, not proof: a rotation-extension search must
    # find a cycle, checked edge by edge, in G*(n, delta) at every admitted
    # pair with even n <= 62, and in every one-edge augmentation of G*(n,
    # delta) for n in {14, 16, 18, 20} and delta in {2, 3}, each of which
    # the classifier puts above the threshold. A graph with no cycle found
    # fails the test; it is reported, not dropped.
    graphs = [build_gstar(n, delta) for n in range(8, 63, 2)
              for delta in range(2, max_theorem_delta(n) + 1)]
    assert len(graphs) == 128
    for n in (14, 16, 18, 20):
        for delta in (2, 3):
            g = build_gstar(n, delta)
            for edge in itertools.combinations(range(n), 2):
                if g.has_edge(*edge):
                    continue
                h = g.add_edges([edge])
                row = check_theorem_instance(h)
                assert row["classification"] == "confirmed_factor", (n, delta, edge)
                assert row["q"] > row["threshold"], (n, delta, edge)
                graphs.append(h)
    assert len(graphs) == 128 + 156
    missed = [write_graph6(g) for g in graphs if not is_hamiltonian_cycle(g, hamiltonian_cycle(g))]
    assert missed == []


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
# Study suites
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 12), p=st.floats(0, 1), seed=st.integers(0, 2**32), data=st.data())
def test_edge_certificate_brackets_eigvalsh(n, p, seed, data):
    # G is a random tree plus a random graph, so connected; H = G - uv.
    # The certificate is found, its lower bound is at most q(G) and its
    # upper bound at least q(H).
    tree = [(data.draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    g = Graph.from_edges(n, sorted(set(tree) | set(random_graph(n, p, seed).edges())))
    u, v = data.draw(st.sampled_from(g.edges()))
    h = g.remove_edges([(u, v)])
    a, b, c, d = suites._edge_certificate(h, u, v)
    assert a * d > c * b
    assert a / b <= np.linalg.eigvalsh(signless_laplacian(g))[-1] + 1e-10
    assert c / d >= np.linalg.eigvalsh(signless_laplacian(h))[-1] - 1e-10


# Each suite runs at its one fixed size once for the module; a test that
# patches a callee runs the sections it needs itself.
@pytest.fixture(scope="module")
def lemma_report():
    return lemma_suite()


@pytest.fixture(scope="module")
def identity_report():
    return identity_suite()


class TestSuites:
    def test_lemma_suite_passes(self, lemma_report):
        report = lemma_report
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

    def test_lemma_suite_is_exact(self, lemma_report):
        # Every radius is a correctly rounded quotient root and every edge
        # margin an integer certificate: the deviations are exactly 0.0, and
        # a second run gives the same report.
        report = lemma_report
        assert report["clique_redistribution"]["max_equality_deviation"] == 0.0
        assert report["quotient_radius"]["max_root_vs_perron"] == 0.0
        assert all(case["root_vs_perron"] == 0.0 for case in report["quotient_radius"]["cases"])
        assert report["eigenvector_cells"]["max_spread"] == 0.0
        assert lemma_suite() == report

    def test_quotient_radius_rejects_a_non_dividing_polynomial(self, monkeypatch):
        # Add 1 to the constant term of every full order-n polynomial; the
        # cubic quotient polynomials (three cells) stay exact.
        def skewed(m):
            poly = char_poly(m)
            if len(poly) <= 4:
                return poly
            return (poly[0] + 1, *poly[1:])

        monkeypatch.setattr("qfactor.suites.char_poly", skewed)
        report = suites._quotient_radius_lemma()
        assert report["all_equitable"] is True
        assert report["max_root_vs_perron"] < 1e-8
        assert not any(case["divides"] for case in report["cases"])
        assert report["all_divide"] is False and report["passed"] is False

    def test_quotient_radius_fails_a_non_equitable_partition(self, monkeypatch):
        # Vertex 0 alone and every other vertex in one cell, which mixes
        # degrees: no quotient, so each case and the section fail, and
        # nothing raises.
        monkeypatch.setattr("qfactor.suites.gstar_cells",
                            lambda n, delta: [[0], list(range(1, n))])
        section = suites._quotient_radius_lemma()
        assert section["passed"] is False and section["all_equitable"] is False
        assert section["all_divide"] is False
        assert all(case["equitable"] is False and case["root_vs_perron"] is None
                   for case in section["cases"])
        assert suites._eigenvector_cell_lemma()["passed"] is False

    def test_quotient_radius_rejects_a_wrong_cofactor(self, monkeypatch):
        # A cofactor off by one in its constant term: quotient times
        # cofactor is not the full polynomial, so no case divides.
        divide = suites._quotient

        def off_by_one(p, d):
            cofactor = divide(p, d)
            return (cofactor[0] - 1, *cofactor[1:])

        monkeypatch.setattr(suites, "_quotient", off_by_one)
        section = suites._quotient_radius_lemma()
        assert section["all_equitable"] is True
        assert not any(case["divides"] for case in section["cases"])
        assert section["passed"] is False

    def test_quotient_radius_needs_the_top_eigenvalue(self, monkeypatch):
        # With a cofactor that has a root above the quotient's, the quotient
        # root is not proved to be q: root_vs_perron is null and each case
        # fails, although the quotient still divides.
        divide = suites._quotient
        monkeypatch.setattr(suites, "_quotient",
                            lambda p, d: suites._product(divide(p, d), (-10**6, 1)))
        section = suites._quotient_radius_lemma()
        assert all(case["root_vs_perron"] is None for case in section["cases"])
        assert section["max_root_vs_perron"] is None and section["passed"] is False

    def test_eigenvector_cells_fail_a_one_cell_partition(self, monkeypatch):
        # G* is not regular, so one cell is not equitable: no case is proved.
        monkeypatch.setattr("qfactor.suites.gstar_cells", lambda n, delta: [list(range(n))])
        section = suites._eigenvector_cell_lemma()
        assert section["passed"] is False and section["max_spread"] is None
        assert all(case["max_spread"] is None for case in section["cases"])

    def test_cell_values_match_eigh(self, lemma_report):
        # Every instance is K_s joined to s cliques of the listed sizes. The
        # closed-form cell values, scaled to a unit vector, are the clique
        # cells' means of eigh's Perron vector, within 1e-12.
        for case in lemma_report["cell_ordering"]["cases"]:
            sizes = case["sizes"]
            g, cells = build_g1(len(sizes), sizes), g1_cells(len(sizes), sizes)
            vector = np.abs(np.linalg.eigh(_alpha_stack([g], case["alpha"])[0])[1][:, -1])
            means = sorted(float(vector[cell].mean()) for cell in cells[1:])
            assert np.abs(np.array(case["cell_values"]) - means).max() < 1e-12

    def test_lemma_suite_checks_every_section(self, lemma_report):
        report = lemma_report
        assert report["all_passed"] is True
        assert report["clique_redistribution"]["cases"] >= 1
        assert report["edge_monotonicity"]["pairs"] == 100
        assert 0 < report["edge_monotonicity"]["min_margin"] < float("inf")
        cases = report["quotient_radius"]["cases"]
        assert cases and all(case["divides"] for case in cases)

    def test_cell_spread_fails_ordering_and_surgery_cases(self, monkeypatch):
        # One cell for the whole graph is not equitable on a join of
        # cliques: no quotient, so no radius and no cell values, and every
        # cell-ordering case is marked not ok. Nothing raises.
        with monkeypatch.context() as patch:
            patch.setattr("qfactor.suites.g1_cells", lambda s, parts: [list(range(s + sum(parts)))])
            patch.setattr("qfactor.suites.g3_cells", lambda n, delta, s: [list(range(n))])
            ordering = suites._cell_ordering_lemma()
        assert ordering["violations"] == len(ordering["cases"]) > 0
        assert all(case["cell_values"] is None for case in ordering["cases"])
        assert ordering["passed"] is False

        # The surgery chain reads no Perron vector; its exact route fails
        # every case when the rewired graph does not embed in G*, and when
        # the surgery is skipped, so that G4's radius equals G3's.
        def surgery_fails_everywhere():
            surgery = identity_suite()["surgery_chain"]
            return (surgery["passed"] is False and len(surgery["cases"]) == 6
                    and not any(case["ok"] for case in surgery["cases"]))

        with monkeypatch.context() as patch:
            patch.setattr("qfactor.suites.g4_containment", lambda plan, g4, gs: None)
            assert surgery_fails_everywhere()
        # A Perron vector with a nonpositive denominator fails its case.
        with monkeypatch.context() as patch:
            patch.setattr("qfactor.suites._join_perron_values", lambda s, sizes, r, alpha: None)
            assert surgery_fails_everywhere()
        with monkeypatch.context() as patch:
            patch.setattr("qfactor.suites.build_g4", lambda g3, plan: g3)
            assert surgery_fails_everywhere()
        assert identity_suite()["surgery_chain"]["passed"] is True

    def test_surgery_chain_builds_each_plan_once(self, monkeypatch):
        # One surgery plan, one G3, one G4 and one containment check per
        # (delta, s), and one G* per delta: build_g4 rewires the G3 and the
        # plan it is given, and G3's radius comes from that same G3.
        # Sections (c) and (f) build G*(n, s) once per case as well, so G*
        # builds are counted per argument pair and theirs taken off.
        counts = {"plan": 0, "g3": 0, "g4": 0}
        gstar_builds = Counter()

        def counting(name, build):
            def wrapper(*args):
                counts[name] += 1
                return build(*args)
            return wrapper

        def counting_gstar(*args):
            gstar_builds[args] += 1
            return build_gstar(*args)

        plan_wrapper = counting("plan", suites.surgery_plan)
        monkeypatch.setattr("qfactor.suites.surgery_plan", plan_wrapper)
        monkeypatch.setattr("qfactor.extremal.surgery_plan", plan_wrapper)
        g3_wrapper = counting("g3", suites.build_g3)
        monkeypatch.setattr("qfactor.suites.build_g3", g3_wrapper)
        monkeypatch.setattr("qfactor.extremal.build_g3", g3_wrapper)
        monkeypatch.setattr("qfactor.suites.build_g4", counting("g4", suites.build_g4))
        monkeypatch.setattr("qfactor.suites.build_gstar", counting_gstar)
        suites.threshold_q.cache_clear()
        try:
            report = identity_suite()
        finally:
            suites.threshold_q.cache_clear()
        surgery = report["surgery_chain"]
        assert surgery["passed"] is True and len(surgery["cases"]) == 6
        assert counts == {"plan": 6, "g3": 6, "g4": 6}
        other_sections = Counter((case["n"], case["s"]) for name in
                                 ("large_join_below_threshold", "root_semantics")
                                 for case in report[name]["cases"])
        surgery_gstar = gstar_builds - other_sections
        assert gstar_builds == other_sections + surgery_gstar
        assert surgery_gstar == Counter({(14, 3): 1, (22, 4): 1, (28, 5): 1})

    def test_surgery_radii_match_eigvalsh(self, identity_report):
        # q(G3) and q(G4) come from the quotients over G3's cells and G4's
        # coarsest equitable partition. That partition has three cells
        # exactly where G4 is G*(n, delta), and four at (28, 5, 4).
        cases = identity_report["surgery_chain"]["cases"]
        assert len(cases) == 6
        for case in cases:
            n, delta, s = case["n"], case["delta"], case["s"]
            g3 = build_g3(n, delta, s)
            g4 = build_g4(g3, surgery_plan(n, delta, s))
            for q, g in ((case["q_g3"], g3), (case["q_g4"], g4)):
                assert abs(q - np.linalg.eigvalsh(signless_laplacian(g))[-1]) < 1e-12
            cells = equitable_partition(g4)
            assert len(cells) == (4 if (n, delta, s) == (28, 5, 4) else 3)
            assert (recognize_gstar(g4) == (n, delta)) == (len(cells) == 3)

    def test_no_positive_edge_margin_reports_null(self, monkeypatch):
        # With no certificate found every pair is a violation and no margin
        # is certified: min_margin is null, not the invalid JSON token
        # Infinity.
        monkeypatch.setattr("qfactor.suites._edge_certificate", lambda h, u, v: None)
        section = suites._edge_monotonicity_lemma(0)

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        text = dumps_canonical(make_report("lemmas", {"seed": 0}, section))
        assert json.loads(text, parse_constant=reject)["results"] == {
            "min_margin": None, "pairs": 100, "passed": False, "violations": 100}

    def test_identity_suite_passes(self, identity_report):
        report = identity_report
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

    def test_identity_grid_minimum(self, identity_report):
        # The fixed grid starts at delta = 2 with s = delta and s > delta there,
        # so the smallest case the proof covers is always checked.
        grid = suites._identity_grid()
        assert min(delta for _, delta, _ in grid) == 2
        at_two = {s for _, delta, s in grid if delta == 2}
        assert 2 in at_two and max(at_two) > 2
        assert all(n % 2 == 0 and n >= 2 * s for n, _, s in grid)
        report = identity_report
        assert report["all_passed"] is True
        assert report["difference_identity"]["cases"] == len(grid) > 0
        assert report["f_positivity"]["cases"]


def reference_census(n, connected_only=False):
    """Reference oracle: the per-graph exhaustive census, one factor_verdict
    per labeled graph in ascending edge-mask order."""
    counts = {name: 0 for name in AGREEMENT_CLASSES}
    disagreements = {"criterion_yes_factor_no": [], "criterion_no_factor_yes": []}
    for g in enumerate_labeled(n, connected_only=connected_only):
        agreement = factor_verdict(g)["agreement"]
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

        monkeypatch.setattr("qfactor.census.factor_verdict", counted)
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

    @pytest.mark.parametrize("samples", [0, -5])
    def test_sampled_needs_a_sample(self, samples):
        # No graph drawn would report a vacuous match.
        with pytest.raises(ValueError, match="samples must be at least 1"):
            agreement_study(6, samples=samples)

    def test_enum_guard(self):
        # The census is capped at order MAX_ENUM_ORDER = 7.
        with pytest.raises(ValueError, match="n <= 7, got n=8"):
            agreement_study(8)
