"""Tests for the parity-subset criterion and the exact even-factor test,
with the exhaustive certificate search as the even-factor oracle."""

import functools
import itertools
import random
import time

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exhaustive_search import GuardExceeded, enumerate_labeled, find_even_factor
from qfactor import factors
from qfactor.census import isomorphism_classes
from qfactor.cli import _CSV_COLUMNS
from qfactor.extremal import build_gstar
from qfactor.graphs import (
    Graph,
    complete,
    is_connected,
    min_degree,
    odd_components_after_removal,
    parse_graph6,
    random_graph,
)
from qfactor.factors import (
    even_factor,
    factor_verdict,
    strong_tutte_check,
    verify_even_factor,
)

# A connected order-8 graph with minimum degree 2 and no even factor: K_{2,3}
# bridged by one edge to a triangle.
FACTORLESS = "G]o_GK"


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def brute_force_even_factor(g):
    """Reference oracle: scan all edge subsets for a spanning even subgraph."""
    edges = g.edges()
    for size in range(len(edges) + 1):
        for subset in itertools.combinations(edges, size):
            deg = [0] * g.n
            for u, v in subset:
                deg[u] += 1
                deg[v] += 1
            if all(d > 0 and d % 2 == 0 for d in deg):
                return subset
    return None


def reference_criterion(g):
    """Reference oracle: the unbounded scan over every S with |S| >= 2, by
    size, then lexicographically."""
    for k in range(2, g.n + 1):
        for combo in itertools.combinations(range(g.n), k):
            if odd_components_after_removal(g, sum(1 << v for v in combo)) >= k:
                return False, combo
    return True, None


def blocks(g, vertices):
    """True iff S = vertices violates the criterion: |S| >= 2 and
    o(G - S) >= |S|."""
    mask = sum(1 << v for v in vertices)
    return len(vertices) >= 2 and odd_components_after_removal(g, mask) >= len(vertices)


def has_perfect_matching(g, alive):
    """Reference oracle: brute-force recursion over the vertex mask alive,
    matching its lowest vertex to each neighbour in turn."""
    memo = {}

    def rec(mask):
        if not mask:
            return True
        if mask not in memo:
            v = (mask & -mask).bit_length() - 1
            rest = mask & ~(1 << v)
            memo[mask] = any(
                rec(rest & ~(1 << u)) for u in range(g.n) if (g.rows[v] & rest) >> u & 1
            )
        return memo[mask]

    return rec(alive)


def first_unmatchable_pair(g):
    """Reference oracle: the lexicographically first pair T for which G - T
    has no perfect matching, or None."""
    full = (1 << g.n) - 1
    for pair in itertools.combinations(range(g.n), 2):
        if not has_perfect_matching(g, full & ~(1 << pair[0] | 1 << pair[1])):
            return pair
    return None


def networkx_unmatchable_pair(g):
    """first_unmatchable_pair computed with networkx matchings."""
    h = nx.Graph(g.edges())
    h.add_nodes_from(range(g.n))
    for pair in itertools.combinations(range(g.n), 2):
        rest = h.subgraph(set(range(g.n)) - set(pair))
        if 2 * len(nx.max_weight_matching(rest, maxcardinality=True)) < g.n - 2:
            return pair
    return None


def networkx_barrier(g, removed):
    """A(H) for H = G - removed, from the Gallai-Edmonds definition with
    networkx matchings: D = {v : nu(H - v) = nu(H)} and A = N(D) - D."""
    rest = tuple(v for v in range(g.n) if v not in removed)
    edges = tuple(e for e in g.edges() if not set(e) & set(removed))
    return _networkx_barrier(rest, edges)


@functools.cache
def _networkx_barrier(nodes, edges):
    h = nx.Graph(edges)
    h.add_nodes_from(nodes)

    def nu(graph):
        return len(nx.max_weight_matching(graph, maxcardinality=True))

    size = nu(h)
    deficient = {v for v in h if nu(h.subgraph(set(h) - {v})) == size}
    return frozenset().union(*(h[v] for v in deficient)) - deficient


def assert_criterion_matches_oracles(g, label):
    """Equal verdicts with the scan, and exactly the witness T u A(G - T)
    for the first unmatchable pair T."""
    holds, blocking = strong_tutte_check(g)
    expected, _ = reference_criterion(g)
    assert holds == expected, label
    if holds:
        assert blocking is None, label
        return
    pair = first_unmatchable_pair(g)
    assert pair is not None, label
    assert blocking == tuple(sorted(set(pair) | networkx_barrier(g, pair))), (
        label, pair, blocking)
    assert blocks(g, blocking), (label, blocking)


# ---------------------------------------------------------------------------
# strong_tutte_check
# ---------------------------------------------------------------------------


class TestCriterion:
    def test_k2_holds_vacuously_strict(self):
        # The only |S| >= 2 subset removes everything: o = 0 < 2.
        assert strong_tutte_check(Graph.from_edges(2, [(0, 1)])) == (True, None)

    def test_2k1_holds(self):
        assert strong_tutte_check(Graph.empty(2)) == (True, None)

    def test_c8_blocked_by_antipodal_pair(self):
        holds, blocking = strong_tutte_check(cycle(8))
        assert not holds
        # The first unmatchable pair (0, 2) plus its Gallai-Edmonds barrier,
        # which holds the antipodal pairs (0, 4) and (2, 6).
        assert {0, 2} <= set(blocking)
        # Witness really blocks: removing it leaves >= |S| odd components.
        mask = sum(1 << v for v in blocking)
        assert odd_components_after_removal(cycle(8), mask) >= len(blocking)

    def test_c6_blocked(self):
        holds, blocking = strong_tutte_check(cycle(6))
        assert not holds
        assert {0, 2} <= set(blocking) and blocks(cycle(6), blocking)

    def test_k4_holds(self):
        assert strong_tutte_check(complete(4)) == (True, None)

    def test_star_blocked(self):
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert strong_tutte_check(star) == (False, (0, 1))

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError):
            strong_tutte_check(cycle(5))

    def test_blocking_set_is_lexicographically_first(self):
        # Pairs are tried in lexicographic order, so the witness for C8
        # holds the first unmatchable pair and never changes between runs.
        first = strong_tutte_check(cycle(8))[1]
        assert first_unmatchable_pair(cycle(8)) == (0, 2)
        assert {0, 2} <= set(first) and blocks(cycle(8), first)
        for _ in range(3):
            assert strong_tutte_check(cycle(8))[1] == first

    def test_witness_hard_check_raises(self, monkeypatch):
        # A witness that does not block is an error, also under python -O.
        monkeypatch.setattr("qfactor.factors.odd_components_after_removal", lambda g, m: 0)
        with pytest.raises(ValueError, match="does not block"):
            strong_tutte_check(cycle(6))


class TestScanBound:
    """The matching-based criterion against the exponential subset scan:
    equal verdicts, and every witness is T u A(G - T) for the first pair T
    for which G - T has no perfect matching, and really blocks."""

    @pytest.mark.parametrize("n", [4, 6])
    def test_connected_census(self, n):
        for g in enumerate_labeled(n, connected_only=True):
            assert_criterion_matches_oracles(g, g.edges())

    @pytest.mark.parametrize("n", [10, 12, 14])
    def test_seeded_dense(self, n):
        for seed in range(6):
            assert_criterion_matches_oracles(random_graph(n, 0.5, seed), (n, seed))

    @pytest.mark.parametrize("n", [14, 16])
    @pytest.mark.parametrize("delta", [2, 3])
    def test_relabeled_gstar_plus_edges(self, n, delta):
        rng = random.Random(n * 10 + delta)
        base = build_gstar(n, delta)
        non_edges = [
            (u, v) for u, v in itertools.combinations(range(n), 2) if not base.has_edge(u, v)
        ]
        for k in (1, 2, 3):
            perm = rng.sample(range(n), n)
            added = base.add_edges(rng.sample(non_edges, k)).edges()
            g = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in added])
            assert_criterion_matches_oracles(g, (n, delta, k))


class TestBicriticality:
    """The criterion holds iff G - u - v has a perfect matching for every
    pair u != v; no size guard applies."""

    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_matches_networkx_pairwise_matchings(self, n):
        verdicts = set()
        for seed in range(30):
            g = random_graph(n, (0.3, 0.5, 0.7)[seed % 3], seed)
            holds, blocking = strong_tutte_check(g)
            pair = networkx_unmatchable_pair(g)
            assert holds == (pair is None), (n, seed)
            if not holds:
                assert set(pair) <= set(blocking) and blocks(g, blocking), (n, seed)
            verdicts.add(holds)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("n, delta", [(40, 6), (62, 9)])
    def test_large_gstar_blocked_by_join_cell(self, n, delta):
        g = build_gstar(n, delta)
        assert strong_tutte_check(g) == (False, tuple(range(delta)))
        non_edges = [
            (u, v) for u, v in itertools.combinations(range(n), 2) if not g.has_edge(u, v)
        ]
        for edge in (non_edges[0], non_edges[-1]):
            assert strong_tutte_check(g.add_edges([edge])) == (True, None), edge


# ---------------------------------------------------------------------------
# even_factor against the exhaustive search
# ---------------------------------------------------------------------------


def assert_even_factor_matches_oracle(g, label):
    found = even_factor(g)
    expected = find_even_factor(g, max_order=g.n, max_edges=g.edge_count)
    assert (found is None) == (expected is None), label
    if found is not None:
        assert list(found) == sorted(set(found)) and verify_even_factor(g, found), label


@pytest.fixture(params=["fast path", "gadget"])
def route(request, monkeypatch):
    """Run as is, and with the two-factor fast path patched out so that the
    gadget decides every graph."""
    if request.param == "gadget":
        monkeypatch.setattr("qfactor.factors.two_factor", lambda g: None)
    return request.param


class TestEvenFactor:
    def test_every_small_class(self, route):
        classes = [g for n in range(1, 8) for g in isomorphism_classes(n)[1]]
        assert len(classes) == 1252
        for g in classes:
            assert_even_factor_matches_oracle(g, g.edges())

    @pytest.mark.parametrize("n", [8, 10, 12, 14])
    def test_seeded_random_graphs(self, route, n):
        for seed in range(24):
            g = random_graph(n, (0.2, 0.35, 0.5)[seed % 3], seed)
            assert_even_factor_matches_oracle(g, (n, seed))
        # No even factor, mostly with minimum degree 2: a K_{2,3} hung on a
        # random block by a bridge, which no even factor can use.
        for seed in range(6):
            block = random_graph(n - 5, 0.7, seed)
            k23 = [(a, b) for a in (n - 5, n - 4) for b in (n - 3, n - 2, n - 1)]
            g = Graph.from_edges(n, block.edges() + k23 + [(seed % (n - 5), n - 1)])
            assert_even_factor_matches_oracle(g, (n, "bridged", seed))

    def test_no_factor_answers(self, route):
        assert even_factor(Graph.empty(0)) == ()
        assert even_factor(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])) is None
        assert even_factor(parse_graph6(FACTORLESS)) is None

    def test_gstar_40_6_plus_edge_by_the_gadget(self, monkeypatch):
        monkeypatch.setattr("qfactor.factors.two_factor", lambda g: None)
        g = build_gstar(40, 6)
        g = g.add_edges([next(e for e in itertools.combinations(range(40), 2)
                              if not g.has_edge(*e))])
        start = time.perf_counter()
        found = even_factor(g)
        assert time.perf_counter() - start < 1.0
        assert verify_even_factor(g, found)

    def test_tampered_matching_raises(self, monkeypatch):
        # With an edge of the gadget's perfect matching dropped, no barrier
        # can block; with every end matched across its edge, a vertex of
        # odd degree keeps its odd degree.
        monkeypatch.setattr("qfactor.factors.two_factor", lambda g: None)
        mates = factors._mates

        def dropped(rows):
            mate = mates(rows)
            mate[mate[0]] = mate[0] = -1
            return mate

        monkeypatch.setattr("qfactor.factors._mates", dropped)
        with pytest.raises(ValueError, match="does not block"):
            even_factor(complete(4))
        monkeypatch.setattr("qfactor.factors._mates",
                            lambda rows: [v ^ 1 for v in range(len(rows))])
        with pytest.raises(ValueError, match="non-factor"):
            even_factor(complete(4))

    def test_tampered_barrier_raises(self, monkeypatch):
        monkeypatch.setattr("qfactor.factors._gallai_edmonds_a", lambda rows, mate: ())
        with pytest.raises(ValueError, match="does not block"):
            even_factor(parse_graph6(FACTORLESS))


# ---------------------------------------------------------------------------
# The exhaustive search (the oracle) and verify_even_factor
# ---------------------------------------------------------------------------


class TestCertificateSearch:
    def test_cycle_is_its_own_factor(self):
        c8 = cycle(8)
        cert = find_even_factor(c8)
        assert cert == tuple(sorted(c8.edges()))
        assert verify_even_factor(c8, cert)

    def test_odd_cycle_allowed(self):
        # Even factors constrain degrees, not the order of the host graph.
        c5 = cycle(5)
        cert = find_even_factor(c5)
        assert cert == tuple(sorted(c5.edges()))

    def test_path_has_none(self):
        assert find_even_factor(path(4)) is None

    def test_single_edge_has_none(self):
        assert find_even_factor(Graph.from_edges(2, [(0, 1)])) is None

    def test_k4_certificate_verifies(self):
        cert = find_even_factor(complete(4))
        assert cert is not None
        assert verify_even_factor(complete(4), cert)
        deg = [0] * 4
        for u, v in cert:
            deg[u] += 1
            deg[v] += 1
        assert deg == [2, 2, 2, 2]

    def test_k13_whole_graph_eligible(self):
        cert = find_even_factor(complete(13), max_order=13, max_edges=100)
        assert cert is not None
        assert verify_even_factor(complete(13), cert)

    def test_certificate_deterministic(self):
        g = random_graph(8, 0.6, seed=5)
        assert find_even_factor(g) == find_even_factor(g)

    def test_order_guard(self):
        with pytest.raises(GuardExceeded):
            find_even_factor(complete(13), max_order=12, max_edges=100)

    def test_edge_guard(self):
        with pytest.raises(GuardExceeded):
            find_even_factor(cycle(8), max_edges=5)

    def test_verify_rejects_non_edge(self):
        with pytest.raises(ValueError):
            assert verify_even_factor(cycle(4), ((0, 1), (1, 2), (2, 3), (0, 2)))

    def test_verify_rejects_duplicate_edge(self):
        with pytest.raises(ValueError):
            assert verify_even_factor(cycle(4), ((0, 1), (0, 1), (2, 3), (2, 3)))

    def test_verify_false_on_odd_degree(self):
        assert verify_even_factor(cycle(4), ((0, 1),)) is False

    def test_verify_false_on_isolated_vertex(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert verify_even_factor(g, ((0, 1), (1, 2), (0, 2))) is False

    def test_verify_accepts_triangle_pair(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert verify_even_factor(g, tuple(sorted(g.edges()))) is True


# ---------------------------------------------------------------------------
# Brute-force agreement
# ---------------------------------------------------------------------------


class TestBruteForceAgreement:
    def test_all_order_5_graphs(self):
        # Exhaustive cross-check on every labeled graph of order 5.
        for g in enumerate_labeled(5):
            fast = find_even_factor(g)
            slow = brute_force_even_factor(g)
            assert (fast is None) == (slow is None), g.edges()
            if fast is not None:
                assert verify_even_factor(g, fast)

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.8])
    def test_seeded_order_6(self, p):
        for seed in range(40):
            g = random_graph(6, p, seed=seed)
            fast = find_even_factor(g)
            slow = brute_force_even_factor(g)
            assert (fast is None) == (slow is None), (seed, p, g.edges())
            if fast is not None:
                assert verify_even_factor(g, fast)


# ---------------------------------------------------------------------------
# Extremal-family behavior
# ---------------------------------------------------------------------------


class TestJoinFamilyFactors:
    def test_gstar_8_2_fails_criterion_but_has_factor(self):
        from qfactor.extremal import build_gstar

        g = build_gstar(8, 2)
        holds, blocking = strong_tutte_check(g)
        assert not holds
        assert blocking == (0, 1)  # the degree-(n-1) join cell
        cert = find_even_factor(g)
        assert cert is not None and len(cert) == 14
        assert verify_even_factor(g, cert)

    def test_gstar_14_2_factor_found_quickly(self):
        from qfactor.extremal import build_gstar

        g = build_gstar(14, 2)
        cert = find_even_factor(g, max_order=14, max_edges=100)
        assert cert is not None
        assert verify_even_factor(g, cert)


# ---------------------------------------------------------------------------
# factor_verdict agreement classes
# ---------------------------------------------------------------------------


class TestVerdict:
    def verdict(self, g):
        return factor_verdict(g)

    def test_both_yes(self):
        v = self.verdict(complete(4))
        assert v["criterion_holds"] and v["certificate"] is not None
        assert v["agreement"] == "both_yes"

    def test_both_no(self):
        v = self.verdict(path(4))
        assert not v["criterion_holds"] and v["certificate"] is None
        assert v["blocking"] is not None
        assert v["agreement"] == "both_no"

    def test_criterion_no_factor_yes(self):
        v = self.verdict(cycle(8))
        assert not v["criterion_holds"] and v["certificate"] is not None
        assert v["agreement"] == "criterion_no_factor_yes"

    def test_criterion_yes_factor_no(self):
        # Order 2 is the degenerate cell: criterion passes, no factor exists.
        for g in (Graph.empty(2), Graph.from_edges(2, [(0, 1)])):
            v = self.verdict(g)
            assert v["criterion_holds"] and v["certificate"] is None
            assert v["agreement"] == "criterion_yes_factor_no"

    def test_row_shape(self):
        # factor's row without line, graph6 and error; the order-0 graph's
        # empty factor is a null certificate, and K2 is the order-2 cell.
        fields = set(_CSV_COLUMNS["factor"]) - {"line", "graph6", "error"}
        rows = {text: self.verdict(parse_graph6(text))
                for text in ("?", "A_", FACTORLESS, "G~~~~{", "GhCGKC")}
        assert all(set(row) == fields for row in rows.values()), rows
        assert (rows["?"]["certificate"], rows["?"]["agreement"]) == (None, "both_yes")
        assert rows["A_"]["agreement"] == "criterion_yes_factor_no"

    def test_non_factor_certificate_raises(self, monkeypatch):
        monkeypatch.setattr("qfactor.factors.two_factor", lambda g: ((0, 1),))
        with pytest.raises(ValueError, match="non-factor"):
            self.verdict(complete(4))


# ---------------------------------------------------------------------------
# The criterion implies an even factor, by Fleischner's theorem: every
# bridgeless graph with minimum degree >= 3 has one (H. Fleischner, "Spanning
# Eulerian subgraphs, the splitting lemma, and Petersen's theorem", Discrete
# Math. 101, 1992). That theorem is cited, not checked: the even factors
# found below are evidence for it, not a proof.
# ---------------------------------------------------------------------------


def _criterion_population():
    """Every class at orders 4 and 6, and seeded connected G(n, p) at even
    orders 8 to 16."""
    for n in (4, 6):
        yield from isomorphism_classes(n)[1]
    for n in range(8, 17, 2):
        for p in (0.25, 0.35, 0.45, 0.6):
            for seed in range(12):
                g = random_graph(n, p, seed)
                if is_connected(g):
                    yield g


def test_criterion_gives_min_degree_3_two_connected_and_an_even_factor():
    # Bicriticality at even n >= 4 forces minimum degree 3 and
    # 2-connectivity (both exact, checked here), and Fleischner's theorem
    # then gives an even factor; the even factor found on every such graph
    # is evidence for that last step only.
    passing = 0
    for g in _criterion_population():
        if not strong_tutte_check(g)[0]:
            continue
        passing += 1
        h = nx.Graph(g.edges())
        h.add_nodes_from(range(g.n))
        assert min_degree(g) >= 3, g.edges()
        assert all(nx.is_connected(h.subgraph(set(h) - {v})) for v in h), g.edges()
        assert even_factor(g) is not None, g.edges()
    assert passing == 100  # 16 of 167 classes, 84 of 196 seeded graphs


def test_bridgeless_min_degree_3_classes_have_an_even_factor():
    # Fleischner's hypotheses on every isomorphism class at 4 <= n <= 7; no
    # smaller order admits minimum degree 3.
    classes = {n: 0 for n in range(4, 8)}
    for n in classes:
        for g in isomorphism_classes(n)[1]:
            if min_degree(g) < 3 or nx.has_bridges(nx.Graph(g.edges())):
                continue
            classes[n] += 1
            factor = even_factor(g)
            assert factor is not None and verify_even_factor(g, factor), g.edges()
    assert classes == {4: 1, 5: 3, 6: 19, 7: 150}  # 23 at n <= 6, 173 in all


# ---------------------------------------------------------------------------
# Relabeling
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7).flatmap(lambda k: st.permutations(range(2 * k))),
       st.sampled_from([0.3, 0.5, 0.7, 0.9]), st.integers(0, 2**64 - 1))
def test_factor_verdict_is_invariant_under_relabeling(perm, p, seed):
    # The verdict depends on the graph, not on its labels; the certificates
    # carry labels, so they are mapped through the permutation and checked
    # again on the relabeled graph.
    g = random_graph(len(perm), p, seed)
    h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    before, after = factor_verdict(g), factor_verdict(h)
    assert (after["criterion_holds"], after["agreement"]) == (before["criterion_holds"],
                                                              before["agreement"])
    if before["blocking"] is not None:
        mask = sum(1 << perm[v] for v in before["blocking"])
        assert odd_components_after_removal(h, mask) >= len(before["blocking"])
    if before["certificate"] is not None:
        assert verify_even_factor(h, [(perm[u], perm[v]) for u, v in before["certificate"]])
