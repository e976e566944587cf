"""Extremal families, surgery, quotient polynomials, thresholds."""

import hashlib

import pytest

from qfactor.extremal import (
    build_g1,
    build_g3,
    build_g4,
    build_gstar,
    f_poly,
    g1_cells,
    g3_cells,
    g4_containment,
    gstar_cells,
    phi_bstar,
    surgery_plan,
    threshold_q,
)
from qfactor.graphs import Graph, is_connected, min_degree
from qfactor.harness import max_theorem_delta
from qfactor.suites import _gstar_grid, _identity_grid, min_theorem_order, odd_compositions
from qfactor.spectra import char_poly, perron_many, quotient


# ---------------------------------------------------------------------------
# builders


def test_gstar_8_2_shape():
    g = build_gstar(8, 2)
    assert g.n == 8
    assert g.edge_count == 23
    assert sorted(g.degrees()) == [2, 6, 6, 6, 6, 6, 7, 7]
    assert min_degree(g) == 2
    assert is_connected(g)


def test_gstar_parameter_validation():
    assert build_gstar(9, 2).n == 9  # odd orders are built too
    assert sorted(build_gstar(6, 3).degrees()) == [3, 3, 3, 5, 5, 5]  # n = 2*delta: K_3 v 3K_1
    for build in (build_gstar, phi_bstar):
        with pytest.raises(ValueError, match="delta must be >= 2"):
            build(8, 1)  # degree parameter below 2
        for n, delta in [(4, 3), (5, 3)]:
            with pytest.raises(ValueError, match="need n >= 2"):
                build(n, delta)  # big clique would be empty


def test_gstar_cells_are_equitable():
    for n, delta in [(8, 2), (12, 2), (14, 3), (20, 4)]:
        g = build_gstar(n, delta)
        cells = gstar_cells(n, delta)
        assert sorted(v for cell in cells for v in cell) == list(range(n))
        assert quotient(g, cells) is not None


def test_g1_layout():
    g = build_g1(2, (3, 3))  # K_2 join (K_3 u K_3)
    assert g.n == 8
    assert g.edge_count == 1 + 3 + 3 + 2 * 6
    cells = g1_cells(2, (3, 3))
    assert cells[0] == list(range(2))
    assert quotient(g, cells) is not None
    with pytest.raises(ValueError):
        build_g1(0, (3, 3))
    with pytest.raises(ValueError):
        build_g1(2, (0, 3))
    with pytest.raises(ValueError):
        build_g1(2, ())


def test_g3_case3_shape():
    g = build_g3(14, 3, 2)
    assert g.n == 14
    # m = n - s - (delta+1-s)(s-1) = 14 - 2 - 2 = 10
    assert g.edge_count == 71
    cells = g3_cells(14, 3, 2)
    assert [len(c) for c in cells] == [2, 2, 10]
    assert quotient(g, cells) is not None
    with pytest.raises(ValueError):
        build_g3(14, 3, 3)  # s must stay below delta
    with pytest.raises(ValueError):
        build_g3(14, 3, 1)


# ---------------------------------------------------------------------------
# surgery


def test_surgery_plan_smallest_case():
    plan = surgery_plan(14, 3, 2)
    assert plan.removed == ((2, 3),)
    assert plan.added_e1 == ((2, 4), (3, 4))
    assert plan.added_e2 == ()
    assert plan.added == ((2, 4), (3, 4))


def test_surgery_counts_match_closed_forms():
    for delta in (3, 4, 5):
        for s in range(2, delta):
            for n in range(min_theorem_order(delta), 7 * delta + 14, 2):
                plan = surgery_plan(n, delta, s)
                m = n - s - (delta + 1 - s) * (s - 1)
                t = delta + 1 - s
                expected_removed = t * (t - 1) // 2 + (s - 2) * (delta - s)
                expected_added = (s - 1) * t * (delta - s) + (m - delta + s) * (s - 2) * (delta - s)
                assert len(plan.removed) == expected_removed, (n, delta, s)
                assert len(plan.added) == expected_added, (n, delta, s)
                assert not set(plan.removed) & set(plan.added)


def test_surgery_plans_and_embeddings_are_pinned():
    # Every edge of every plan and every embedding over the closed-form
    # grid, as one digest: a rewrite of the surgery must reproduce them all,
    # e2 edges included (the smallest case above has none).
    cases = []
    for delta in (3, 4, 5):
        for s in range(2, delta):
            for n in range(min_theorem_order(delta), 7 * delta + 14, 2):
                plan = surgery_plan(n, delta, s)
                g4 = build_g4(build_g3(n, delta, s), plan)
                cases.append((n, delta, s, plan.removed, plan.added_e1, plan.added_e2,
                              g4_containment(plan, g4, build_gstar(n, delta))))
    assert len(cases) == 64
    assert hashlib.sha256(repr(cases).encode()).hexdigest() == (
        "52d8b0faac1b745b6587d86a710bac43bd62c2580ff9ab5d1d8cb596a180dfb3")


def test_g4_degrees_and_edge_budget():
    for n, delta, s in [(14, 3, 2), (22, 4, 2), (22, 4, 3), (28, 5, 3)]:
        g3 = build_g3(n, delta, s)
        plan = surgery_plan(n, delta, s)
        g4 = build_g4(g3, plan)
        assert g4.edge_count == g3.edge_count - len(plan.removed) + len(plan.added)
        assert min_degree(g4) == delta
        assert is_connected(g4)


def test_g4_embeds_in_gstar():
    for n, delta, s in [(14, 3, 2), (22, 4, 2), (22, 4, 3), (28, 5, 4)]:
        plan = surgery_plan(n, delta, s)
        g4, gstar = build_g4(build_g3(n, delta, s), plan), build_gstar(n, delta)
        mapping = g4_containment(plan, g4, gstar)
        assert mapping is not None
        assert sorted(mapping) == list(range(n))
        for u, v in g4.edges():
            assert gstar.has_edge(mapping[u], mapping[v]), (n, delta, s, u, v)
        # The identity map is no embedding: g4's universal vertex w_1 lies
        # outside gstar's join cell.
        assert not all(gstar.has_edge(u, v) for u, v in g4.edges())


# ---------------------------------------------------------------------------
# quotients and polynomials


def b2_rows(n, s):
    """The closed-form quotient of Q(gstar(n, s)) that phi_bstar documents."""
    return [[n + s - 2, n - 2 * s + 1, s - 1], [s, 2 * n - 3 * s, 0], [s, 0, s]]


def test_quotient_b2_frozen_entries():
    b = quotient(build_gstar(8, 2), gstar_cells(8, 2))
    assert b == b2_rows(8, 2) == [[8, 5, 1], [2, 10, 0], [2, 0, 2]]


def test_quotient_matches_graph_quotient():
    for n, delta in [(8, 2), (14, 3), (20, 4)]:
        assert quotient(build_gstar(n, delta), gstar_cells(n, delta)) == b2_rows(n, delta)


def test_phi_b2_frozen_coefficients():
    assert phi_bstar(8, 2) == (-120, 104, -20, 1)
    assert phi_bstar(9, 2) == (-168, 136, -23, 1)


def test_phi_equals_char_poly_of_quotient():
    # every order up to 62, the graph6 short-form limit, of both parities
    for n in range(4, 63):
        for s in range(2, n // 2 + 1):
            b = quotient(build_gstar(n, s), gstar_cells(n, s))
            assert b == b2_rows(n, s), (n, s)
            assert phi_bstar(n, s) == char_poly(b), (n, s)


def test_difference_identity_exact():
    for n, s, delta in [(14, 2, 3), (22, 3, 4), (16, 5, 2), (30, 4, 4)]:
        lhs = tuple(a - b for a, b in zip(phi_bstar(n, s), phi_bstar(n, delta)))
        rhs = tuple((s - delta) * c for c in f_poly(n, s, delta)) + (0,)
        assert lhs == rhs, (n, s, delta)


def test_phi_bstar_at_twice_n_minus_delta():
    # phi_B*(n, delta)(2n - 2 delta) is -2 delta (delta - 1)(n - delta),
    # negative for n > delta >= 2, so the largest root of the monic cubic,
    # theta(n, delta), lies above 2(n - delta).
    for delta in range(2, 101):
        for n in range(2 * delta, 201):
            x, value = 2 * n - 2 * delta, 0
            for c in reversed(phi_bstar(n, delta)):  # integer Horner
                value = value * x + c
            assert value == -2 * delta * (delta - 1) * (n - delta), (n, delta)


def test_f_poly_shape():
    f = f_poly(14, 2, 3)
    assert len(f) == 3 and f[2] == 1  # monic quadratic
    assert all(type(c) is int for c in f)


# ---------------------------------------------------------------------------
# threshold


def test_threshold_frozen_values():
    assert threshold_q(8, 2) == pytest.approx(12.385164807134505, abs=1e-9)
    assert threshold_q(14, 3) == pytest.approx(22.667346179666595, abs=1e-9)
    # odd n: 8 + 2 sqrt(10), the largest root of (q - 7)(q^2 - 16q + 24),
    # correctly rounded
    assert threshold_q(9, 2) == 14.324555320336758


def test_threshold_matches_direct_perron():
    for n, delta in [(8, 2), (9, 2), (10, 2), (14, 3), (16, 3), (17, 3), (22, 4)]:
        direct = perron_many([build_gstar(n, delta)], 1)[0]
        assert threshold_q(n, delta) == pytest.approx(direct, abs=1e-8)


def test_threshold_deterministic():
    assert threshold_q(12, 2) == threshold_q(12, 2)
    assert threshold_q(16, 3) == threshold_q(16, 3)


def test_threshold_cross_check_raises_on_wrong_polynomial(monkeypatch):
    # phi_bstar(n, delta + 1) is a valid cubic with a root in [0, 2n], but
    # of another graph, and phi_bstar with its constant term off by one is
    # the polynomial of no graph: the exact cross-check must reject both,
    # also under -O.
    for wrong in (lambda n, delta: phi_bstar(n, delta + 1),
                  lambda n, delta: (phi_bstar(n, delta)[0] - 1, *phi_bstar(n, delta)[1:])):
        monkeypatch.setattr("qfactor.extremal.phi_bstar", wrong)
        threshold_q.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="cross-validation failed"):
                threshold_q(12, 2)
        finally:
            threshold_q.cache_clear()


def test_threshold_identity_at_every_order():
    # The identity threshold_q checks, at every (n, delta) verify can ask
    # for: every even n up to 62, the graph6 short-form limit, and every
    # delta >= 2 the theorem admits at n.
    pairs = [(n, delta) for n in range(4, 63, 2)
             for delta in range(2, max_theorem_delta(n) + 1)]
    assert len(pairs) == 128
    for n, delta in pairs:
        counted = char_poly(quotient(build_gstar(n, delta), gstar_cells(n, delta)))
        assert counted == phi_bstar(n, delta), (n, delta)


def test_family_builders_equal_validated_graphs():
    # the builders skip Graph validation; rebuilding through the public
    # constructor must give the same graph on every lemma and identity grid
    built = [build_gstar(n, delta) for n, delta in _gstar_grid()]
    for n, delta, s in _identity_grid():
        built.append(build_gstar(n, s))
        if 2 <= s <= delta - 1:
            g3 = build_g3(n, delta, s)
            built += [g3, build_g4(g3, surgery_plan(n, delta, s))]
    for s in range(2, 5):
        for n in range(2 * s + 2, 17, 2):
            built += [build_g1(s, parts) for parts in odd_compositions(n - s, s)]
    for g in built:
        assert Graph(g.n, g.rows) == g
