"""Perron values by LAPACK eigh, integer quotients, integer characteristic
polynomials and exact quotient roots."""

import math
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kernel_oracles import evaluate, faddeev_leverrier, fraction_root
from qfactor import spectra
from qfactor.extremal import phi_bstar, threshold_q
from qfactor.graphs import (
    Graph,
    chunk_rows,
    complete,
    disjoint_union,
    is_connected,
    join,
    random_graph,
    write_graph6,
)
from qfactor.harness import check_theorem_instance
from qfactor.reportio import round_float
from qfactor.suites import _product, _quotient, identity_suite, lemma_suite
from qfactor.spectra import (
    _alpha_stack,
    above_roots,
    char_poly,
    equitable_partition,
    largest_real_root,
    perron_many,
    quotient,
    quotient_root,
)


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star(leaves):
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def signless_laplacian(g):
    """Q = D + A, entry by entry from the bitrows."""
    a = np.array([[row >> j & 1 for j in range(g.n)] for row in g.rows], float).reshape(g.n, g.n)
    return np.diag(a.sum(axis=1)) + a


# ---------------------------------------------------------------------------
# matrices


def test_matrix_builders():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    q = signless_laplacian(g)
    assert _alpha_stack([g], 0)[0].tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    assert q.tolist() == [[1, 1, 0], [1, 2, 1], [0, 1, 1]]
    assert np.array_equal(_alpha_stack([g], 1)[0], q)
    with pytest.raises(ValueError, match="alpha"):
        perron_many([g], 2)


# ---------------------------------------------------------------------------
# Perron values


def test_perron_complete_graphs():
    # q(K_m) = 2m - 2 and rho(K_m) = m - 1
    for m in (2, 7, 13):
        assert perron_many([complete(m)], 1)[0] == pytest.approx(2 * m - 2, abs=1e-10)
        assert perron_many([complete(m)], 0)[0] == pytest.approx(m - 1, abs=1e-10)


def test_perron_regular_and_bipartite():
    c8 = cycle(8)
    assert perron_many([c8], 1)[0] == pytest.approx(4, abs=1e-10)
    assert perron_many([c8], 0)[0] == pytest.approx(2, abs=1e-10)
    # bipartite adjacency spectra are symmetric about 0; rho is the top end
    assert perron_many([star(3)], 0)[0] == pytest.approx(math.sqrt(3), abs=1e-10)
    assert perron_many([star(8)], 0)[0] == pytest.approx(math.sqrt(8), abs=1e-10)


def test_perron_disconnected_takes_max_block():
    # The whole matrix is solved: q is the larger block's, also on the
    # 2*K_4 tie.
    for small, big in [(3, 5), (4, 4)]:
        g = disjoint_union(complete(small), complete(big))
        assert perron_many([g], 1)[0] == pytest.approx(2 * big - 2, abs=1e-10)


def test_perron_data_quality():
    g = random_graph(10, 0.5, 17)
    eigs = np.linalg.eigvalsh(signless_laplacian(g))
    assert perron_many([g], 1)[0] == pytest.approx(float(eigs[-1]), abs=1e-9)


def test_perron_matches_numpy_on_seeded_graphs():
    for seed in range(25):
        g = random_graph(8, 0.45, seed)
        m = signless_laplacian(g)
        expected = float(np.linalg.eigvalsh(m)[-1])
        assert perron_many([g], 1)[0] == pytest.approx(expected, abs=1e-9)


def test_perron_input_validation():
    with pytest.raises(ValueError, match="nonempty"):
        perron_many([Graph(0, ())], 1)


def test_perron_residual_gate(monkeypatch):
    g = random_graph(9, 0.4, 3)
    expected = float(np.linalg.eigvalsh(signless_laplacian(g))[-1])
    assert perron_many([g], 1)[0] == pytest.approx(expected, abs=1e-9)
    eigh = np.linalg.eigh

    def skewed(m):
        values, vectors = eigh(m)
        return values + 1e-9, vectors

    monkeypatch.setattr(np.linalg, "eigh", skewed)
    with pytest.raises(ArithmeticError, match="residual"):
        perron_many([g], 1)


def test_stacked_eigh_is_bitwise_equal_to_one_matrix_eigh():
    # One eigh per order over a stack gives exactly the per-matrix eigenpairs,
    # and perron_many gives exactly the value it gives one graph at a time.
    for n in range(2, 63):
        graphs = [random_graph(n, p, 1000 * n + k) for k, p in enumerate((0.3, 0.6, 0.9))]
        mats = [signless_laplacian(g) for g in graphs]
        values, vectors = np.linalg.eigh(np.stack(mats))
        for k, m in enumerate(mats):
            v2, w2 = np.linalg.eigh(m)
            assert np.array_equal(values[k], v2) and np.array_equal(vectors[k], w2), n
        for g, value in zip(graphs, perron_many(graphs, 1)):
            assert value == perron_many([g], 1)[0], n


def _alpha_matrix(g, alpha):
    return signless_laplacian(g) - (1 - alpha) * np.diag(g.degrees())


def _component_blocks(g):
    h = nx.Graph(g.edges())
    h.add_nodes_from(range(g.n))
    return [sorted(c) for c in nx.connected_components(h)]


def test_perron_many_matches_per_component_eigh_on_disconnected_graphs():
    # The spectrum of a disjoint union is the union of its parts' spectra,
    # so one eigh on the whole matrix gives the largest per-component value.
    k4 = complete(4)
    graphs = [
        disjoint_union(k4, k4),                        # tie
        disjoint_union(Graph.empty(1), k4),            # isolated vertex first
        disjoint_union(cycle(5), complete(3)),         # q 4 vs 4, rho 2 vs 2: tie
        disjoint_union(complete(3), complete(5)),      # the later block wins
        random_graph(12, 0.15, 4),
        random_graph(20, 0.08, 9),
        Graph.empty(5),                                # q = rho = 0
        complete(6),
    ]
    assert all(len(_component_blocks(g)) > 1 for g in graphs[:7])
    strict = 0
    for alpha in (0, 1):
        for g, value in zip(graphs, perron_many(graphs, alpha)):
            m = _alpha_matrix(g, alpha)
            tops = sorted((float(np.linalg.eigvalsh(m[np.ix_(b, b)])[-1])
                           for b in _component_blocks(g)), reverse=True)
            assert abs(value - tops[0]) <= 1e-12
            strict += len(tops) > 1 and tops[0] - tops[1] > 1e-9
    assert strict >= 4
    assert perron_many([Graph.empty(5)], 1)[0] == 0


def test_perron_many_keeps_errors_per_graph():
    # perron_many raises for the whole call; chunk_rows, which reads every
    # stream, gives the error to its own line and the others their values.
    with pytest.raises(ValueError, match="nonempty"):
        perron_many([complete(3), Graph(0, ()), cycle(6)], 1)
    lines = [write_graph6(complete(3)), "?", write_graph6(cycle(6))]
    rows = chunk_rows(lambda graphs: [{"q": q} for q in perron_many(graphs, 1)],
                      list(enumerate(lines, start=1)))
    assert [row["line"] for row in rows] == [1, 2, 3]
    assert rows[0]["q"] == pytest.approx(4.0) and rows[2]["q"] == pytest.approx(4.0)
    assert rows[1] == {"line": 2, "graph6": "?", "error": "graph must be nonempty"}


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 12),
    p=st.floats(0.2, 0.9),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_perron_relabeling_invariance(n, p, seed, data):
    # a Hamiltonian path keeps the random graph connected
    path = [(i, i + 1) for i in range(n - 1)]
    g = Graph.from_edges(n, random_graph(n, p, seed).edges() + path)
    perm = data.draw(st.permutations(range(n)))
    h = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])
    assert abs(perron_many([g], 1)[0] - perron_many([h], 1)[0]) < 1e-12
    assert (check_theorem_instance(h)["classification"]
            == check_theorem_instance(g)["classification"])


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(3, 62),
    p=st.floats(0, 0.9),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_adding_an_edge_raises_the_printed_radius(n, p, seed, data):
    # Perron-Frobenius: in a connected graph, a new edge strictly raises q and
    # rho, and the rise must survive the rounding that reports print.
    path = [(i, i + 1) for i in range(n - 1)]
    g = Graph.from_edges(n, random_graph(n, p, seed).edges() + path)
    non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)]
    assume(non_edges)
    h = Graph.from_edges(n, g.edges() + [data.draw(st.sampled_from(non_edges))])
    for alpha in (1, 0):
        before, after = map(round_float, perron_many([g, h], alpha))
        assert after > before, alpha


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 40), p=st.floats(0.3, 1), seed=st.integers(0, 2**32),
       bridged=st.booleans(), data=st.data())
def test_q_is_at_most_the_largest_edge_degree_sum(n, p, seed, bridged, data):
    # Q = R R^T for the vertex-edge incidence matrix R, and
    # R^T R = 2I + A(L(G)) has row sums d_u + d_v, so q is at most the
    # largest d_u + d_v over the edges, with equality on regular graphs (q = 2d,
    # as the Perron tests above pin). The graph is a connected G(n, p), or a
    # bridged graph: connected G(k, p) and G(n - k, p) joined by one edge.
    if bridged:
        k = data.draw(st.integers(1, n - 1))
        a, b = random_graph(k, p, seed), random_graph(n - k, p, seed + 1)
        assume(is_connected(a) and is_connected(b))
        bridge = (data.draw(st.integers(0, k - 1)), data.draw(st.integers(k, n - 1)))
        g = Graph.from_edges(n, disjoint_union(a, b).edges() + [bridge])
    else:
        g = random_graph(n, p, seed)
        assume(is_connected(g))
    d = g.degrees()
    bound = max(d[u] + d[v] for u, v in g.edges())
    assert np.linalg.eigvalsh(signless_laplacian(g))[-1] <= bound + 1e-9


# ---------------------------------------------------------------------------
# quotients


def test_quotient_matrix_exact_fractions():
    # K_1 join (K_2 u K_1): cells = join, clique, singleton. The integer
    # counts equal the definition b_rc = (sum of Q over block rc) / |cell r|,
    # taken here in exact Fractions.
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    q = signless_laplacian(g).astype(int).tolist()
    cells = [[0], [1, 2], [3]]
    averaged = [[Fraction(sum(q[i][j] for i in r for j in c), len(r)) for c in cells]
                for r in cells]
    assert quotient(g, cells) == averaged == [[3, 2, 1], [1, 3, 0], [1, 0, 1]]
    assert quotient(g, [[0, 1], [2, 3]]) is None  # not equitable


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 12), p=st.floats(0, 1), seed=st.integers(0, 2**32), data=st.data())
def test_quotient_is_the_constant_block_row_sums_of_q(n, p, seed, data):
    g = random_graph(n, p, seed)
    labels = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    cells = [cell for cell in ([v for v in range(n) if labels[v] == k] for k in range(n))
             if cell]
    q = signless_laplacian(g)
    sums = [[q[np.ix_(r, c)].sum(axis=1) for c in cells] for r in cells]
    if all((block == block[0]).all() for row in sums for block in row):
        assert quotient(g, cells) == [[int(block[0]) for block in row] for row in sums]
    else:
        assert quotient(g, cells) is None
    assert quotient(g, [[v] for v in range(n)]) == q.astype(int).tolist()


def test_quotient_partition_validation():
    g = complete(3)
    with pytest.raises(ValueError):
        quotient(g, [[0, 1]])  # not a partition of all vertices
    with pytest.raises(ValueError):
        quotient(g, [[0, 1], [1, 2]])  # overlap
    with pytest.raises(ValueError):
        quotient(g, [[0, 1, 2], []])  # empty cell


def test_quotient_root():
    # K_2 join (K_3 u K_3) over its three cells: the cubic divides Q's own
    # polynomial, the largest roots of both round to the same double, and
    # that double is eigh's q up to eigensolver noise.
    g = join(complete(2), disjoint_union(complete(3), complete(3)))
    poly, q = quotient_root(g, [[0, 1], [2, 3, 4], [5, 6, 7]])
    full, q_full = quotient_root(g, [[v] for v in range(g.n)])
    assert len(poly) == 4 and _product(poly, _quotient(full, poly)) == full
    assert q == q_full == pytest.approx(perron_many([g], 1)[0], abs=1e-12)
    with pytest.raises(ValueError, match="equitable"):
        quotient_root(g, [[0, 1, 2], [3, 4, 5, 6, 7]])


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 12), p=st.floats(0, 1), seed=st.integers(0, 2**32), data=st.data())
def test_equitable_partition_is_canonical(n, p, seed, data):
    # Colour refinement gives an equitable partition, the coarsest one: no
    # two cells merge into an equitable one. It is unique, so relabelling the
    # graph relabels its cells and their sizes do not change. On a connected
    # graph the quotient's largest root is q.
    g = random_graph(n, p, seed)
    cells = equitable_partition(g)
    assert quotient(g, cells) is not None
    for b in range(len(cells)):
        for a in range(b):
            rest = [cell for i, cell in enumerate(cells) if i not in (a, b)]
            assert quotient(g, rest + [cells[a] + cells[b]]) is None
    perm = data.draw(st.permutations(range(n)))
    h = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])
    assert equitable_partition(h) == sorted(sorted(perm[v] for v in cell) for cell in cells)
    if n > 1 and is_connected(g):
        root = largest_real_root(char_poly(quotient(g, cells)), 2.0 * n)
        assert abs(root - np.linalg.eigvalsh(signless_laplacian(g))[-1]) < 1e-12


def test_equitable_partition_examples():
    assert equitable_partition(complete(5)) == [[0, 1, 2, 3, 4]]
    assert equitable_partition(star(3)) == [[0], [1, 2, 3]]
    # the path 0-1-2-3: ends and middle
    assert equitable_partition(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])) == [[0, 3], [1, 2]]
    assert equitable_partition(Graph(0, ())) == []


def dumbbell(k, p):
    """Two K_k joined by a path on p further vertices: K_k - P_p - K_k."""
    n = 2 * k + p
    cliques = [(b + u, b + v) for b in (0, k + p) for u in range(k) for v in range(u + 1, k)]
    return Graph.from_edges(n, cliques + [(v, v + 1) for v in range(k - 1, k + p)])


@pytest.mark.parametrize("alpha", [1, 0], ids=["q", "rho"])
@pytest.mark.parametrize("k, p, cell_count", [(20, 22, 13), (25, 12, 8)],
                         ids=["K20-P22-K20", "K25-P12-K25"])
def test_symmetric_dumbbell_needs_the_equitable_partition(k, p, cell_count, alpha):
    # The top two eigenvalues of these 62-vertex dumbbells lie within one
    # double, so the full polynomial over the discrete partition has no
    # proved largest root. Over the coarsest equitable partition the
    # mirror symmetry folds away and the root is eigh's value.
    g = dumbbell(k, p)
    cells = equitable_partition(g)
    assert len(cells) == cell_count
    _, root = quotient_root(g, cells, alpha)
    assert abs(root - perron_many([g], alpha)[0]) < 1e-12
    with pytest.raises(ValueError, match=r"^no proved largest root in \(0, hi\)$"):
        quotient_root(g, [[v] for v in range(g.n)], alpha)


def test_quadratic_form():
    # The surgery chain's Rayleigh gain rests on x^T Q x = sum over edges of
    # (x_u + x_v)^2.
    q = signless_laplacian(cycle(4))
    assert float(np.ones(4) @ q @ np.ones(4)) == pytest.approx(16.0)
    g = random_graph(9, 0.5, 2)
    x = np.random.default_rng(2).standard_normal(9)
    edge_sum = sum((x[u] + x[v]) ** 2 for u, v in g.edges())
    assert float(x @ signless_laplacian(g) @ x) == pytest.approx(edge_sum, abs=1e-12)


# ---------------------------------------------------------------------------
# exact polynomials


def _remainder(p, divisor):
    # p minus divisor times quotient, trimmed of its zero top coefficients
    product = _product(divisor, _quotient(p, divisor))
    rem = [a - b for a, b in zip(p, product + (0,) * (len(p) - len(product)))]
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return tuple(rem)


def test_int_polynomial_monic_remainder():
    # The lemma suite's exact long division, over coefficient tuples
    # ascending by degree: the remainder it leaves is the textbook one.
    p = (-6, 11, -6, 1)  # (x-1)(x-2)(x-3)
    assert _remainder(p, (2, -3, 1)) == (0,)  # (x-1)(x-2)
    assert _remainder(p, (-3, 1)) == (0,)
    assert _remainder(p, (1, 0, 1)) == (0, 10)  # x^2 + 1
    assert _remainder(p, (0, 1)) == (-6,)  # p(0)
    assert _remainder(p, (1,)) == (0,)
    assert _remainder((5, 1), p) == (5, 1)
    with pytest.raises(ValueError, match="monic"):
        _quotient(p, (1, 2))


def test_int_polynomial_product_and_quotient():
    p = (-6, 11, -6, 1)  # (x-1)(x-2)(x-3)
    assert _product((2, -3, 1), (-3, 1)) == p
    assert _product(p, (0,)) == (0, 0, 0, 0)
    assert _quotient(p, (2, -3, 1)) == (-3, 1)
    assert _quotient(p, (-3, 1)) == (2, -3, 1)
    assert _quotient(p, (1, 0, 1)) == (-6, 1)  # remainder 10x
    assert _quotient(p, (0, 1)) == (11, -6, 1)
    assert _quotient(p, (1,)) == p
    assert _quotient((5, 1), p) == (0,)
    for divisor in ((1, 0, 1), (7, -1, 1), (0, 1)):
        assert len(_remainder(p, divisor)) < len(divisor)


def test_above_roots():
    # p and every derivative are positive above 3, its largest root, and not
    # at it; (x-1)^2 (x-4) is negative at 3.5, between its derivative's
    # largest root 3 and its own root 4.
    p = (-6, 11, -6, 1)
    assert above_roots(p, 3.5) and above_roots(p, 1e9)
    assert not above_roots(p, 3.0) and not above_roots(p, 2.5) and not above_roots(p, -1.0)
    assert above_roots(p, math.nextafter(3.0, 4.0))
    q = (-4, 9, -6, 1)
    assert not above_roots(q, 3.5) and above_roots(q, 4.25)


def test_char_poly_known_matrix():
    # Q(K_3) has spectrum {4, 1, 1}: det(xI - Q) = (x-4)(x-1)^2
    poly = char_poly(quotient(complete(3), [[0], [1], [2]]))
    assert poly == (-4, 9, -6, 1)
    assert evaluate(poly, 4) == 0 and evaluate(poly, 1) == 0


def test_char_poly_matches_numpy_on_seeded_matrices():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        m = rng.integers(-4, 5, size=(n, n))
        m = m + m.T
        exact = char_poly(m.tolist())
        approx = np.poly(m.astype(float))  # descending, leading 1
        for k, c in enumerate(reversed(exact)):
            assert c == pytest.approx(approx[k], abs=1e-6 * max(1.0, abs(approx[k])))


def test_char_poly_rejects_non_integers():
    with pytest.raises(ValueError):
        char_poly([[0.5, 0.0], [0.0, 0.5]])
    with pytest.raises(ValueError):
        char_poly(np.array([[1, 0], [0, 1]]))  # numpy ints, not Python ints


@st.composite
def integer_matrices(draw):
    """Square integer matrices with n = 0..12: non-symmetric, mostly sparse,
    negative entries, entries up to 10**6 (so every prime is reached), and
    often zero columns, which leave the reduction no pivot."""
    n = draw(st.integers(0, 12))
    entry = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-10**6, 10**6))
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    for c in draw(st.lists(st.integers(0, n - 1), max_size=3)) if n else ():
        for row in rows:
            row[c] = 0
    return rows


@settings(max_examples=150, deadline=None)
@given(integer_matrices())
@example([[0, 0, 1], [0, 0, 0], [1, 0, 0]])  # column 0 needs a row swap
@example([[1, 0, 2, 0], [3, 0, 1, 0], [0, 0, 4, 0], [5, 0, 0, 0]])  # zero columns
@example([[2, 0, 0], [0, 3, 0], [0, 0, -4]])  # already triangular
@example([[7]])
@example([])
def test_char_poly_matches_faddeev_leverrier(a):
    assert char_poly(a) == faddeev_leverrier(a)


def test_char_poly_matches_faddeev_leverrier_on_graphs():
    # The full Q of seeded random graphs up to n = 30, and of one graph at
    # n = 62, whose coefficient bound needs the largest prime.
    for n in (5, 10, 15, 20, 25, 30):
        for seed in (1, 2):
            m = quotient(random_graph(n, 0.5, seed), [[v] for v in range(n)])
            assert char_poly(m) == faddeev_leverrier(m), (n, seed)
    m = quotient(random_graph(62, 0.5, 62), [[v] for v in range(62)])
    assert (1 + max(map(sum, m))) ** 62 * 2 > (1 << 127) - 1
    assert char_poly(m) == faddeev_leverrier(m)


def test_char_poly_beyond_every_prime_raises():
    with pytest.raises(ArithmeticError):
        char_poly([[2**600]])


def _record_sign_points(monkeypatch) -> list[Fraction]:
    """The points largest_real_root evaluates signs at, in order, each run of
    evaluations at one point recorded once."""
    points = []
    real = spectra._sign_at

    def recording(coeffs, m, e):
        x = Fraction(m, 1 << e)
        if not points or points[-1] != x:
            points.append(x)
        return real(coeffs, m, e)

    monkeypatch.setattr("qfactor.spectra._sign_at", recording)
    return points


def test_largest_real_root_float_overflow_keeps_the_bracket(monkeypatch):
    # Float Horner overflows on (x - 2)(x + 1)^32 at 1e10 (the Newton
    # estimate is NaN), and float() itself on the coefficients of
    # (x - 3)(x + 10^400): no end is proved, so the first point after hi is
    # the midpoint of (0, hi), and the proved root is still returned.
    wide = (-2, 1)
    for _ in range(32):
        wide = _product(wide, (1, 1))
    huge = _product((-3, 1), (10**400, 1))
    points = _record_sign_points(monkeypatch)
    for p, hi, root in [(wide, 1e10, 2.0), (huge, 10.0, 3.0)]:
        points.clear()
        assert largest_real_root(p, hi) == root
        assert points[:2] == [Fraction(hi), Fraction(hi) / 2]


def test_largest_real_root_returns_a_dyadic_root_at_a_midpoint(monkeypatch):
    # (x + 3)(x + 2)(x - 4): Newton from 16 lands on 4, both ends 4 -+ 2^-38
    # are proved, and their midpoint is the root, returned as it is.
    points = _record_sign_points(monkeypatch)
    p = (-24, -14, 1, 1)
    assert largest_real_root(p, 16.0) == 4.0
    ends = [4 + Fraction(4, 2**40), 4 - Fraction(4, 2**40)]
    assert points == [16, *ends, 4]


def _isolating_bracket(p: tuple[int, ...]) -> tuple[Fraction, Fraction]:
    """A Fraction interval around p's largest real root, from numpy.roots,
    well inside the gap to the next root."""
    roots = np.roots([float(c) for c in reversed(p)])
    real = sorted(r.real for r in roots if abs(r.imag) <= 1e-9 * max(1.0, abs(r)))
    top = real[-1]
    gap = top - real[-2] if len(real) > 1 else 1.0
    width = Fraction(min(gap / 4, 1e-6 * max(1.0, abs(top))))
    return Fraction(top) - width, Fraction(top) + width


def test_largest_real_root_matches_fraction_oracle_on_suite_polynomials(monkeypatch):
    # Every polynomial the lemma and identity suites root, with the cached
    # thresholds recomputed, against the Fraction bisection oracle.
    calls = []

    def recording(p, hi):
        root = largest_real_root(p, hi)
        calls.append((p, root))
        return root

    monkeypatch.setattr("qfactor.spectra.largest_real_root", recording)
    monkeypatch.setattr("qfactor.suites.largest_real_root", recording)
    threshold_q.cache_clear()
    try:
        lemma_suite(seed=0)
        identity_suite()
    finally:
        threshold_q.cache_clear()
    assert len(calls) > 100
    for p, root in calls:
        assert root == fraction_root(p, *_isolating_bracket(p)), p


def test_largest_real_root_frozen():
    # det(xI - B) for B the 3x3 quotient of the order-8 extremal graph
    poly = (-120, 104, -20, 1)
    root = largest_real_root(poly, 16.0)
    assert root == pytest.approx(12.385164807134505, abs=1e-11)
    assert evaluate(poly, math.floor(root)) < 0 < evaluate(poly, math.ceil(root))


def test_largest_real_root_picks_largest():
    p = (-6, 11, -6, 1)  # roots 1, 2, 3
    assert largest_real_root(p, 10.0) == pytest.approx(3.0, abs=1e-11)
    with pytest.raises(ValueError):
        largest_real_root(p, 2.5)  # p(hi) < 0: bracket invalid


def test_largest_real_root_close_pair():
    # (x - 1)(x - 3)(1000x - 3001): the two top roots are 1e-3 apart
    p = (-9003, 15004, -7001, 1000)
    assert largest_real_root(p, 10.0) == 3.001


def test_largest_real_root_double_root():
    # The contract is a real-rooted p with a simple largest root, as the
    # quotient polynomials of Q of a connected graph are; anything else is
    # refused, not guessed.
    double = (-9, 15, -7, 1)  # (x - 3)^2 (x - 1)
    complex_pair = (-10, 16, -7, 1)  # (x - 1)(x^2 - 6x + 10)
    for p in (double, complex_pair):
        with pytest.raises(ValueError):
            largest_real_root(p, 10.0)
    # (x - 1)(x - 2)(x - 4): the first midpoint of [0, 8] is the root
    assert largest_real_root((-8, 14, -7, 1), 8.0) == 4.0
    with pytest.raises(ValueError):
        largest_real_root((-6, 11, -6, 1), 2.5)


def test_largest_real_root_correctly_rounded_thresholds():
    # phi_bstar's largest root, for every n <= 62, against the Fraction
    # bisection oracle on its sign change in (n, 2n): q(gstar) >= n.
    for n in range(4, 63, 2):
        for delta in range(2, n // 2 + 1):
            p = phi_bstar(n, delta)
            assert largest_real_root(p, float(2 * n)) == fraction_root(p, n, 2 * n), (n, delta)


def test_largest_real_root_correctly_rounded_on_graphs():
    # The full Q polynomial of random connected graphs, degree 5 to 10,
    # against an exact bisection inside an eigvalsh bracket.
    rng = np.random.default_rng(18)
    checked = 0
    while checked < 60:
        n = int(rng.integers(5, 11))
        g = random_graph(n, float(rng.uniform(0.3, 0.9)), int(rng.integers(10**6)))
        if not is_connected(g):
            continue
        checked += 1
        p = char_poly(quotient(g, [[v] for v in range(n)]))
        root = largest_real_root(p, 2.0 * n)
        values = np.linalg.eigvalsh(signless_laplacian(g))
        assert values[-1] - values[-2] > 1e-3
        lo, hi = Fraction(values[-1] - 1e-6), Fraction(values[-1] + 1e-6)
        assert evaluate(p, lo) < 0 < evaluate(p, hi)
        while hi - lo > Fraction(1, 10**30):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if evaluate(p, mid) < 0 else (lo, mid)
        exact = (lo + hi) / 2
        error = abs(Fraction(root) - exact)
        for neighbour in (math.nextafter(root, 0), math.nextafter(root, math.inf)):
            assert error <= abs(Fraction(neighbour) - exact), write_graph6(g)
