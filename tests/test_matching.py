"""Tests for the blossom matching engine and the two-factor fast path,
cross-checked against networkx and the exhaustive certificate search."""

import networkx as nx
import pytest

from exhaustive_search import find_even_factor
from qfactor.census import isomorphism_classes
from qfactor.graphs import Graph, complete, random_graph
from qfactor.factors import _augment, _mates, two_factor


@pytest.fixture(scope="module")
def classes():
    """One representative of every isomorphism class with n <= 7."""
    return [g for n in range(8) for g in isomorphism_classes(n)[1]]


def _random_graphs():
    return [random_graph(n, p, seed=1000 * n + round(10 * p))
            for n in range(8, 63) for p in (0.1, 0.3, 0.6, 0.9)]


def _networkx_size(g: Graph) -> int:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return len(nx.max_weight_matching(h, maxcardinality=True))


def _matching_size(g: Graph, mate) -> int:
    """The number of edges of a mate list, checked to be a matching of g."""
    assert len(mate) == g.n
    for v, u in enumerate(mate):
        assert u == -1 or (mate[u] == v and g.has_edge(v, u))
    return sum(v < u for v, u in enumerate(mate))


def _assert_two_factor_or_none(g: Graph, edges) -> None:
    if edges is None:
        return
    assert len(set(edges)) == len(edges) == g.n
    degree = [0] * g.n
    for u, v in edges:
        assert g.has_edge(u, v)
        degree[u] += 1
        degree[v] += 1
    assert degree == [2] * g.n


def test_maximum_matching_size_on_every_small_class(classes):
    assert len(classes) == 1253
    for g in classes:
        assert _matching_size(g, _mates(list(g.rows))) == _networkx_size(g), g


def test_maximum_matching_size_on_random_graphs():
    for g in _random_graphs():
        assert _matching_size(g, _mates(list(g.rows))) == _networkx_size(g), g


def test_two_factor_is_two_regular_spanning_or_none(classes):
    found = 0
    for g in classes + _random_graphs():
        f = two_factor(g)
        _assert_two_factor_or_none(g, f)
        found += f is not None
    assert found > 100


def test_two_factor_examples():
    # Two triangles joined by an edge: perfect matchings exist, but every
    # one uses the bridge, so G - M1 has none.
    bridged = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    assert -1 not in _mates(list(bridged.rows))
    assert two_factor(bridged) is None
    assert two_factor(complete(3)) is None  # odd order: no perfect matching
    assert len(two_factor(complete(62))) == 62


def test_two_factor_implies_even_factor(classes):
    for g in classes:
        if g.n % 2 == 0 and two_factor(g) is not None:
            assert find_even_factor(g) is not None, g


def test_failed_searches_give_the_gallai_edmonds_set(classes):
    # D, the vertices some maximum matching misses, is the union of the
    # outer sets of the failed searches from the exposed vertices; each
    # search leaves the matching as it is.
    for g in classes + _random_graphs():
        rows = list(g.rows)
        mate = _mates(rows)
        size = _matching_size(g, mate)
        expected = 0
        for v in range(g.n):
            without = g.remove_edges([(v, u) for u in range(g.n) if g.has_edge(v, u)])
            if _matching_size(without, _mates(list(without.rows))) == size:
                expected |= 1 << v
        found = 0
        for v in range(g.n):
            if mate[v] == -1:
                before = mate[:]
                found |= _augment(rows, mate, v)
                assert mate == before, g
        assert found == expected, g


def test_augment_returns_zero_after_augmenting():
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    mate = [-1, 2, 1, -1]
    assert _augment(list(path.rows), mate, 0) == 0
    assert mate == [1, 0, 3, 2]
