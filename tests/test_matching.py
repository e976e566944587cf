"""Tests for the blossom matching engine and the two-factor fast path,
cross-checked against networkx and the exhaustive certificate search."""

import networkx as nx
import pytest

from qfactor.factors import find_even_factor
from qfactor.graphs import Graph, complete, isomorphism_classes, random_graph
from qfactor.matching import maximum_matching, two_factor


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


def _assert_matching(g: Graph, edges) -> None:
    covered = set()
    for u, v in edges:
        assert u < v and g.has_edge(u, v)
        assert u not in covered and v not in covered
        covered |= {u, v}
    assert list(edges) == sorted(edges)


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
        m = maximum_matching(g)
        _assert_matching(g, m)
        assert len(m) == _networkx_size(g), g


def test_maximum_matching_size_on_random_graphs():
    for g in _random_graphs():
        m = maximum_matching(g)
        _assert_matching(g, m)
        assert len(m) == _networkx_size(g), g


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
    assert len(maximum_matching(bridged)) == 3
    assert two_factor(bridged) is None
    assert two_factor(complete(3)) is None  # odd order: no perfect matching
    assert len(two_factor(complete(62))) == 62


def test_two_factor_implies_even_factor(classes):
    for g in classes:
        if g.n % 2 == 0 and two_factor(g) is not None:
            assert find_even_factor(g) is not None, g
