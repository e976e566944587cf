"""Bitset graphs, graph6 codec, deterministic RNG, enumeration."""

import copy
import hashlib
import itertools
import pickle
import sys
from array import array

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codec_oracles import parse_graph6_by_strings
from exhaustive_search import GuardExceeded, enumerate_labeled
from kernel_oracles import transposition_classes
from qfactor.census import (
    isomorphism_classes,
    lexicographic_pairs,
    mask_graph,
    mask_graph6_encoder,
)
from qfactor.graphs import (
    Graph,
    Graph6Error,
    _component_masks,
    _trusted_graph,
    complete,
    disjoint_union,
    graph6_payload,
    is_connected,
    join,
    min_degree,
    odd_components_after_removal,
    parse_graph6,
    random_graph,
    splitmix64,
    write_graph6,
)


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


# ---------------------------------------------------------------------------
# construction and invariants


def test_from_edges_basic():
    g = Graph.from_edges(4, [(0, 1), (2, 3), (1, 2)])
    assert g.n == 4
    assert g.edge_count == 3
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.degrees() == (1, 2, 2, 1)
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    assert g.rows[1] == 0b101


def test_graph_rejects_loops_and_asymmetry():
    # the constructor's own cases, with their messages: test_graph_validation_errors
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 5)])


def test_graph_is_a_value():
    g, same, other = cycle(4), Graph(4, (0b1010, 0b0101, 0b1010, 0b0101)), cycle(5)
    assert g == same and hash(g) == hash(same) and g is not same
    assert g != other and g != (4, g.rows)
    assert len({g, same, other}) == 2
    assert repr(g) == "Graph(n=4, rows=(10, 5, 10, 5))"
    assert eval(repr(g)) == g
    assert pickle.loads(pickle.dumps(g)) == g and copy.deepcopy(g) == g


def test_graph_is_immutable():
    g = cycle(4)
    with pytest.raises(AttributeError, match="cannot assign to field 'n'"):
        g.n = 5
    with pytest.raises(AttributeError, match="cannot delete field 'rows'"):
        del g.rows
    with pytest.raises(AttributeError):
        g.label = "c4"  # no other attribute either
    assert g == cycle(4)


@pytest.mark.parametrize("n, rows, message", [
    (-1, (), "order must be nonnegative"),
    (2, (0,), "row count must equal order"),
    (2, (0b01, 0b10), "loop at vertex 0"),  # loops on the diagonal
    (1, (0b10,), "row 0 has bits outside 0..n-1"),
    (2, (0b10, 0b00), "asymmetric adjacency 0,1"),  # 0 claims 1 but not vice versa
])
def test_graph_validation_errors(n, rows, message):
    with pytest.raises(ValueError, match=message):
        Graph(n, rows)


def test_public_constructors_validate_in_post_init(monkeypatch):
    """Every public way to build a Graph runs __post_init__, which a tracer
    may wrap; _trusted_graph, for rows correct by construction, does not."""
    calls = []
    validate = Graph.__post_init__

    def counting(self):
        calls.append(self)
        validate(self)

    monkeypatch.setattr(Graph, "__post_init__", counting)
    built = [Graph(3, (0b010, 0b101, 0b010)), Graph.from_edges(3, [(0, 1), (1, 2)]),
             random_graph(5, 0.5, 7)]
    assert calls == built
    trusted = [_trusted_graph(2, (0b10, 0b01)), complete(4), parse_graph6("G~~~~{")]
    assert [g.n for g in trusted] == [2, 4, 8]
    assert len(calls) == 3


def test_add_remove_edges_pure():
    g = cycle(4)
    h = g.add_edges([(0, 2)])
    assert h.edge_count == 5 and g.edge_count == 4
    assert h.remove_edges([(0, 2)]).rows == g.rows
    with pytest.raises(ValueError):
        g.add_edges([(0, 1)])  # already present
    with pytest.raises(ValueError):
        g.remove_edges([(0, 2)])  # absent


def test_complete_and_operators():
    k3 = complete(3)
    assert k3.edge_count == 3 and min_degree(k3) == 2
    u = disjoint_union(k3, complete(2))
    assert u.n == 5 and u.edge_count == 4 and not is_connected(u)
    j = join(complete(1), u)
    assert j.n == 6 and j.edge_count == 4 + 5
    assert is_connected(j)
    # without vertex 0 (bit 0 of every row) the join is the union again
    assert [row >> 1 for row in j.rows[1:]] == list(u.rows)
    # the builders skip validation: the public constructor must agree
    parts = [complete(1), complete(3), cycle(5), Graph.empty(2)]
    for a, b in itertools.product(parts, repeat=2):
        for g in (complete(a.n), disjoint_union(a, b), join(a, b)):
            assert g == Graph(g.n, g.rows)


def test_components_and_odd_counts():
    g = disjoint_union(disjoint_union(complete(3), complete(2)), complete(1))
    # components come out ordered by their lowest vertex
    assert list(_component_masks(g.rows, 0b111111)) == [0b000111, 0b011000, 0b100000]
    assert odd_components_after_removal(g, 0) == 2
    # o(G - S) with S = the K_2 block
    assert odd_components_after_removal(g, 0b011000) == 2


def test_odd_components_matches_delete_vertices():
    # networkx oracle: delete the vertices, count the odd components
    for seed in range(40):
        g = random_graph(9, 0.3, seed)
        h = nx.Graph(g.edges())
        h.add_nodes_from(range(g.n))
        for size in (1, 2, 3):
            for sub in itertools.islice(itertools.combinations(range(9), size), 12):
                mask = sum(1 << v for v in sub)
                rest = h.subgraph(set(range(g.n)) - set(sub))
                expected = sum(len(c) % 2 for c in nx.connected_components(rest))
                assert odd_components_after_removal(g, mask) == expected


# ---------------------------------------------------------------------------
# graph6 codec


def test_graph6_frozen_strings():
    assert write_graph6(Graph.empty(1)) == "@"
    assert write_graph6(Graph.empty(2)) == "A?"
    assert write_graph6(complete(2)) == "A_"
    assert parse_graph6("A_").edges() == [(0, 1)]
    assert parse_graph6(">>graph6<<A_").edges() == [(0, 1)]
    assert parse_graph6(b"A?").edge_count == 0


def test_graph6_rejects_malformed():
    for bad in ("", "A", "A_X", "~??", chr(62) + "?", "A" + chr(128)):
        with pytest.raises(Graph6Error):
            parse_graph6(bad)
    # nonzero padding bits in the tail byte
    with pytest.raises(Graph6Error):
        parse_graph6("A" + chr(63 + 0b010000))


def test_graph6_round_trip_seeded():
    for seed in range(300):
        n = 1 + seed % 20
        g = random_graph(n, 0.4, seed)
        assert parse_graph6(write_graph6(g)).rows == g.rows


def test_graph6_matches_networkx():
    for seed in range(60):
        n = 2 + seed % 14
        g = random_graph(n, 0.5, seed * 977 + 5)
        ours = write_graph6(g)
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert ours == theirs
        back = nx.from_graph6_bytes(ours.encode())
        assert sorted(back.edges()) == g.edges()


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(2, 16))
def test_graph6_round_trip_property(seed, n):
    g = random_graph(n, 0.5, seed)
    again = parse_graph6(write_graph6(g))
    assert again.rows == g.rows
    assert again.degrees() == g.degrees()


# Arbitrary input, plus bytes from the graph6 alphabet, plus a header byte
# followed by a payload of the length it announces (with the optional
# ">>graph6<<" prefix and surrounding whitespace), so that many inputs decode.
_GRAPH6_ALPHABET = st.binary().map(lambda b: bytes(63 + x % 64 for x in b))
_GRAPH6_SIZED = st.integers(0, 62).flatmap(
    lambda n: st.binary(
        min_size=(n * (n - 1) // 2 + 5) // 6, max_size=(n * (n - 1) // 2 + 5) // 6
    ).map(lambda b: bytes([63 + n]) + bytes(63 + x % 64 for x in b))
)
_GRAPH6_INPUT = st.one_of(
    st.binary(),
    st.text(),
    _GRAPH6_ALPHABET,
    st.tuples(
        st.sampled_from([b"", b">>graph6<<", b" ", b"\n"]),
        _GRAPH6_SIZED,
        st.sampled_from([b"", b"\n", b"\r\n", b" "]),
    ).map(b"".join),
    _GRAPH6_SIZED.map(lambda b: b.decode("ascii")),
)


@settings(max_examples=500, deadline=None)
@given(_GRAPH6_INPUT)
def test_parse_graph6_raises_only_graph6_error(data):
    try:
        g = parse_graph6(data)
    except Graph6Error:
        return
    assert isinstance(g, Graph)
    assert parse_graph6(write_graph6(g)) == g
    # An accepted string is canonical: stripped and without its header, it
    # is exactly what write_graph6 gives back. The decoded graph, built
    # without validation, equals the validating constructor's.
    raw = data.encode("ascii") if isinstance(data, str) else data
    canonical = raw.strip().removeprefix(b">>graph6<<").decode("ascii")
    assert write_graph6(g) == canonical
    assert graph6_payload(raw.strip().decode("ascii")) == canonical
    assert g == Graph(g.n, g.rows)


# The bit-matrix decoder against the string-transpose decoder it replaced.
@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_decoder_matches_string_oracle_on_every_order(p):
    for n in range(63):
        for seed in range(3):
            text = write_graph6(random_graph(n, p, seed=1000 * n + seed))
            ours = parse_graph6(text)
            assert ours.rows == parse_graph6_by_strings(text).rows, (n, p, seed)
            assert ours == Graph(ours.n, ours.rows)


def test_decoder_matches_string_oracle_on_every_small_labeled_graph():
    count = 0
    for n in range(6):
        for g in enumerate_labeled(n):
            text = write_graph6(g)
            assert parse_graph6(text).rows == parse_graph6_by_strings(text).rows == g.rows
            count += 1
    assert count == 1 + 1 + 2 + 8 + 64 + 1024
    assert parse_graph6("?") == Graph.empty(0)
    assert parse_graph6("@") == Graph.empty(1)


def test_decoder_on_empty_and_complete_graphs():
    for n in (0, 1, 2, 3, 31, 32, 61, 62):
        full = complete(n) if n else Graph.empty(0)
        for g in (full, Graph.empty(n)):
            assert parse_graph6(write_graph6(g)) == g


@settings(max_examples=300, deadline=None)
@given(_GRAPH6_INPUT)
def test_decoder_accepts_and_rejects_like_string_oracle(data):
    try:
        expected = parse_graph6_by_strings(data)
    except Graph6Error as exc:
        with pytest.raises(Graph6Error) as raised:
            parse_graph6(data)
        assert str(raised.value) == str(exc)
        return
    assert parse_graph6(data).rows == expected.rows


def test_mask_graph_equals_validated_graph():
    for n in range(7):
        pairs = lexicographic_pairs(n)
        for mask in range(0, 1 << len(pairs), 97):
            g = mask_graph(n, pairs, mask)
            assert g == Graph(g.n, g.rows)
    with pytest.raises(ValueError):
        mask_graph(-1, [], 0)


def test_mask_graph6_encoder_matches_write_graph6():
    for n in range(8):
        pairs = lexicographic_pairs(n)
        encode = mask_graph6_encoder(n)
        # every mask up to order 6, a strided sample at order 7
        for mask in range(0, 1 << len(pairs), 1 if n <= 6 else 1009):
            assert encode(mask) == write_graph6(mask_graph(n, pairs, mask)), (n, mask)
        full = (1 << len(pairs)) - 1
        assert encode(full) == write_graph6(complete(n) if n else Graph.empty(0))
    with pytest.raises(ValueError, match="n <= 7, got n=8"):
        mask_graph6_encoder(8)


# ---------------------------------------------------------------------------
# deterministic RNG


def test_splitmix64_reference_outputs():
    # first three outputs for seed 0 from the published reference sequence
    stream = splitmix64(0)
    assert next(stream) == 0xE220A8397B1DCDAF
    assert next(stream) == 0x6E789E6AA1B965F4
    assert next(stream) == 0x06C45D188009454F


def test_splitmix64_is_pure():
    a = [next(splitmix64(123)) for _ in range(5)]
    s = splitmix64(123)
    b = [next(s) for _ in range(5)]
    assert a[0] == b[0] and b == sorted(set(b), key=b.index)
    assert [next(splitmix64(123)) for _ in range(5)] == [a[0]] * 5


def test_random_graph_deterministic_and_monotone_in_p():
    g1 = random_graph(12, 0.35, 99)
    g2 = random_graph(12, 0.35, 99)
    assert g1.rows == g2.rows
    # same seed, higher p keeps every previous edge (same underlying draws)
    g3 = random_graph(12, 0.75, 99)
    assert all(ga | gb == gb for ga, gb in zip(g1.rows, g3.rows))
    assert random_graph(12, 0.35, 100).rows != g1.rows
    assert random_graph(5, 0.0, 7).edge_count == 0
    assert random_graph(5, 1.0, 7).edge_count == 10


def test_random_graph_edge_rate_sane():
    total = 0
    for seed in range(200):
        total += random_graph(10, 0.3, seed).edge_count
    rate = total / (200 * 45)
    assert 0.25 < rate < 0.35


# ---------------------------------------------------------------------------
# enumeration


def test_lexicographic_pairs_order():
    assert lexicographic_pairs(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_enumeration_counts_frozen():
    assert sum(1 for _ in enumerate_labeled(3)) == 8
    assert sum(1 for _ in enumerate_labeled(4, connected_only=True)) == 38
    assert sum(1 for _ in enumerate_labeled(4, connected_only=True, min_deg=2)) == 10


def test_enumeration_order_deterministic():
    first = [write_graph6(g) for g in enumerate_labeled(3)]
    assert first == [write_graph6(g) for g in enumerate_labeled(3)]
    assert first[0] == write_graph6(Graph.empty(3))
    assert first[-1] == write_graph6(complete(3))


def test_enumeration_guard():
    with pytest.raises(GuardExceeded):
        list(enumerate_labeled(8))
    big = enumerate_labeled(8, max_order=8)
    assert next(iter(big)).n == 8


# ---------------------------------------------------------------------------
# isomorphism classes of edge masks


def mask_of(g):
    return sum(1 << k for k, (i, j) in enumerate(lexicographic_pairs(g.n))
               if g.has_edge(i, j))


def relabeled_mask(n, mask, perm):
    pairs = lexicographic_pairs(n)
    edges = [(perm[i], perm[j]) for k, (i, j) in enumerate(pairs) if mask >> k & 1]
    return mask_of(Graph.from_edges(n, edges))


def test_isomorphism_class_counts():
    # OEIS A000088 (all graphs) and A001349 (connected graphs), n = 1..6.
    classes, connected = [], []
    for n in range(1, 7):
        labels, representatives = isomorphism_classes(n)
        assert len(labels) == 1 << len(lexicographic_pairs(n))
        classes.append(len(representatives))
        connected.append(sum(is_connected(g) for g in representatives))
    assert classes == [1, 2, 4, 11, 34, 156]
    assert connected == [1, 1, 2, 6, 21, 112]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_isomorphism_labels_are_orbits(n):
    # Labels are constant under relabeling (every permutation up to n = 5,
    # a seeded sample at n = 6), so with the counts above each label is
    # exactly one isomorphism class. Each representative is the lowest mask
    # carrying its label.
    labels, representatives = isomorphism_classes(n)
    lowest = {}
    for mask, label in enumerate(labels):
        lowest.setdefault(label, mask)
    assert [mask_of(g) for g in representatives] == [lowest[c] for c in range(len(lowest))]
    perms = list(itertools.permutations(range(n)))
    if n == 6:
        perms = [perms[(x >> 11) % len(perms)] for x in itertools.islice(splitmix64(n), 4)]
    for perm in perms:
        for mask, label in enumerate(labels):
            assert labels[relabeled_mask(n, mask, perm)] == label


@pytest.mark.parametrize("n", range(7))
def test_isomorphism_classes_match_the_transposition_flood(n):
    # Two generators flood the same orbits as the n - 1 adjacent
    # transpositions: the same labels and the same representative rows.
    assert isomorphism_classes(n) == transposition_classes(n)


def test_isomorphism_classes_order_7_labels_pinned():
    # The sha256 of the order-7 label array (int32, little-endian) as the
    # transposition flood wrote it; 1044 classes (OEIS A000088).
    labels, representatives = isomorphism_classes(7)
    data = array("i", labels)
    assert data.itemsize == 4
    if sys.byteorder == "big":
        data.byteswap()
    digest = hashlib.sha256(data.tobytes()).hexdigest()
    assert digest == "09e2f2e457beb93168a02b852921a9d713c09d73ea582a602da3e3031b9bd7de"
    assert len(representatives) == 1044


def test_isomorphism_classes_guard_and_order():
    # The order cap holds before the 2^(n(n-1)/2)-entry label table exists.
    with pytest.raises(ValueError, match="n <= 7, got n=30"):
        isomorphism_classes(30)
    with pytest.raises(ValueError, match="n <= 7, got n=8"):
        isomorphism_classes(8)
    with pytest.raises(ValueError):
        isomorphism_classes(-2)
    labels, representatives = isomorphism_classes(0)
    assert list(labels) == [0] and representatives == [Graph.empty(0)]
