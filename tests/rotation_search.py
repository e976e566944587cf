"""A rotation-extension (Posa) search for Hamiltonian cycles, kept for tests.

It is a heuristic: a cycle it returns is checked by the caller edge by
edge, and None proves nothing. Its generator has a fixed seed, so a test
that runs it sees the same cycles on every run.
"""

from __future__ import annotations

import random

from qfactor.graphs import Graph


def hamiltonian_cycle(g: Graph) -> list[int] | None:
    """A Hamiltonian cycle of g as a vertex list, or None if none was found.

    The path grows from vertex 0. Its end extends to an unvisited
    neighbour when it has one. Otherwise the search rotates: for a
    neighbour ``path[i]`` of the end it reverses ``path[i+1:]``, which
    makes ``path[i+1]`` the new end. Rotations whose new end can extend
    (or, on a spanning path, close the cycle) are preferred; ties are
    broken by a generator of fixed seed. The search gives up after
    ``20 * n * n`` moves.
    """
    n = g.n
    if n < 3:  # a spanning path on two vertices closes on its own edge
        return None
    adj = [[w for w in range(n) if g.rows[v] >> w & 1] for v in range(n)]
    rng = random.Random(0)
    path = [0]
    pos = {0: 0}
    for _ in range(20 * n * n):
        end = path[-1]
        if len(path) == n and g.has_edge(end, path[0]):
            return path
        fresh = [w for w in adj[end] if w not in pos]
        if fresh:
            w = rng.choice(fresh)
            pos[w] = len(path)
            path.append(w)
            continue
        pivots = [pos[u] for u in adj[end] if pos[u] < len(path) - 2]
        if not pivots:
            return None
        good = [i for i in pivots
                if (len(path) == n and g.has_edge(path[i + 1], path[0]))
                or any(w not in pos for w in adj[path[i + 1]])]
        i = rng.choice(good or pivots)
        path[i + 1:] = reversed(path[i + 1:])
        for k in range(i + 1, len(path)):
            pos[path[k]] = k
    return None
