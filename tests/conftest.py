"""Shared oracles and fixtures.

Oracles here are deliberately independent of the library internals: BFS for
components, brute-force enumeration for colourings/flows/trees, so each
identity is checked through two unrelated routes.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import product

import pytest

from rcpotts.graphs import Multigraph


def bfs_component_count(g: Multigraph, a: int) -> int:
    adj = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges):
        if a >> i & 1:
            adj[u].append(v)
            adj[v].append(u)
    seen = [False] * g.n
    comps = 0
    for s in range(g.n):
        if seen[s]:
            continue
        comps += 1
        seen[s] = True
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
    return comps


def bfs_reachable(g: Multigraph, a: int, x: int) -> set[int]:
    """Vertices joined to x by the edges of the subset a."""
    seen = {x}
    queue = deque([x])
    while queue:
        u = queue.popleft()
        for i, (s, t) in enumerate(g.edges):
            if a >> i & 1 and u in (s, t):
                w = t if u == s else s
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return seen


def agreement_oracle(g: Multigraph, sigma) -> int:
    """Bitmask of the edges whose two endpoints carry equal spins."""
    mask = 0
    for i, (u, v) in enumerate(g.edges):
        if sigma[u] == sigma[v]:
            mask |= 1 << i
    return mask


def box_product_oracle(a: int, b: int, m: int) -> int:
    """Disjoint occurrence from its definition: omega is in A box B iff some
    edge set K fixes a cylinder through omega inside A while the complement
    of K fixes one inside B."""

    def cylinder_inside(event: int, omega: int, fixed: int) -> bool:
        return all(
            event >> cfg & 1
            for cfg in range(1 << m)
            if cfg & fixed == omega & fixed
        )

    full = (1 << m) - 1
    out = 0
    for omega in range(1 << m):
        if any(
            cylinder_inside(a, omega, k) and cylinder_inside(b, omega, full ^ k)
            for k in range(1 << m)
        ):
            out |= 1 << omega
    return out


def brute_force_flow_count(g: Multigraph, q: int) -> int:
    """Nowhere-zero mod-q flow count, fixed orientation u -> v."""
    if g.m == 0:
        return 1
    count = 0
    for values in product(range(1, q), repeat=g.m):
        net = [0] * g.n
        for (u, v), f in zip(g.edges, values):
            if u != v:
                net[u] += f
                net[v] -= f
        if all(x % q == 0 for x in net):
            count += 1
    return count


RATIONAL_POINTS_20 = [
    (Fraction(a, b), Fraction(c, d))
    for (a, b), (c, d) in [
        ((2, 1), (2, 1)), ((3, 1), (0, 1)), ((0, 1), (3, 1)), ((5, 2), (1, 3)),
        ((7, 3), (9, 4)), ((-1, 1), (2, 1)), ((2, 1), (-3, 1)), ((-5, 2), (-1, 2)),
        ((1, 2), (1, 2)), ((3, 2), (5, 2)), ((4, 1), (4, 1)), ((9, 7), (2, 9)),
        ((-2, 3), (7, 5)), ((6, 1), (-1, 6)), ((10, 3), (3, 10)), ((2, 5), (5, 2)),
        ((-7, 4), (4, 7)), ((11, 6), (6, 11)), ((8, 5), (-5, 8)), ((13, 4), (1, 13)),
    ]
]
assert all(u != 1 for u, _ in RATIONAL_POINTS_20)


@pytest.fixture(scope="session")
def tutte_cache():
    from rcpotts.polynomials import TutteCache

    return TutteCache()
