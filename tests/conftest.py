"""Shared oracles and fixtures.

Oracles here are deliberately independent of the library internals: BFS for
components, brute-force enumeration for colourings/flows/trees, so each
identity is checked through two unrelated routes.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product

import pytest

from rcpotts.graphs import Multigraph


def seeded_multigraph(rng, loops: bool) -> Multigraph:
    """n = 0..8 vertices and up to 12 edges drawn from a few vertex pairs of
    ``rng`` (a ``random.Random``), so parallel edges, isolated vertices and
    several components are all common."""
    n = rng.randrange(9)
    pairs = [(u, v) for u in range(n) for v in range(u if loops else u + 1, n)]
    pool = rng.sample(pairs, min(len(pairs), rng.randrange(1, 8)))
    return Multigraph(n, tuple(rng.choice(pool) for _ in range(rng.randrange(13))) if pool else ())


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


def event_probability(table, event: int) -> Fraction:
    """P(event) summed in Fractions over the configurations in the event."""
    return sum((x for a, x in table.probs.items() if event >> a & 1), Fraction(0))


def fkg_sweep_oracle(table, events) -> list[dict]:
    """The first ten up-set pairs A <= B, in the order of ``events``, with
    P(A and B) < P(A) P(B), each probability summed from its definition."""
    prob = {e: event_probability(table, e) for e in events}
    violations = []
    for i, a in enumerate(events):
        for b in events[i:]:
            if event_probability(table, a & b) < prob[a] * prob[b]:
                violations.append({"A": a, "B": b})
                if len(violations) == 10:
                    return violations
    return violations


def na_split_oracle(table, m: int, upsets):
    """The first pair (A, B), A increasing on an edge set F and B increasing
    on its complement, with P(A and B) > P(A) P(B): splits by size of F, then
    lexicographically, A outer and B inner in the order ``upsets(k)`` gives
    the up-sets of the k-cube.  A and B are lifted to events of the m-cube."""
    for r in range(m + 1):
        for coords in combinations(range(m), r):
            rest = [i for i in range(m) if i not in coords]

            def lift(event, on):
                return sum(1 << c for c in range(1 << m)
                           if event >> sum((c >> i & 1) << j for j, i in enumerate(on)) & 1)

            lifted_b = [lift(b, rest) for b in upsets(len(rest))]
            for a in upsets(r):
                big_a = lift(a, coords)
                for big_b in lifted_b:
                    joint = event_probability(table, big_a & big_b)
                    if joint > event_probability(table, big_a) * event_probability(table, big_b):
                        return big_a, big_b
    return None


def doc_scan_oracle(table, m: int, pairs):
    """The first event pair (a, b) of ``pairs`` with
    P(A box B) > P(A) P(B), A box B read from ``box_product_oracle``."""
    for a, b in pairs:
        box = event_probability(table, box_product_oracle(a, b, m))
        if box > event_probability(table, a) * event_probability(table, b):
            return a, b
    return None


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


def brute_force_multigraphs(n: int, max_edges: int, min_edges: int = 1, loops: bool = True, connected=None):
    """One multigraph per vertex-permutation class: every sorted edge
    multiset, kept when no vertex permutation maps it to a lexicographically
    smaller sorted edge tuple (all n! permutations tried per multiset)."""
    pairs = sorted([(i, j) for i in range(n) for j in range(i + 1, n)] + ([(i, i) for i in range(n)] if loops else []))
    out = []
    for k in range(min_edges, max_edges + 1):
        for combo in combinations_with_replacement(pairs, k):
            if any(
                tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in combo)) < combo
                for perm in permutations(range(n))
            ):
                continue
            g = Multigraph(n, combo)
            if connected is not None and (n <= 1 or bfs_component_count(g, g.full_subset()) == 1) != connected:
                continue
            out.append(g)
    return out


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
