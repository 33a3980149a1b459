"""Finite graph families used by the verification sweeps.

Simple graphs come from the networkx atlas (one representative per
isomorphism class, up to 7 vertices).  Multigraph families are edge
multisets over endpoint-pair types, generated orderly (Read; Faradzev): one
edge at a time, extending only canonical multisets, so each
vertex-permutation class appears exactly once, as its lexicographically least
member.
"""

from __future__ import annotations

from itertools import islice, permutations

from .graphs import Multigraph, is_connected

_ATLAS = None


def _atlas():
    global _ATLAS
    if _ATLAS is None:
        import networkx as nx  # about 18 MB resident: loaded only for the atlas

        _ATLAS = nx.graph_atlas_g()
    return _ATLAS


def _from_nx(g) -> Multigraph:
    nodes = sorted(g.nodes())
    idx = {v: i for i, v in enumerate(nodes)}
    return Multigraph(len(nodes), tuple((idx[u], idx[v]) for u, v in g.edges()))


def simple_graphs(max_nodes: int, max_edges: int | None = None, connected: bool | None = None):
    """Simple graphs up to isomorphism from the atlas (max_nodes <= 7)."""
    if max_nodes > 7:
        raise ValueError("atlas covers at most 7 vertices")
    out = []
    for g in _atlas():
        if g.number_of_nodes() == 0 or g.number_of_nodes() > max_nodes:
            continue
        if max_edges is not None and g.number_of_edges() > max_edges:
            continue
        mg = _from_nx(g)
        if connected is not None and is_connected(mg) != connected:
            continue
        out.append(mg)
    return out


def graphs_with_few_edges(max_edges: int, connected: bool | None = None):
    """Simple graphs (up to iso) with at most ``max_edges`` edges; a graph
    with m edges touches at most 2m vertices, and the atlas suffices for
    m <= 6 when isolated vertices are dropped (the same graph appears smaller)."""
    return [g for g in simple_graphs(7, max_edges, connected) if g.n == 1 or all(g.degrees())]


def _pair_types(n: int, loops: bool) -> list[tuple[int, int]]:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if loops:
        pairs += [(i, i) for i in range(n)]
    return sorted(pairs)


def multigraphs(
    n_vertices: int,
    max_edges: int,
    min_edges: int = 1,
    loops: bool = True,
    connected: bool | None = None,
):
    """Multigraphs on exactly ``n_vertices`` with ``min_edges..max_edges``
    edges, one per vertex-permutation class: the one whose sorted tuple of
    pair-type indices is lexicographically least.  Level k holds these tuples
    in order; each is extended only by indices at or above its last, as a
    prefix of a canonical tuple is canonical."""
    pairs = _pair_types(n_vertices, loops)
    index = {pair: i for i, pair in enumerate(pairs)}
    images = [  # the image of every pair index under each non-identity permutation
        [index[min(perm[u], perm[v]), max(perm[u], perm[v])] for u, v in pairs]
        for perm in islice(permutations(range(n_vertices)), 1, None)
    ]

    def canonical(c):
        least = list(c)
        return all(sorted(map(pm.__getitem__, c)) >= least for pm in images)

    out, level = [], [()]
    for k in range(max_edges + 1):
        if k >= min_edges:
            for c in level:
                g = Multigraph(n_vertices, tuple(pairs[i] for i in c))
                if connected is None or is_connected(g) == connected:
                    out.append(g)
        level = [
            c for parent in level for j in range(parent[-1] if parent else 0, len(pairs))
            if canonical(c := parent + (j,))
        ] if k < max_edges else []
    return out


def connected_multigraphs_upto(max_vertices: int, max_edges: int, loops: bool = True):
    """Connected multigraphs with at most ``max_vertices`` vertices and
    ``max_edges`` edges, one per permutation class per vertex count."""
    out = [Multigraph(1, ())]
    for n in range(1, max_vertices + 1):
        min_e = max(n - 1, 1)
        out.extend(multigraphs(n, max_edges, min_edges=min_e, loops=loops, connected=True))
    return out


def random_multigraph(n: int, m: int, rng, loops: bool = True) -> Multigraph:
    pairs = _pair_types(n, loops)
    idx = rng.integers(0, len(pairs), size=m)
    return Multigraph(n, tuple(pairs[i] for i in idx))
