"""Finite graph families used by the verification sweeps.

Simple graphs come from the networkx atlas (one representative per
isomorphism class, up to 7 vertices).  Multigraph families are generated as
edge multisets over endpoint-pair types, deduplicated by keeping only the
lexicographically least representative under vertex permutations.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, permutations

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
    m <= 6 when isolated vertices are dropped."""
    out = []
    for g in _atlas():
        if g.number_of_nodes() == 0 or g.number_of_edges() > max_edges:
            continue
        if any(d == 0 for _, d in g.degree()) and g.number_of_nodes() > 1:
            continue  # skip isolated-vertex padding; same graph appears smaller
        mg = _from_nx(g)
        if connected is not None and is_connected(mg) != connected:
            continue
        out.append(mg)
    return out


def _pair_types(n: int, loops: bool) -> list[tuple[int, int]]:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if loops:
        pairs += [(i, i) for i in range(n)]
    return sorted(pairs)


def _is_canonical(n: int, edges: tuple) -> bool:
    ref = tuple(sorted(edges))
    for perm in permutations(range(n)):
        mapped = tuple(
            sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)
        )
        if mapped < ref:
            return False
    return True


def multigraphs(
    n_vertices: int,
    max_edges: int,
    min_edges: int = 1,
    loops: bool = True,
    connected: bool | None = None,
):
    """Multigraphs on exactly ``n_vertices`` with ``min_edges..max_edges``
    edges, one representative per vertex-permutation class."""
    pairs = _pair_types(n_vertices, loops)
    out = []
    for k in range(min_edges, max_edges + 1):
        for combo in combinations_with_replacement(pairs, k):
            if not _is_canonical(n_vertices, combo):
                continue
            g = Multigraph(n_vertices, combo)
            if connected is not None and is_connected(g) != connected:
                continue
            out.append(g)
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
