"""Finite graph families used by the verification sweeps.

Simple graphs come from Read & Wilson's *An Atlas of Graphs* (1998): one
representative per isomorphism class, up to 7 vertices, in atlas order, read
from the table ``atlas.txt`` shipped in the package.  Multigraph families are
edge multisets over endpoint-pair types, generated orderly (Read; Faradzev):
one edge at a time, extending only canonical multisets, so each
vertex-permutation class appears exactly once, as its lexicographically least
member.  Canonicity is tested per level in numpy batches, against a table of
each pair type's image under every vertex permutation.
"""

from __future__ import annotations

import functools
from importlib import resources
from itertools import permutations

import numpy as np

from .graphs import Multigraph, cluster_labels, is_connected

_CANON_BATCH = 1 << 16  # image entries per canonicity batch: P permutations x N candidates x k edges


@functools.cache
def _atlas() -> tuple[Multigraph, ...]:
    """The graphs of Read & Wilson's atlas, read from ``atlas.txt`` on first
    use: line i is atlas graph i, as ``n u1v1 u2v2 ...``."""
    text = resources.files(__package__).joinpath("atlas.txt").read_text()
    return tuple(
        Multigraph(int(n), tuple((int(e[0]), int(e[1])) for e in edges))
        for n, *edges in map(str.split, text.splitlines())
    )


def simple_graphs(max_nodes: int, max_edges: int | None = None, connected: bool | None = None):
    """Simple graphs up to isomorphism from the atlas (max_nodes <= 7)."""
    if max_nodes > 7:
        raise ValueError("atlas covers at most 7 vertices")
    return [
        g for g in _atlas()
        if 0 < g.n <= max_nodes
        and (max_edges is None or g.m <= max_edges)
        and (connected is None or is_connected(g) == connected)
    ]


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


def _permutation_images(n: int, pairs) -> np.ndarray:
    """(n! - 1, len(pairs)) array: row r holds the image of every pair index
    under the r-th non-identity vertex permutation."""
    code = np.zeros((n, n), np.min_scalar_type(len(pairs)))
    u, v = np.array(pairs, np.intp).reshape(-1, 2).T
    code[u, v] = code[v, u] = np.arange(len(pairs))
    perms = np.array(list(permutations(range(n))), np.intp)[1:]
    return code[perms[:, u], perms[:, v]]


def _children(level: np.ndarray, count: int) -> np.ndarray:
    """Every extension of each row of ``level`` by one index at or above its
    last (0 for the empty row) and below ``count``: each parent in turn, the
    new index ascending."""
    start = level[:, -1].astype(np.intp) if level.shape[1] else np.zeros(len(level), np.intp)
    reps = count - start
    rows = np.repeat(np.arange(len(level)), reps)
    new = np.arange(len(rows)) - np.repeat(np.cumsum(reps) - reps - start, reps)
    return np.concatenate([level[rows], new[:, None].astype(level.dtype)], axis=1)


def _canonical(cand: np.ndarray, images: np.ndarray) -> np.ndarray:
    """True for each row of ``cand`` that no permutation maps to a
    lexicographically smaller sorted row.  Rows go in batches of at most
    _CANON_BATCH image entries."""
    keep = np.ones(len(cand), bool)
    step = max(1, _CANON_BATCH // max(1, len(images) * cand.shape[1]))
    for lo in range(0, len(cand), step):
        c = cand[lo : lo + step]
        img = np.sort(images[:, c], axis=-1)
        smaller, tied = np.zeros(img.shape[:2], bool), np.ones(img.shape[:2], bool)
        for col, least in zip(np.moveaxis(img, -1, 0), c.T):
            smaller |= tied & (col < least)
            tied &= col == least
        keep[lo : lo + step] = ~smaller.any(axis=0)
    return keep


def _connected(n: int, pairs, rows: np.ndarray) -> np.ndarray:
    """True for each row, read as a multiset of pair indices, whose graph on
    n vertices is connected.  Parallel edges do not change connectivity, so
    each row is read as the set of its pair types: a subset of the edges of
    the graph with one edge per pair type."""
    masks = [sum({1 << i for i in row}) for row in rows.tolist()]
    return (cluster_labels(Multigraph(n, tuple(pairs)), masks) == 0).all(axis=0)


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
    in order, as the rows of one array; each is extended only by indices at or
    above its last, as a prefix of a canonical tuple is canonical.  Each level
    is tested for canonicity in numpy batches against a table of every pair
    type's image under each non-identity permutation."""
    pairs = _pair_types(n_vertices, loops)
    images = _permutation_images(n_vertices, pairs)
    out, level = [], np.zeros((1, 0), images.dtype)
    for k in range(max_edges + 1):
        if k >= min_edges:
            keep = level if connected is None else level[_connected(n_vertices, pairs, level) == connected]
            out.extend(Multigraph(n_vertices, tuple(map(pairs.__getitem__, c))) for c in keep.tolist())
        if k == max_edges:
            break
        cand = _children(level, len(pairs))
        level = cand[_canonical(cand, images)]
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
