"""Finite multigraphs with positional edge identity.

Loops and parallel edges are first class: deletion-contraction and Poisson
thickening both produce them.  Edges are identified by their position in the
edge list, so parallel edges stay distinguishable and a subset of edges is
just a bitmask over positions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, product

import numpy as np

# The one enumeration budget: the most configurations of each kind that any
# call may enumerate or store.  "table" counts the entries of an explicit
# measure table or of the flow estimators' coefficient list (about 40 B an
# entry, its folds included), "minors" the entries of one deletion-contraction
# memo (one int of at most (r + 1)(c + 1)(|E| + 1) bits each; the 4x5 grid's
# 594 entries peak at 0.8 MB traced), "kn_terms" the terms one exact
# recursion on the complete graph K_n sums.
BUDGET = {"subsets": 1 << 24, "spins": 10**7, "flows": 10**8, "table": 1 << 20, "minors": 1 << 18, "kn_terms": 1 << 14}


class EdgeSubsetError(ValueError):
    """Raised when a bitmask does not fit the graph it is used with."""


class EnumerationCapExceeded(RuntimeError):
    """Raised when an enumeration would go over its budget."""


def check_budget(kind: str, size: int) -> None:
    """Raise EnumerationCapExceeded if ``size`` configurations of ``kind``
    are more than BUDGET allows."""
    if size > BUDGET[kind]:
        raise EnumerationCapExceeded(f"{size} {kind} above the budget of {BUDGET[kind]}")


@dataclass(frozen=True)
class Multigraph:
    """Undirected multigraph on vertices 0..n-1.

    ``edges`` is an ordered tuple of unordered endpoint pairs; a pair (v, v)
    is a loop and repeated pairs are parallel edges.  Instances are immutable;
    delete/contract return new graphs.
    """

    n: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        norm = []
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            norm.append((u, v) if u <= v else (v, u))
        object.__setattr__(self, "edges", tuple(norm))

    @property
    def m(self) -> int:
        return len(self.edges)

    def full_subset(self) -> int:
        return (1 << self.m) - 1

    def check_vertices(self, *vertices: int) -> None:
        if not all(0 <= x < self.n for x in vertices):
            raise ValueError("vertex out of range")

    def check_subset(self, a: int) -> None:
        if a < 0 or a >> self.m:
            raise EdgeSubsetError(
                f"subset 0b{a:b} does not fit a graph with {self.m} edges"
            )

    def subset_edges(self, a: int) -> list[tuple[int, int]]:
        self.check_subset(a)
        return [e for i, e in enumerate(self.edges) if a >> i & 1]

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1  # a loop contributes 2 to its vertex
        return deg


def from_json_dict(d: dict) -> Multigraph:
    """Build a graph from the {"n": ..., "edges": [[u,v], ...]} file format."""
    if not isinstance(d, dict) or "n" not in d or "edges" not in d:
        raise ValueError('graph JSON must be {"n": int, "edges": [[u,v], ...]}')
    return Multigraph(int(d["n"]), tuple((int(u), int(v)) for u, v in d["edges"]))


def to_json_dict(g: Multigraph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges]}


def open_clusters(g: Multigraph, a: int) -> list[int]:
    """Cluster label per vertex under the open edges of the subset ``a``:
    x and y are joined by A iff their labels agree.  Union-find over A's
    edges in edge order, u's root absorbing v's; each label is a root.
    Only A's set bits are visited, lowest first."""
    edges = g.edges
    if a < 0 or a >> len(edges):
        g.check_subset(a)  # raises EdgeSubsetError
    parent = list(range(g.n))
    while a:
        low = a & -a
        u, v = edges[low.bit_length() - 1]
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]  # path halving keeps every root
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        parent[v] = u
        a ^= low
    for x in range(g.n):
        root = parent[x]
        while parent[root] != root:
            root = parent[root]
        parent[x] = root
    return parent


def component_count(g: Multigraph, a: int) -> int:
    """Number of connected components of (V, A), isolated vertices included."""
    return len(set(open_clusters(g, a)))


def edge_subsets(g: Multigraph):
    """Yield ``(a, k, labels)`` for every edge subset A, ``a`` ascending.

    ``k`` is k(A), isolated vertices included; ``labels[x]`` is the smallest
    vertex in x's cluster, so x and y are joined by A iff their labels agree.
    Each subset is its parent ``a & (a - 1)`` plus its lowest edge t, merged
    onto the parent's labels; slot t of an (m + 1)-entry stack keeps the
    latest subset with lowest edge t and slot m (index -1) the empty subset,
    so memory is O(m n) and nothing is cached.
    """
    check_budget("subsets", 1 << g.m)
    stack = [(g.n, tuple(range(g.n)))] * (g.m + 1)
    yield 0, g.n, stack[-1][1]
    for a in range(1, 1 << g.m):
        t = (a & -a).bit_length() - 1
        rest = a & (a - 1)
        k, labels = stack[(rest & -rest).bit_length() - 1]  # -1 when rest == 0
        u, v = g.edges[t]
        lo, hi = labels[u], labels[v]
        if lo != hi:
            lo, hi = min(lo, hi), max(lo, hi)
            labels = tuple(lo if x == hi else x for x in labels)
            k -= 1
        stack[t] = k, labels
        yield a, k, labels


def spin_configs(g: Multigraph, q: int):
    """Yield ``(sigma, agree)`` for every sigma in {0..q-1}^V, in
    ``itertools.product(range(q), repeat=n)`` order; bit i of ``agree`` is
    set iff edge i's endpoints have equal spins (a loop always agrees)."""
    check_budget("spins", q**g.n)
    edges = [(u, v, 1 << i) for i, (u, v) in enumerate(g.edges)]
    for s in product(range(q), repeat=g.n):
        yield s, sum(bit for u, v, bit in edges if s[u] == s[v])


SUBSET_CROSSOVER = 6  # edges from which numpy blocks beat the generator
SUBSET_BLOCK_EDGES = 12  # a block holds the 2^12 subsets of the low edges
SUBSET_BLOCK_LABELS = 1 << 18  # and at most this many labels (fewer edges when n > 64)
CLUSTER_BATCH = 1 << 12  # subsets per call of cluster_labels from a stream


def _merge(labels: np.ndarray, u: int, v: int) -> np.ndarray:
    """Join the clusters of u and v in every column of ``labels`` (one row
    per vertex), the larger label taking the smaller; True where they were
    apart."""
    lo, hi = np.minimum(labels[u], labels[v]), np.maximum(labels[u], labels[v])
    labels -= (labels == hi) * (hi - lo)
    return lo != hi


def cluster_labels(g: Multigraph, subsets) -> np.ndarray:
    """Cluster labels of a batch of edge subsets as an (n, N) array: entry
    [x, j] is the smallest vertex joined to x by the j-th subset, so x and y
    are joined iff rows x and y agree in column j.

    The subsets are unpacked to bits, and each edge merges its two clusters
    in the subsets where it is open, in edge order.  Labels are stored one
    row per subset, so the subsets open at an edge are gathered as whole
    rows.  Memory is about 2 * m * N bytes of bits and n * N labels, so
    stream callers pass at most CLUSTER_BATCH subsets at a time."""
    subsets = list(subsets)
    if subsets:
        g.check_subset(min(subsets))
        g.check_subset(max(subsets))
    width = (g.m + 7) // 8
    packed = np.frombuffer(b"".join(a.to_bytes(width, "little") for a in subsets), np.uint8)
    bits = np.unpackbits(packed.reshape(len(subsets), width), axis=1, count=g.m, bitorder="little")
    labels = np.repeat(np.arange(g.n, dtype=np.min_scalar_type(g.n))[None, :], len(subsets), axis=0)
    for (u, v), row in zip(g.edges, np.ascontiguousarray(bits.T).view(bool)):
        if u != v:
            cols = np.flatnonzero(row)
            block = labels[cols]
            _merge(block.T, u, v)
            labels[cols] = block
    return labels.T


def _tally(stream, pairs) -> tuple[Counter, dict]:
    """``(counts, hits)`` over the ``(key, labels)`` items of ``stream``: the
    items per key, and for each pair (x, y) the items with labels[x] ==
    labels[y].  Each tally lists its keys in the order the stream first
    meets them; without pairs one ``Counter`` reads the keys."""
    if not pairs:
        return Counter(key for key, _ in stream), {}
    counts, hits = Counter(), {pair: Counter() for pair in pairs}
    for key, labels in stream:
        counts[key] += 1
        for (x, y), hit in hits.items():
            if labels[x] == labels[y]:
                hit[key] += 1
    return counts, hits


def subset_counts(g: Multigraph, pairs=()) -> tuple[Counter, dict]:
    """``(counts, hits)``: the number of edge subsets A per key (|A|, k(A)),
    and for each vertex pair (x, y) in ``pairs`` the same tally over the
    subsets that join x and y.  Counts are exact Python ints, and ``counts``
    lists its keys in the order ``edge_subsets`` first meets them, so a float
    sum over ``counts.items()`` adds its terms in the same order on both paths.
    Each ``hits`` tally lists its keys in ``counts``' order on the block path
    but in its own first-met order below the crossover; the two orders differ
    for about half of all pair tallies, and every caller reads them exactly.
    A repeated pair is counted once; a vertex out of range raises ValueError.

    Below SUBSET_CROSSOVER edges ``_tally`` reads ``edge_subsets``.  From it
    on, the low c = min(m, SUBSET_BLOCK_EDGES) edges (fewer if 2^c * n would
    pass SUBSET_BLOCK_LABELS) form one numpy block, built once per call:
    column r holds low subset r as a label per vertex and one key
    |A| * (n + 1) + k(A).  It doubles once per low edge; the new half merges
    the edge's two clusters, adds n + 1 to the key and subtracts one if the
    clusters differed.  The high subsets are then walked in ascending order,
    as ``edge_subsets`` walks its own: each one's block is its parent's
    (``a & (a - 1)``; the low block for the empty set) with its lowest high
    edge t merged in every column, kept in slot t of an (m - c + 1)-slot
    stack for its children.  One bincount over the keys tallies a block, and
    one more per pair the columns where the pair's labels agree.  Blocks, and
    columns within a block, come in ascending subset order, and a block's
    keys not met before are listed by their first column (``np.unique``), so
    every key is first met where ``edge_subsets`` first meets it.

    The stack holds at most m - c + 1 blocks of at most SUBSET_BLOCK_LABELS
    labels (n, if larger) plus 2^c keys each, and nothing is kept between
    calls.  At the 2^24-subset budget that is 13 blocks of 256 KiB of uint8
    labels and 32 KiB of keys (3.7 MiB) for n <= 64, 15 blocks of 520 KiB
    (7.6 MiB) at n = 256, and at most 23 blocks of 512 KiB of uint16 labels
    (11.5 MiB) below 2^16 vertices.
    """
    check_budget("subsets", 1 << g.m)
    pairs = list(dict.fromkeys(pairs))
    g.check_vertices(*chain.from_iterable(pairs))
    if g.m < SUBSET_CROSSOVER:
        return _tally((((a.bit_count(), k), labels) for a, k, labels in edge_subsets(g)), pairs)

    n = g.n
    c = min(g.m, SUBSET_BLOCK_EDGES, max((SUBSET_BLOCK_LABELS // n).bit_length() - 1, 0))
    width = (g.m + 1) * (n + 1)  # one slot per key, at size * (n + 1) + k
    labels = np.empty((n, 1 << c), dtype=np.min_scalar_type(n))  # column r: low subset r
    keys = np.empty(1 << c, dtype=np.intp)
    labels[:, 0], keys[0] = np.arange(n), n
    for t, (u, v) in enumerate(g.edges[:c]):
        s = 1 << t
        labels[:, s : 2 * s] = labels[:, :s]
        np.subtract(keys[:s], _merge(labels[:, s : 2 * s], u, v), out=keys[s : 2 * s])
        keys[s : 2 * s] += n + 1  # one edge more
    total = np.zeros(width, dtype=np.int64)
    joined = np.zeros((len(pairs), width), dtype=np.int64)
    order = []  # slots in the order edge_subsets first meets them
    high = g.edges[c:]
    stack = [(labels, keys)] * (len(high) + 1)  # slot -1: the empty high subset
    for a in range(1 << len(high)):
        if a:
            t, rest = (a & -a).bit_length() - 1, a & (a - 1)
            labels, keys = stack[(rest & -rest).bit_length() - 1]  # the parent's block
            labels = labels.copy()
            keys = keys + (n + 1) - _merge(labels, *high[t])
            stack[t] = labels, keys
        new = keys[(total == 0)[keys]]
        if new.size:
            slots, first = np.unique(new, return_index=True)
            order += slots[np.argsort(first)].tolist()
        total += np.bincount(keys, minlength=width)
        for i, (x, y) in enumerate(pairs):
            joined[i] += np.bincount(keys[labels[x] == labels[y]], minlength=width)
    counts = Counter({divmod(slot, n + 1): int(total[slot]) for slot in order})
    hits = {
        pair: Counter({divmod(slot, n + 1): int(row[slot]) for slot in order if row[slot]})
        for pair, row in zip(pairs, joined)
    }
    return counts, hits


SPIN_CROSSOVER = 24  # configurations from which numpy blocks beat the generator
SPIN_BLOCK_ENTRIES = 1 << 16  # digits and agreements per block of spin configurations


def _exponent(couplings):
    """Map an agreement mask to its coupling exponent (default J_e = 1)."""
    if couplings is None:
        return int.bit_count
    return lambda agree: sum(j for i, j in enumerate(couplings) if agree >> i & 1)


def spin_counts(g: Multigraph, q: int, couplings=None, pairs=()) -> tuple[Counter, dict]:
    """``(counts, hits)``: the spin configurations per coupling exponent, the
    sum of the integer couplings J_e (default 1) over the edges whose ends
    agree (a loop always does), and for each vertex pair (x, y) in ``pairs``
    the same tally over those with sigma_x = sigma_y.  Counts are exact ints,
    each tally's keys in the order ``spin_configs`` first meets them.

    From SPIN_CROSSOVER configurations on, a numpy block holds all tail
    configurations of the last k vertices, k the most that keeps a block's
    digit and agreement rows within SPIN_BLOCK_ENTRIES, and the head prefixes
    fill in the rest in product order.  Digit row n stays 0, so the pair
    (n, n) counts the total.  Tally t keeps exponent j in slot
    t * width + j - lo, so one bincount tallies a block, and the least
    position met orders each slot.  Nothing is kept between calls.
    """
    check_budget("spins", q**g.n)
    pairs = list(dict.fromkeys(pairs))
    g.check_vertices(*chain.from_iterable(pairs))
    if q**g.n < SPIN_CROSSOVER:
        exponent = _exponent(couplings)
        return _tally(((exponent(agree), s) for s, agree in spin_configs(g, q)), pairs)

    n, js = g.n, [1] * g.m if couplings is None else list(couplings)
    lo, width = sum(j for j in js if j < 0), sum(map(abs, js)) + 1
    ends = np.array([*g.edges, (n, n), *pairs], dtype=np.intp).T  # one agreement row each
    k = max((t for t in range(n + 1) if q**t * (n + 1 + len(ends[0])) <= SPIN_BLOCK_ENTRIES), default=0)
    digits = np.zeros((n + 1, q**k), dtype=np.min_scalar_type(q - 1))  # column c: tail configuration c
    digits[n - k : n] = np.indices((q,) * k, dtype=digits.dtype).reshape(k, q**k)
    js, offsets = np.array(js, dtype=np.int64), width * np.arange(len(pairs) + 1)[:, None] - lo
    tally = np.zeros((len(pairs) + 1) * width, dtype=np.int64)
    span = q**k * (len(pairs) + 1)  # the most keys of one block
    first = np.full(len(tally), q ** (n - k) * span)  # least position of each slot, blocks in turn
    for b, prefix in enumerate(product(range(q), repeat=n - k)):
        digits[: n - k].T[...] = prefix
        agree = digits[ends[0]] == digits[ends[1]]
        exps = agree[: g.m].sum(axis=0) if couplings is None else js @ agree[: g.m]  # @ copies agree to int64
        keys = (exps + offsets)[agree[g.m :]]  # the total, then each pair
        np.minimum.at(first, keys, np.arange(b * span, b * span + len(keys)))
        tally += np.bincount(keys, minlength=len(tally))
    counts, pos, totals = [Counter() for _ in range(len(pairs) + 1)], first.tolist(), tally.tolist()
    for slot in sorted((slot for slot, c in enumerate(totals) if c), key=pos.__getitem__):
        counts[slot // width][slot % width + lo] = totals[slot]
    return counts[0], dict(zip(pairs, counts[1:]))


def subset_size_components(g: Multigraph) -> Counter:
    """Number of edge subsets A per key (|A|, k(A)); see ``subset_counts``."""
    return subset_counts(g)[0]


def rank_corank(g: Multigraph, a: int) -> tuple[int, int]:
    """Rank r(A) = |V| - k(A) and co-rank c(A) = |A| - |V| + k(A)."""
    k = component_count(g, a)
    return g.n - k, a.bit_count() - g.n + k


def is_connected(g: Multigraph) -> bool:
    return g.n <= 1 or component_count(g, g.full_subset()) == 1


def delete(g: Multigraph, e: int) -> Multigraph:
    """Remove the edge at position ``e``; vertices are untouched."""
    if not 0 <= e < g.m:
        raise IndexError(f"edge index {e} out of range")
    return Multigraph(g.n, g.edges[:e] + g.edges[e + 1 :])


def contract(g: Multigraph, e: int) -> Multigraph:
    """Contract the edge at position ``e``.

    The smaller endpoint u absorbs the larger one v and vertices above v
    shift down, so the renumbering is deterministic; the other edges keep
    their order and ``Multigraph`` normalises their pairs.  Contracting a
    loop just deletes it; parallel copies of the contracted edge become
    loops."""
    if not 0 <= e < g.m:
        raise IndexError(f"edge index {e} out of range")
    u, v = g.edges[e]
    rest = g.edges[:e] + g.edges[e + 1 :]
    if u == v:
        return Multigraph(g.n, rest)
    r = [*range(v), u, *range(v, g.n - 1)]
    return Multigraph(g.n - 1, tuple((r[a], r[b]) for a, b in rest))


def _bridges(n: int, edges) -> list[int]:
    """Indices of the bridges of the graph on ``n`` vertices, ascending.

    One iterative lowlink DFS (Tarjan 1974), restarted at every unvisited
    vertex: tree edge (p, x) is a bridge iff nothing below x reaches p or
    above by another edge.  The edge into x is skipped by index, not by
    endpoint, so a parallel copy counts as a way back; a loop never
    lowers anything.  O(n + m)."""
    adj = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        adj[u].append((v, i))
        adj[v].append((u, i))
    disc = [-1] * n
    low = [0] * n
    found = []
    t = 0
    for root in range(n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = t
        t += 1
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            x, via, it = stack[-1]
            for y, i in it:
                if disc[y] < 0:
                    disc[y] = low[y] = t
                    t += 1
                    stack.append((y, i, iter(adj[y])))
                    break
                if i != via and disc[y] < low[x]:
                    low[x] = disc[y]
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    if low[x] < low[p]:
                        low[p] = low[x]
                    elif low[x] > disc[p]:
                        found.append(via)
    found.sort()
    return found


def canonical_key(g: Multigraph):
    """Hashable key, stable across runs and delete/contract renumbering.

    Graphs that are equal as labelled multigraphs (same n, same edge multiset)
    share a key.  This is not isomorphism testing; it only has to be
    deterministic so deletion-contraction memoization is sound.  The key is
    flat, so a memo entry keeps none of the minor's edge tuples alive.
    """
    return (g.n, *chain.from_iterable(sorted(g.edges)))


def is_even(g: Multigraph) -> bool:
    """True iff every vertex has even degree (loops count twice)."""
    return all(d % 2 == 0 for d in g.degrees())


# Small named graphs used throughout the test-suites and demos.

def cycle(k: int) -> Multigraph:
    return Multigraph(k, tuple((i, (i + 1) % k) for i in range(k)))


def path(k: int) -> Multigraph:
    return Multigraph(k, tuple((i, i + 1) for i in range(k - 1)))


def complete(k: int) -> Multigraph:
    return Multigraph(k, tuple((i, j) for i in range(k) for j in range(i + 1, k)))


def triangle() -> Multigraph:
    return cycle(3)
