"""Edwards-Sokal spin/bond coupling: exact joint table, the two conditional
kernels, and a Swendsen-Wang alternating sampler.

Sampling uses numpy's Philox counter-based generator.  A master seed is fed
to ``numpy.random.SeedSequence``; parallel chains use ``spawn`` so streams
are independent and reproducible regardless of scheduling.

``sw_sample`` reads its private Philox generator as raw 64-bit words, in
numpy blocks, and turns them into exactly the draws ``Generator.random``
and ``Generator.integers`` would give on the same stream (numpy 2.4.6's
algorithms; ``tests/test_coupling.py`` pins them against the Generator), so
a chain pays numpy's per-call cost once per block, not twice per sweep.
Spin draws read a table of Lemire values that numpy computes once per
block for the 32-bit halves of its words, so a sweep's spins are mostly one
slice; a sweep merges its clusters in the same pass over the edges drawn
open.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product

import numpy as np

from .graphs import CLUSTER_BATCH, Multigraph, check_budget, cluster_labels, open_clusters, spin_configs
from .measures import MeasureTable, _integer_q, _probability


@dataclass(frozen=True)
class JointConfig:
    spins: tuple
    bonds: int


@dataclass(frozen=True)
class SamplerConfig:
    seed: int = 0
    burn_in: int = 1000
    samples: int = 10000
    thinning: int = 1

    def __post_init__(self):
        if self.samples <= 0 or self.thinning <= 0 or self.burn_in < 0:
            raise ValueError("sampler counts must be positive")


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator on the given sub-stream of a master seed."""
    seq = np.random.SeedSequence(seed)
    if stream:
        seq = seq.spawn(stream + 1)[stream]
    return np.random.Generator(np.random.Philox(seq))


def satisfies_coupling_event(g: Multigraph, spins, bonds: int) -> bool:
    """The event F: spins constant across every open edge."""
    return all(spins[u] == spins[v] for u, v in g.subset_edges(bonds))


def _subsets(mask: int):
    """Yield the subsets of the bitmask ``mask`` in ascending order."""
    sub = 0
    yield sub
    while sub != mask:
        sub = (sub - mask) & mask
        yield sub


def joint_table(g: Multigraph, p: Fraction, q: int) -> MeasureTable:
    """Exact Edwards-Sokal joint measure: uniform spins times density-p bond
    percolation, conditioned on spins being constant on open clusters."""
    p = Fraction(p)
    check_budget("table", q**g.n << g.m)
    by_size = [p**k * (1 - p) ** (g.m - k) for k in range(g.m + 1)]
    weights = {}
    for spins, agree in spin_configs(g, q):
        for bonds in _subsets(agree):
            weights[JointConfig(spins, bonds)] = by_size[bonds.bit_count()]
    z = sum(weights.values())
    return MeasureTable(
        ("joint", g.n, q, g.m), {cfg: w / z for cfg, w in weights.items()}
    )


_BLOCK = 4096  # raw words read per numpy call
_U32 = 1 << 32
_U64 = 1 << 64


class _RawDraws:
    """Exact ``Generator.random`` / ``Generator.integers`` draws read from a
    Philox bit generator's raw 64-bit words.

    A double is (w >> 11)·2⁻⁵³, so it falls below p exactly when
    w < ⌈p·2⁵³⌉·2¹¹; each block keeps the positions of its words below that
    cut.  ``integers(0, q)`` is Lemire's bounded draw: for q ≤ 2³² on 32-bit
    halves, the low half of a word first and the high half kept for the next
    draw, across calls; above that on whole words.  Doubles take whole words
    and leave a kept half alone, as the Generator does.

    For q ≤ 2³², the first call with that q in a block tabulates the halves
    of the block's unread words with numpy: each half's Lemire value
    (u·q) >> 32, and the positions of the halves redrawn, whose low product
    bits fall below 2³² mod q.  A run of accepted halves is then one slice of
    the values.  The values stay a numpy array: most of a block's words are
    read as doubles, and on K50 or K100 turning every half into a Python int
    cost more than the slices saved.  The kept half is held as its raw
    32-bit value, since a later call may come after a refill or ask another
    q.
    """

    def __init__(self, bit_generator, p):
        self._bitgen = bit_generator
        # w <= cut iff its double is below p; p < 1 keeps the cut below 2**64
        self._cut = np.uint64((math.ceil(Fraction(p) * (1 << 53)) << 11) - 1)
        self._words = np.empty(0, dtype=np.uint64)
        self._below = []
        self._pos = 0
        self._half = None
        self._table = (None, 0, None, [])  # q, its first word, values, redrawn halves

    def _refill(self, need: int) -> None:
        """Keep the unread words and append at least ``need`` more."""
        words = self._bitgen.random_raw(max(_BLOCK, need))
        self._words = np.concatenate((self._words[self._pos:], words))
        self._below = np.flatnonzero(self._words <= self._cut).tolist()
        self._pos = 0
        self._table = (None, 0, None, [])

    def _take(self, n: int) -> list:
        """The next n words, as Python ints."""
        if self._pos + n > len(self._words):
            self._refill(n)
        self._pos += n
        return self._words[self._pos - n:self._pos].tolist()

    def below(self, m: int) -> list:
        """Consume m doubles; return the indices i < m of those below p."""
        start = self._pos
        if start + m > len(self._words):
            self._refill(m)
            start = 0
        self._pos = start + m
        below = self._below
        lo = bisect_left(below, start)
        return [j - start for j in below[lo:bisect_left(below, start + m, lo)]]

    def _tabulate(self, q: int) -> None:
        """Tables of the halves of the unread words: half 2i is the low 32
        bits of word i, half 2i + 1 its high 32 bits."""
        halves = self._words[self._pos:].astype("<u8", copy=False).view("<u4")
        prods = halves * np.uint64(q)  # < 2**64 for q <= 2**32
        self._table = (q, self._pos, prods >> np.uint64(32),
                       np.flatnonzero(prods.astype(np.uint32) < _U32 % q).tolist())

    def integers(self, q: int, k: int) -> list:
        """k draws of ``integers(0, q)`` for 1 <= q <= 2⁶³."""
        if q == 1:
            return [0] * k  # a one-value range reads no word
        out = []
        if q > _U32:
            threshold = _U64 % q
            while len(out) < k:
                words = self._take(k - len(out))
                out += [m >> 64 for w in words if (m := w * q) & (_U64 - 1) >= threshold]
            return out
        if k and self._half is not None:
            u, self._half = self._half, None
            if (m := u * q) & 0xFFFFFFFF >= _U32 % q:
                out.append(m >> 32)
        while len(out) < k:
            if self._pos == len(self._words):
                self._refill((k - len(out) + 1) // 2)
            if self._table[0] != q:
                self._tabulate(q)
            _, first, values, redrawn = self._table
            h, end = 2 * (self._pos - first), len(values)
            stop = min(end, h + k - len(out))
            i = bisect_left(redrawn, h)
            while i < len(redrawn) and redrawn[i] < stop:
                # a redrawn half: take the run before it and one half more
                out += values[h:redrawn[i]].tolist()
                h, stop, i = redrawn[i] + 1, min(end, stop + 1), i + 1
            out += values[h:stop].tolist()
            # a low half taken alone leaves its word's high half for later
            self._pos = first + (stop + 1) // 2
            if stop & 1:
                self._half = int(self._words[self._pos - 1]) >> 32
        return out


def spins_given_bonds(g: Multigraph, bonds: int, q: int, rng: np.random.Generator) -> tuple:
    """Uniform independent spin per open cluster, constant on clusters; the
    clusters' spins are drawn in ascending order of their union-find roots."""
    labels = open_clusters(g, bonds)
    roots = sorted(set(labels))
    lut = dict(zip(roots, rng.integers(0, q, size=len(roots)).tolist()))
    return tuple(map(lut.__getitem__, labels))


def bonds_given_spins(g: Multigraph, spins, p: float, rng: np.random.Generator) -> int:
    """Close every disagreeing edge; open agreeing edges independently with
    probability p, read by ``measures._probability``."""
    p = _probability(p)
    bonds = 0
    for i, (r, (u, v)) in enumerate(zip(rng.random(g.m).tolist(), g.edges)):
        if r < p and spins[u] == spins[v]:
            bonds |= 1 << i
    return bonds


def sw_sample(g: Multigraph, p: float, q: int, cfg: SamplerConfig, stream: int = 0):
    """Swendsen-Wang chain: alternate the two conditional kernels.

    Yields ``cfg.samples`` joint configurations after burn-in, one every
    ``cfg.thinning`` sweeps.  Deterministic given (seed, stream): the draws
    are those of ``bonds_given_spins`` and ``spins_given_bonds`` on
    ``make_rng(seed, stream)``, after ``integers(0, q, size=n)`` initial spins.
    A sweep is one pass over the edges drawn open: each one whose ends agree
    joins the bond set and is merged at once by ``open_clusters``' rule, so
    the clusters' roots come out in ascending order, one spin draw each.
    p and q are read by ``measures``' ``_probability`` and ``_integer_q``; q is at most 2**63.
    """
    p, q = _probability(p), _integer_q(q)
    if q > 1 << 63:
        raise ValueError("q must be at most 2**63")
    draws = _RawDraws(make_rng(cfg.seed, stream).bit_generator, p)
    spins = tuple(draws.integers(q, g.n))
    bonds = 0
    n, m, edges = g.n, g.m, g.edges
    bits = [1 << i for i in range(m)]
    vertices = list(range(n))
    below, integers = draws.below, draws.integers

    def sweep(spins):
        parent = vertices[:]
        bonds = 0
        for i in below(m):
            u, v = edges[i]
            if spins[u] == spins[v]:
                bonds |= bits[i]
                while parent[u] != u:
                    parent[u] = u = parent[parent[u]]  # path halving, as in open_clusters
                while parent[v] != v:
                    parent[v] = v = parent[parent[v]]
                parent[v] = u
        roots = []
        for x in vertices:
            root = parent[x]
            if root == x:
                roots.append(x)
                continue
            while parent[root] != root:
                root = parent[root]
            parent[x] = root
        lut = dict(zip(roots, integers(q, len(roots))))
        return tuple(map(lut.__getitem__, parent)), bonds

    for _ in range(cfg.burn_in):
        spins, bonds = sweep(spins)
    for _ in range(cfg.samples):
        for _ in range(cfg.thinning):
            spins, bonds = sweep(spins)
        yield JointConfig(spins, bonds)


def _batches(values: np.ndarray) -> np.ndarray:
    """The means of min(32, n) equal runs of ``values``, the last n mod 32 dropped."""
    n_batches = min(32, len(values)) or 1
    return values[: len(values) - len(values) % n_batches].reshape(n_batches, -1).mean(axis=1)


def _batch_error(batches: np.ndarray) -> float:
    """Standard error of a mean from its batch estimates (ddof = 1); 0.0 from fewer than two."""
    return float(batches.std(ddof=1) / math.sqrt(len(batches))) if len(batches) > 1 else 0.0


def batch_means(values) -> tuple[float, float]:
    """Sample mean and batch-means standard error over at most 32 batches."""
    values = np.asarray(values, dtype=float)
    return float(values.mean()), _batch_error(_batches(values))


def estimate_two_point(g: Multigraph, samples, x: int, y: int, q: int) -> dict:
    """Monte Carlo two-point estimates from a stream of joint configs.

    Returns the correlation estimate tau_hat = mean(indicator(sigma_x =
    sigma_y)) - 1/q and the bond-connection estimate, each with a
    batch-means standard error.  The bond sets are labelled CLUSTER_BATCH
    at a time by ``cluster_labels``.
    """
    g.check_vertices(x, y)
    q = _integer_q(q)
    agree = []
    conn = []
    samples = iter(samples)
    while batch := list(islice(samples, CLUSTER_BATCH)):
        agree += [1.0 if cfg.spins[x] == cfg.spins[y] else 0.0 for cfg in batch]
        labels = cluster_labels(g, [cfg.bonds for cfg in batch])
        conn += (labels[x] == labels[y]).tolist()
    if not agree:
        raise ValueError("empty sample stream")
    tau_mean, tau_se = batch_means(agree)
    conn_mean, conn_se = batch_means(conn)
    return {
        "tau": tau_mean - 1.0 / q,
        "tau_se": tau_se,
        "conn": conn_mean,
        "conn_se": conn_se,
        "n": len(agree),
    }


def kernel_step_distribution(g: Multigraph, table: MeasureTable, p: Fraction, q: int) -> MeasureTable:
    """Apply one exact round of both conditional kernels to a joint table.

    Used to verify stationarity: the Edwards-Sokal table must map to itself.
    Works on joint spaces of at most a few hundred states.
    """
    check_budget("table", q**g.n << g.m)
    p = Fraction(p)
    agree = dict(spin_configs(g, q))
    # both kernels read only the spins, so merge the table over bond sets first
    by_spins: dict = {}
    for cfg, prob in table.probs.items():
        by_spins[cfg.spins] = by_spins.get(cfg.spins, Fraction(0)) + prob
    out: dict = {}
    for spins, prob in by_spins.items():
        # bonds given spins: each agreeing edge open with probability p
        n_agree = agree[spins].bit_count()
        for bonds in _subsets(agree[spins]):
            w_b = p ** bonds.bit_count() * (1 - p) ** (n_agree - bonds.bit_count())
            # spins given bonds: uniform per cluster
            labels = open_clusters(g, bonds)
            roots = sorted(set(labels))
            w = prob * w_b / q ** len(roots)
            for new_spins in product(range(q), repeat=len(roots)):
                lut = dict(zip(roots, new_spins))
                key = JointConfig(tuple(lut[l] for l in labels), bonds)
                out[key] = out.get(key, Fraction(0)) + w
    return MeasureTable(table.space, {k: v for k, v in out.items() if v})
