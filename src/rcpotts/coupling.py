"""Edwards-Sokal spin/bond coupling: exact joint table, the two conditional
kernels, and a Swendsen-Wang alternating sampler.

Sampling uses numpy's Philox counter-based generator.  A master seed is fed
to ``numpy.random.SeedSequence``; parallel chains use ``spawn`` so streams
are independent and reproducible regardless of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .graphs import EnumerationCapExceeded, Multigraph, UnionFind, spin_configs
from .measures import MeasureTable, _check_vertices, connected_in


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


def joint_table(g: Multigraph, p: Fraction, q: int, cap: int = 1 << 20) -> MeasureTable:
    """Exact Edwards-Sokal joint measure: uniform spins times density-p bond
    percolation, conditioned on spins being constant on open clusters."""
    p = Fraction(p)
    if q**g.n * (1 << g.m) > cap:
        raise EnumerationCapExceeded("joint space above cap")
    by_size = [p**k * (1 - p) ** (g.m - k) for k in range(g.m + 1)]
    weights = {}
    for spins, agree in spin_configs(g, q, cap):
        for bonds in _subsets(agree):
            weights[JointConfig(spins, bonds)] = by_size[bonds.bit_count()]
    z = sum(weights.values())
    return MeasureTable(
        ("joint", g.n, q, g.m), {cfg: w / z for cfg, w in weights.items()}
    )


def open_clusters(g: Multigraph, bonds: int) -> list[int]:
    """Cluster label per vertex under the open edges of ``bonds``."""
    uf = UnionFind(g.n)
    for i, (u, v) in enumerate(g.edges):
        if bonds >> i & 1:
            uf.union(u, v)
    return [uf.find(x) for x in range(g.n)]


def spins_given_bonds(g: Multigraph, bonds: int, q: int, rng: np.random.Generator) -> tuple:
    """Uniform independent spin per open cluster, constant on clusters."""
    labels = open_clusters(g, bonds)
    roots = sorted(set(labels))
    draw = {r: int(s) for r, s in zip(roots, rng.integers(0, q, size=len(roots)))}
    return tuple(draw[l] for l in labels)


def bonds_given_spins(g: Multigraph, spins, p: float, rng: np.random.Generator) -> int:
    """Close every disagreeing edge; open agreeing edges independently with
    probability p."""
    bonds = 0
    unif = rng.random(g.m)
    for i, (u, v) in enumerate(g.edges):
        if spins[u] == spins[v] and unif[i] < p:
            bonds |= 1 << i
    return bonds


def sw_sample(g: Multigraph, p: float, q: int, cfg: SamplerConfig, stream: int = 0):
    """Swendsen-Wang chain: alternate the two conditional kernels.

    Yields ``cfg.samples`` joint configurations after burn-in, one every
    ``cfg.thinning`` sweeps.  Deterministic given (seed, stream).
    """
    if not (0 < p < 1):
        raise ValueError("p must lie in (0,1)")
    if q < 2:
        raise ValueError("q must be an integer >= 2")
    rng = make_rng(cfg.seed, stream)
    spins = tuple(int(s) for s in rng.integers(0, q, size=g.n))
    bonds = 0

    def sweep(spins):
        b = bonds_given_spins(g, spins, p, rng)
        s = spins_given_bonds(g, b, q, rng)
        return s, b

    for _ in range(cfg.burn_in):
        spins, bonds = sweep(spins)
    for _ in range(cfg.samples):
        for _ in range(cfg.thinning):
            spins, bonds = sweep(spins)
        yield JointConfig(spins, bonds)


def batch_means(values, n_batches: int = 32) -> tuple[float, float]:
    """Sample mean and batch-means standard error."""
    values = np.asarray(values, dtype=float)
    mean = float(values.mean())
    n_batches = min(n_batches, len(values))
    if n_batches < 2:
        return mean, 0.0
    usable = len(values) - len(values) % n_batches
    batches = values[:usable].reshape(n_batches, -1).mean(axis=1)
    se = float(batches.std(ddof=1) / math.sqrt(n_batches))
    return mean, se


def estimate_two_point(g: Multigraph, samples, x: int, y: int, q: int) -> dict:
    """Monte Carlo two-point estimates from a stream of joint configs.

    Returns the correlation estimate tau_hat = mean(indicator(sigma_x =
    sigma_y)) - 1/q and the bond-connection estimate, each with a
    batch-means standard error.
    """
    _check_vertices(g, x, y)
    agree = []
    conn = []
    for cfg in samples:
        agree.append(1.0 if cfg.spins[x] == cfg.spins[y] else 0.0)
        conn.append(1.0 if connected_in(g, cfg.bonds, x, y) else 0.0)
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
