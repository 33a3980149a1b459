"""Mod-q flow counting, Poisson-thickened graphs, the flow/correlation and
flow/connection identities, and the Simon inequality harness.

Two independent routes to flow counts coexist deliberately: a brute-force
enumerator over edge values (the oracle) and a bundle formula that sums over
flows of the base graph weighted by the number of ways to split each value
across a bundle of parallel edges (fast enough for Monte Carlo).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from .graphs import Multigraph, component_count
from .measures import RCParams, rc_connection_prob, rc_partition
from .coupling import make_rng
from .polynomials import EnumerationCapExceeded, TutteCache, eval_poly, tutte_poly

DEFAULT_FLOW_CAP = 10**8


@dataclass(frozen=True)
class OrientedMultigraph:
    graph: Multigraph
    directions: tuple  # per edge, +1 = as stored (u -> v), -1 = reversed

    def __post_init__(self):
        if len(self.directions) != self.graph.m:
            raise ValueError("one direction bit per edge required")


def count_flows(
    g: Multigraph,
    q: int,
    orientation: OrientedMultigraph | None = None,
    cap: int = DEFAULT_FLOW_CAP,
) -> int:
    """Number of nowhere-zero mod-q flows, by brute force over edge values.

    Loops conserve trivially and accept any of the q-1 non-zero values.  The
    count is orientation independent; an orientation can be supplied to
    check exactly that.
    """
    if q < 2:
        raise ValueError("q must be an integer >= 2")
    if (q - 1) ** g.m > cap:
        raise EnumerationCapExceeded(
            f"(q-1)^|E| = {(q - 1) ** g.m} above cap {cap}"
        )
    if g.m == 0:
        return 1
    dirs = orientation.directions if orientation else [1] * g.m
    count = 0
    for values in product(range(1, q), repeat=g.m):
        net = [0] * g.n
        for (u, v), d, f in zip(g.edges, dirs, values):
            if u != v:
                net[u] += d * f
                net[v] -= d * f
        if all(x % q == 0 for x in net):
            count += 1
    return count


def orientation_invariance_check(g: Multigraph, q: int, n_orientations: int = 20, seed: int = 0) -> dict:
    rng = make_rng(seed)
    counts = []
    for _ in range(n_orientations):
        dirs = tuple(1 if b else -1 for b in rng.integers(0, 2, size=g.m))
        counts.append(count_flows(g, q, OrientedMultigraph(g, dirs)))
    return {
        "identity": "flow-orientation-invariance",
        "counts": counts,
        "instances": n_orientations,
        "pass": len(set(counts)) <= 1,
    }


# ---------------------------------------------------------------------------
# Bundle route: flows on a base graph whose edge e carries m_e parallel
# copies.  The number of ways to write a total s (mod q) as an ordered sum of
# m non-zero values is q-independent of the graph and has a closed form.

def _bundle_ways(m: int, s_is_zero: bool, q):
    """Sequences of length m over {1..q-1} with prescribed sum class mod q.

    Valid for symbolic/real q as well: the expressions are polynomials in q.
    """
    if s_is_zero:
        return ((q - 1) ** m + (-1) ** m * (q - 1)) / q
    return ((q - 1) ** m - (-1) ** m) / q


def flow_count_multiplicities(g: Multigraph, mult, q) -> object:
    """Nowhere-zero flow count of the thickened graph G_m.

    Sums over all mod-q values on base edges (zero allowed) satisfying
    conservation, weighting each base edge by the number of bundle splits.
    With integer q this is the exact flow count; with Fraction/float q it is
    the flow polynomial of G_m evaluated at q.
    """
    mult = list(mult)
    if len(mult) != g.m:
        raise ValueError("one multiplicity per base edge")
    if isinstance(q, int) and q < 2:
        raise ValueError("integer q must be >= 2")
    if float(q) != int(q):
        raise ValueError("flow_count_multiplicities needs integer q")
    qint = int(q)
    total = 0
    for values in product(range(qint), repeat=g.m):
        net = [0] * g.n
        ok = True
        for (u, v), f in zip(g.edges, values):
            if u != v:
                net[u] += f
                net[v] -= f
        if any(x % qint != 0 for x in net):
            continue
        w = 1
        for m_e, s in zip(mult, values):
            w *= _bundle_ways(m_e, s == 0, Fraction(qint))
            if w == 0:
                break
        total += w
    assert total == int(total)
    return int(total)


@dataclass(frozen=True)
class PoissonGraphSample:
    base: Multigraph
    multiplicities: tuple
    attach: tuple | None = None  # optional extra (x, y) edge

    def realize(self) -> Multigraph:
        edges = []
        for e, m_e in zip(self.base.edges, self.multiplicities):
            edges.extend([e] * m_e)
        if self.attach is not None:
            edges.append(self.attach)
        return Multigraph(self.base.n, tuple(edges))


def poisson_sample(
    g: Multigraph, lam: float, rng: np.random.Generator, attach: tuple | None = None
) -> PoissonGraphSample:
    """Independent Poisson(lam) multiplicity per base edge; ``attach`` adds
    one extra (x, y) edge on top."""
    if lam < 0:
        raise ValueError("intensity must be non-negative")
    mult = tuple(int(k) for k in rng.poisson(lam, size=g.m))
    return PoissonGraphSample(g, mult, attach)


def _extended(g: Multigraph, x: int, y: int) -> Multigraph:
    return Multigraph(g.n, g.edges + ((x, y),))


def flow_correlation_mc(
    g: Multigraph, lam: float, q: int, x: int, y: int, cfg
) -> dict:
    """Estimate E[C(G_P^{x,y}; q)] / E[C(G_P; q)] over Poisson thickenings.

    Under the beta = lam*q bridge this ratio equals q*tau_{beta,q}(x,y).
    """
    if x == y:
        raise ValueError("x and y must be distinct")
    rng = make_rng(cfg.seed)
    gx = _extended(g, x, y)
    nums, dens = [], []
    for _ in range(cfg.samples):
        s = poisson_sample(g, lam, rng)
        dens.append(flow_count_multiplicities(g, s.multiplicities, q))
        nums.append(
            flow_count_multiplicities(gx, s.multiplicities + (1,), q)
        )
    return _ratio_estimate(nums, dens)


def _ratio_estimate(nums, dens) -> dict:
    """Ratio-of-means estimate with a batch-means standard error."""
    nums = np.asarray(nums, dtype=float)
    dens = np.asarray(dens, dtype=float)
    n_batches = min(32, len(nums))
    usable = len(nums) - len(nums) % n_batches
    bn = nums[:usable].reshape(n_batches, -1).mean(axis=1)
    bd = dens[:usable].reshape(n_batches, -1).mean(axis=1)
    if bd.min() <= 0 and dens.mean() == 0:
        raise ZeroDivisionError("denominator expectation estimate is zero")
    ratios = bn / np.where(bd == 0, np.nan, bd)
    ratios = ratios[np.isfinite(ratios)]
    estimate = float(nums.mean() / dens.mean())
    se = float(np.std(ratios, ddof=1) / math.sqrt(len(ratios))) if len(ratios) > 1 else 0.0
    return {"estimate": estimate, "se": se, "n": len(nums)}


def _even_with_mult(g: Multigraph, mult, extra: tuple | None = None) -> bool:
    deg = [0] * g.n
    for (u, v), m_e in zip(g.edges, mult):
        if u != v:
            deg[u] += m_e
            deg[v] += m_e
    if extra is not None and extra[0] != extra[1]:
        deg[extra[0]] += 1
        deg[extra[1]] += 1
    return all(d % 2 == 0 for d in deg)


def even_ratio_mc(g: Multigraph, lam: float, x: int, y: int, cfg) -> dict:
    """Estimate Pr(G_P^{x,y} even) / Pr(G_P even); the q = 2 special case of
    the flow-correlation ratio, using only degree parities."""
    if x == y:
        raise ValueError("x and y must be distinct")
    rng = make_rng(cfg.seed)
    nums, dens = [], []
    for _ in range(cfg.samples):
        s = poisson_sample(g, lam, rng)
        nums.append(1 if _even_with_mult(g, s.multiplicities, (x, y)) else 0)
        dens.append(1 if _even_with_mult(g, s.multiplicities) else 0)
    return _ratio_estimate(nums, dens)


def flow_connection_mc(
    g: Multigraph, p: float, q, x: int, y: int, cfg, cache: TutteCache | None = None
) -> dict:
    """Real-q flow/connection ratio over Poisson thickenings.

    With lam solving p = 1 - e^(-lam q), estimates the ratio of expected
    signed Tutte evaluations at (0, 1-q) of G_P^{x,y} and G_P, which equals
    (q-1) phi_{p,q}(x <-> y).

    The per-sample value is the flow-polynomial evaluation
    (-1)^(|E| - |V| + k) T(G; 0, 1-q): on connected samples this is exactly
    the signed term (-1)^(|V|-1+|E|) ... (-1)^|E| T of the identity, and it
    extends it coherently to samples with isolated vertices (where the sign
    must track the component count, not just |E|).
    """
    if x == y:
        raise ValueError("x and y must be distinct")
    if not (0 < p < 1) or not float(q) > 0:
        raise ValueError("need p in (0,1) and q > 0")
    lam = -math.log(1.0 - p) / float(q)
    rng = make_rng(cfg.seed)
    if cache is None:
        cache = TutteCache()
    nums, dens = [], []
    for _ in range(cfg.samples):
        s = poisson_sample(g, lam, rng)
        dens.append(_flow_value_real_q(s.realize(), q, cache))
        nums.append(
            _flow_value_real_q(
                PoissonGraphSample(g, s.multiplicities, (x, y)).realize(), q, cache
            )
        )
    return {**_ratio_estimate(nums, dens), "lambda": lam}


def _flow_value_real_q(g: Multigraph, q, cache: TutteCache):
    """Flow polynomial of g evaluated at (possibly real) q, through the
    Tutte polynomial: (-1)^(|E| - |V| + k) T(g; 0, 1-q)."""
    k = component_count(g, g.full_subset())
    t = eval_poly(tutte_poly(g, cache), 0, 1 - q)
    return (-1) ** (g.m - g.n + k) * t


def _poisson_pmf(lam: float, m: int) -> float:
    return math.exp(-lam + m * math.log(lam) - math.lgamma(m + 1)) if lam > 0 else (1.0 if m == 0 else 0.0)


def compflow_identity(
    g: Multigraph, p: float, q: int, m_max: int = 30
) -> dict:
    """Exact-truncation check of the partition/flow identity
    Z_RC(p, q) = (1-p)^(|E|(q-2)/q) q^|V| E[C(G_P; q)] with p = 1 - e^(-lam q).

    The expectation is truncated at multiplicity m_max per edge; the tail is
    bounded through C(G_m; q) <= (q-1)^(sum of multiplicities).
    """
    if q < 2:
        raise ValueError("q must be an integer >= 2")
    lam = -math.log(1.0 - p) / q
    # truncated expectation
    expect = 0.0
    for mult in product(range(m_max + 1), repeat=g.m):
        pmf = 1.0
        for m_e in mult:
            pmf *= _poisson_pmf(lam, m_e)
        expect += pmf * flow_count_multiplicities(g, mult, q)
    # tail bound: union over edges exceeding m_max
    per_edge_full = math.exp(lam * (q - 2))  # E[(q-1)^M]
    tail_one = per_edge_full - sum(
        _poisson_pmf(lam, m) * (q - 1) ** m for m in range(m_max + 1)
    )
    tail_bound = g.m * max(tail_one, 0.0) * per_edge_full ** max(g.m - 1, 0)
    prefactor = (1.0 - p) ** (g.m * (q - 2) / q) * q**g.n
    z_rc = float(rc_partition(g, RCParams(Fraction(p), Fraction(q))))
    deviation = abs(z_rc - prefactor * expect)
    allowed = prefactor * tail_bound + 1e-9 * abs(z_rc)
    return {
        "identity": "compflow",
        "lambda": lam,
        "z_rc": z_rc,
        "rhs": prefactor * expect,
        "deviation": deviation,
        "tail_bound": prefactor * tail_bound,
        "pass": deviation <= allowed,
        "instances": 1,
    }


# ---------------------------------------------------------------------------
# Simon inequality harness.

def separating_sets(g: Multigraph, x: int, z: int, max_size: int = 4):
    """All vertex sets W (|W| <= max_size, x,z not in W) whose removal
    disconnects x from z."""
    others = [v for v in range(g.n) if v not in (x, z)]
    found = []
    for size in range(1, min(max_size, len(others)) + 1):
        for w in combinations(others, size):
            blocked = set(w)
            seen = {x}
            stack = [x]
            reach = False
            while stack and not reach:
                u = stack.pop()
                for i, (a, b) in enumerate(g.edges):
                    if a == u or b == u:
                        v2 = b if a == u else a
                        if v2 == z:
                            reach = True
                            break
                        if v2 not in seen and v2 not in blocked:
                            seen.add(v2)
                            stack.append(v2)
            if not reach:
                found.append(w)
    return found


def simon_check(
    g: Multigraph, p: Fraction, q: Fraction, x: int, z: int, max_w: int = 4
) -> dict:
    """Evaluate phi(x<->z) <= sum over y in W of phi(x<->y) phi(y<->z) for
    every separating set W up to the size cap, in exact arithmetic.

    Proven for q = 2 and q = 1; for other q in [1,2] this is a conjecture
    harness and any violation is reported verbatim.
    """
    if x == z:
        raise ValueError("x and z must be distinct")
    params = RCParams(Fraction(p), Fraction(q))
    lhs = rc_connection_prob(g, params, x, z)
    violations = []
    checked = 0
    for w in separating_sets(g, x, z, max_w):
        rhs = sum(
            rc_connection_prob(g, params, x, y) * rc_connection_prob(g, params, y, z)
            for y in w
        )
        checked += 1
        if lhs > rhs:
            violations.append(
                {
                    "W": list(w),
                    "lhs": str(lhs),
                    "rhs": str(rhs),
                    "graph": {"n": g.n, "edges": [list(e) for e in g.edges]},
                    "p": str(params.p),
                    "q": str(params.q),
                }
            )
    return {
        "identity": "simon",
        "instances": checked,
        "separator_cap": max_w,
        "violations": violations,
        "pass": not violations,
    }
