"""Mod-q flow counting, Poisson-thickened graphs, the flow/correlation and
flow/connection identities, and the Simon inequality harness.

Two independent routes to flow counts coexist deliberately: a brute-force
enumerator over edge values (the oracle) and parallel reduction, which merges
each bundle of parallel edges into one edge of the multivariate Tutte sum so
that a Poisson-thickened graph's flow polynomial, at integer, rational or
real q, is one pass over its base graph's edge subsets (fast enough for
Monte Carlo).  The Monte Carlo ratios sort their draw array once, fold each
distinct multiplicity row into the subsets' integer coefficients
(``_flow_fold``) and gather the values; the q = 2 ratio counts odd vertices.
q and p are read by the readers in ``measures``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from numbers import Integral

import numpy as np

from .graphs import Multigraph, check_budget, edge_subsets, open_clusters, subset_size_components, to_json_dict
from .measures import RCParams, _connection_probs, _exact_q, _integer_q, _probability, rc_partition
from .coupling import _batch_error, _batches, make_rng
from .polynomials import eval_terms, multivariate_tutte


@dataclass(frozen=True)
class OrientedMultigraph:
    graph: Multigraph
    directions: tuple  # per edge, +1 = as stored (u -> v), -1 = reversed

    def __post_init__(self):
        if len(self.directions) != self.graph.m:
            raise ValueError("one direction bit per edge required")


def count_flows(g: Multigraph, q: int, orientation: OrientedMultigraph | None = None) -> int:
    """Number of nowhere-zero mod-q flows, by brute force over edge values.

    Loops conserve trivially and accept any of the q-1 non-zero values.  The
    count is orientation independent; an orientation can be supplied to
    check exactly that.
    """
    q = _integer_q(q)
    check_budget("flows", (q - 1) ** g.m)
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
# Parallel reduction.  In the multivariate Tutte sum Z_G(q, v) = sum over A of
# q^k(A) prod_{e in A} v_e (Sokal 2005), a bundle of m parallel edges acts as
# one edge with 1 + v = prod (1 + v_i), and C(G; q) = (-1)^|E| q^-|V| Z_G(q, -q).
# So a base edge carrying m_e copies has v_e = (1 - q)^m_e - 1, and the flow
# count of a thickened graph is one pass over the base graph's edge subsets:
# a Tutte evaluation here, an integer fold of that pass in ``_flow_fold``.

def flow_count_multiplicities(g: Multigraph, mult, q):
    """Flow polynomial at q of the thickened graph G_m, whose base edge e
    carries mult[e] parallel copies:

        C(G_m; q) = (-1)^(sum m) q^-|V| sum_A q^k(A) prod_{e in A} ((1-q)^m_e - 1).

    Integer q gives an exact int, for q >= 2 the nowhere-zero flow count; a
    Fraction q gives a Fraction and a float q a float.
    """
    if isinstance(q, Integral):
        q = int(q)  # numpy integers too: exact, and no fixed-width overflow
    mult = [int(m_e) for m_e in mult]
    return _flow_value(multivariate_tutte(g, q, [(1 - q) ** m_e - 1 for m_e in mult]), q, g.n, sum(mult))


def _flow_value(total, q, n: int, edges: int):
    """(-1)^edges q^-n total: the flow polynomial from its Tutte sum; an
    exact int at integer q."""
    if isinstance(q, int):
        count, rem = divmod(total, q**n)
        if rem:
            raise ArithmeticError("flow sum not divisible by q^|V|")
        return (-1) ** edges * count
    return (-1) ** edges * total / q**n


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


def _poisson_draws(g: Multigraph, lam: float, rng: np.random.Generator, samples: int) -> np.ndarray:
    """Independent Poisson(lam) multiplicities, one row of |E| per sample;
    the same stream as ``samples`` successive calls of ``poisson_sample``."""
    if lam < 0:
        raise ValueError("intensity must be non-negative")
    return rng.poisson(lam, size=(samples, g.m))


def poisson_sample(
    g: Multigraph, lam: float, rng: np.random.Generator, attach: tuple | None = None
) -> PoissonGraphSample:
    """Independent Poisson(lam) multiplicity per base edge; ``attach`` adds
    one extra (x, y) edge on top."""
    return PoissonGraphSample(g, tuple(_poisson_draws(g, lam, rng, 1)[0].tolist()), attach)


def _flow_fold(g: Multigraph, x: int, y: int, q, tuples):
    """Yield (m, C(G_m^{x,y}; q), C(G_m; q)) for each m of the sorted
    ``tuples`` (neighbours share the folds of their common prefix), each
    value an int (numerator, denominator), exact at q = a/b as
    ``measures._exact_q`` reads it.  Scaled by b^m_e, edge e weighs b^m_e
    outside A and (b - a)^m_e - b^m_e in it; folding the base edges, lowest
    bit first, into c_A = a^k(A) b^(|V|-k(A)) over the 2^(|E| + 1) subsets of
    the (x, y)-extension (a table within budget) leaves S0 and S1, A without
    and with xy: C(G_m) = (-1)^M S0 / (a^|V| b^M) and the extension's is
    (-1)^(M+1) (b S0 - a S1) / (a^|V| b^(M+1)), M = sum m.
    """
    a, b = q.as_integer_ratio()
    gx = Multigraph(g.n, g.edges + ((x, y),))
    check_budget("table", 1 << gx.m)
    folds, prev = [[a**k * b ** (g.n - k) for _, k, _ in edge_subsets(gx)]], ()
    for mult in tuples:  # folds[j] has prev's first j edges folded
        i = next((j for j, (s, t) in enumerate(zip(mult, prev)) if s != t), len(prev))
        del folds[i + 1:]
        for m_e in mult[i:]:
            out, inn, v = b**m_e, (b - a) ** m_e - b**m_e, folds[-1]
            folds.append([lo * out + hi * inn for lo, hi in zip(v[::2], v[1::2])])
        (s0, s1), prev, edges = folds[-1], mult, sum(mult)
        ext = b * s0 - a * s1  # the extension's sum over a^|V| b^(M+1), up to (-1)^(M+1)
        if isinstance(q, int):
            yield mult, (_flow_value(ext, q, g.n, edges + 1), 1), (_flow_value(s0, q, g.n, edges), 1)
        else:
            den = (-1) ** edges * a**g.n * b**edges
            yield mult, (-ext, den * b), (s0, den)


def _flow_pairs(g: Multigraph, x: int, y: int, q, tuples) -> dict:
    """``_flow_fold``'s pairs, as ints at integer q and ``Fraction``s otherwise."""
    q = _exact_q(q)
    values = dict.fromkeys(tuples)  # filled in sorted order, returned in the given one
    for mult, ext, flow in _flow_fold(g, x, y, q, sorted(values)):
        values[mult] = (ext[0], flow[0]) if isinstance(q, int) else (Fraction(*ext), Fraction(*flow))
    return values


def flow_correlation_mc(g: Multigraph, lam: float, q, x: int, y: int, cfg) -> dict:
    """Estimate E[C(G_P^{x,y}; q)] / E[C(G_P; q)] over ``cfg.samples``
    Poisson(lam) thickenings.  One lexsort of the draws gives the distinct
    multiplicity rows and each sample's index into them; each row is folded
    once, its int / int divided straight to a float (rounded as its
    ``Fraction`` would be), and one gather gives every sample its values.

    Under the beta = lam*q bridge this ratio equals q*tau_{beta,q}(x,y).
    """
    q = _exact_q(q)
    g.check_vertices(x, y)
    if x == y:
        raise ValueError("x and y must be distinct")
    draws = _poisson_draws(g, lam, make_rng(cfg.seed), cfg.samples)
    order = np.lexsort(draws.T[::-1]) if g.m else np.arange(cfg.samples)
    rows, new = draws[order], np.ones(cfg.samples, dtype=bool)
    np.any(rows[1:] != rows[:-1], axis=1, out=new[1:])  # a row unlike the one before it
    index = np.empty_like(order)
    index[order] = np.cumsum(new) - 1  # each sample's distinct tuple
    fold = _flow_fold(g, x, y, q, list(map(tuple, rows[new].tolist())))
    nums, dens = np.array([(en / ed, n / d) for _, (en, ed), (n, d) in fold]).T
    return _ratio_estimate(nums[index], dens[index])


def _ratio_estimate(nums, dens) -> dict:
    """Ratio-of-means estimate with a batch-means standard error."""
    nums = np.asarray(nums, dtype=float)
    dens = np.asarray(dens, dtype=float)
    bn, bd = _batches(nums), _batches(dens)
    if bd.min() <= 0 and dens.mean() == 0:
        raise ZeroDivisionError("denominator expectation estimate is zero")
    ratios = bn / np.where(bd == 0, np.nan, bd)
    estimate = float(nums.mean() / dens.mean())
    return {"estimate": estimate, "se": _batch_error(ratios[np.isfinite(ratios)]), "n": len(nums)}


def even_ratio_mc(g: Multigraph, lam: float, x: int, y: int, cfg) -> dict:
    """Estimate Pr(G_P^{x,y} even) / Pr(G_P even); the q = 2 special case of
    the flow-correlation ratio, from each sample's count of odd vertices:
    G_P is even at 0, and G_P^{x,y} when the 2 odd ones are x and y."""
    g.check_vertices(x, y)
    if x == y:
        raise ValueError("x and y must be distinct")
    draws = _poisson_draws(g, lam, make_rng(cfg.seed), cfg.samples)
    incidence = np.zeros((g.m, g.n), dtype=np.int64)
    for i, (u, v) in enumerate(g.edges):
        if u != v:
            incidence[i, [u, v]] = 1
    odd = draws @ incidence & 1
    count = odd.sum(axis=1)
    return _ratio_estimate((count == 2) & (odd[:, x] + odd[:, y] == 2), count == 0)


def flow_connection_mc(
    g: Multigraph, p: float, q, x: int, y: int, cfg, cache=None
) -> dict:
    """Real-q flow/connection ratio over Poisson thickenings.

    With lam solving p = 1 - e^(-lam q), estimates the ratio of the expected
    flow-polynomial values C(G_P^{x,y}; q) and C(G_P; q), which equals
    (q-1) phi_{p,q}(x <-> y).  On connected samples C(G; q) is the signed
    Tutte term (-1)^(|V|-1+|E|) ... (-1)^|E| T(G; 0, 1-q) of the identity;
    on samples with isolated vertices the sign tracks the component count.
    ``cache`` is no longer used: parallel reduction needs no Tutte table.
    """
    q, p = _exact_q(q), _probability(p)
    lam = -math.log(1.0 - p) / float(q)
    return {**flow_correlation_mc(g, lam, q, x, y, cfg), "lambda": lam}


def _poisson_pmf(lam: float, m: int) -> float:
    return math.exp(-lam + m * math.log(lam) - math.lgamma(m + 1)) if lam > 0 else (1.0 if m == 0 else 0.0)


def compflow_identity(
    g: Multigraph, p: float, q: int, m_max: int = 30
) -> dict:
    """Exact-truncation check of the partition/flow identity
    Z_RC(p, q) = (1-p)^(|E|(q-2)/q) q^|V| E[C(G_P; q)] with p = 1 - e^(-lam q).

    The expectation is truncated at multiplicity m_max per edge.  Under
    parallel reduction it factorises per edge: an edge with multiplicity m
    contributes (-1)^m outside A and (q-1)^m - (-1)^m inside, so with a0 and
    a1 their truncated Poisson means the expectation is
    q^-|V| sum_A q^k(A) a1^|A| a0^(|E|-|A|).  The tail is bounded through
    C(G_m; q) <= (q-1)^(sum of multiplicities).
    """
    p, q = _probability(p), _integer_q(q)
    lam = -math.log(1.0 - p) / q
    pmf = [_poisson_pmf(lam, m) for m in range(m_max + 1)]
    a0 = sum(w * (-1) ** m for m, w in enumerate(pmf))
    truncated_full = sum(w * (q - 1) ** m for m, w in enumerate(pmf))
    a1 = truncated_full - a0
    counts = subset_size_components(g)
    expect = eval_terms({(k, a, g.m - a): c for (a, k), c in counts.items()}, q, a1, a0) / q**g.n
    # tail bound: union over edges exceeding m_max
    per_edge_full = math.exp(lam * (q - 2))  # E[(q-1)^M]
    tail_one = per_edge_full - truncated_full
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
    disconnects x from z: the edges that touch no vertex of W leave x and z
    in different open clusters."""
    touching = [0] * g.n  # per vertex, the mask of its incident edges
    for i, (u, v) in enumerate(g.edges):
        touching[u] |= 1 << i
        touching[v] |= 1 << i
    others = [v for v in range(g.n) if v not in (x, z)]
    found = []
    for size in range(1, min(max_size, len(others)) + 1):
        for w in combinations(others, size):
            kept = g.full_subset()
            for y in w:
                kept &= ~touching[y]
            labels = open_clusters(g, kept)
            if labels[x] != labels[z]:
                found.append(w)
    return found


def simon_check(g: Multigraph, p: Fraction, q: Fraction, x: int, z: int) -> dict:
    """Evaluate phi(x<->z) <= sum over y in W of phi(x<->y) phi(y<->z) for
    every separating set W of at most 4 vertices, in exact arithmetic.

    Proven for q = 2 and q = 1; for other q in [1,2] this is a conjecture
    harness and any violation is reported verbatim.
    """
    if x == z:
        raise ValueError("x and z must be distinct")
    params = RCParams(Fraction(p), Fraction(q))
    g.check_vertices(x, z)
    others = [y for y in range(g.n) if y not in (x, z)]
    pairs = [(x, z), *((x, y) for y in others), *((y, z) for y in others)]
    phi = _connection_probs(g, params, pairs)  # one subset pass for every separator
    lhs = phi[x, z]
    violations = []
    checked = 0
    for w in separating_sets(g, x, z):
        rhs = sum(phi[x, y] * phi[y, z] for y in w)
        checked += 1
        if lhs > rhs:
            violations.append({"W": list(w), "lhs": str(lhs), "rhs": str(rhs), "graph": to_json_dict(g),
                               "p": str(params.p), "q": str(params.q)})
    return {
        "identity": "simon",
        "instances": checked,
        "separator_cap": 4,
        "violations": violations,
        "pass": not violations,
    }
