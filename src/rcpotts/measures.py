"""Exact random-cluster and Potts measures on small graphs.

Everything theorem-shaped here runs in exact rational arithmetic: p and q
are Fractions and e^(-beta) is identified with 1-p, so identity checks can
assert literal equality instead of float closeness.  Operations that need a
free real beta (the zero-temperature limit) use floats with stated
tolerances.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from numbers import Integral, Real

from .graphs import (Multigraph, _exponent, check_budget, edge_subsets, is_connected, spin_configs, spin_counts,
                     subset_counts, subset_size_components)
from .polynomials import TutteCache, chromatic_poly, eval_poly, eval_terms, term_weights, tutte_poly


# ---------------------------------------------------------------------------
# Model inputs: each is read here, once for every route.

def _integer_q(q) -> int:
    """q on the spin and flow-count routes: an integral real 2 <= q < inf, as an int."""
    if not (isinstance(q, Real) and 2 <= q < math.inf and q == int(q)):
        raise ValueError("q must be an integer >= 2")
    return int(q)


def _probability(p):
    """p in (0,1): a Fraction kept exact, any other real (numpy scalars too) read as its double."""
    if not isinstance(p, Real):
        raise ValueError("p must be a real number")
    p = p if isinstance(p, Fraction) else float(p)
    if not 0 < p < 1:
        raise ValueError("p must lie in (0,1)")
    return p


def _exact_q(q):
    """q > 0 on the real-q flow routes: an int or Fraction as itself, any
    other finite real (numpy scalars too) as the Fraction its double equals."""
    if not isinstance(q, (Integral, Fraction)):
        if not (isinstance(q, Real) and math.isfinite(q)):
            raise ValueError("q must be a finite real number")
        q = Fraction(float(q))
    if not q > 0:
        raise ValueError("q must be positive")
    return int(q) if isinstance(q, Integral) else q


@dataclass(frozen=True)
class RCParams:
    p: Fraction
    q: Fraction

    def __post_init__(self):
        _probability(self.p)
        if not isinstance(self.q, Real):
            raise ValueError("q must be a real number")
        if not self.q > 0:
            raise ValueError("q must be positive")


@dataclass(frozen=True)
class PottsParams:
    """Potts model parameters; couplings default to +1 on every edge and
    fields default to zero.  ``fields[x][j]`` is the field felt by vertex x
    in spin state j (states are 0-based internally)."""

    beta: float
    q: int
    couplings: tuple | None = None
    fields: tuple | None = None

    def __post_init__(self):
        if not isinstance(self.beta, Real):
            raise ValueError("beta must be a real number")
        if not math.isfinite(self.beta):
            raise ValueError("beta must be finite")
        object.__setattr__(self, "q", _integer_q(self.q))
        if self.couplings is not None and any(j == 0 for j in self.couplings):
            raise ValueError("couplings must be nonzero")


@dataclass(frozen=True)
class MeasureTable:
    """Explicit probability table over a finite configuration space.

    ``space`` records what configurations mean: ("bond", m) for bitmasks over
    m edges, each checked to lie below 2^m, ("joint", n, q, m) for
    (spin-tuple, bitmask) pairs.
    Probabilities are exact, ints or Fractions, and are validated and kept
    in integers: ``weights`` holds each, in ``probs``' order, over ``d``,
    their least common denominator.
    """

    space: tuple
    probs: dict
    weights: tuple = field(init=False, repr=False, compare=False)
    d: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.space[0] == "bond" and not all(0 <= a < 1 << self.space[1] for a in self.probs):
            raise ValueError(f"a configuration lies outside the bond space of {self.space[1]} edges")
        try:
            d = math.lcm(*(x.denominator for x in self.probs.values()))
        except AttributeError:
            raise ValueError("probabilities must be exact: ints or Fractions") from None
        weights = tuple(x.numerator * (d // x.denominator) for x in self.probs.values())
        if sum(weights) != d:
            raise ValueError(f"probabilities sum to {Fraction(sum(weights), d)}, not 1")
        if any(w < 0 for w in weights):
            raise ValueError("negative probability")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "d", d)

    def prob(self, event) -> Fraction:
        """Probability of the configurations for which the predicate ``event`` holds."""
        return Fraction(sum(w for cfg, w in zip(self.probs, self.weights) if event(cfg)), self.d)


def rc_partition(g: Multigraph, params: RCParams) -> Fraction:
    """Random-cluster partition function by subset enumeration, exact."""
    counts = subset_size_components(g)
    return eval_terms({(a, g.m - a, k): c for (a, k), c in counts.items()}, params.p, 1 - params.p, params.q)


def _rc_weights(g: Multigraph, params: RCParams, counts) -> dict:
    """Each key (|A|, k(A)) of ``counts`` to its weight p^|A| (1-p)^(|E|-|A|) q^k(A), in integers."""
    weights, _ = term_weights({(a, g.m - a, k): 1 for a, k in counts}, params.p, 1 - params.p, params.q)
    return dict(zip(counts, weights))


def _shares(counts, hits, weight) -> dict:
    """Each tally of ``hits`` as one Fraction of the total over ``counts``,
    summed in the integer weights ``weight`` gives each key."""
    weigh = lambda tally: sum(c * weight[key] for key, c in tally.items())
    z = weigh(counts)
    return {pair: Fraction(weigh(hit), z) for pair, hit in hits.items()}


def rc_measure_table(g: Multigraph, params: RCParams) -> MeasureTable:
    """phi_{p,q} over the bond space, subsets ascending, from one pass of
    ``edge_subsets`` that keeps each subset's key (|A|, k(A)): each key is
    weighed once, and each probability is its weight over their sum."""
    check_budget("table", 1 << g.m)
    keys = [(a.bit_count(), k) for a, k, _ in edge_subsets(g)]
    counts = Counter(keys)  # first-met key order, as subset_counts lists it
    weight = _rc_weights(g, params, counts)
    z = sum(c * weight[key] for key, c in counts.items())
    prob = {key: Fraction(w, z) for key, w in weight.items()}
    return MeasureTable(("bond", g.m), dict(enumerate(map(prob.__getitem__, keys))))


def _connection_probs(g: Multigraph, params: RCParams, pairs) -> dict:
    """phi_{p,q}(x <-> y) for each vertex pair in ``pairs``, in one subset pass."""
    counts, hits = subset_counts(g, pairs)
    return _shares(counts, hits, _rc_weights(g, params, counts))


def rc_connection_prob(g: Multigraph, params: RCParams, x: int, y: int) -> Fraction:
    """phi_{p,q}(x <-> y), exact."""
    g.check_vertices(x, y)
    if x == y:
        return Fraction(1)
    return _connection_probs(g, params, [(x, y)])[x, y]


# ---------------------------------------------------------------------------
# Potts side.  A configuration's coupling exponent sums J_e over its agreeing
# edges; the exact route takes w = e^beta as a Fraction, weight w^exponent.

def potts_partition_exact(g: Multigraph, q: int, w: Fraction, couplings=None) -> Fraction:
    """Z_P with e^beta = w exact; integer couplings only (default all +1)."""
    return eval_terms({(j,): c for j, c in spin_counts(g, q, couplings)[0].items()}, Fraction(w))


def _float_sums(terms, width: int):
    """``(top, z, acc)``: z sums count e^(energy - top) over the terms, acc[i]
    the same weighted by hits[i]; top is the largest energy, so no exp overflows."""
    top, z, acc = -math.inf, 0.0, [0.0] * width
    for e, c, h in terms:
        if e > top:  # rescale what is summed so far to the new largest energy
            scale, top = math.exp(top - e), e
            z, acc = z * scale, [a * scale for a in acc]
        f = math.exp(e - top)
        z, acc = z + c * f, [a + k * f for a, k in zip(acc, h)]
    return top, z, acc


def _potts_float_sums(g: Multigraph, params: PottsParams, pairs):
    """``(top, z, hits)``: Z_P = e^top z and e^top hits[pair] its part where sigma_x = sigma_y."""
    beta, fields = params.beta, params.fields
    if fields is None and all(isinstance(j, int) for j in params.couplings or ()):
        counts, hits = spin_counts(g, params.q, params.couplings, pairs)
        terms = [(beta * j, c, [hit[j] for hit in hits.values()]) for j, c in counts.items()]
    else:  # one term per configuration: fields, or couplings that are not ints
        exponent = _exponent(params.couplings)
        terms = (
            (beta * (exponent(agree) + sum(f[x] for f, x in zip(fields or (), s))), 1, [s[x] == s[y] for x, y in pairs])
            for s, agree in spin_configs(g, params.q)
        )
    top, z, acc = _float_sums(terms, len(pairs))
    if not math.isfinite(top):  # every weight would be inf / inf
        raise OverflowError(f"beta = {beta} takes the largest energy out of float range")
    return top, z, dict(zip(pairs, acc))


def potts_partition(g: Multigraph, params: PottsParams) -> float:
    """Z_P for real beta, general couplings and external fields (floats)."""
    top, z, _ = _potts_float_sums(g, params, ())
    try:
        z = math.exp(top) * z
    except OverflowError:  # e^top alone is past the float range
        z = math.inf
    if not math.isfinite(z):
        raise OverflowError(f"Z_P overflows a float at beta = {params.beta}")
    return z


def potts_two_point(g: Multigraph, params: PottsParams, x: int, y: int) -> float:
    """tau(x,y) = pi(sigma_x = sigma_y) - 1/q, floating point."""
    g.check_vertices(x, y)
    _, z, hits = _potts_float_sums(g, params, [(x, y)])
    return hits[x, y] / z - 1.0 / params.q


def _potts_two_points_exact(g: Multigraph, q: int, w: Fraction, pairs) -> dict:
    """tau(x,y) for each vertex pair in ``pairs``, in one spin pass."""
    counts, hits = spin_counts(g, q, pairs=pairs)
    weight = dict(zip(counts, term_weights({(j,): 1 for j in counts}, Fraction(w))[0]))
    return {pair: share - Fraction(1, q) for pair, share in _shares(counts, hits, weight).items()}


def potts_two_point_exact(g: Multigraph, q: int, w: Fraction, x: int, y: int) -> Fraction:
    """tau(x,y) = pi(sigma_x = sigma_y) - 1/q with e^beta = w exact."""
    g.check_vertices(x, y)
    return _potts_two_points_exact(g, q, w, [(x, y)])[x, y]


# ---------------------------------------------------------------------------
# Theorem checks.  Each returns a plain-dict report suitable for JSON output.

def verify_corr_conn(g: Multigraph, p: Fraction, q: int) -> dict:
    """Check tau(x,y) = (1 - 1/q) phi(x <-> y) for every vertex pair, with
    e^(-beta) = 1 - p so both sides are exact rationals."""
    w = 1 / (1 - Fraction(p))  # e^beta
    params = RCParams(Fraction(p), Fraction(q))
    pairs = list(combinations(range(g.n), 2))  # x = y and the order of x, y change neither side
    phi = _connection_probs(g, params, pairs)
    tau = _potts_two_points_exact(g, q, w, pairs)
    max_dev = max(
        (abs(tau[pair] - (1 - Fraction(1, q)) * phi[pair]) for pair in pairs), default=Fraction(0)
    )
    return {
        "identity": "corr-conn",
        "instances": g.n ** 2,
        "max_abs_deviation": str(max_dev),
        "pass": max_dev == 0,
    }


def verify_partition_identity(g: Multigraph, p: Fraction, q: int) -> dict:
    """Check Z_RC(p,q) = (1-p)^|E| Z_P(beta,q) with e^(-beta) = 1-p, exact."""
    p = Fraction(p)
    w = 1 / (1 - p)
    z_rc = rc_partition(g, RCParams(p, Fraction(q)))
    z_p = potts_partition_exact(g, q, w)
    dev = abs(z_rc - (1 - p) ** g.m * z_p)
    return {
        "identity": "partition",
        "instances": 1,
        "max_abs_deviation": str(dev),
        "pass": dev == 0,
    }


def tutte_rc_params(p: Fraction, q: Fraction) -> tuple[Fraction, Fraction]:
    """The change of variables u-1 = q(1-p)/p, v-1 = p/(1-p)."""
    p, q = Fraction(p), Fraction(q)
    return 1 + q * (1 - p) / p, 1 + p / (1 - p)


def tutte_rc_identity(
    g: Multigraph, p: Fraction, q: Fraction, cache: TutteCache | None = None
) -> dict:
    """Check Z_RC = (u-1)(v-1)^|V| v^(-|E|) T(u, v) on a connected graph,
    and, for integer q, Z_P = (u-1)(v-1)^|V| T(u, v) with e^(-beta) = 1-p.

    The evaluation point is (u, v) itself; the brute-force partition sum is
    the ground truth for that choice.  A sometimes-quoted variant evaluates T
    at the shifted point (u-1, v-1) instead; its deviation is included in the
    report so the two conventions can be told apart at a glance.
    """
    if not is_connected(g):
        raise ValueError("identity is checked on connected graphs only")
    p, q = Fraction(p), Fraction(q)
    u, v = tutte_rc_params(p, q)
    t = tutte_poly(g, cache)
    t_val = eval_poly(t, u, v)
    z_rc = rc_partition(g, RCParams(p, q))
    prefactor = (u - 1) * (v - 1) ** g.n * v ** (-g.m)
    dev_rc = abs(z_rc - prefactor * t_val)
    shifted_dev = abs(z_rc - prefactor * eval_poly(t, u - 1, v - 1))
    report = {
        "identity": "tutte-rcm",
        "evaluation_point": [str(u), str(v)],
        "z_rc": str(z_rc),
        "rc_deviation": str(dev_rc),
        "shifted_point": [str(u - 1), str(v - 1)],
        "shifted_point_deviation": str(shifted_dev),
        "pass": dev_rc == 0,
        "instances": 1,
    }
    if q.denominator == 1 and q >= 2:
        w = 1 / (1 - p)
        z_p = potts_partition_exact(g, int(q), w)
        rhs_p = (u - 1) * (v - 1) ** g.n * t_val
        dev_p = abs(z_p - rhs_p)
        report["potts_deviation"] = str(dev_p)
        report["pass"] = report["pass"] and dev_p == 0
        report["instances"] = 2
    return report


def ground_states(g: Multigraph, q: int, couplings) -> tuple[list, bool]:
    """All colourings agreeing across positive couplings and disagreeing
    across negative ones; the second return value flags frustration."""
    couplings = list(couplings)
    if len(couplings) != g.m:
        raise ValueError("need one coupling per edge")
    pos = sum(1 << i for i, j in enumerate(couplings) if j > 0)
    neg = sum(1 << i for i, j in enumerate(couplings) if j < 0)
    states = [s for s, agree in spin_configs(g, q) if agree & (pos | neg) == pos]
    return states, not states


def zero_temperature_check(g: Multigraph, q: int, beta_schedule) -> dict:
    """Purely antiferromagnetic (J = -1 everywhere) zero-temperature limit:
    Z_P(beta, q) should approach the chromatic value chi(q) monotonically as
    beta grows, to within 1e-6 (relative and absolute) at the last beta."""
    params = PottsParams(beta=0.0, q=q, couplings=tuple([-1] * g.m))  # beta is set per sum below
    chi = float(eval_poly(chromatic_poly(g), Fraction(params.q), Fraction(0)))
    counts = spin_counts(g, params.q, params.couplings)[0]  # one enumeration for every beta
    sums = [_float_sums(((b * j, c, ()) for j, c in counts.items()), 0) for b in beta_schedule]
    values = [math.exp(top) * z for top, z, _ in sums]
    gaps = [abs(v - chi) for v in values]
    monotone = all(g2 <= g1 + 1e-12 for g1, g2 in zip(gaps, gaps[1:]))
    final_ok = gaps[-1] <= abs(chi) * 1e-6 + 1e-6
    return {
        "identity": "zero-temperature",
        "chi": chi,
        "z_values": values,
        "monotone": monotone,
        "pass": monotone and final_ok,
        "instances": len(values),
    }
