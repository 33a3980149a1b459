"""Exact graph polynomials: Whitney rank-generating function, Tutte
polynomial via memoized deletion-contraction, chromatic and flow
specializations, and the multivariate partition sum.

All coefficients are exact big integers; evaluation takes exact rationals
(``fractions.Fraction``) or floats and returns the matching type.
"""

from __future__ import annotations

from collections import OrderedDict

from .graphs import (
    EnumerationCapExceeded,
    Multigraph,
    canonical_key,
    component_count,
    contract,
    delete,
    edge_subsets,
    rank_corank,
    spin_configs,
    subset_size_components,
)

DEFAULT_ENUM_CAP = 24  # 2^24 subsets ~ 16M, the brute-force boundary
DEFAULT_CACHE_SIZE = 1 << 20


def _check_cap(m: int, cap: int):
    if m > cap:
        raise EnumerationCapExceeded(
            f"graph has {m} edges, above the subset-enumeration cap of {cap}"
        )


class BivariatePolynomial:
    """Sparse polynomial in two variables with big-integer coefficients.

    Terms map (degree in first variable, degree in second variable) to a
    nonzero coefficient.  Univariate polynomials use the first variable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for k, c in dict(terms).items():
                if c:
                    self.terms[k] = c

    @classmethod
    def zero(cls) -> "BivariatePolynomial":
        return cls()

    @classmethod
    def constant(cls, c) -> "BivariatePolynomial":
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, i: int, j: int, c=1) -> "BivariatePolynomial":
        return cls({(i, j): c})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, BivariatePolynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return BivariatePolynomial(out)

    def __mul__(self, other):
        if self.terms == {(0, 0): 1} and isinstance(other, BivariatePolynomial):
            return BivariatePolynomial(other.terms)  # shares other's key tuples
        if not isinstance(other, BivariatePolynomial):
            return BivariatePolynomial(
                {k: c * other for k, c in self.terms.items()}
            )
        out = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0) + c1 * c2
        return BivariatePolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = BivariatePolynomial.constant(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def evaluate(self, x, y):
        total = 0
        for (i, j), c in self.terms.items():
            total += c * x**i * y**j
        return total

    def __repr__(self):
        if not self.terms:
            return "BivariatePolynomial(0)"
        parts = [
            f"{c}*x^{i}*y^{j}"
            for (i, j), c in sorted(self.terms.items())
        ]
        return "BivariatePolynomial(" + " + ".join(parts) + ")"

    def to_json_dict(self) -> dict:
        return {
            "terms": [
                {"i": i, "j": j, "c": str(c)}
                for (i, j), c in sorted(self.terms.items())
            ]
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "BivariatePolynomial":
        return cls({(t["i"], t["j"]): int(t["c"]) for t in d["terms"]})


def eval_poly(p: BivariatePolynomial, x, y):
    """Exact evaluation; pass Fractions for exact results."""
    return p.evaluate(x, y)


def rank_gen_poly(g: Multigraph, cap: int = DEFAULT_ENUM_CAP) -> BivariatePolynomial:
    """Whitney rank-generating function W(u, v) = sum over edge subsets of
    u^rank * v^corank, by direct enumeration of all 2^|E| subsets."""
    _check_cap(g.m, cap)
    return BivariatePolynomial(
        {(g.n - k, size - g.n + k): count
         for (size, k), count in subset_size_components(g).items()}
    )


class TutteCache:
    """Bounded LRU table of Tutte polynomials, keyed on the deterministic
    canonical key of each graph; a miss is a polynomial computed."""

    def __init__(self, max_size: int = DEFAULT_CACHE_SIZE):
        self.max_size = max_size
        self._table: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        val = self._table.get(key)
        if val is not None:
            self._table.move_to_end(key)
            self.hits += 1
        else:
            self.misses += 1
        return val

    def put(self, key, value):
        self._table[key] = value
        self._table.move_to_end(key)
        while len(self._table) > self.max_size:
            self._table.popitem(last=False)


_default_cache = TutteCache()


def _is_bridge(g: Multigraph, e: int) -> bool:
    u, v = g.edges[e]
    if u == v:
        return False
    without = g.full_subset() & ~(1 << e)
    return component_count(g, without) > component_count(g, g.full_subset())


def tutte_poly(g: Multigraph, cache: TutteCache | None = None) -> BivariatePolynomial:
    """Tutte polynomial T(x, y) by deletion-contraction.

    Loops and bridges are factored out eagerly (bridge -> factor x, loop ->
    factor y); any remaining edge is branched on as T = T(delete) +
    T(contract).  Satisfies T(x, y) = (x-1)^(|V|-1) W(1/(x-1), y-1) on
    connected graphs.  ``cache`` keeps T(g) only; the minors go in a memo of
    the same size that lives for this call, so a cache kept across calls
    grows by one entry per graph asked for, not by its hundreds of minors.
    """
    if cache is None:
        cache = _default_cache
    key = canonical_key(g)
    result = cache.get(key)
    if result is None:
        memo = TutteCache(cache.max_size)
        result = _tutte_rec(g, memo)
        cache.put(key, result)
        cache.hits += memo.hits
        cache.misses += memo.misses - 1  # g's miss is counted once, above
    return result


def _tutte_rec(g: Multigraph, cache: TutteCache) -> BivariatePolynomial:
    key = canonical_key(g)
    cached = cache.get(key)
    if cached is not None:
        return cached

    # peel loops and bridges before branching
    n_loops = 0
    n_bridges = 0
    work = g
    while True:
        loop_idx = next((i for i, (u, v) in enumerate(work.edges) if u == v), None)
        if loop_idx is not None:
            n_loops += 1
            work = delete(work, loop_idx)
            continue
        bridge_idx = next(
            (i for i in range(work.m) if _is_bridge(work, i)), None
        )
        if bridge_idx is not None:
            n_bridges += 1
            work = contract(work, bridge_idx)
            continue
        break

    factor = BivariatePolynomial.monomial(n_bridges, n_loops)
    if work.m == 0:
        result = factor
    else:
        rest = _tutte_rec(delete(work, 0), cache) + _tutte_rec(contract(work, 0), cache)
        result = factor * rest

    cache.put(key, result)
    return result


def tutte_from_rank_gen(g: Multigraph, cap: int = DEFAULT_ENUM_CAP) -> BivariatePolynomial:
    """Tutte polynomial through the rank-generating function: the subset
    enumeration route, independent of deletion-contraction.

    For a graph with k components T(x, y) = (x-1)^(|V|-k) W(1/(x-1), y-1);
    each W-term u^r v^c maps to (x-1)^(r(E)-r) (y-1)^c.
    """
    w = rank_gen_poly(g, cap)
    r_full, _ = rank_corank(g, g.full_subset())
    x1 = BivariatePolynomial({(1, 0): 1, (0, 0): -1})  # x - 1
    y1 = BivariatePolynomial({(0, 1): 1, (0, 0): -1})  # y - 1
    out = BivariatePolynomial.zero()
    for (r, c), coeff in w.terms.items():
        out = out + coeff * (x1 ** (r_full - r)) * (y1**c)
    return out


def multivariate_tutte(g: Multigraph, q, weights, cap: int = DEFAULT_ENUM_CAP):
    """Partition sum over edge subsets A of q^k(A) * prod of edge weights in A.

    Exact for int or ``Fraction`` q and weights, float otherwise.  A subset's
    weight product is its parent's times its lowest edge's weight, stacked in
    (m + 1) slots in the order of ``edge_subsets``; subsets holding a zero
    weight add nothing and are skipped.
    """
    _check_cap(g.m, cap)
    weights = list(weights)
    if len(weights) != g.m:
        raise ValueError("need one weight per edge")
    q_pow = [q**k for k in range(g.n + 1)]
    prods = [1] * (g.m + 1)  # slot t: latest subset with lowest edge t; -1: empty
    total = 0
    for a, k, _ in edge_subsets(g):
        t = (a & -a).bit_length() - 1
        if a:
            rest = a & (a - 1)
            prods[t] = prods[(rest & -rest).bit_length() - 1] * weights[t]
        if prods[t]:
            total += prods[t] * q_pow[k]
    return total


def chromatic_poly(g: Multigraph, cache: TutteCache | None = None) -> BivariatePolynomial:
    """Chromatic polynomial (univariate in q, first variable).

    Computed from the Tutte polynomial as (-1)^r(E) q^k(G) T(1-q, 0); the
    test-suite validates this against direct proper-colouring enumeration.
    A loop kills every proper colouring, giving the zero polynomial.
    """
    t = tutte_poly(g, cache)
    full = g.full_subset()
    r_full, _ = rank_corank(g, full)
    k_full = component_count(g, full)
    one_minus_q = BivariatePolynomial({(0, 0): 1, (1, 0): -1})
    out = BivariatePolynomial.zero()
    for (i, j), c in t.terms.items():
        if j == 0:
            out = out + c * (one_minus_q**i)
    sign = -1 if r_full % 2 else 1
    return sign * (BivariatePolynomial.monomial(k_full, 0) * out)


def flow_poly(g: Multigraph, cap: int = DEFAULT_ENUM_CAP) -> BivariatePolynomial:
    """Flow polynomial C(q) = (-1)^|E| W(-1, -q), univariate in q.

    Counts nowhere-zero mod-q flows; equals 1 for an edgeless graph and the
    zero polynomial whenever the graph has a bridge.
    """
    w = rank_gen_poly(g, cap)
    sign_e = -1 if g.m % 2 else 1
    terms = {}
    for (r, c), coeff in w.terms.items():
        terms[(c, 0)] = terms.get((c, 0), 0) + sign_e * coeff * (-1) ** (r + c)
    return BivariatePolynomial(terms)  # drops the coefficients that cancelled


def count_proper_colourings(g: Multigraph, q: int) -> int:
    """Brute-force proper-colouring count; the oracle for chromatic_poly."""
    return sum(not agree for _, agree in spin_configs(g, q))


def count_spanning_trees(g: Multigraph) -> int:
    """Spanning-tree count by subset enumeration (independent of T(1,1))."""
    _check_cap(g.m, DEFAULT_ENUM_CAP)
    return subset_size_components(g)[(g.n - 1, 1)]
