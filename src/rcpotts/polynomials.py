"""Exact graph polynomials: Whitney rank-generating function, Tutte
polynomial via memoized deletion-contraction, chromatic and flow
specializations, and the multivariate partition sum.

A polynomial is a map from exponent pairs to exact big-integer
coefficients, with equality, sums and JSON but no ring arithmetic: the
change of variables from W to T and from T to the chromatic polynomial is
one binomial shift, ``_shift``.  Evaluation takes exact rationals
(``fractions.Fraction``) or floats and returns the matching type.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import groupby, product
from math import comb, prod
from operator import getitem

from .graphs import (
    Multigraph,
    _bridges,
    canonical_key,
    check_budget,
    edge_subsets,
    rank_corank,
    spin_counts,
    subset_size_components,
)


class BivariatePolynomial:
    """Sparse polynomial in two variables with big-integer coefficients.

    Terms map (degree in first variable, degree in second variable) to a
    nonzero coefficient; zero coefficients given are dropped.  Univariate
    polynomials use the first variable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        self.terms = {k: c for k, c in dict(terms).items() if c}

    @classmethod
    def constant(cls, c) -> "BivariatePolynomial":
        return cls({(0, 0): c})

    def __eq__(self, other):
        return isinstance(other, BivariatePolynomial) and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return BivariatePolynomial(out)  # drops the coefficients that cancelled

    def evaluate(self, x, y):
        return eval_terms(self.terms, x, y)

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


def term_weights(terms, *xs) -> tuple[list, int | None]:
    """``(weights, den)``: each term of ``eval_terms`` at ints and Fractions
    x = a/b as one integer, in ``terms``' order, over one denominator den,
    from one table of a^(e-lo) * b^(hi-e) per variable (lo <= 0 <= hi);
    den is None when every x is an int and no exponent is negative."""
    tables, den, whole = [], 1, True
    for x, column in zip(xs, zip(*terms)):  # column: x's exponent in every term
        exps = {0, *column}
        lo, hi, a, b = min(exps), max(exps), x.numerator, x.denominator
        tables.append({e: a ** (e - lo) * b ** (hi - e) for e in exps})
        den *= a**-lo * b**hi
        whole = whole and lo == 0 and not isinstance(x, Fraction)
    return [c * prod(map(getitem, tables, es)) for es, c in terms.items()], None if whole else den


def eval_terms(terms, *xs):
    """Sum of c * x1**e1 * x2**e2 * ... over ``terms``, a map from exponent
    tuples to integer coefficients: the one evaluation kernel.

    Ints and Fractions sum ``term_weights`` and make one Fraction at the
    end: an int if every x is an int and no exponent is negative.  Other
    inputs (floats) multiply left to right, term by term.
    """
    if not all(isinstance(x, (int, Fraction)) for x in xs):
        return sum(reduce(lambda t, xe: t * xe[0] ** xe[1], zip(xs, es), c) for es, c in terms.items())
    weights, den = term_weights(terms, *xs)
    return sum(weights) if den is None else Fraction(sum(weights), den)


def _shift(terms, shifts) -> dict:
    """The term map of the sum of c * (x1 + s1)^e1 * (x2 + s2)^e2 * ... over
    ``terms`` (nonnegative exponents), each power expanded by the binomial
    theorem: (x + s)^e = sum over j of C(e, j) s^(e-j) x^j.  Exact for int
    and Fraction shifts; coefficients that cancel are dropped."""
    out = {}
    for es, c in terms.items():
        for js in product(*(range(e + 1) for e in es)):
            out[js] = out.get(js, 0) + c * prod(comb(e, j) * s ** (e - j) for e, j, s in zip(es, js, shifts))
    return {js: c for js, c in out.items() if c}


def eval_poly(p: BivariatePolynomial, x, y):
    """Evaluate ``p`` through ``eval_terms``: Fraction (or int) inputs are the
    exact path and give an exact result, float inputs a float."""
    return eval_terms(p.terms, x, y)


def rank_gen_poly(g: Multigraph) -> BivariatePolynomial:
    """Whitney rank-generating function W(u, v) = sum over edge subsets of
    u^rank * v^corank, by direct enumeration of all 2^|E| subsets."""
    return BivariatePolynomial(
        {(g.n - k, size - g.n + k): count
         for (size, k), count in subset_size_components(g).items()}
    )


class TutteCache:
    """Tutte polynomials of the graphs asked for, keyed on the deterministic
    canonical key of each graph, for a caller that asks across calls.  Every
    lookup counts, minors included: a hit is a polynomial found, a miss one
    computed.  ``len`` is the number of graphs kept."""

    def __init__(self):
        self._table = {}
        self.hits = 0
        self.misses = 0

    def __len__(self):
        return len(self._table)


# One (i, j) tuple per term key of T(x, y), shared by every polynomial whose
# rank and corank are below its bound, so a stored T(g) or memo entry holds
# pointers to these rather than tuples of its own.
_TERM_KEYS = [[(i, j) for j in range(32)] for i in range(32)]


def tutte_poly(g: Multigraph, cache: TutteCache | None = None) -> BivariatePolynomial:
    """Tutte polynomial T(x, y) by deletion-contraction on parallel classes.

    A minor is ``(n, classes)``: n vertices and the sorted classes (u, v, k),
    u < v, each of k parallel edges.  The input's loops give y^loops once; no
    step makes another loop.  Each minor is peeled first: one lowlink pass
    finds its bridge classes and one renumbering contracts them all, each a
    factor x + y + ... + y^(k-1).  Its last class, the highest vertex pair, is
    then branched on: T(G) = T(G - class) + (1 + y + ... + y^(k-1)) T(G /
    class), where the contraction merges the classes (a, u) and (a, v).  So
    the highest vertex is eliminated first, and on a row-major grid the memo
    works like a transfer matrix: 594 minors on the 4x5 grid.

    A minor's T is one int holding c x^i y^j at bit s (i (c_E + 1) + j), with
    s = |E| + 1 and (r, c_E) the input's rank and corank.  Every coefficient
    is nonnegative and at most T(1, 1) <= 2^|E|, so no slot overflows: a sum
    is one addition, and an entry is at most (r + 1)(c_E + 1)(|E| + 1) bits,
    so BUDGET["minors"] bounds the memo's bytes too.  The memo lives for this
    call; ``cache`` keeps T(g) only.  Satisfies T(x, y) = (x-1)^(|V|-1)
    W(1/(x-1), y-1) on connected graphs.  Terms come in ascending (i, j),
    keyed from one shared table of (i, j) tuples (a table of this call's own
    above rank or corank 31).
    """
    if cache is None:
        cache = TutteCache()
    key = canonical_key(g)
    result = cache._table.get(key)
    if result is not None:
        cache.hits += 1
        return result
    r, c = rank_corank(g, g.full_subset())  # every minor's exponents are at most these
    keys = _TERM_KEYS if max(r, c) < len(_TERM_KEYS) else [[(i, j) for j in range(c + 1)] for i in range(r + 1)]
    s, memo = g.m + 1, {}  # bits per coefficient
    x, geo = 1 << s * (c + 1), [((1 << s * k) - 1) // ((1 << s) - 1) for k in range(s)]  # x; 1 + y + ... + y^(k-1)

    def minor(n, classes):
        memo_key = (n, classes)
        value = memo.get(memo_key)
        if value is not None:
            cache.hits += 1
            return value
        cache.misses += 1
        value, label, bridges = 1, range(n), _bridges(n, [e[:2] for e in classes])
        for i in bridges:  # contracted by renumbering: a merged vertex takes its lowest one's place
            u, v, k = classes[i]
            value *= x + geo[k] - 1  # x + y + ... + y^(k-1)
            u, v = sorted((label[u], label[v]))
            label = [a if a < v else u if a == v else a - 1 for a in label]
        if bridges:
            n, classes = n - len(bridges), _merged(label, classes)
        if classes:
            u, v, k = classes[-1]
            value *= minor(n, classes[:-1]) + geo[k] * minor(n - 1, _merged([*range(v), u, *range(v, n - 1)], classes))
        check_budget("minors", len(memo) + 1)
        memo[memo_key] = value
        return value

    classes = tuple((u, v, len(list(copies))) for (u, v), copies in groupby(sorted(g.edges)) if u != v)
    packed = minor(g.n, classes) << s * sum(u == v for u, v in g.edges)  # times y^loops
    terms, mask = {}, (1 << s) - 1
    for row in keys[:r + 1]:
        for term in row[:c + 1]:
            if packed & mask:
                terms[term] = packed & mask
            packed >>= s
    result = cache._table[key] = BivariatePolynomial(terms)
    return result


def _merged(label, classes) -> tuple:
    """The sorted ``classes`` with each vertex a renamed ``label[a]``: those
    that become loops, the contracted ones, are dropped and those that
    become parallel merged."""
    out = {}
    for a, b, k in classes:
        a, b = label[a], label[b]
        if a != b:
            pair = (a, b) if a < b else (b, a)
            out[pair] = out.get(pair, 0) + k
    return tuple(sorted((a, b, k) for (a, b), k in out.items()))


def tutte_from_rank_gen(g: Multigraph) -> BivariatePolynomial:
    """Tutte polynomial through the rank-generating function: the subset
    enumeration route, independent of deletion-contraction.

    For a graph with k components T(x, y) = (x-1)^(|V|-k) W(1/(x-1), y-1);
    each W-term u^r v^c maps to (x-1)^(r(E)-r) (y-1)^c.
    """
    r_full, _ = rank_corank(g, g.full_subset())
    terms = {(r_full - r, c): coeff for (r, c), coeff in rank_gen_poly(g).terms.items()}
    return BivariatePolynomial(_shift(terms, (-1, -1)))


def multivariate_tutte(g: Multigraph, q, weights):
    """Partition sum over edge subsets A of q^k(A) * prod of edge weights in A.

    Exact for int or ``Fraction`` q and weights, float otherwise.  A subset's
    weight product is its parent's times its lowest edge's weight, stacked in
    (m + 1) slots in the order of ``edge_subsets``; subsets holding a zero
    weight add nothing and are skipped.
    """
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
    r_full, _ = rank_corank(g, g.full_subset())
    # (1-q)^i = (-1)^i (q-1)^i, and q^k(G) with k(G) = |V| - r(E)
    terms = _shift({(i,): (-1) ** (r_full + i) * c for (i, j), c in t.terms.items() if j == 0}, (-1,))
    return BivariatePolynomial({(i + g.n - r_full, 0): c for (i,), c in terms.items()})


def flow_poly(g: Multigraph) -> BivariatePolynomial:
    """Flow polynomial C(q) = (-1)^|E| W(-1, -q), univariate in q.

    Counts nowhere-zero mod-q flows; equals 1 for an edgeless graph and the
    zero polynomial whenever the graph has a bridge.
    """
    w = rank_gen_poly(g)
    sign_e = -1 if g.m % 2 else 1
    terms = {}
    for (r, c), coeff in w.terms.items():
        terms[(c, 0)] = terms.get((c, 0), 0) + sign_e * coeff * (-1) ** (r + c)
    return BivariatePolynomial(terms)  # drops the coefficients that cancelled


def count_proper_colourings(g: Multigraph, q: int) -> int:
    """Brute-force proper-colouring count, the oracle for chromatic_poly: the
    configurations with no agreeing edge (a loop always agrees)."""
    return spin_counts(g, q)[0][0]


def count_spanning_trees(g: Multigraph) -> int:
    """Spanning-tree count by subset enumeration (independent of T(1,1))."""
    return subset_size_components(g)[(g.n - 1, 1)]
