"""Stochastic ordering, FKG positive association, the three negative
association notions with the disjoint-occurrence operator, and the q -> 0
limit measures (uniform spanning tree / forest / connected subgraph).

Events over the bond space {0,1}^E are encoded as bitmasks over the 2^|E|
configurations (configuration ``a`` is in event ``A`` iff bit ``a`` of the
event mask is set).  A measure is read as integer weights over the least
common denominator d of its probabilities, and P(A and B) <= P(A) P(B) is
tested in integers as d W(A and B) <= W(A) W(B), so every check is exact
and a reported violation is a genuine witness, never float noise.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from math import lcm
from operator import and_, or_

from .graphs import Multigraph, edge_subsets, is_connected
from .measures import MeasureTable, RCParams, rc_measure_table
from .coupling import make_rng
from .polynomials import DEFAULT_ENUM_CAP, _check_cap

UPSET_EDGE_CAP = 5  # Dedekind numbers blow up past the 5-cube (7581 up-sets)


def _check_event_cap(m: int):
    if not 0 <= m <= UPSET_EDGE_CAP:
        raise ValueError(f"event algebra supported for 0 <= m <= {UPSET_EDGE_CAP} edges")


def enumerate_increasing_events(m: int) -> list[int]:
    """All up-sets of the m-cube as event bitmasks (Dedekind enumeration).

    Splitting on the last coordinate, an up-set of the m-cube is a pair of
    up-sets (A0, A1) of the (m-1)-cube with A0 a subset of A1.
    """
    _check_event_cap(m)
    events = [0, 1]  # the 0-cube: empty event and full space
    for k in range(1, m + 1):
        half = 1 << (k - 1)
        events = [
            a0 | (a1 << half)
            for a1 in events
            for a0 in events
            if a0 & ~a1 == 0
        ]
    return events


def _weights(table: MeasureTable) -> tuple[list[int], int]:
    """The measure as integer weights w over a common denominator d: the
    probability of configuration a is w[a] / d."""
    if table.space[0] != "bond":
        raise ValueError("expected a bond-space measure")
    d = lcm(*(x.denominator for x in table.probs.values()))
    w = [0] * (1 << table.space[1])
    for a, x in table.probs.items():
        w[a] = x.numerator * d // x.denominator
    return w, d


def _mass(w: list[int]):
    """Event mask -> summed weight of its configurations, read eight
    configurations at a time from subset-sum tables."""
    tables = []
    for j in range(0, len(w), 8):
        sums = [0]
        for x in w[j:j + 8]:
            sums += [s + x for s in sums]
        tables.append(sums)
    return lambda event: sum(sums[event >> 8 * j & 255] for j, sums in enumerate(tables))


def stochastic_dominance(mu1: MeasureTable, mu2: MeasureTable):
    """True iff mu1(A) <= mu2(A) for every increasing event A.

    Returns (holds, witness); the witness is a violating event mask or None.
    """
    if mu1.space != mu2.space:
        raise ValueError("measures live on different spaces")
    m = mu1.space[1]
    (w1, d1), (w2, d2) = _weights(mu1), _weights(mu2)
    mass1, mass2 = _mass(w1), _mass(w2)
    for event in enumerate_increasing_events(m):
        if mass1(event) * d2 > mass2(event) * d1:
            return False, event
    return True, None


def comparison_check(g: Multigraph, p, q, p2, q2) -> dict:
    """Check the two stochastic comparison inequalities between phi_{p,q}
    and phi_{p',q'} wherever their hypotheses apply."""
    p, q, p2, q2 = (Fraction(v) for v in (p, q, p2, q2))
    mu = rc_measure_table(g, RCParams(p, q))
    mu2 = rc_measure_table(g, RCParams(p2, q2))
    results = {}
    if q2 >= q and q2 >= 1 and p2 <= p:
        holds, witness = stochastic_dominance(mu2, mu)  # phi_{p',q'} <= phi_{p,q}
        results["smaller"] = {"pass": holds, "witness": witness}
    if q2 >= q and q2 >= 1 and p2 / (q2 * (1 - p2)) >= p / (q * (1 - p)):
        holds, witness = stochastic_dominance(mu, mu2)  # phi_{p',q'} >= phi_{p,q}
        results["larger"] = {"pass": holds, "witness": witness}
    if not results:
        raise ValueError("parameter pair satisfies neither comparison hypothesis")
    return {
        "identity": "comparison",
        "params": [str(p), str(q), str(p2), str(q2)],
        "checks": results,
        "instances": len(results),
        "pass": all(r["pass"] for r in results.values()),
    }


def fkg_check(g: Multigraph, p, q, n_function_pairs: int = 100, seed: int = 0) -> dict:
    """Positive association sweep: phi(A and B) >= phi(A) phi(B) over every
    pair of increasing events, plus random increasing-function spot checks.

    Proven for q >= 1; for q < 1 this is a counterexample search and any
    find is reported as a witness.
    """
    p, q = Fraction(p), Fraction(q)
    w, d = _weights(rc_measure_table(g, RCParams(p, q)))
    events = enumerate_increasing_events(g.m)
    weight = dict(zip(events, map(_mass(w), events)))  # closed under A and B
    violations = []
    for i, a in enumerate(events):
        wa = weight[a]
        for b in events[i:]:
            if d * weight[a & b] < wa * weight[b]:
                violations.append({"A": a, "B": b})
    # random increasing functions f = sum c 1_A: E f = sum c W(A) / d and
    # E fh = sum c c' W(A and B) / d, so the weights above serve every pair
    rng = make_rng(seed)
    func_viol = 0
    for _ in range(n_function_pairs):
        f = _random_increasing_function(events, rng)
        h = _random_increasing_function(events, rng)
        e_f = sum(c * weight[a] for a, c in f)
        e_h = sum(c * weight[b] for b, c in h)
        e_fh = sum(c * k * weight[a & b] for a, c in f for b, k in h)
        if d * e_fh < e_f * e_h:
            func_viol += 1
    return {
        "identity": "fkg",
        "params": [str(p), str(q)],
        "instances": len(events) * (len(events) + 1) // 2 + n_function_pairs,
        "event_violations": violations[:10],
        "function_violations": func_viol,
        "pass": not violations and func_viol == 0,
    }


def _random_increasing_function(events: list[int], rng) -> list[tuple[int, Fraction]]:
    """A random monotone function as a positive combination of up-set
    indicators, given as its (up-set, coefficient) terms."""
    return [
        (events[int(rng.integers(0, len(events)))],
         Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 10))))
        for _ in range(int(rng.integers(1, 4)))
    ]


# ---------------------------------------------------------------------------
# Disjoint occurrence and negative association.

# _LOW[m][i]: the configurations of the m-cube with coordinate i closed
_LOW = [[sum(1 << c for c in range(1 << m) if not c >> i & 1) for i in range(m)]
        for m in range(UPSET_EDGE_CAP + 1)]


def _inside_table(event: int, m: int) -> list[int]:
    """ins[K]: the configurations omega whose cylinder {omega' = omega on the
    edge set K} lies inside the event.  Freeing an edge i of K splits the
    cylinder in two, so ins[K - i] = ins[K] & (ins[K] with bit i flipped)."""
    n = 1 << m
    ins = [0] * (n - 1) + [event & ((1 << n) - 1)]
    for k in range(n - 2, -1, -1):
        i = (~k & (n - 1)).bit_length() - 1  # an edge outside K
        up, low, shift = ins[k | 1 << i], _LOW[m][i], 1 << i
        ins[k] = up & ((up & low) << shift | (up >> shift) & low)
    return ins


def _box(ins_a: list[int], ins_b: list[int]) -> int:
    """A box B: the union over K of ins_A[K] and ins_B[complement of K]."""
    return reduce(or_, map(and_, ins_a, reversed(ins_b)))


def box_product(a: int, b: int, m: int) -> int:
    """The disjoint-occurrence event A box B: configurations admitting
    disjoint certificate edge sets for A and for B."""
    _check_event_cap(m)
    return _box(_inside_table(a, m), _inside_table(b, m))


def _na_witness(w: list[int], d: int, m: int):
    """The first up-set pair, A on edges F and B on the rest R, over splits
    and up-sets in order, with d W(A and B) > W(A) W(B), lifted to the full
    cube; None if there is none.  Each split sorts the weights into one
    column over the F-subcube per R-configuration, so the column masses of
    A are the weights over R where A holds."""
    cube = range(1 << m)
    for r in range(m + 1):
        for coords in combinations(range(m), r):
            rest = tuple(i for i in range(m) if i not in coords)
            ups_r = enumerate_increasing_events(len(rest))
            # each configuration's index in the F- and in the R-subcube
            proj_f, proj_r = ([sum((c >> i & 1) << j for j, i in enumerate(on)) for c in cube]
                              for on in (coords, rest))
            cols = [[0] * (1 << r) for _ in range(1 << len(rest))]
            for c in cube:
                cols[proj_r[c]][proj_f[c]] += w[c]
            col_mass = [_mass(col) for col in cols]
            weight_r = list(map(_mass([sum(col) for col in cols]), ups_r))
            for a in enumerate_increasing_events(r):
                on_a = [mass(a) for mass in col_mass]
                wa, mass_a = sum(on_a), _mass(on_a)
                for b, wb in zip(ups_r, weight_r):
                    if d * mass_a(b) > wa * wb:
                        return tuple(sum(1 << c for c in cube if e >> proj[c] & 1)
                                     for e, proj in ((a, proj_f), (b, proj_r)))
    return None


def negative_association_checks(
    table: MeasureTable,
    doc_pair_budget: int = 2000,
    seed: int = 0,
    include_doc: bool = True,
) -> dict:
    """Evaluate the three negative-association notions on one measure.

    (a) edge NA over all edge pairs; (b) NA over all increasing pairs living
    on complementary coordinate sets; (c) the disjoint-occurrence property
    over event pairs -- exhaustive up to 3 edges, seeded random pairs beyond
    that (coverage is reported; the implication chain (c) => (b) => (a) is
    asserted only on exhaustive results).
    """
    m = table.space[1]
    w, d = _weights(table)

    # (a) edge negative association
    edge = negative_association_checks_edge_only(table)
    edge_na, edge_witness = edge["edge_na"], edge["witness"]

    # (b) negative association: increasing A on F, increasing B on complement
    na_witness = _na_witness(w, d, m)
    na = na_witness is None

    # (c) disjoint occurrence property
    n_events = 1 << (1 << m)
    doc_exhaustive = include_doc and m <= 3
    if not include_doc:
        pairs, n_pairs = (), 0
    elif doc_exhaustive:
        pairs = ((a, b) for a in range(n_events) for b in range(a, n_events))
        n_pairs = n_events * (n_events + 1) // 2
    else:
        rng = make_rng(seed)
        pairs = (
            (int(rng.integers(0, n_events)), int(rng.integers(0, n_events)))
            for _ in range(doc_pair_budget)
        )
        n_pairs = doc_pair_budget
    mass = _mass(w)
    algebra = lru_cache(maxsize=None)(lambda e: (_inside_table(e, m), mass(e)))
    doc_witness = None
    for a, b in pairs:
        (ins_a, wa), (ins_b, wb) = algebra(a), algebra(b)
        if d * mass(_box(ins_a, ins_b)) > wa * wb:
            doc_witness = (a, b)
            break
    doc = doc_witness is None if include_doc else None

    # (c) => (b) is asserted only where the DOC scan was exhaustive
    chain_ok = (not na or edge_na) and (not doc_exhaustive or not doc or na)

    return {
        "identity": "negative-association",
        "edge_na": edge_na,
        "na": na,
        "disjoint_occurrence": doc,
        "doc_exhaustive": doc_exhaustive,
        "doc_pairs_checked": n_pairs,
        "witnesses": {
            "edge_na": edge_witness,
            "na": na_witness,
            "disjoint_occurrence": doc_witness,
        },
        "implication_chain_ok": chain_ok,
        "pass": chain_ok,
    }


# ---------------------------------------------------------------------------
# q -> 0 limit measures.

def uniform_substructure_measure(g: Multigraph, kind: str) -> MeasureTable:
    """Uniform measure on spanning trees, forests, or connected spanning
    subgraphs, as subsets of the bond space."""
    if kind in ("spanning-tree", "connected-subgraph") and not is_connected(g):
        raise ValueError(f"{kind} measure needs a connected graph")
    if kind == "spanning-tree":
        ok = lambda size, k: k == 1 and size == g.n - 1
    elif kind == "forest":
        ok = lambda size, k: size == g.n - k  # co-rank 0
    elif kind == "connected-subgraph":
        ok = lambda size, k: k == 1
    else:
        raise ValueError(f"unknown kind {kind!r}")
    _check_cap(g.m, DEFAULT_ENUM_CAP)
    support = [a for a, k, _ in edge_subsets(g) if ok(a.bit_count(), k)]
    w = Fraction(1, len(support))
    return MeasureTable(("bond", g.m), {a: w for a in support})


def total_variation(mu1: MeasureTable, mu2: MeasureTable) -> Fraction:
    if mu1.space != mu2.space:
        raise ValueError("measures live on different spaces")
    (w1, d1), (w2, d2) = _weights(mu1), _weights(mu2)
    return Fraction(sum(abs(x * d2 - y * d1) for x, y in zip(w1, w2)), 2 * d1 * d2)


REGIME_TARGET = {
    "ucs": "connected-subgraph",
    "ust": "spanning-tree",
    "usf": "forest",
}


def regime_schedule(regime: str, q_values=None) -> list[tuple[Fraction, Fraction]]:
    """(p, q) path along which phi_{p,q} converges to the regime's target.

    ucs: p = 1/2; usf: p = q; ust: p = sqrt(q) (any path with p -> 0 and
    q/p -> 0 works; sqrt keeps everything rational when q is 10^-2k).
    """
    if regime == "ust":
        qs = q_values or [Fraction(1, 10**k) for k in (2, 4, 6)]
        return [(_exact_sqrt(q), q) for q in qs]
    qs = q_values or [Fraction(1, 10**k) for k in range(1, 7)]
    if regime == "ucs":
        return [(Fraction(1, 2), q) for q in qs]
    if regime == "usf":
        return [(q, q) for q in qs]
    raise ValueError(f"unknown regime {regime!r}")


def _exact_sqrt(q: Fraction) -> Fraction:
    from math import isqrt

    num, den = isqrt(q.numerator), isqrt(q.denominator)
    if Fraction(num, den) ** 2 != q:
        raise ValueError(f"sqrt({q}) is not rational; pick q = 10^-2k for ust")
    return Fraction(num, den)


def q_to_zero_limit_check(
    g: Multigraph, regime: str, q_values=None, final_tv: Fraction | float = Fraction(1, 1000)
) -> dict:
    """Total-variation distance from phi_{p,q} to the regime's uniform target
    along the schedule; the trend must be monotone to zero.

    Passes when the trend is monotone and the exact final TV is below
    ``final_tv``, a ``Fraction`` (or a float, compared at its exact value).
    """
    target = uniform_substructure_measure(g, REGIME_TARGET[regime])
    tvs = []
    schedule = regime_schedule(regime, q_values)
    for p, q in schedule:
        mu = rc_measure_table(g, RCParams(p, q))
        tvs.append(total_variation(mu, target))
    monotone = all(b <= a for a, b in zip(tvs, tvs[1:]))
    return {
        "identity": f"q-to-zero-{regime}",
        "schedule": [[str(p), str(q)] for p, q in schedule],
        "tv": [float(t) for t in tvs],
        "monotone": monotone,
        "instances": len(tvs),
        "pass": monotone and tvs[-1] < final_tv,
    }


def ust_feder_mihail_check(g: Multigraph) -> dict:
    """Negative association of the uniform spanning tree: the full NA check
    up to 5 edges, edge-NA only beyond that."""
    ust = uniform_substructure_measure(g, "spanning-tree")
    if g.m <= UPSET_EDGE_CAP:
        report = negative_association_checks(ust, include_doc=False)
        ok = report["na"] and report["edge_na"]
        mode = "full-na"
    else:
        report = negative_association_checks_edge_only(ust)
        ok = report["edge_na"]
        mode = "edge-na-only"
    return {
        "identity": "ust-feder-mihail",
        "mode": mode,
        "detail": report,
        "instances": 1,
        "pass": ok,
    }


def negative_association_checks_edge_only(table: MeasureTable) -> dict:
    m = table.space[1]
    w, d = _weights(table)
    support = [(a, x) for a, x in enumerate(w) if x]
    weight = lambda edges: sum(x for a, x in support if a & edges == edges)
    for e, f in combinations(range(m), 2):
        if d * weight(1 << e | 1 << f) > weight(1 << e) * weight(1 << f):
            return {"edge_na": False, "witness": (e, f)}
    return {"edge_na": True, "witness": None}


def conjecture_forest_scan(graphs, full_na_cap: int = UPSET_EDGE_CAP) -> dict:
    """Edge-NA (and full NA where feasible) scan of the uniform forest and
    uniform connected-subgraph measures over a graph family.

    Both properties are conjectural; the scan reports witnesses and never
    asserts the conjecture.
    """
    witnesses = []
    scanned = 0
    for g in graphs:
        scanned += 1
        for kind in ("forest", "connected-subgraph"):
            if kind == "connected-subgraph" and not is_connected(g):
                continue
            table = uniform_substructure_measure(g, kind)
            found = {"edge-na": negative_association_checks_edge_only(table)["witness"]}
            if g.m <= full_na_cap:
                rep = negative_association_checks(table, include_doc=False)
                found["na"] = rep["witnesses"]["na"]
            for check, witness in found.items():
                if witness is not None:
                    graph = {"n": g.n, "edges": [list(e) for e in g.edges]}
                    witnesses.append({"kind": kind, "check": check, "graph": graph, "witness": witness})
    return {
        "identity": "forest-ucs-conjecture-scan",
        "graphs_scanned": scanned,
        "witnesses": witnesses,
        "instances": scanned,
        "informational": True,
        "pass": True,  # conjecture scans never gate
        "counterexamples_found": len(witnesses),
    }
