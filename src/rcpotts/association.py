"""Stochastic ordering, FKG positive association, the three negative
association notions with the disjoint-occurrence operator, and the q -> 0
limit measures (uniform spanning tree / forest / connected subgraph).

Events over the bond space {0,1}^E are encoded as bitmasks over the 2^|E|
configurations (configuration ``a`` is in event ``A`` iff bit ``a`` of the
event mask is set).  All probabilities are exact rationals, so a reported
inequality violation is a genuine witness, never float noise.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .graphs import Multigraph, edge_subsets, is_connected
from .measures import MeasureTable, RCParams, rc_measure_table
from .coupling import make_rng

UPSET_EDGE_CAP = 5  # Dedekind numbers blow up past the 5-cube (7581 up-sets)


def enumerate_increasing_events(m: int) -> list[int]:
    """All up-sets of the m-cube as event bitmasks (Dedekind enumeration).

    Splitting on the last coordinate, an up-set of the m-cube is a pair of
    up-sets (A0, A1) of the (m-1)-cube with A0 a subset of A1.
    """
    if m < 0 or m > UPSET_EDGE_CAP:
        raise ValueError(f"up-set enumeration supported for 0 <= m <= {UPSET_EDGE_CAP}")
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


def measure_vector(table: MeasureTable) -> list[Fraction]:
    """Bond-space MeasureTable as a dense vector indexed by configuration."""
    kind, m = table.space[0], table.space[1]
    if kind != "bond":
        raise ValueError("expected a bond-space measure")
    return [table.probs.get(a, Fraction(0)) for a in range(1 << m)]


def event_prob(mu: list[Fraction], event: int) -> Fraction:
    total = Fraction(0)
    a = 0
    while event:
        if event & 1:
            total += mu[a]
        event >>= 1
        a += 1
    return total


def stochastic_dominance(mu1: MeasureTable, mu2: MeasureTable):
    """True iff mu1(A) <= mu2(A) for every increasing event A.

    Returns (holds, witness); the witness is a violating event mask or None.
    """
    if mu1.space != mu2.space:
        raise ValueError("measures live on different spaces")
    m = mu1.space[1]
    v1, v2 = measure_vector(mu1), measure_vector(mu2)
    for event in enumerate_increasing_events(m):
        if event_prob(v1, event) > event_prob(v2, event):
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
    mu = measure_vector(rc_measure_table(g, RCParams(p, q)))
    events = enumerate_increasing_events(g.m)
    probs = {a: event_prob(mu, a) for a in events}
    violations = []
    for i, a in enumerate(events):
        pa = probs[a]
        for b in events[i:]:
            if probs[a & b] < pa * probs[b]:
                violations.append({"A": a, "B": b})
    # random increasing functions: positive combinations of up-set indicators
    rng = make_rng(seed)
    func_viol = 0
    for _ in range(n_function_pairs):
        f = _random_increasing_function(events, rng)
        h = _random_increasing_function(events, rng)
        e_f = sum(f[a] * mu[a] for a in range(len(mu)))
        e_h = sum(h[a] * mu[a] for a in range(len(mu)))
        e_fh = sum(f[a] * h[a] * mu[a] for a in range(len(mu)))
        if e_fh < e_f * e_h:
            func_viol += 1
    return {
        "identity": "fkg",
        "params": [str(p), str(q)],
        "instances": len(events) * (len(events) + 1) // 2 + n_function_pairs,
        "event_violations": violations[:10],
        "function_violations": func_viol,
        "pass": not violations and func_viol == 0,
    }


def _random_increasing_function(events: list[int], rng) -> list[Fraction]:
    """A random monotone function as a positive combination of up-set
    indicators, tabulated per configuration."""
    n_terms = int(rng.integers(1, 4))
    m_cfgs = max(events).bit_length()
    values = [Fraction(0)] * m_cfgs
    for _ in range(n_terms):
        a = events[int(rng.integers(0, len(events)))]
        c = Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 10)))
        for cfg in range(m_cfgs):
            if a >> cfg & 1:
                values[cfg] += c
    return values


# ---------------------------------------------------------------------------
# Disjoint occurrence and negative association.

def _cylinder_inside(event: int, omega: int, fixed: int, m: int) -> bool:
    """Does the cylinder {omega' : omega' = omega on fixed} sit inside event?"""
    free = [i for i in range(m) if not fixed >> i & 1]
    base = omega & fixed
    for t in range(1 << len(free)):
        cfg = base
        for pos, i in enumerate(free):
            if t >> pos & 1:
                cfg |= 1 << i
        if not event >> cfg & 1:
            return False
    return True


def box_product(a: int, b: int, m: int) -> int:
    """The disjoint-occurrence event A box B: configurations admitting
    disjoint certificate edge sets for A and for B."""
    full = (1 << m) - 1
    out = 0
    for omega in range(1 << m):
        for fixed in range(1 << m):
            if _cylinder_inside(a, omega, fixed, m) and _cylinder_inside(
                b, omega, full & ~fixed, m
            ):
                out |= 1 << omega
                break
    return out


def _event_defined_on(event_sub: int, coords: tuple, m: int) -> int:
    """Lift an event over the subcube on ``coords`` to the full cube."""
    out = 0
    for cfg in range(1 << m):
        sub = 0
        for pos, i in enumerate(coords):
            if cfg >> i & 1:
                sub |= 1 << pos
        if event_sub >> sub & 1:
            out |= 1 << cfg
    return out


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
    mu = measure_vector(table)

    # (a) edge negative association
    edge = negative_association_checks_edge_only(table)
    edge_na, edge_witness = edge["edge_na"], edge["witness"]

    # (b) negative association: increasing A on F, increasing B on complement
    na = True
    na_witness = None
    for r in range(m + 1):
        for coords in combinations(range(m), r):
            rest = tuple(i for i in range(m) if i not in coords)
            ups_f = enumerate_increasing_events(len(coords))
            ups_r = enumerate_increasing_events(len(rest))
            lifted_f = [_event_defined_on(a, coords, m) for a in ups_f]
            lifted_r = [_event_defined_on(b, rest, m) for b in ups_r]
            for a in lifted_f:
                pa = event_prob(mu, a)
                for b in lifted_r:
                    if event_prob(mu, a & b) > pa * event_prob(mu, b):
                        na, na_witness = False, (a, b)
                        break
                if not na:
                    break
            if not na:
                break
        if not na:
            break

    # (c) disjoint occurrence property
    n_events = 1 << (1 << m)
    doc = True
    doc_witness = None
    doc_exhaustive = include_doc and m <= 3
    n_pairs = 0
    if not include_doc:
        doc = None
        pairs = ()
    elif doc_exhaustive:
        pairs = (
            (a, b) for a in range(n_events) for b in range(a, n_events)
        )
        n_pairs = n_events * (n_events + 1) // 2
    else:
        rng = make_rng(seed)
        pairs = (
            (int(rng.integers(0, n_events)), int(rng.integers(0, n_events)))
            for _ in range(doc_pair_budget)
        )
        n_pairs = doc_pair_budget
    for a, b in pairs:
        ab = box_product(a, b, m)
        if event_prob(mu, ab) > event_prob(mu, a) * event_prob(mu, b):
            doc, doc_witness = False, (a, b)
            break

    if doc_exhaustive:
        chain_ok = (not doc or na) and (not na or edge_na)
    else:
        chain_ok = not na or edge_na

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
    support = [a for a, k, _ in edge_subsets(g) if ok(a.bit_count(), k)]
    w = Fraction(1, len(support))
    return MeasureTable(("bond", g.m), {a: w for a in support})


def total_variation(mu1: MeasureTable, mu2: MeasureTable) -> Fraction:
    keys = set(mu1.probs) | set(mu2.probs)
    return sum(
        abs(mu1.probs.get(k, Fraction(0)) - mu2.probs.get(k, Fraction(0)))
        for k in keys
    ) / 2


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
    mu = measure_vector(table)
    for e, f in combinations(range(m), 2):
        je = sum(mu[a] for a in range(1 << m) if a >> e & 1)
        jf = sum(mu[a] for a in range(1 << m) if a >> f & 1)
        jef = sum(mu[a] for a in range(1 << m) if a >> e & 1 and a >> f & 1)
        if jef > je * jf:
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
            edge = negative_association_checks_edge_only(table)
            if not edge["edge_na"]:
                witnesses.append(
                    {
                        "kind": kind,
                        "check": "edge-na",
                        "graph": {"n": g.n, "edges": [list(e) for e in g.edges]},
                        "witness": edge["witness"],
                    }
                )
            if g.m <= full_na_cap:
                rep = negative_association_checks(table, include_doc=False)
                if not rep["na"]:
                    witnesses.append(
                        {
                            "kind": kind,
                            "check": "na",
                            "graph": {"n": g.n, "edges": [list(e) for e in g.edges]},
                            "witness": rep["witnesses"]["na"],
                        }
                    )
    return {
        "identity": "forest-ucs-conjecture-scan",
        "graphs_scanned": scanned,
        "witnesses": witnesses,
        "instances": scanned,
        "informational": True,
        "pass": True,  # conjecture scans never gate
        "counterexamples_found": len(witnesses),
    }
