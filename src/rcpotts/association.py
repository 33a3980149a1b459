"""Stochastic ordering, FKG positive association, the three negative
association notions with the disjoint-occurrence operator, and the q -> 0
limit measures (uniform spanning tree / forest / connected subgraph).

Events over the bond space {0,1}^E are encoded as bitmasks over the 2^|E|
configurations (configuration ``a`` is in event ``A`` iff bit ``a`` of the
event mask is set).  A measure is read as the integer weights its table
keeps over the least common denominator d of its probabilities, and
P(A and B) <= P(A) P(B) is tested in integers as d W(A and B) <= W(A) W(B),
so every check is exact and a reported violation is a genuine witness,
never float noise.

Every event-pair question is answered in numpy blocks of at most
``_PAIR_BLOCK`` pairs, scanned in a fixed pair order, so the first witness
and every seeded draw are those of a pair-by-pair scan.  Each mass is at
most d, so the weights are ``int64`` while d < 2^31 (every product of two
masses then stays below 2^62) and Python ints in an object array beyond.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import isqrt, lcm

import numpy as np

from .graphs import Multigraph, check_budget, edge_subsets, is_connected, subset_size_components, to_json_dict
from .measures import MeasureTable, RCParams, rc_measure_table
from .coupling import make_rng

UPSET_EDGE_CAP = 5  # Dedekind numbers blow up past the 5-cube (7581 up-sets)
_PAIR_BLOCK = 1 << 11  # event pairs per numpy block: bounds memory, keeps the early exit


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


@cache
def _upsets(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The up-sets of the m-cube as an array of event masks in enumeration
    order, and their 0/1 indicator matrix over the configurations (both
    read-only)."""
    events = np.array(enumerate_increasing_events(m), dtype=np.int64)
    indicators = events[:, None] >> np.arange(1 << m) & 1
    events.flags.writeable = indicators.flags.writeable = False
    return events, indicators


def _weights(table: MeasureTable) -> tuple[np.ndarray, int]:
    """The table's own integer weights w over its denominator d: the
    probability of configuration a is w[a] / d.  ``int64`` while d < 2^31,
    so that d times a mass never overflows; Python ints beyond."""
    if table.space[0] != "bond":
        raise ValueError("expected a bond-space measure")
    w = np.zeros(1 << table.space[1], dtype=np.int64 if table.d.bit_length() <= 31 else object)
    w[list(table.probs)] = table.weights
    return w, table.d


def _mass_tables(w: np.ndarray) -> np.ndarray:
    """Subset-sum tables, one per eight configurations: row j, column v holds
    the summed weight of the configurations 8j + t over the bits t of v."""
    padded = np.concatenate([w, np.zeros(-len(w) % 8, dtype=w.dtype)])
    return padded.reshape(-1, 8) @ (np.arange(256) >> np.arange(8)[:, None] & 1)


def _masses(tables: np.ndarray, events: np.ndarray) -> np.ndarray:
    """The summed weight of each event of an array of event masks."""
    return sum(row[events >> 8 * j & 255] for j, row in enumerate(tables))


def _triangle_blocks(n: int):
    """The index pairs i <= j < n in row-major order, as arrays of at most
    ``_PAIR_BLOCK`` pairs.  Row i holds the flat indices from its offset
    i n - i (i - 1) / 2 on, so a block repeats each row it meets by the
    count of its flat indices in that row."""
    rows = np.arange(n + 1)
    offsets = rows * (2 * n - rows + 1) // 2  # offsets[n]: the pair count
    starts = offsets.tolist()
    for start in range(0, starts[-1], _PAIR_BLOCK):
        stop = min(start + _PAIR_BLOCK, starts[-1])
        r0, r1 = bisect_right(starts, start) - 1, bisect_left(starts, stop)  # the rows met
        i = np.repeat(rows[r0:r1], np.minimum(offsets[r0 + 1 : r1 + 1], stop) - np.maximum(offsets[r0:r1], start))
        yield i, i + np.arange(start, stop) - offsets[i]


def _first(bad: np.ndarray):
    """The index of the first True entry, or None."""
    hits = np.flatnonzero(bad)
    return int(hits[0]) if len(hits) else None


def stochastic_dominance(mu1: MeasureTable, mu2: MeasureTable):
    """True iff mu1(A) <= mu2(A) for every increasing event A.

    Returns (holds, witness); the witness is a violating event mask or None.
    """
    if mu1.space != mu2.space:
        raise ValueError("measures live on different spaces")
    (w1, d1), (w2, d2) = _weights(mu1), _weights(mu2)
    if w1.dtype != w2.dtype:
        w1, w2 = w1.astype(object), w2.astype(object)
    events, _ = _upsets(mu1.space[1])
    k = _first(_masses(_mass_tables(w1), events) * d2 > _masses(_mass_tables(w2), events) * d1)
    return (True, None) if k is None else (False, int(events[k]))


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

    The ``n_function_pairs`` spot checks are drawn only after the sweep has
    found a violation: once every pair of up-sets passes, no positive
    combination of their indicators can fail.  ``instances`` counts them
    either way, as implied by the sweep when they were not drawn.

    Proven for q >= 1; for q < 1 this is a counterexample search and any
    find is reported as a witness.
    """
    p, q = Fraction(p), Fraction(q)
    w, d = _weights(rc_measure_table(g, RCParams(p, q)))
    events, _ = _upsets(g.m)
    tables = _mass_tables(w)
    masses = _masses(tables, events)
    violations = []
    for i, j in _triangle_blocks(len(events)):
        hits = np.flatnonzero(d * _masses(tables, events[i] & events[j]) < masses[i] * masses[j])
        violations += [{"A": int(events[i[k]]), "B": int(events[j[k]])} for k in hits]
        if len(violations) >= 10:
            break
    # random increasing functions f = sum c 1_A: E f = sum c W(A) / d and
    # E fh = sum c c' W(A and B) / d, so the weights above serve every pair.
    # d E fh - E f E h sums c c' (d W(A and B) - W(A) W(B)) over positive
    # c c', so no function fails once every up-set pair passes: they are
    # drawn only after a violation.
    func_viol = 0
    if violations:
        ups = events.tolist()
        weight = dict(zip(ups, masses.tolist()))  # closed under A and B
        rng = make_rng(seed)
        for _ in range(n_function_pairs):
            f = _random_increasing_function(ups, rng)
            h = _random_increasing_function(ups, rng)
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
        "pass": not violations,
    }


def _random_increasing_function(events: list[int], rng) -> list[tuple[int, int]]:
    """A random monotone function as a positive combination of up-set
    indicators, given as its (up-set, coefficient) terms.  The coefficients
    are drawn as fractions and scaled by the lcm of their denominators: the
    FKG test d E[fh] >= E[f] E[h] is homogeneous in f, so its verdict stays."""
    terms = [
        (events[int(rng.integers(0, len(events)))], int(rng.integers(1, 10)), int(rng.integers(1, 10)))
        for _ in range(int(rng.integers(1, 4)))
    ]
    scale = lcm(*(den for _, _, den in terms))
    return [(a, num * scale // den) for a, num, den in terms]


# ---------------------------------------------------------------------------
# Disjoint occurrence and negative association.

# _LOW[m][i]: the configurations of the m-cube with coordinate i closed
_LOW = [[sum(1 << c for c in range(1 << m) if not c >> i & 1) for i in range(m)]
        for m in range(UPSET_EDGE_CAP + 1)]


def _inside_tables(events: np.ndarray, m: int) -> np.ndarray:
    """ins[K]: for each event of an array of event masks, the configurations
    omega whose cylinder {omega' = omega on the edge set K} lies inside the
    event.  Freeing an edge i of K splits the cylinder in two, so
    ins[K - i] = ins[K] & (ins[K] with bit i flipped)."""
    n = 1 << m
    # masks of at most 32 bits, shifted by at most 16: int64 holds them
    ins = np.empty((n,) + events.shape, dtype=np.int64)
    ins[n - 1] = events & (1 << n) - 1
    for k in range(n - 2, -1, -1):
        i = (~k & (n - 1)).bit_length() - 1  # an edge outside K
        up, low, shift = ins[k | 1 << i], _LOW[m][i], 1 << i
        ins[k] = up & ((up & low) << shift | (up >> shift) & low)
    return ins


def _box(pairs: np.ndarray, m: int) -> np.ndarray:
    """A box B for each column (A, B) of a 2 x k array of event pairs: the
    union over K of ins_A[K] and ins_B[complement of K]."""
    ins = _inside_tables(pairs, m)
    return np.bitwise_or.reduce(ins[:, 0] & ins[::-1, 1], axis=0)


def box_product(a: int, b: int, m: int) -> int:
    """The disjoint-occurrence event A box B: configurations admitting
    disjoint certificate edge sets for A and for B."""
    _check_event_cap(m)
    full = (1 << (1 << m)) - 1
    return int(_box(np.array([[a & full], [b & full]], dtype=np.int64), m)[0])


@cache
def _splits(m: int) -> list[np.ndarray]:
    """Per size r of the edge set F, every split (F, R) of the m edges in
    lexicographic order of F, as a read-only stack of 2^(m-r) x 2^r matrices:
    entry (rho, phi) of a split is the configuration whose R-part is the
    R-subcube configuration rho and whose F-part is phi."""
    cube = np.arange(1 << m)
    stacks = []
    for r in range(m + 1):
        cfgs = []
        for coords in combinations(range(m), r):
            order = list(coords) + [i for i in range(m) if i not in coords]
            cfg = np.empty_like(cube)
            cfg[(cube[:, None] >> np.array(order, dtype=int) & 1) @ (1 << np.arange(m))] = cube
            cfgs.append(cfg.reshape(1 << (m - r), 1 << r))
        stacks.append(np.stack(cfgs))
        stacks[-1].flags.writeable = False
    return stacks


def _na_witness(w: np.ndarray, d: int, m: int):
    """The first up-set pair, A on edges F and B on the rest R, over splits
    and up-sets in order, with d W(A and B) > W(A) W(B), lifted to the full
    cube; None if there is none.  A split M of the weights has one row per
    R- and one column per F-configuration; with the up-set indicator
    matrices I_F and I_R, W(A and B) is I_F M^T I_R^T, and W(A) and W(B) are
    its sums over all of R and all of F.  The splits of one size of F are
    scanned as one stack."""
    for r, cfgs in enumerate(_splits(m)):
        ind_f, ind_r = _upsets(r)[1], _upsets(m - r)[1]
        split = w[cfgs]
        on_a = ind_f @ split.transpose(0, 2, 1)  # W(A and omega_R = rho) per R-configuration rho
        w_ab = on_a @ ind_r.T
        w_a, w_b = on_a.sum(axis=2), split.sum(axis=2) @ ind_r.T
        k = _first(d * w_ab > w_a[:, :, None] * w_b[:, None, :])
        if k is not None:
            s, a, b = np.unravel_index(k, w_ab.shape)
            return tuple(sum(1 << c for c in cfg.ravel().tolist())
                         for cfg in (cfgs[s][:, ind_f[a] == 1], cfgs[s][ind_r[b] == 1]))
    return None


def _doc_pair_blocks(m: int, exhaustive: bool, budget: int, seed: int):
    """The DOC scan's event pairs as 2 x k blocks, one pair per column:
    every pair a <= b of the 2^(2^m) events in row-major order, or
    ``budget`` seeded pairs drawn a, b, a, b, ... from one stream."""
    n_events = 1 << (1 << m)
    if exhaustive:
        for i, j in _triangle_blocks(n_events):
            yield np.stack([i, j])
        return
    rng = make_rng(seed)
    for start in range(0, budget, _PAIR_BLOCK):
        draws = rng.integers(0, n_events, size=2 * min(_PAIR_BLOCK, budget - start))
        yield draws.reshape(-1, 2).T


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
    if doc_pair_budget < 0:
        raise ValueError(f"doc_pair_budget must be >= 0, got {doc_pair_budget}")
    m = table.space[1]
    w, d = _weights(table)

    # (a) edge negative association
    edge = negative_association_checks_edge_only(table)
    edge_na, edge_witness = edge["edge_na"], edge["witness"]

    # (b) negative association: increasing A on F, increasing B on complement
    na_witness = _na_witness(w, d, m)
    na = na_witness is None

    # (c) disjoint occurrence property
    doc_exhaustive = include_doc and m <= 3
    if not include_doc:
        n_pairs = 0
    elif doc_exhaustive:
        n_events = 1 << (1 << m)
        n_pairs = n_events * (n_events + 1) // 2
    else:
        n_pairs = doc_pair_budget
    doc_witness = None
    if include_doc:
        tables = _mass_tables(w)
        for pairs in _doc_pair_blocks(m, doc_exhaustive, n_pairs, seed):
            w_a, w_b = _masses(tables, pairs)
            k = _first(d * _masses(tables, _box(pairs, m)) > w_a * w_b)
            if k is not None:
                doc_witness = (int(pairs[0, k]), int(pairs[1, k]))
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
    check_budget("table", 1 << g.m)
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
    if mu1.space != mu2.space:
        raise ValueError("measures live on different spaces")
    (w1, d1), (w2, d2) = _weights(mu1), _weights(mu2)
    return Fraction(sum(abs(x * d2 - y * d1) for x, y in zip(w1.tolist(), w2.tolist())), 2 * d1 * d2)


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
    The ust regime converges only at rate sqrt(q): along p = sqrt(q) its TV is
    C_G sqrt(q) + O(q), C_G = (U + F2)/tau, with tau spanning trees, U connected
    spanning subgraphs with n edges and F2 two-tree spanning forests.  So it
    passes when the trend is monotone and the final TV is at most
    C_G sqrt(q_final), and ``final_tv`` does not apply.
    """
    target = uniform_substructure_measure(g, REGIME_TARGET[regime])
    tvs = []
    schedule = regime_schedule(regime, q_values)
    for p, q in schedule:
        mu = rc_measure_table(g, RCParams(p, q))
        tvs.append(total_variation(mu, target))
    monotone = all(b <= a for a, b in zip(tvs, tvs[1:]))
    if regime == "ust":
        c = subset_size_components(g)
        reached = tvs[-1] <= Fraction(c[g.n, 1] + c[g.n - 2, 2], c[g.n - 1, 1]) * schedule[-1][0]
    else:
        reached = tvs[-1] < final_tv
    return {
        "identity": f"q-to-zero-{regime}",
        "schedule": [[str(p), str(q)] for p, q in schedule],
        "tv": [float(t) for t in tvs],
        "monotone": monotone,
        "instances": len(tvs),
        "pass": monotone and reached,
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
    """The first edge pair (e, f) with d W(e and f open) > W(e open) W(f
    open), in the integer weights W over d that the table keeps."""
    if table.space[0] != "bond":
        raise ValueError("expected a bond-space measure")
    support = [(a, x) for a, x in zip(table.probs, table.weights) if x]
    weight = lambda edges: sum(x for a, x in support if a & edges == edges)
    for e, f in combinations(range(table.space[1]), 2):
        if table.d * weight(1 << e | 1 << f) > weight(1 << e) * weight(1 << f):
            return {"edge_na": False, "witness": (e, f)}
    return {"edge_na": True, "witness": None}


def conjecture_forest_scan(graphs, full_na_cap: int = UPSET_EDGE_CAP) -> dict:
    """Edge-NA (and full NA where feasible) scan of the uniform forest and
    uniform connected-subgraph measures over a family of connected graphs:
    a disconnected graph raises ValueError, as its connected-subgraph measure
    is empty.

    Both properties are conjectural; the scan reports witnesses and never
    asserts the conjecture.
    """
    witnesses = []
    scanned = 0
    for g in graphs:
        scanned += 1
        for kind in ("forest", "connected-subgraph"):
            table = uniform_substructure_measure(g, kind)
            if g.m <= full_na_cap:  # the full report carries the edge witness too
                rep = negative_association_checks(table, include_doc=False)["witnesses"]
                found = {"edge-na": rep["edge_na"], "na": rep["na"]}
            else:
                found = {"edge-na": negative_association_checks_edge_only(table)["witness"]}
            for check, witness in found.items():
                if witness is not None:
                    witnesses.append({"kind": kind, "check": check, "graph": to_json_dict(g), "witness": witness})
    return {
        "identity": "forest-ucs-conjecture-scan",
        "graphs_scanned": scanned,
        "witnesses": witnesses,
        "instances": scanned,
        "informational": True,
        "pass": True,  # conjecture scans never gate
        "counterexamples_found": len(witnesses),
    }
