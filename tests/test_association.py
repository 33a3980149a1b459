import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from rcpotts import association
from rcpotts.association import (
    box_product,
    comparison_check,
    conjecture_forest_scan,
    enumerate_increasing_events,
    fkg_check,
    negative_association_checks,
    negative_association_checks_edge_only,
    q_to_zero_limit_check,
    regime_schedule,
    stochastic_dominance,
    total_variation,
    uniform_substructure_measure,
    ust_feder_mihail_check,
)
from rcpotts.coupling import make_rng
from rcpotts.families import simple_graphs
from rcpotts.graphs import EnumerationCapExceeded, Multigraph, complete, cycle, path, triangle
from rcpotts.measures import MeasureTable, RCParams, rc_measure_table
from rcpotts.polynomials import count_spanning_trees

from .conftest import box_product_oracle, doc_scan_oracle, event_probability, fkg_sweep_oracle, na_split_oracle

F = Fraction

# number of up-sets of the m-cube, m = 0..5
DEDEKIND = [2, 3, 6, 20, 168, 7581]


class TestIncreasingEvents:
    @pytest.mark.parametrize("m", range(6))
    def test_counts(self, m):
        assert len(enumerate_increasing_events(m)) == DEDEKIND[m]

    def test_all_are_up_sets(self):
        m = 3
        for event in enumerate_increasing_events(m):
            for a in range(1 << m):
                if event >> a & 1:
                    for e in range(m):
                        assert event >> (a | 1 << e) & 1

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            enumerate_increasing_events(6)


class TestDominance:
    def test_bernoulli_ordering(self):
        g = Multigraph(2, ((0, 1),))
        lo = rc_measure_table(g, RCParams(F(1, 4), F(1)))
        hi = rc_measure_table(g, RCParams(F(3, 4), F(1)))
        holds, witness = stochastic_dominance(lo, hi)
        assert holds and witness is None

    def test_reverse_fails_with_witness(self):
        g = Multigraph(2, ((0, 1),))
        lo = rc_measure_table(g, RCParams(F(1, 4), F(1)))
        hi = rc_measure_table(g, RCParams(F(3, 4), F(1)))
        holds, witness = stochastic_dominance(hi, lo)
        assert (holds, witness) == (False, 0b10)  # the up-set {edge 0 open}

    def test_comparison_inequalities_sweep(self):
        for g in [triangle(), path(3), cycle(4)]:
            # raising q at fixed p lowers the measure
            rep = comparison_check(g, F(1, 2), F(1), F(1, 2), F(2))
            assert rep["pass"] and "smaller" in rep["checks"]
            # large enough p' triggers the opposite comparison
            rep = comparison_check(g, F(1, 2), F(1), F(5, 6), F(2))
            assert rep["pass"] and "larger" in rep["checks"]

    @pytest.mark.parametrize(("args", "side"), [((F(1, 2), F(1), F(1, 2), F(2)), "smaller"),
                                                ((F(1, 2), F(1), F(5, 6), F(2)), "larger")])
    def test_swapped_measures_fail_with_witness(self, monkeypatch, args, side):
        # negative control: handed each other's measures, the check reports
        # the comparison that no longer holds, with an up-set that breaks it
        assert comparison_check(triangle(), *args)["pass"]
        first, second = RCParams(*args[:2]), RCParams(*args[2:])
        swap = {first: second, second: first}
        measure = association.rc_measure_table
        monkeypatch.setattr(association, "rc_measure_table", lambda g, params: measure(g, swap[params]))
        report = comparison_check(triangle(), *args)
        assert report["pass"] is False and list(report["checks"]) == [side]
        assert report["checks"][side]["pass"] is False and isinstance(report["checks"][side]["witness"], int)

    def test_hypothesis_required(self):
        with pytest.raises(ValueError):
            comparison_check(triangle(), F(1, 2), F(2), F(1, 2), F(1))


class TestFkg:
    @pytest.mark.parametrize("q", [F(1), F(3, 2), F(2), F(3)])
    def test_holds_for_q_at_least_one(self, q):
        for g in [triangle(), path(3)]:
            for p in (F(1, 4), F(1, 2), F(3, 4)):
                assert fkg_check(g, p, q, n_function_pairs=20)["pass"]

    def test_violation_found_below_one(self):
        rep = fkg_check(triangle(), F(1, 2), F(1, 4), n_function_pairs=0)
        assert not rep["pass"] and rep["event_violations"]

    @pytest.mark.parametrize("seed, function_violations", [(0, 2), (1, 5), (3, 6)])
    def test_random_functions_golden(self, seed, function_violations):
        # pins the seeded draw of random increasing functions and their
        # exact expectations below q = 1, where some pairs violate FKG
        rep = fkg_check(triangle(), F(1, 2), F(1, 4), n_function_pairs=50, seed=seed)
        assert rep == {
            "identity": "fkg",
            "params": ["1/2", "1/4"],
            "instances": 20 * 21 // 2 + 50,
            "event_violations": [
                {"A": 136, "B": 224}, {"A": 136, "B": 240}, {"A": 160, "B": 200},
                {"A": 160, "B": 204}, {"A": 168, "B": 192}, {"A": 168, "B": 204},
                {"A": 168, "B": 240}, {"A": 170, "B": 192}, {"A": 170, "B": 200},
                {"A": 170, "B": 204},
            ],
            "function_violations": function_violations,
            "pass": False,
        }


    @pytest.mark.parametrize("g, p, q", [
        (triangle(), F(1, 2), F(1, 4)),
        (cycle(4), F(1, 3), F(1, 2)),
        (Multigraph(3, ((0, 1), (1, 2), (1, 2), (0, 0))), F(3, 4), F(1, 10**6)),  # d > 2^31
        (Multigraph(3, ((0, 1), (1, 2), (0, 2), (0, 2))), F(1, 1000), F(3, 2)),  # d > 2^31, no violation
    ])
    def test_sweep_matches_oracle(self, g, p, q):
        rep = fkg_check(g, p, q, n_function_pairs=0)
        table = rc_measure_table(g, RCParams(p, q))
        assert rep["event_violations"] == fkg_sweep_oracle(table, enumerate_increasing_events(g.m))
        assert rep["pass"] == (not rep["event_violations"])


@pytest.mark.parametrize("n", [0, 1, 2, 6, 64, 168, 256, 2048])
def test_triangle_blocks_are_the_row_major_pairs(n):
    # at n = 2048 the first block ends exactly where row 0 does
    blocks = list(association._triangle_blocks(n))
    assert all(0 < len(i) == len(j) <= association._PAIR_BLOCK for i, j in blocks)
    i, j = (np.concatenate([b[k] for b in blocks] or [np.zeros(0, int)]) for k in (0, 1))
    want_i, want_j = np.triu_indices(n)
    assert np.array_equal(i, want_i) and np.array_equal(j, want_j)


class TestBoxProduct:
    def test_subset_of_intersection(self):
        m = 3
        events = enumerate_increasing_events(m)
        for a in events[:10]:
            for b in events[:10]:
                ab = box_product(a, b, m)
                assert ab & ~(a & b) == 0

    def test_disjoint_single_edge_events(self):
        # A = {edge 0 open}, B = {edge 1 open} over m=2: certificates are
        # automatically disjoint, so A box B = A and B
        m = 2
        a = sum(1 << w for w in range(4) if w >> 0 & 1)
        b = sum(1 << w for w in range(4) if w >> 1 & 1)
        assert box_product(a, b, m) == a & b

    def test_same_edge_needs_two_certificates(self):
        # A = B = {edge 0 open} over m=1: no disjoint certificates exist
        a = 0b10
        assert box_product(a, a, 1) == 0

    def test_full_space_absorbs(self):
        m = 2
        full = (1 << (1 << m)) - 1
        a = sum(1 << w for w in range(4) if w >> 0 & 1)
        assert box_product(a, full, m) == a

    @pytest.mark.parametrize("m", range(3))
    def test_all_pairs_match_oracle(self, m):
        n_events = 1 << (1 << m)
        for a in range(n_events):
            for b in range(n_events):
                assert box_product(a, b, m) == box_product_oracle(a, b, m)

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_seeded_pairs_match_oracle(self, m):
        rng = random.Random(m)
        ups = enumerate_increasing_events(m)
        n_bits = 1 << m

        def draw(kind):
            if kind == 0:
                return rng.choice(ups)
            if kind == 1:
                return rng.getrandbits(n_bits)
            # dense masks, so that box products are rarely empty
            return rng.getrandbits(n_bits) | rng.getrandbits(n_bits) | rng.getrandbits(n_bits)

        for _ in range(40):
            a, b = draw(rng.randrange(3)), draw(rng.randrange(3))
            assert box_product(a, b, m) == box_product_oracle(a, b, m)

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            box_product(0, 0, 6)


class TestNegativeAssociation:
    def test_product_measure_has_doc(self):
        g = Multigraph(3, ((0, 1), (1, 2)))
        mu = rc_measure_table(g, RCParams(F(1, 3), F(1)))
        rep = negative_association_checks(mu)
        assert rep["doc_exhaustive"]
        assert rep["edge_na"] and rep["na"] and rep["disjoint_occurrence"]
        assert rep["pass"]

    def test_q_two_positively_correlated_edges(self):
        mu = rc_measure_table(triangle(), RCParams(F(1, 2), F(2)))
        rep = negative_association_checks(mu)
        # q > 1 random-cluster measures are positively associated, so all
        # three negative notions fail, but the implication chain must hold
        assert not rep["edge_na"] and not rep["na"]
        assert rep["implication_chain_ok"] and rep["pass"]

    @pytest.mark.parametrize(
        "q, edge_na, na, witnesses",
        [
            (F(2), False, False, {"edge_na": (0, 1), "na": (170, 192), "disjoint_occurrence": (3, 85)}),
            (F(1, 2), True, True, {"edge_na": None, "na": None, "disjoint_occurrence": (3, 170)}),
        ],
    )
    def test_golden_report_triangle(self, q, edge_na, na, witnesses):
        rep = negative_association_checks(rc_measure_table(triangle(), RCParams(F(1, 2), q)))
        assert rep == {
            "identity": "negative-association",
            "edge_na": edge_na,
            "na": na,
            "disjoint_occurrence": False,
            "doc_exhaustive": True,
            "doc_pairs_checked": 256 * 257 // 2,
            "witnesses": witnesses,
            "implication_chain_ok": True,
            "pass": True,
        }

    def test_include_doc_false_skips(self):
        mu = rc_measure_table(triangle(), RCParams(F(1, 2), F(2)))
        rep = negative_association_checks(mu, include_doc=False)
        assert rep["disjoint_occurrence"] is None

    def test_edge_only_agrees_with_full(self):
        mu = rc_measure_table(triangle(), RCParams(F(1, 2), F(2)))
        assert (
            negative_association_checks_edge_only(mu)["edge_na"]
            == negative_association_checks(mu, include_doc=False)["edge_na"]
        )

    def test_chain_fails_when_edge_na_breaks(self, monkeypatch):
        # a known-false control: on the triangle at (1/2, 1/2) NA holds, so
        # an edge-NA verdict forced False breaks NA => edge NA
        mu = rc_measure_table(triangle(), RCParams(F(1, 2), F(1, 2)))
        assert negative_association_checks(mu)["pass"]
        monkeypatch.setattr(association, "negative_association_checks_edge_only",
                            lambda table: {"edge_na": False, "witness": (0, 1)})
        report = negative_association_checks(mu)
        assert report["na"] and not report["edge_na"]
        assert report["implication_chain_ok"] is False and report["pass"] is False

    def test_weights_built_once(self, monkeypatch):
        calls = []
        weights = association._weights
        monkeypatch.setattr(association, "_weights", lambda table: calls.append(table) or weights(table))
        negative_association_checks(rc_measure_table(triangle(), RCParams(F(1, 2), F(2))))
        assert len(calls) == 1


# (graph, p, q, DOC seed) at m <= 4, with the bit length of d.  The 4-edge
# seeds put a DOC witness among the first dozen seeded pairs, where the
# definition-level oracle reaches it.
ORACLE_CASES = [
    (triangle(), F(1, 2), F(2), 0),  # 4 bits
    (triangle(), F(1, 2), F(1, 2), 0),  # 5 bits
    (path(3), F(1, 3), F(1), 0),  # 4 bits
    (Multigraph(2, ((0, 1),) * 3), F(1, 1000), F(2), 0),  # 31 bits, the last on int64
    (triangle(), F(1, 1000), F(1, 10**6), 0),  # 52 bits
    (Multigraph(2, ((0, 1), (0, 1))), F(1, 1000), F(1, 10**6), 0),  # 31 bits
    (Multigraph(4, ((0, 1), (0, 3), (1, 3), (1, 2))), F(3, 4), F(1, 10**6), 1814177932),  # 68 bits
    (Multigraph(3, ((1, 2), (0, 1), (2, 2), (1, 2))), F(1, 3), F(1, 10**6), 1924404790),  # 41 bits
]

# Bond measures on 2 edges over d = 2^31 - 1, the largest int64 denominator,
# and over d = 2^31, the smallest object one; weights of about d/3, so the
# products compared are near 2^62.
INT64_BOUNDARY_CASES = [
    MeasureTable(("bond", 2), {0: F(1, d), 1: F(k, d), 2: F(k + 2, d), 3: F(d - 2 * k - 3, d)})
    for d, k in ((2**31 - 1, 715827882), (2**31, 715827883))
]


def _report_from_oracles(table, budget, seed):
    m = table.space[1]
    n_events = 1 << (1 << m)
    if m <= 3:
        pairs = ((a, b) for a in range(n_events) for b in range(a, n_events))
        n_pairs = n_events * (n_events + 1) // 2
    else:
        rng = make_rng(seed)
        pairs = ((int(rng.integers(0, n_events)), int(rng.integers(0, n_events))) for _ in range(budget))
        n_pairs = budget
    p = lambda edges: event_probability(table, sum(1 << a for a in range(1 << m) if a & edges == edges))
    edge_witness = next(((e, f) for e in range(m) for f in range(e + 1, m)
                         if p(1 << e | 1 << f) > p(1 << e) * p(1 << f)), None)
    na_witness = na_split_oracle(table, m, enumerate_increasing_events)
    doc_witness = doc_scan_oracle(table, m, pairs)
    edge_na, na, doc = edge_witness is None, na_witness is None, doc_witness is None
    chain_ok = (not na or edge_na) and (m > 3 or not doc or na)
    return {
        "identity": "negative-association",
        "edge_na": edge_na,
        "na": na,
        "disjoint_occurrence": doc,
        "doc_exhaustive": m <= 3,
        "doc_pairs_checked": n_pairs,
        "witnesses": {"edge_na": edge_witness, "na": na_witness, "disjoint_occurrence": doc_witness},
        "implication_chain_ok": chain_ok,
        "pass": chain_ok,
    }


class TestNegativeAssociationOracles:
    @pytest.mark.parametrize("g, p, q, seed", ORACLE_CASES)
    def test_report_matches_oracles(self, g, p, q, seed):
        table = rc_measure_table(g, RCParams(p, q))
        rep = negative_association_checks(table, doc_pair_budget=400, seed=seed)
        assert rep == _report_from_oracles(table, 400, seed)

    @pytest.mark.parametrize("table", INT64_BOUNDARY_CASES)
    def test_int64_boundary_matches_oracles(self, table):
        assert negative_association_checks(table) == _report_from_oracles(table, 0, 0)

    @pytest.mark.parametrize(("table", "dtype"), zip(INT64_BOUNDARY_CASES, (np.int64, object)))
    def test_weights_are_the_tables_own(self, table, dtype):
        # int64 below d = 2^31 and Python ints from it on, each w[a] / d the
        # probability of configuration a
        w, d = association._weights(table)
        assert w.dtype == dtype and d == table.d
        assert [F(x, d) for x in w.tolist()] == list(table.probs.values())
        assert all(type(x) is int for x in w.tolist())

    def test_negative_doc_budget_rejected(self):
        table = uniform_substructure_measure(cycle(4), "spanning-tree")
        with pytest.raises(ValueError, match="doc_pair_budget"):
            negative_association_checks(table, doc_pair_budget=-5)

    @pytest.mark.parametrize("n", [1 << 16, 1 << 32])
    def test_block_draws_continue_the_scalar_stream(self, n):
        # the seeded DOC pairs of 4 and 5 edges are drawn in blocks; they
        # must be the pairs that one scalar draw at a time gives
        rng = make_rng(7)
        scalar = [int(rng.integers(0, n)) for _ in range(2 * 700)]
        rng = make_rng(7)
        blocks = [rng.integers(0, n, size=k) for k in (2, 398, 1000)]
        assert [int(x) for block in blocks for x in block] == scalar


class TestLimitMeasures:
    def test_ust_support_size(self):
        t = uniform_substructure_measure(cycle(4), "spanning-tree")
        assert len(t.probs) == count_spanning_trees(cycle(4)) == 4

    def test_forest_support_triangle(self):
        t = uniform_substructure_measure(triangle(), "forest")
        assert len(t.probs) == 7  # empty, 3 single edges, 3 pairs

    def test_connected_subgraph_support_triangle(self):
        t = uniform_substructure_measure(triangle(), "connected-subgraph")
        assert len(t.probs) == 4  # the 3 spanning trees and the full triangle

    def test_disconnected_rejected_for_ust(self):
        with pytest.raises(ValueError):
            uniform_substructure_measure(Multigraph(3, ((0, 1),)), "spanning-tree")

    def test_cap_enforced(self):
        with pytest.raises(EnumerationCapExceeded):
            uniform_substructure_measure(complete(8), "spanning-tree")  # 2^28 subsets

    def test_total_variation_bounds(self):
        a = uniform_substructure_measure(triangle(), "spanning-tree")
        b = uniform_substructure_measure(triangle(), "forest")
        tv = total_variation(a, b)
        assert 0 < tv < 1
        assert total_variation(a, a) == 0


class TestQToZero:
    def test_ucs_limit(self):
        rep = q_to_zero_limit_check(triangle(), "ucs")
        assert rep["pass"]

    def test_usf_limit(self):
        rep = q_to_zero_limit_check(triangle(), "usf")
        assert rep["pass"]

    def test_ust_limit_monotone_but_floored(self):
        # TV along p = sqrt(q) decreases monotonically, but only at rate
        # sqrt(q): it is (4/3)*sqrt(q) + O(q) on the triangle, so it cannot
        # reach the default 1e-3 target by q = 1e-6.  No p can: the floor
        # over all p is 2*sqrt(q/3) ~ 1.15e-3, near p = sqrt(3q).  So the
        # regime is gated at its rate, final TV <= (4/3)*sqrt(q_final).
        rep = q_to_zero_limit_check(triangle(), "ust")
        assert rep["monotone"] and rep["pass"]
        assert rep["tv"][-1] < rep["tv"][0]
        assert 1e-3 < rep["tv"][-1] <= 4 / 3 * 1e-3  # final TV ~ 1.33e-3
        assert q_to_zero_limit_check(triangle(), "ust", final_tv=F(1, 10**9))["pass"]
        rising = q_to_zero_limit_check(triangle(), "ust", [F(1, 10**6), F(1, 10**2)])
        assert not rising["monotone"] and not rising["pass"]

    @pytest.mark.parametrize("regime", ["ucs", "usf"])
    def test_final_tv_above_the_target_fails(self, regime):
        # a known-false control: the final TV misses the 1e-3 target by less
        # than a factor of 10 (7.47e-3 and 3.90e-3), so a gate that forgave a
        # tenfold miss would pass it
        rep = q_to_zero_limit_check(triangle(), regime, [F(1, 10), F(1, 100)])
        assert rep["monotone"] and 1e-3 < rep["tv"][-1] < 1e-2
        assert not rep["pass"]

    def test_schedule_rationality(self):
        for p, q in regime_schedule("ust"):
            assert p * p == q

    def test_ust_schedule_rejects_non_square(self):
        with pytest.raises(ValueError):
            regime_schedule("ust", [F(1, 10)])


class TestFederMihail:
    def test_small_graphs_full_na(self):
        for g in [triangle(), cycle(4), path(4)]:
            rep = ust_feder_mihail_check(g)
            assert rep["pass"] and rep["mode"] == "full-na"

    def test_golden_report_five_edges(self):
        g = Multigraph(4, ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2)))
        assert ust_feder_mihail_check(g) == {
            "identity": "ust-feder-mihail",
            "mode": "full-na",
            "detail": {
                "identity": "negative-association",
                "edge_na": True,
                "na": True,
                "disjoint_occurrence": None,
                "doc_exhaustive": False,
                "doc_pairs_checked": 0,
                "witnesses": {"edge_na": None, "na": None, "disjoint_occurrence": None},
                "implication_chain_ok": True,
                "pass": True,
            },
            "instances": 1,
            "pass": True,
        }

    def test_fails_on_a_positively_associated_measure(self, monkeypatch):
        # a known-false control: phi_{1/2, 2} on C4 in place of the uniform
        # spanning tree; q > 1 makes its edges positively correlated
        monkeypatch.setattr(association, "uniform_substructure_measure",
                            lambda g, kind: rc_measure_table(g, RCParams(F(1, 2), F(2))))
        report = ust_feder_mihail_check(cycle(4))
        assert report["mode"] == "full-na" and not report["detail"]["edge_na"]
        assert report["pass"] is False

    def test_larger_graph_edge_na(self):
        g = Multigraph(4, ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)))
        rep = ust_feder_mihail_check(g)
        assert rep["pass"] and rep["mode"] == "edge-na-only"


class TestConjectureScan:
    def test_scan_never_gates(self):
        graphs = [g for g in simple_graphs(4, connected=True) if 0 < g.m <= 5]
        rep = conjecture_forest_scan(graphs)
        assert rep["pass"] and rep["informational"]
        assert rep["graphs_scanned"] == len(graphs)

    def test_no_edge_na_counterexample_on_small_family(self):
        graphs = [g for g in simple_graphs(4, connected=True) if 0 < g.m <= 5]
        rep = conjecture_forest_scan(graphs)
        assert rep["counterexamples_found"] == 0


PIN_PS = (F(1, 1000), F(1, 3), F(1, 2), F(3, 4))
PIN_QS = (F(1, 10**6), F(1, 2), F(1), F(3, 2), F(2), F(3))


def _pinned_reports() -> list:
    """Seeded random connected multigraphs with 3-5 edges (loops and
    parallel edges allowed): NA with and without DOC, UST, and FKG and a
    comparison up to 4 edges.  Denominators run from 4 to 91 bits, and the
    8000-pair DOC budgets put witnesses at seeded pairs 2,406 and 6,051,
    past the first numpy block."""
    rng = random.Random(15)
    reports = []
    for i in range(60):
        n = rng.randint(2, 5)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(max(n - 1, 3), 5) - n + 1)]
        g = Multigraph(n, tuple(edges))
        p, q, seed = rng.choice(PIN_PS), PIN_QS[i % len(PIN_QS)], rng.getrandbits(31)
        table = rc_measure_table(g, RCParams(p, q))
        reports += [
            negative_association_checks(table, doc_pair_budget=(400, 8000)[i % 2], seed=seed),
            negative_association_checks(table, include_doc=False),
            ust_feder_mihail_check(g),
        ]
        if g.m <= 4:
            reports += [fkg_check(g, p, q, n_function_pairs=10, seed=seed),
                        comparison_check(g, p, q, p, max(q, F(1)) + F(1, 2))]
    return reports


def test_reports_pinned():
    # SHA-256 of repr() of every report, witness and count above, written
    # against the pair-by-pair scans that the numpy blocks replaced
    digest = hashlib.sha256(repr(_pinned_reports()).encode()).hexdigest()
    assert digest == "0a28557a9dc93813a96c9f624b6889b8a224beeaa49a45f11ebfea1b4be7ff6e"
