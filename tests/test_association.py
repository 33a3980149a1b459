import random
from fractions import Fraction

import pytest

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
from rcpotts.families import simple_graphs
from rcpotts.graphs import EnumerationCapExceeded, Multigraph, complete, cycle, path, triangle
from rcpotts.measures import MeasureTable, RCParams, rc_measure_table
from rcpotts.polynomials import count_spanning_trees

from .conftest import box_product_oracle

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
        # over all p is 2*sqrt(q/3) ~ 1.15e-3, near p = sqrt(3q).
        rep = q_to_zero_limit_check(triangle(), "ust")
        assert rep["monotone"]
        assert rep["tv"][-1] < rep["tv"][0]
        assert not rep["pass"]  # final TV ~ 1.33e-3 sits above 1e-3

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
