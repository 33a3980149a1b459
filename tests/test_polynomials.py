from fractions import Fraction

import pytest

from rcpotts.families import connected_multigraphs_upto, graphs_with_few_edges
from rcpotts.graphs import Multigraph, complete, cycle, path, triangle
from rcpotts.polynomials import (
    BivariatePolynomial,
    EnumerationCapExceeded,
    TutteCache,
    chromatic_poly,
    count_proper_colourings,
    count_spanning_trees,
    eval_poly,
    flow_poly,
    multivariate_tutte,
    rank_gen_poly,
    tutte_from_rank_gen,
    tutte_poly,
)
from .conftest import RATIONAL_POINTS_20, brute_force_flow_count

F = Fraction
X = BivariatePolynomial.monomial(1, 0)
Y = BivariatePolynomial.monomial(0, 1)
ONE = BivariatePolynomial.constant(1)


class TestRankGen:
    def test_edgeless(self):
        assert rank_gen_poly(Multigraph(4, ())) == ONE

    def test_single_edge(self):
        assert rank_gen_poly(Multigraph(2, ((0, 1),))) == ONE + X

    def test_triangle(self):
        w = rank_gen_poly(triangle())
        expected = BivariatePolynomial({(0, 0): 1, (1, 0): 3, (2, 0): 3, (2, 1): 1})
        assert w == expected

    def test_cap(self):
        g = Multigraph(2, tuple([(0, 1)] * 5))
        with pytest.raises(EnumerationCapExceeded):
            rank_gen_poly(g, cap=4)


class TestTutte:
    def test_bridge(self):
        assert tutte_poly(Multigraph(2, ((0, 1),))) == X

    def test_loop(self):
        assert tutte_poly(Multigraph(1, ((0, 0),))) == Y

    def test_triangle(self):
        assert tutte_poly(triangle()) == X * X + X + Y

    def test_matches_rank_gen_route_small_family(self):
        cache = TutteCache()
        for g in connected_multigraphs_upto(4, 5):
            assert tutte_poly(g, cache) == tutte_from_rank_gen(g)

    def test_w_transform_identity_at_rational_points(self):
        cache = TutteCache()
        for g in connected_multigraphs_upto(4, 5):
            w = rank_gen_poly(g)
            t = tutte_poly(g, cache)
            for u, v in RATIONAL_POINTS_20[:8]:
                lhs = (u - 1) ** (g.n - 1) * eval_poly(w, 1 / (u - 1), v - 1)
                assert lhs == eval_poly(t, u, v)

    def test_spanning_tree_count(self):
        cache = TutteCache()
        for g in [triangle(), cycle(4), path(4), Multigraph(2, ((0, 1), (0, 1)))]:
            assert eval_poly(tutte_poly(g, cache), 1, 1) == count_spanning_trees(g)

    def test_cache_eviction_keeps_results_correct(self):
        tiny = TutteCache(max_size=4)
        assert tutte_poly(cycle(5), tiny) == tutte_poly(cycle(5))

    def test_cache_keeps_asked_graphs_not_minors(self):
        cache = TutteCache()
        g = Multigraph(4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)))
        t = tutte_poly(g, cache)
        assert len(cache._table) == 1
        assert cache.misses > 1  # the minors were computed, then dropped
        misses = cache.misses
        assert tutte_poly(g, cache) is t
        assert cache.misses == misses and cache.hits >= 1

    def test_spanning_tree_count_honours_subset_cap(self):
        with pytest.raises(EnumerationCapExceeded):
            count_spanning_trees(complete(8))  # 2^28 subsets


class TestMultivariateTutte:
    def test_single_edge(self):
        g = Multigraph(2, ((0, 1),))
        assert multivariate_tutte(g, F(2), [F(1)]) == 6

    def test_zero_weights(self):
        g = triangle()
        assert multivariate_tutte(g, F(5), [F(0)] * 3) == 5**3

    def test_q_one_counts_subsets(self):
        assert multivariate_tutte(triangle(), F(1), [F(1)] * 3) == 8

    def test_weight_length_checked(self):
        with pytest.raises(ValueError):
            multivariate_tutte(triangle(), F(2), [F(1)])


class TestChromatic:
    def test_triangle_three_colours(self):
        assert eval_poly(chromatic_poly(triangle()), F(3), F(0)) == 6

    def test_single_edge_two_colours(self):
        g = Multigraph(2, ((0, 1),))
        assert eval_poly(chromatic_poly(g), F(2), F(0)) == 2

    def test_loop_kills_colourings(self):
        g = Multigraph(2, ((0, 1), (1, 1)))
        assert chromatic_poly(g).is_zero()

    def test_matches_enumeration_oracle(self):
        cache = TutteCache()
        for g in graphs_with_few_edges(6):
            if g.n > 7:
                continue
            chi = chromatic_poly(g, cache)
            for q in range(1, 6):
                assert eval_poly(chi, F(q), F(0)) == count_proper_colourings(g, q)

    def test_colouring_count_honours_spin_cap(self):
        with pytest.raises(EnumerationCapExceeded):
            count_proper_colourings(complete(16), 3)  # 3^16 spin states


class TestFlowPoly:
    def test_edgeless_convention(self):
        assert flow_poly(Multigraph(3, ())) == ONE

    def test_cycle_gives_q_minus_one(self):
        c = flow_poly(triangle())
        assert eval_poly(c, F(3), F(0)) == 2

    def test_bridge_zero(self):
        assert flow_poly(Multigraph(2, ((0, 1),))).is_zero()

    def test_matches_brute_force_family(self):
        for g in connected_multigraphs_upto(3, 4):
            c = flow_poly(g)
            for q in range(2, 7):
                assert eval_poly(c, F(q), F(0)) == brute_force_flow_count(g, q)


class TestEvalAndSerialization:
    def test_eval_constant(self):
        assert eval_poly(ONE + X, F(0), F(0)) == 1

    def test_eval_tutte_triangle(self):
        assert eval_poly(tutte_poly(triangle()), F(1), F(1)) == 3

    def test_eval_w_at_ones_counts_subsets(self):
        assert eval_poly(rank_gen_poly(triangle()), F(1), F(1)) == 8

    def test_json_roundtrip(self):
        t = tutte_poly(cycle(4))
        assert BivariatePolynomial.from_json_dict(t.to_json_dict()) == t

    def test_json_uses_decimal_strings(self):
        d = (ONE + X).to_json_dict()
        assert all(isinstance(term["c"], str) for term in d["terms"])
