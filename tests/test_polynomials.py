import hashlib
import json
import math
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcpotts import polynomials
from rcpotts.coupling import make_rng
from rcpotts.families import connected_multigraphs_upto, graphs_with_few_edges, random_multigraph
from rcpotts.graphs import (
    EnumerationCapExceeded,
    Multigraph,
    _bridges,
    complete,
    cycle,
    is_connected,
    path,
    triangle,
)
from rcpotts.polynomials import (
    BivariatePolynomial,
    TutteCache,
    chromatic_poly,
    count_proper_colourings,
    count_spanning_trees,
    eval_poly,
    eval_terms,
    flow_poly,
    multivariate_tutte,
    rank_gen_poly,
    tutte_from_rank_gen,
    tutte_poly,
)
from .conftest import RATIONAL_POINTS_20, agreement_oracle, brute_force_flow_count, seeded_multigraph

F = Fraction
X = BivariatePolynomial({(1, 0): 1})
Y = BivariatePolynomial({(0, 1): 1})
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
        g = Multigraph(2, tuple([(0, 1)] * 25))  # 2^25 subsets
        with pytest.raises(EnumerationCapExceeded):
            rank_gen_poly(g)


def grid(rows: int, cols: int, wrap: bool = False) -> Multigraph:
    """The rows x cols grid, vertices row-major; with ``wrap`` the torus."""
    edges = []
    for r, c in product(range(rows), range(cols)):
        if c + 1 < cols or wrap:
            edges.append((r * cols + c, r * cols + (c + 1) % cols))
        if r + 1 < rows or wrap:
            edges.append((r * cols + c, (r + 1) % rows * cols + c))
    return Multigraph(rows * cols, tuple(edges))


class TestTutte:
    def test_bridge(self):
        assert tutte_poly(Multigraph(2, ((0, 1),))) == X

    def test_loop(self):
        assert tutte_poly(Multigraph(1, ((0, 0),))) == Y

    def test_triangle(self):
        assert tutte_poly(triangle()) == BivariatePolynomial({(2, 0): 1, (1, 0): 1, (0, 1): 1})

    def test_matches_rank_gen_route_small_family(self):
        cache = TutteCache()
        for g in connected_multigraphs_upto(4, 5):
            assert tutte_poly(g, cache) == tutte_from_rank_gen(g)

    def test_matches_rank_gen_route_beyond_connected_graphs(self):
        # disconnected graphs, isolated vertices, loops and parallel edges,
        # which the connected family never builds
        rng = random.Random(5)
        cache, seen = TutteCache(), set()
        for _ in range(200):
            g = seeded_multigraph(rng, loops=True)
            edges = g.edges
            assert tutte_poly(g, cache) == tutte_from_rank_gen(g), g
            seen.update(k for k, flag in (("loop", any(u == v for u, v in edges)),
                                           ("parallel", len(set(edges)) < len(edges)),
                                           ("isolated", 0 in g.degrees()),
                                           ("disconnected", not is_connected(g))) if flag)
        assert seen == {"loop", "parallel", "isolated", "disconnected"}

    def test_matches_rank_gen_route_with_heavy_classes(self):
        # classes of up to 5 parallel edges, bridge classes of k >= 2 among
        # them (the factor x + y + ... + y^(k-1)), and loops
        rng, seen = random.Random(27), set()
        for _ in range(150):
            n = rng.randrange(3, 7)
            drawn = rng.sample([(u, v) for u in range(n) for v in range(u, n)], rng.randrange(1, 6))
            ks = [rng.choice((1, 1, 2, 3, 5)) for _ in drawn]
            while sum(ks) > 13:
                ks.pop()
            edges = [pair for pair, k in zip(drawn, ks) for _ in range(k)]
            rng.shuffle(edges)
            g = Multigraph(n, tuple(edges))
            assert tutte_poly(g) == tutte_from_rank_gen(g), g
            classes = Counter(e for e in edges if e[0] != e[1])
            pairs = list(classes)
            bridge_ks = [classes[pairs[i]] for i in _bridges(n, pairs)]
            seen.update(flag for flag, ok in (("k = 5", 5 in classes.values()),
                                              ("bridge class of k >= 2", max(bridge_ks, default=0) >= 2),
                                              ("loop", len(classes) < len(set(edges)))) if ok)
        assert seen == {"k = 5", "bridge class of k >= 2", "loop"}

    @pytest.mark.parametrize(("g", "trees"), [
        (grid(4, 5), 4_140_081),
        (grid(5, 5), 557_568_000),
        (complete(8), 8**6),
        (grid(4, 4, wrap=True), 42_467_328),
    ], ids=["4x5 grid", "5x5 grid", "K8", "C4xC4"])
    def test_exact_values_at_scale(self, g, trees):
        # T(1, 1) is the spanning-tree count (Kirchhoff), T(2, 2) = 2^|E|
        start = time.perf_counter()
        t = tutte_poly(g)
        took = time.perf_counter() - start
        assert eval_poly(t, 1, 1) == trees and eval_poly(t, 2, 2) == 2**g.m
        if g.m == 31:  # the 4x5 grid: 14-40 ms on one core
            assert took < 1

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

    def test_cache_keeps_asked_graphs_not_minors(self):
        cache = TutteCache()
        g = Multigraph(4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)))
        t = tutte_poly(g, cache)
        assert len(cache) == 1
        assert cache.misses > 1  # the minors were computed, then dropped
        misses = cache.misses
        assert tutte_poly(g, cache) is t
        assert cache.misses == misses and cache.hits >= 1

    def test_outputs_and_counters_pinned(self):
        # the polynomials and the hit/miss counts the benchmark reads: every
        # graph of the family asked twice, then 7-vertex graphs of 13-16 edges.
        # The sorted digest pins the terms; the order digest pins their
        # insertion order too, with T(1.5, 2.5) in floats, since eval_terms
        # sums float inputs in dict order.
        def digests(graphs, cache):
            terms, order, values = hashlib.sha256(), hashlib.sha256(), []
            for g in graphs:
                t = tutte_poly(g, cache)
                values.append(eval_poly(t, 1.5, 2.5))
                terms.update(json.dumps(t.to_json_dict()).encode())
                order.update(repr((list(t.terms.items()), values[-1])).encode())
            return terms.hexdigest(), order.hexdigest(), values

        cache = TutteCache()
        family = [g for g in connected_multigraphs_upto(5, 6) for _ in range(2)]
        terms, order, _ = digests(family, cache)
        assert terms == "59788b5b9b7ce8e4a42b49c504e5ef649dcaf302edc300b423edeadacd701389"
        assert order == "cdc046ec5d83f8526dac7ca7c15eb559c33a7cd6ef4bdb5962c7fdc4073a7ad5"
        assert (cache.hits, cache.misses) == (414, 724)
        cache = TutteCache()
        large = [random_multigraph(7, m, make_rng(seed), loops=False) for seed, m in enumerate((13, 14, 15, 16))]
        terms, order, values = digests(large, cache)
        assert terms == "e7ca79c3e2f2f32bb71cc6cca8b5b46a3a083d0ed6d047f6825a8cf477f3b8df"
        assert order == "c8186cd978637c784f874677a460ef3be3fa8ed14b7ffcfe1988b9ae4ace926c"
        assert list(map(repr, values)) == ["10821.6796875", "28739.2578125", "75774.853515625", "194917.2802734375"]
        assert (cache.hits, cache.misses) == (136, 210)

    def test_class_recursion_walk(self, monkeypatch):
        # every minor of the recursion, on seeded multigraphs with loops and
        # parallel edges, seen through its one bridge search and through the
        # minors that peels and branch contractions build: each has sorted,
        # merged classes and no loop, and a peeled one has no bridge class
        def classes_ok(n, pairs):
            return pairs == sorted(set(pairs)) and all(u < v < n for u, v in pairs)

        def bridges(n, pairs):
            assert classes_ok(n, pairs)
            found["minors"] += 1
            return _bridges(n, pairs)

        def merged(label, classes):
            out = real_merged(label, classes)
            n, pairs = max(label, default=-1) + 1, [e[:2] for e in out]
            cut = {i for i, (u, v, _) in enumerate(classes) if label[u] == label[v]}
            peel = cut <= set(_bridges(len(label), [e[:2] for e in classes]))  # a branch cuts no bridge
            assert classes_ok(n, pairs) and not (peel and _bridges(n, pairs))
            found["bridge classes with k >= 2"] += peel and any(classes[i][2] >= 2 for i in cut)
            found["classes merged"] += len(out) < len(classes) - len(cut)
            return out

        real_merged = polynomials._merged
        monkeypatch.setattr(polynomials, "_bridges", bridges)
        monkeypatch.setattr(polynomials, "_merged", merged)
        rng, found = random.Random(22), Counter()
        for _ in range(300):
            g, cache = seeded_multigraph(rng, loops=True), TutteCache()
            found["loops"] += any(u == v for u, v in g.edges)
            found["parallel"] += len(set(g.edges)) < g.m
            minors = found["minors"]
            tutte_poly(g, cache)
            assert found["minors"] - minors == cache.misses  # one peel per minor
        counters = ("loops", "parallel", "bridge classes with k >= 2", "classes merged")
        assert all(found[k] for k in counters), found

    def test_term_keys_shared(self):
        # equal term keys of different graphs' polynomials are one tuple
        a, b = tutte_poly(triangle()), tutte_poly(cycle(4))  # x^2 + x + y, x^3 + x^2 + x + y
        shared = {k: k for k in a.terms}
        common = [k for k in b.terms if k in shared]
        assert len(common) == 3 and all(shared[k] is k for k in common)
        # above rank or corank 31 the keys come from a table of the call's own
        assert tutte_poly(path(41)) == BivariatePolynomial({(40, 0): 1})
        assert tutte_poly(Multigraph(1, ((0, 0),) * 40)) == BivariatePolynomial({(0, 40): 1})

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
        assert chromatic_poly(g) == BivariatePolynomial()

    def test_matches_enumeration_oracle(self):
        # the simple graphs of up to 6 edges, then seeded multigraphs with
        # loops, parallel edges and several components, where q^k(G) has
        # k(G) > 1
        cache, rng, seen = TutteCache(), random.Random(29), set()
        graphs = [g for g in graphs_with_few_edges(6) if g.n <= 7]
        graphs += [seeded_multigraph(rng, loops=True) for _ in range(60)]
        for g in graphs:
            chi = chromatic_poly(g, cache)
            for q in range(1, 6):
                assert eval_poly(chi, F(q), F(0)) == count_proper_colourings(g, q)
            loop = any(u == v for u, v in g.edges)
            seen.update(k for k, flag in (("loop", loop),
                                           ("parallel", len(set(g.edges)) < g.m),
                                           ("several components, no loop", not loop and not is_connected(g))) if flag)
        assert seen == {"loop", "parallel", "several components, no loop"}

    def test_colouring_count_matches_agreement_oracle(self):
        # multigraphs with loops (no proper colouring), q = 1, and n = 0 (one empty colouring)
        rng = random.Random(20)
        for g in [Multigraph(0), Multigraph(1, ((0, 0),))] + [seeded_multigraph(rng, True) for _ in range(40)]:
            for q in range(1, 5 if g.n < 7 else 4):
                expected = sum(not agreement_oracle(g, s) for s in product(range(q), repeat=g.n))
                assert count_proper_colourings(g, q) == expected

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
        assert flow_poly(Multigraph(2, ((0, 1),))) == BivariatePolynomial()

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

    def test_add_cancels_to_zero(self):
        p = BivariatePolynomial({(1, 0): 3, (0, 2): -1})
        assert p + BivariatePolynomial({(1, 0): -3, (0, 2): 1}) == BivariatePolynomial()
        assert (p + BivariatePolynomial({(1, 0): -3})).terms == {(0, 2): -1}

    def test_repr(self):
        assert repr(BivariatePolynomial()) == "BivariatePolynomial(0)"
        p = BivariatePolynomial({(2, 0): 3, (0, 1): F(1, 2), (1, 1): 0})
        assert repr(p) == "BivariatePolynomial(1/2*x^0*y^1 + 3*x^2*y^0)"

    def test_json_roundtrip(self):
        t = tutte_poly(cycle(4))
        assert BivariatePolynomial.from_json_dict(t.to_json_dict()) == t

    def test_json_uses_decimal_strings(self):
        d = (ONE + X).to_json_dict()
        assert all(isinstance(term["c"], str) for term in d["terms"])


def _exact_bases(k):
    base = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=9))
    return st.lists(base, min_size=k, max_size=k)


def _terms(k, lo=-4):
    return st.dictionaries(st.tuples(*[st.integers(lo, 7)] * k), st.integers(-40, 40), max_size=9)


class TestEvalTerms:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_matches_naive_fraction_sum(self, data):
        k = data.draw(st.integers(1, 3))
        xs, terms = data.draw(_exact_bases(k)), data.draw(_terms(k))
        try:
            want = Fraction(0)
            for es, c in terms.items():
                for x, e in zip(xs, es):
                    c = c * Fraction(x) ** e
                want += c
        except ZeroDivisionError:  # a zero base under a negative exponent
            with pytest.raises(ZeroDivisionError):
                eval_terms(terms, *xs)
            return
        got = eval_terms(terms, *xs)
        assert got == want
        whole = all(isinstance(x, int) for x in xs) and all(e >= 0 for es in terms for e in es)
        assert type(got) is (int if whole or not terms else Fraction)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_int_inputs_give_an_int(self, data):
        k = data.draw(st.integers(1, 3))
        xs = data.draw(st.lists(st.integers(-6, 6), min_size=k, max_size=k))
        terms = data.draw(st.dictionaries(st.tuples(*[st.integers(0, 7)] * k), st.integers(-40, 40)))
        got = eval_terms(terms, *xs)
        assert type(got) is int
        assert got == sum(c * math.prod(x**e for x, e in zip(xs, es)) for es, c in terms.items())

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_float_inputs_keep_the_left_to_right_product(self, data):
        k = data.draw(st.integers(1, 3))
        base = st.floats(-3, 3).filter(lambda x: abs(x) >= 1e-3)  # no overflow at exponent -4
        xs = data.draw(st.lists(st.one_of(base, st.integers(-3, 3).filter(bool)), min_size=k, max_size=k))
        xs[0] = float(xs[0])  # one float sends every term down the float path
        terms = data.draw(_terms(k))
        want = 0
        for es, c in terms.items():
            for x, e in zip(xs, es):
                c = c * x**e
            want += c
        got = eval_terms(terms, *xs)
        assert type(got) is type(want) and repr(got) == repr(want)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_shift_evaluates_at_the_shifted_point(self, data):
        # _shift expands each (x_v + s_v)^e_v, so its terms at xs are the
        # input terms at xs + shifts, for int and Fraction shifts
        k = data.draw(st.integers(1, 2))
        xs, shifts, terms = data.draw(_exact_bases(k)), data.draw(_exact_bases(k)), data.draw(_terms(k, lo=0))
        shifted = polynomials._shift(terms, shifts)
        assert all(shifted.values())
        assert eval_terms(shifted, *xs) == eval_terms(terms, *(x + s for x, s in zip(xs, shifts)))

    def test_shift_binomial_rows(self):
        assert polynomials._shift({(3,): 1}, (-1,)) == {(3,): 1, (2,): -3, (1,): 3, (0,): -1}
        assert polynomials._shift({(1, 2): 2, (0, 0): -2}, (F(1, 2), 1)) == {
            (1, 2): 2, (1, 1): 4, (1, 0): 2, (0, 2): 1, (0, 1): 2, (0, 0): -1}

    def test_empty_terms(self):
        for xs in [(F(1, 2),), (0, F(-3)), (F(0), F(0), F(0)), (0.5, 2)]:
            got = eval_terms({}, *xs)
            assert got == 0 and type(got) is int
