import math
from fractions import Fraction
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rcpotts import flows
from rcpotts.coupling import SamplerConfig, make_rng
from rcpotts.families import connected_multigraphs_upto, random_multigraph, simple_graphs
from rcpotts.flows import (
    OrientedMultigraph,
    PoissonGraphSample,
    _flow_pairs,
    compflow_identity,
    count_flows,
    even_ratio_mc,
    flow_connection_mc,
    flow_correlation_mc,
    flow_count_multiplicities,
    orientation_invariance_check,
    poisson_sample,
    separating_sets,
    simon_check,
)
from rcpotts.graphs import EnumerationCapExceeded, Multigraph, cycle, is_even, path, triangle
from rcpotts.measures import RCParams, rc_connection_prob
from rcpotts.polynomials import eval_poly, flow_poly

from .conftest import bfs_reachable

F = Fraction


class TestCountFlows:
    def test_cycle_has_q_minus_one(self):
        for q in range(2, 6):
            assert count_flows(triangle(), q) == q - 1

    def test_bridge_has_none(self):
        assert count_flows(path(3), 3) == 0

    def test_loop_has_q_minus_one(self):
        assert count_flows(Multigraph(1, ((0, 0),)), 5) == 4

    def test_edgeless(self):
        assert count_flows(Multigraph(3, ()), 4) == 1

    def test_orientation_invariance(self):
        for g in [triangle(), cycle(4), Multigraph(2, ((0, 1), (0, 1), (0, 1)))]:
            rep = orientation_invariance_check(g, 3, n_orientations=10)
            assert rep["pass"]

    def test_cap(self):
        with pytest.raises(EnumerationCapExceeded):
            count_flows(cycle(12), 7)  # 6^12 edge values

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            count_flows(triangle(), 1)

    def test_orientation_dependent_count_fails_invariance(self):
        # a known-false control: a count that adds the sum of the directions
        real = flows.count_flows
        with mock.patch.object(flows, "count_flows", lambda g, q, o: real(g, q, o) + sum(o.directions)):
            assert orientation_invariance_check(cycle(4), 3)["pass"] is False


class TestBundleRoute:
    def test_unit_multiplicities_match_plain_count(self):
        for g in connected_multigraphs_upto(3, 4):
            for q in (2, 3, 4):
                assert flow_count_multiplicities(g, [1] * g.m, q) == count_flows(g, q)

    def test_matches_realized_graph(self):
        g = triangle()
        rng = make_rng(3)
        for _ in range(20):
            mult = tuple(int(k) for k in rng.poisson(1.0, size=g.m))
            realized = PoissonGraphSample(g, mult).realize()
            for q in (2, 3):
                assert flow_count_multiplicities(g, mult, q) == count_flows(realized, q)

    def test_zero_multiplicities(self):
        assert flow_count_multiplicities(triangle(), [0, 0, 0], 3) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            flow_count_multiplicities(triangle(), [1, 1], 3)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 4), st.sampled_from([0.5, 1.0]), st.integers(0, 2**32 - 1))
    def test_matches_independent_routes(self, n, m, lam, seed):
        rng = make_rng(seed)
        g = random_multigraph(n, m, rng, loops=True)
        mult = poisson_sample(g, lam, rng).multiplicities
        assume(sum(mult) <= 8)
        realized = PoissonGraphSample(g, mult).realize()
        for q in (2, 3, 4):
            assert flow_count_multiplicities(g, mult, q) == count_flows(realized, q)
        flow = flow_poly(realized)  # the rank-generating route, valid at real q
        for q in (F(3, 2), F(5, 2)):
            assert flow_count_multiplicities(g, mult, q) == eval_poly(flow, q, 0)

    def test_number_types_follow_q(self):
        g, mult = Multigraph(3, ((0, 1), (1, 2), (0, 2), (1, 1))), (2, 0, 3, 1)
        assert type(flow_count_multiplicities(g, mult, 3)) is int
        assert type(flow_count_multiplicities(g, mult, np.int64(3))) is int
        exact = flow_count_multiplicities(g, mult, F(5, 2))
        assert isinstance(exact, Fraction)
        assert flow_count_multiplicities(g, mult, 2.5) == pytest.approx(float(exact), rel=1e-12)


def _before_any_table(estimator, q):
    """The estimator at q with the subset pass that fills its coefficient
    list failing, so that only a refusal before tabulating raises the cap."""
    def call(g):
        with mock.patch("rcpotts.flows.edge_subsets", side_effect=AssertionError("a term table was built")):
            return estimator(g, 0.5, q, 0, 1, SamplerConfig(samples=10))
    return call


# The estimators also enumerate the (x, y)-extension, one edge more than the
# base graph, so they refuse 24 base edges; the others refuse 25.  Their
# coefficient list holds 2^(|E| + 1) entries, so the table budget already
# refuses 20 base edges, before any list is built.
@pytest.mark.parametrize(
    ("call", "m"),
    [
        (lambda g: flow_count_multiplicities(g, [1] * g.m, 3), 25),
        (lambda g: compflow_identity(g, 0.5, 2), 25),
        (lambda g: flow_correlation_mc(g, 0.5, 3, 0, 1, SamplerConfig(samples=10)), 24),
        (lambda g: flow_connection_mc(g, 0.5, 2, 0, 1, SamplerConfig(samples=10)), 24),
        (lambda g: flow_connection_mc(g, 0.5, F(3, 2), 0, 1, SamplerConfig(samples=10)), 24),
        (_before_any_table(flow_correlation_mc, 3), 20),
        (_before_any_table(flow_correlation_mc, F(3, 2)), 20),
        (_before_any_table(flow_connection_mc, 2), 20),
        (_before_any_table(flow_connection_mc, F(3, 2)), 20),
    ],
    ids=["flow_count_multiplicities", "compflow_identity", "flow_correlation_mc", "flow_connection_mc",
         "flow_connection_mc-fraction", "flow_correlation_mc-table", "flow_correlation_mc-fraction-table",
         "flow_connection_mc-table", "flow_connection_mc-fraction-table"],
)
def test_enumeration_cap(call, m):
    with pytest.raises(EnumerationCapExceeded):
        call(Multigraph(2, ((0, 1),) * m))


@pytest.mark.parametrize(("g", "x", "y"), [
    (triangle(), 0, 1),
    (cycle(4), 0, 2),
    (Multigraph(5, ((0, 1), (1, 1), (1, 2), (0, 1), (2, 3))), 0, 3),
], ids=["triangle", "C4", "MULTI"])
@pytest.mark.parametrize("q", [F(1, 2), F(3, 2), F(5, 2), 3])
def test_estimators_term_table_matches_bundle_route(g, x, y, q):
    # the estimators' integer fold, per multiplicity tuple, against
    # flow_count_multiplicities on G and its (x, y)-extension
    rng = make_rng(17)
    tuples = dict.fromkeys(tuple(row) for row in rng.poisson(0.8, size=(60, g.m)).tolist())
    tuples.update(dict.fromkeys([(0,) * g.m, (3,) * g.m]))
    extended = Multigraph(g.n, g.edges + ((x, y),))
    for mult, (num, den) in _flow_pairs(g, x, y, q, tuples).items():
        expected = (flow_count_multiplicities(extended, mult + (1,), q), flow_count_multiplicities(g, mult, q))
        assert (num, den) == expected
        assert (type(num), type(den)) == tuple(map(type, expected))


@pytest.mark.parametrize("q", [2, 3, 7, F(3, 2), F(5, 2), F(1, 2), 1.3], ids=repr)
def test_fold_matches_bundle_route_on_seeded_multigraphs(q):
    # loops, parallel edges, isolated vertices, x and y already adjacent and a
    # base graph with no edge all occur in these draws; multiplicities 0-6.
    # At integer q the brute-force count on the realized graphs also agrees.
    exact, rng, seen = F(q) if isinstance(q, float) else q, make_rng(30), set()
    for _ in range(40):
        n, m = int(rng.integers(2, 6)), int(rng.integers(0, 6))
        g = random_multigraph(n, m, rng, loops=True)
        x, y = (int(v) for v in rng.choice(n, size=2, replace=False))
        seen |= {name for name, hit in [
            ("loop", any(u == v for u, v in g.edges)), ("parallel", len(set(g.edges)) < m),
            ("isolated", len({v for e in g.edges for v in e}) < n), ("edgeless", m == 0),
            ("adjacent", any({u, v} == {x, y} for u, v in g.edges))] if hit}
        tuples = dict.fromkeys(tuple(row) for row in rng.integers(0, 7, size=(12, m)).tolist())
        extended = Multigraph(n, g.edges + ((x, y),))
        for mult, pair in _flow_pairs(g, x, y, q, tuples).items():
            expected = (flow_count_multiplicities(extended, mult + (1,), exact),
                        flow_count_multiplicities(g, mult, exact))
            assert pair == expected
            assert tuple(map(type, pair)) == tuple(map(type, expected))
            if isinstance(q, int) and (q - 1) ** (sum(mult) + 1) <= 1000:
                realized = (PoissonGraphSample(g, mult, (x, y)).realize(), PoissonGraphSample(g, mult).realize())
                assert pair == tuple(count_flows(h, q) for h in realized)
    assert seen == {"loop", "parallel", "isolated", "edgeless", "adjacent"}


@pytest.mark.parametrize("q", [3, F(3, 2), 1.3], ids=repr)
def test_fold_of_no_tuples_is_empty(q):
    assert _flow_pairs(cycle(4), 0, 2, q, {}) == {}


def test_non_divisible_flow_sum_raises():
    # a Tutte sum one off is not a multiple of q^|V|; a raise, so python -O keeps the check
    with pytest.raises(ArithmeticError, match="flow sum not divisible by q"):
        flows._flow_value(7, 2, 2, 0)
    real = flows.multivariate_tutte
    with mock.patch.object(flows, "multivariate_tutte", lambda g, q, w: real(g, q, w) + 1):
        with pytest.raises(ArithmeticError):
            flow_count_multiplicities(triangle(), [1, 2, 0], 3)


@pytest.mark.parametrize("q", [1.5, 2.5, 1.3, np.float32(1.3), np.float64(2.7)], ids=repr)
def test_real_q_is_the_rational_its_double_equals(q):
    g = Multigraph(5, ((0, 1), (1, 1), (1, 2), (0, 1), (2, 3)))
    rng = make_rng(17)
    tuples = dict.fromkeys(tuple(row) for row in rng.poisson(0.8, size=(60, g.m)).tolist())
    values, exact = _flow_pairs(g, 0, 3, q, tuples), _flow_pairs(g, 0, 3, F(float(q)), tuples)
    assert values == exact
    assert {type(v) for pair in values.values() for v in pair} == {Fraction}


@pytest.mark.parametrize("q", [1.5 + 0.5j, math.nan, math.inf, "3/2"], ids=repr)
@pytest.mark.parametrize("estimator", [flow_correlation_mc, flow_connection_mc])
def test_q_not_a_finite_real(estimator, q):
    with pytest.raises(ValueError, match="q must be a finite real number"):
        estimator(triangle(), 0.5, q, 0, 1, SamplerConfig(samples=10))


# (estimate, se, n) of flow_correlation_mc (lam = 1/2, q = 3), flow_connection_mc
# (p = 1/2, q = 3/2; with lambda) and even_ratio_mc (lam = 1/2) at 400 samples,
# recorded when every sample still drew its own multiplicities: the batched
# Poisson draw must reproduce that stream exactly.
SEEDED_STREAMS = {
    ("triangle", 1): ((1.5056179775280898, 0.2985688567911294, 400), (0.22578505086245027, 0.10182188703002054, 400, 0.46209812037329684), (0.607843137254902, 0.11306722783415721, 400)),
    ("triangle", 2): ((1.5824915824915824, 0.2143471323355582, 400), (0.2788309636650869, 0.06885296732786654, 400, 0.46209812037329684), (0.6962962962962962, 0.10985975655441259, 400)),
    ("triangle", 3): ((1.5813953488372092, 0.15129197306158038, 400), (0.33313397129186606, 0.0885013115415548, 400, 0.46209812037329684), (0.6461538461538461, 0.17787240562389567, 400)),
    ("C4", 1): ((1.0061349693251533, 0.19000115563685413, 400), (0.1453369639210347, 0.04286692624601394, 400, 0.46209812037329684), (0.36363636363636365, 0.06959567738844423, 400)),
    ("C4", 2): ((1.4031413612565447, 0.23709465163377821, 400), (0.15668662674650696, 0.10341058382344955, 400, 0.46209812037329684), (0.4642857142857143, 0.10065971074032076, 400)),
    ("C4", 3): ((1.0502793296089385, 0.2606252948279081, 400), (0.2278876170655567, 0.08141252364181745, 400, 0.46209812037329684), (0.4117647058823529, 0.12768711455407725, 400)),
}


@pytest.mark.parametrize(("name", "seed"), list(SEEDED_STREAMS))
def test_seeded_streams_unchanged(name, seed):
    g, x, y = {"triangle": (triangle(), 0, 1), "C4": (cycle(4), 0, 2)}[name]
    cfg = SamplerConfig(seed=seed, samples=400)
    corr = flow_correlation_mc(g, 0.5, 3, x, y, cfg)
    conn = flow_connection_mc(g, 0.5, F(3, 2), x, y, cfg)
    even = even_ratio_mc(g, 0.5, x, y, cfg)
    assert (
        (corr["estimate"], corr["se"], corr["n"]),
        (conn["estimate"], conn["se"], conn["n"], conn["lambda"]),
        (even["estimate"], even["se"], even["n"]),
    ) == SEEDED_STREAMS[name, seed]


@pytest.mark.parametrize(("name", "seed"), list(SEEDED_STREAMS))
def test_float_q_stream_is_the_fraction_stream(name, seed):
    g, x, y = {"triangle": (triangle(), 0, 1), "C4": (cycle(4), 0, 2)}[name]
    conn = flow_connection_mc(g, 0.5, 1.5, x, y, SamplerConfig(seed=seed, samples=400))
    assert (conn["estimate"], conn["se"], conn["n"], conn["lambda"]) == SEEDED_STREAMS[name, seed][1]


def _seeded_estimator_cases(seed):
    """(g, x, y, lam, cfg, draws) on 25 seeded multigraphs with loops, parallel
    edges, isolated vertices and no edge at all, 1-199 samples each; draws are
    the samples' multiplicity tuples in draw order."""
    rng, seen = make_rng(seed), set()
    for _ in range(25):
        n, m = int(rng.integers(2, 6)), int(rng.integers(0, 6))
        g = random_multigraph(n, m, rng, loops=True)
        x, y = (int(v) for v in rng.choice(n, size=2, replace=False))
        seen |= {name for name, hit in [
            ("loop", any(u == v for u, v in g.edges)), ("parallel", len(set(g.edges)) < m),
            ("isolated", len({v for e in g.edges for v in e}) < n), ("edgeless", m == 0)] if hit}
        lam = float(rng.uniform(0.2, 1.2))
        cfg = SamplerConfig(seed=int(rng.integers(1000)), samples=int(rng.integers(1, 200)))
        draws = [tuple(row) for row in flows._poisson_draws(g, lam, make_rng(cfg.seed), cfg.samples).tolist()]
        yield g, x, y, lam, cfg, draws
    assert seen == {"loop", "parallel", "isolated", "edgeless"}


def _outcome(estimate):
    try:
        return repr(sorted(estimate().items()))  # repr, so that nan equals nan
    except ZeroDivisionError as exc:
        return repr(exc)


@pytest.mark.parametrize("q", [2, 3, F(3, 2), 1.3], ids=repr)
def test_flow_estimate_is_the_per_sample_ratio(q):
    # the reference keeps one entry per sample in draw order, float() of its
    # exact pair: the sorted, gathered estimator must give the same floats
    for g, x, y, lam, cfg, draws in _seeded_estimator_cases(32):
        pairs = _flow_pairs(g, x, y, q, dict.fromkeys(draws))
        nums, dens = ([float(pairs[m][i]) for m in draws] for i in (0, 1))
        assert _outcome(lambda: flow_correlation_mc(g, lam, q, x, y, cfg)) == \
            _outcome(lambda: flows._ratio_estimate(nums, dens))


def test_even_estimate_is_the_per_sample_ratio():
    # each realized sample, with and without the (x, y) edge, tested by is_even
    for g, x, y, lam, cfg, draws in _seeded_estimator_cases(33):
        nums, dens = ([is_even(PoissonGraphSample(g, m, attach).realize()) for m in draws] for attach in ((x, y), None))
        assert _outcome(lambda: even_ratio_mc(g, lam, x, y, cfg)) == _outcome(lambda: flows._ratio_estimate(nums, dens))


class TestPoissonSampling:
    def test_reproducible(self):
        a = poisson_sample(triangle(), 1.5, make_rng(9))
        b = poisson_sample(triangle(), 1.5, make_rng(9))
        assert a == b

    def test_attach_adds_edge(self):
        s = poisson_sample(triangle(), 1.0, make_rng(1), attach=(0, 2))
        assert s.realize().m == sum(s.multiplicities) + 1

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            poisson_sample(triangle(), -0.1, make_rng(0))


class TestFlowCorrelation:
    def test_single_edge_q2_matches_tanh(self):
        # single edge, q=2, beta = 2*lam: the ratio equals q*tau = tanh(beta/2)
        g = Multigraph(2, ((0, 1),))
        lam = 0.5
        est = flow_correlation_mc(g, lam, 2, 0, 1, SamplerConfig(seed=101, samples=20000))
        target = math.tanh(lam)
        assert abs(est["estimate"] - target) < 4 * est["se"] + 1e-12

    def test_even_ratio_agrees_with_q2_bundle_route(self):
        g = Multigraph(2, ((0, 1),))
        lam = 0.5
        a = flow_correlation_mc(g, lam, 2, 0, 1, SamplerConfig(seed=55, samples=20000))
        b = even_ratio_mc(g, lam, 0, 1, SamplerConfig(seed=55, samples=20000))
        assert abs(a["estimate"] - b["estimate"]) < 4 * (a["se"] + b["se"]) + 1e-12

    def test_same_vertex_rejected(self):
        with pytest.raises(ValueError):
            flow_correlation_mc(triangle(), 1.0, 2, 1, 1, SamplerConfig())


class TestFlowConnection:
    def test_single_edge_matches_exact_connection(self):
        g = Multigraph(2, ((0, 1),))
        p, q = F(1, 2), F(3, 2)
        est = flow_connection_mc(g, float(p), q, 0, 1, SamplerConfig(seed=2024, samples=8000))
        target = (q - 1) * rc_connection_prob(g, RCParams(p, q), 0, 1)
        assert abs(est["estimate"] - float(target)) < 4 * est["se"] + 1e-12

    def test_lambda_bridge(self):
        est = flow_connection_mc(
            Multigraph(2, ((0, 1),)), 0.5, 2, 0, 1, SamplerConfig(seed=1, samples=100)
        )
        assert est["lambda"] == pytest.approx(-math.log(0.5) / 2)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            flow_connection_mc(triangle(), 1.2, 2, 0, 1, SamplerConfig())

    def test_q_one_gives_zero_for_every_number_type(self):
        # C(G; 1) = 0 on every sample graph with an edge, so (q-1) phi = 0
        cfg = SamplerConfig(seed=5, samples=200)
        for q in (1, F(1), 1.0):
            assert flow_connection_mc(triangle(), 0.3, q, 0, 1, cfg)["estimate"] == 0.0


class TestCompflow:
    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
    def test_triangle(self, p, q):
        rep = compflow_identity(triangle(), p, q)
        assert rep["pass"], rep

    def test_path_with_bridge(self):
        rep = compflow_identity(path(3), 0.4, 2)
        assert rep["pass"], rep

    def test_deviation_within_tail(self):
        rep = compflow_identity(cycle(4), 0.5, 3, m_max=20)
        assert rep["deviation"] <= rep["tail_bound"] + 1e-9 * abs(rep["z_rc"])

    def test_poisson_weights_off_by_one_percent_fail(self):
        # a known-false control: every Poisson weight taken at 1.01 lam
        real = flows._poisson_pmf
        with mock.patch.object(flows, "_poisson_pmf", lambda lam, m: real(1.01 * lam, m)):
            rep = compflow_identity(triangle(), 0.5, 2)
        assert rep["pass"] is False and rep["deviation"] > 1e-2

    def test_z_rc_off_by_three_parts_in_a_billion_fails(self):
        # a known-false control between one and ten allowances: at q = 2 the
        # tail bound is 0, so the allowance is 1e-9 |z_rc| alone
        real = flows.rc_partition
        with mock.patch.object(flows, "rc_partition", lambda g, params: real(g, params) * F(1_000_000_003, 10**9)):
            rep = compflow_identity(triangle(), 0.5, 2)
        assert rep["pass"] is False and rep["tail_bound"] == 0.0
        assert 1e-9 * rep["z_rc"] < rep["deviation"] < 1e-8 * rep["z_rc"]

    def test_golden_report(self):
        # float sums add their terms in subset_counts' key order and multiply
        # each left to right; reordering either changes rhs in its last bits
        g = Multigraph(3, ((0, 1), (1, 2), (0, 2), (0, 1), (2, 2)))
        assert repr(compflow_identity(g, 0.7, 3, m_max=6)) == (
            "{'identity': 'compflow', 'lambda': 0.4013242681086453, 'z_rc': 3.9126000000000003, "
            "'rhs': 3.9122342444102136, 'deviation': 0.0003657555897866871, "
            "'tail_bound': 0.002859822900669619, 'pass': True, 'instances': 1}"
        )


class TestSimon:
    def test_separating_sets_path(self):
        g = path(3)  # 0-1-2
        assert separating_sets(g, 0, 2) == [(1,)]

    def test_separating_sets_triangle_empty(self):
        assert separating_sets(triangle(), 0, 2) == []

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 7), st.integers(0, 9), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_separating_sets_match_bfs_oracle(self, n, m, max_size, seed):
        # loops, parallel edges and isolated vertices all occur in these draws
        rng = make_rng(seed)
        g = random_multigraph(n, m, rng, loops=True)
        x, z = (int(v) for v in rng.choice(n, size=2, replace=False))
        others = [v for v in range(n) if v not in (x, z)]
        want = []
        for size in range(1, max_size + 1):
            for w in combinations(others, size):
                kept = sum(1 << i for i, e in enumerate(g.edges) if not set(e) & set(w))
                if z not in bfs_reachable(g, kept, x):
                    want.append(w)
        assert separating_sets(g, x, z, max_size) == want

    def test_path_q2_holds(self):
        rep = simon_check(path(3), F(1, 2), F(2), 0, 2)
        assert rep["pass"] and rep["instances"] == 1

    def test_sweep_q_in_one_two(self):
        graphs = [path(4), cycle(4), Multigraph(4, ((0, 1), (1, 2), (2, 3), (1, 3)))]
        for g in graphs:
            for q in (F(1), F(5, 4), F(3, 2), F(7, 4), F(2)):
                for p in (F(1, 4), F(1, 2), F(3, 4)):
                    rep = simon_check(g, p, q, 0, g.n - 1)
                    assert rep["pass"], rep["violations"]

    def test_violation_by_a_hair_is_reported(self):
        # a known-false control: at q = 8 and p = 1/(2^40 + 1) on the 4-cycle,
        # phi(0<->2) exceeds the sum over W = {1, 3} by far less than a factor
        # of 2, so a gate that compared against twice the right side would pass
        rep = simon_check(cycle(4), F(1, 2**40 + 1), F(8), 0, 2)
        assert not rep["pass"]
        [v] = rep["violations"]
        assert v["W"] == [1, 3] and F(v["rhs"]) < F(v["lhs"]) < 2 * F(v["rhs"])

    def test_same_endpoints_rejected(self):
        with pytest.raises(ValueError):
            simon_check(path(3), F(1, 2), F(2), 1, 1)
