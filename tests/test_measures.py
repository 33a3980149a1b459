import hashlib
import math
import random
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from rcpotts import coupling, flows, graphs, measures
from rcpotts.coupling import SamplerConfig, bonds_given_spins, estimate_two_point, make_rng, sw_sample
from rcpotts.families import connected_multigraphs_upto, random_multigraph, simple_graphs
from rcpotts.graphs import EnumerationCapExceeded, SUBSET_CROSSOVER, Multigraph, complete, cycle, spin_counts, triangle
from rcpotts.measures import (
    MeasureTable,
    PottsParams,
    RCParams,
    _connection_probs,
    _potts_two_points_exact,
    ground_states,
    potts_partition,
    potts_partition_exact,
    potts_two_point,
    potts_two_point_exact,
    rc_connection_prob,
    rc_measure_table,
    rc_partition,
    tutte_rc_identity,
    tutte_rc_params,
    verify_corr_conn,
    verify_partition_identity,
    zero_temperature_check,
)
from rcpotts.flows import compflow_identity, count_flows, flow_connection_mc, flow_correlation_mc
from rcpotts.polynomials import eval_terms, multivariate_tutte, tutte_poly

from .conftest import bfs_component_count, bfs_reachable, seeded_multigraph
from .test_graphs import petersen

F = Fraction
EDGE = Multigraph(2, ((0, 1),))

PQ_GRID = [
    (F(1, 2), F(2)), (F(1, 4), F(3)), (F(3, 4), F(2)), (F(1, 3), F(1)),
    (F(2, 3), F(4)), (F(1, 2), F(1, 2)), (F(1, 5), F(5)), (F(4, 5), F(3)),
    (F(2, 5), F(7, 2)), (F(3, 5), F(2)),
]


class TestRCPartition:
    def test_single_edge_formula(self):
        for p, q in PQ_GRID:
            assert rc_partition(EDGE, RCParams(p, q)) == (1 - p) * q**2 + p * q

    def test_single_edge_half_two(self):
        assert rc_partition(EDGE, RCParams(F(1, 2), F(2))) == 3

    def test_q_one_normalizes(self):
        for g in (triangle(), cycle(4)):
            for p in (F(1, 4), F(1, 2), F(7, 9)):
                assert rc_partition(g, RCParams(p, F(1))) == 1

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RCParams(F(0), F(2))
        with pytest.raises(ValueError):
            RCParams(F(1, 2), F(0))


class TestRCMeasure:
    def test_single_edge_table(self):
        t = rc_measure_table(EDGE, RCParams(F(1, 2), F(2)))
        assert t.probs == {0: F(2, 3), 1: F(1, 3)}

    def test_sums_to_one(self):
        t = rc_measure_table(triangle(), RCParams(F(1, 2), F(2)))
        assert sum(t.probs.values()) == 1

    def test_q_one_is_product_measure(self):
        p = F(1, 3)
        t = rc_measure_table(triangle(), RCParams(p, F(1)))
        # single-edge events independent with probability p each
        for e in range(3):
            je = t.prob(lambda a, e=e: a >> e & 1)
            assert je == p
        for e in range(3):
            for f in range(e + 1, 3):
                joint = t.prob(lambda a, e=e, f=f: (a >> e & 1) and (a >> f & 1))
                assert joint == p * p

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError, match="^negative probability$"):
            MeasureTable(("bond", 1), {0: F(3, 2), 1: F(-1, 2)})

    @pytest.mark.parametrize(("probs", "total"), [({0: F(1, 2), 1: F(1)}, "3/2"), ({0: F(1, 3)}, "1/3"), ({}, "0")])
    def test_sum_other_than_one_rejected(self, probs, total):
        with pytest.raises(ValueError, match=f"^probabilities sum to {total}, not 1$"):
            MeasureTable(("bond", 1), probs)

    @pytest.mark.parametrize("config", [4, 7, -1])
    def test_configuration_outside_the_bond_space_rejected(self, config):
        with pytest.raises(ValueError, match="outside the bond space of 2 edges"):
            MeasureTable(("bond", 2), {1: F(1, 2), config: F(1, 2)})

    @pytest.mark.parametrize("probs", [{0: 0.5, 1: 0.5}, {0: F(1, 2), 1: 0.5}, {0: "1"}])
    def test_inexact_probability_rejected(self, probs):
        with pytest.raises(ValueError, match="exact"):
            MeasureTable(("bond", 1), probs)

    def test_kept_weights_are_the_lcm_route(self):
        tables = [rc_measure_table(g, RCParams(p, q)) for g in (EDGE, triangle(), cycle(4)) for p, q in PQ_GRID]
        tables += [coupling.joint_table(triangle(), F(1, 3), 2), MeasureTable(("bond", 1), {0: 1, 1: 0})]
        for t in tables:
            d = math.lcm(*(x.denominator for x in t.probs.values()))
            assert t.d == d
            assert t.weights == tuple(int(x * d) for x in t.probs.values())
            assert t.prob(lambda cfg: True) == 1

    def test_table_is_frozen(self):
        t = rc_measure_table(EDGE, RCParams(F(1, 2), F(2)))
        with pytest.raises(AttributeError):
            t.probs = {0: F(1)}


def _small_multigraph(rng: random.Random, m: int) -> Multigraph:
    """1-5 vertices and m edges drawn from a few vertex pairs, loops included."""
    n = rng.randrange(1, 6)
    pool = rng.sample([(u, v) for u in range(n) for v in range(u, n)], min(rng.randrange(1, 4), n * (n + 1) // 2))
    return Multigraph(n, tuple(rng.choice(pool) for _ in range(m)))


class TestRCMeasureParity:
    """The one-pass table against a per-subset Fraction sum with BFS
    clusters, on multigraphs on both sides of SUBSET_CROSSOVER."""

    @pytest.mark.parametrize("q", [F(1, 2), F(1), F(3, 2), F(3)])
    def test_matches_per_subset_weights(self, q):
        rng = random.Random(f"rc-table-{q}")
        for m in [*range(SUBSET_CROSSOVER + 2)] * 3:
            g = _small_multigraph(rng, m)
            p = F(rng.randrange(1, 10), 10)
            weights = {a: p ** a.bit_count() * (1 - p) ** (m - a.bit_count()) * q ** bfs_component_count(g, a)
                       for a in range(1 << m)}
            z = sum(weights.values())
            want = {a: w / z for a, w in weights.items()}
            got = rc_measure_table(g, RCParams(p, q)).probs
            assert list(got.items()) == list(want.items())


def _per_pair_connection_probs(g, params, pairs):
    """phi(x <-> y) per pair by one ``eval_terms`` call per tally."""
    counts, hits = graphs.subset_counts(g, pairs)
    weigh = lambda tally: eval_terms({(a, g.m - a, k): c for (a, k), c in tally.items()},
                                     params.p, 1 - params.p, params.q)
    return {pair: weigh(hit) / weigh(counts) for pair, hit in hits.items()}


def _per_pair_two_points(g, q, w, pairs):
    """tau(x, y) per pair by one ``eval_terms`` call per tally."""
    counts, hits = spin_counts(g, q, pairs=pairs)
    weigh = lambda tally: eval_terms({(j,): c for j, c in tally.items()}, F(w))
    return {pair: weigh(hit) / weigh(counts) - F(1, q) for pair, hit in hits.items()}


class TestPairTallyParity:
    """The pair tallies weigh each key once; they must equal the per-pair
    ``eval_terms`` route, value for value and in the same key order."""

    @pytest.mark.parametrize("q", [F(1, 2), F(1), F(3, 2), F(3)])
    def test_connection_probs(self, q):
        rng = random.Random(f"connection-{q}")
        for m in [*range(SUBSET_CROSSOVER + 2)] * 2:
            g = _small_multigraph(rng, m)
            params = RCParams(F(rng.randrange(1, 10), 10), q)
            pairs = [(x, y) for x in range(g.n) for y in range(g.n)]
            got = _connection_probs(g, params, pairs)
            assert list(got.items()) == list(_per_pair_connection_probs(g, params, pairs).items())

    @pytest.mark.parametrize("q", [2, 3])
    def test_potts_two_points(self, q):
        rng = random.Random(f"two-point-{q}")
        for m in [*range(SUBSET_CROSSOVER + 2)] * 2:  # q^n on both sides of SPIN_CROSSOVER
            g = _small_multigraph(rng, m)
            w = rng.choice([1 / (1 - F(rng.randrange(1, 10), 10)), F(5, 2), F(2, 7)])
            pairs = [(x, y) for x in range(g.n) for y in range(g.n)]
            got = _potts_two_points_exact(g, q, w, pairs)
            assert list(got.items()) == list(_per_pair_two_points(g, q, w, pairs).items())


class TestConnectionProb:
    def test_self_connection(self):
        assert rc_connection_prob(triangle(), RCParams(F(1, 2), F(2)), 1, 1) == 1

    def test_single_edge(self):
        assert rc_connection_prob(EDGE, RCParams(F(1, 2), F(2)), 0, 1) == F(1, 3)

    def test_disconnected_pair(self):
        g = Multigraph(3, ((0, 1),))
        assert rc_connection_prob(g, RCParams(F(1, 2), F(2)), 0, 2) == 0


def _connection_oracle(g: Multigraph, p: Fraction, q: Fraction, pairs) -> dict:
    """phi(x <-> y) for each pair, summed subset by subset with BFS clusters."""
    z, hits = F(0), {pair: F(0) for pair in pairs}
    for a in range(1 << g.m):
        w = p ** a.bit_count() * (1 - p) ** (g.m - a.bit_count()) * q ** bfs_component_count(g, a)
        z += w
        for x, y in pairs:
            if y in bfs_reachable(g, a, x):
                hits[x, y] += w
    return {pair: hit / z for pair, hit in hits.items()}


# (n, m, seed): random multigraphs with loops and parallel edges, 7 to 12 edges
LARGE_CONNECTION_CASES = [(5, 7, 0), (6, 9, 1), (4, 10, 2), (6, 12, 3)]


class TestConnectionAboveCrossover:
    @pytest.mark.parametrize(("n", "m", "seed"), LARGE_CONNECTION_CASES)
    def test_connection_prob_matches_bfs_sum(self, n, m, seed):
        assert m >= SUBSET_CROSSOVER
        g = random_multigraph(n, m, make_rng(seed), loops=True)
        params = RCParams(F(2, 5), F(3, 2))
        want = _connection_oracle(g, params.p, params.q, [(0, n - 1), (1, 2)])
        for (x, y), phi in want.items():
            assert rc_connection_prob(g, params, x, y) == phi

    @pytest.mark.parametrize(("n", "m", "seed"), LARGE_CONNECTION_CASES)
    def test_corr_conn_matches_bfs_sum(self, n, m, seed):
        g = random_multigraph(n, m, make_rng(seed), loops=True)
        p, q = F(1, 3), 3
        pairs = list(combinations(range(n), 2))
        phi = _connection_oracle(g, p, F(q), pairs)
        assert _connection_probs(g, RCParams(p, F(q)), pairs) == phi
        tau = _potts_two_points_exact(g, q, 1 / (1 - p), pairs)
        assert all(tau[pair] == (1 - F(1, q)) * phi[pair] for pair in pairs)
        report = verify_corr_conn(g, p, q)
        assert report["pass"] and report["max_abs_deviation"] == "0"


class TestPotts:
    def test_single_edge_exact(self):
        # e^beta = 2: two agreeing states weigh 2, two disagreeing weigh 1
        assert potts_partition_exact(EDGE, 2, F(2)) == 6

    def test_beta_zero(self):
        assert potts_partition(triangle(), PottsParams(beta=0.0, q=3)) == pytest.approx(27.0)

    def test_antiferromagnetic_limit_approaches_colourings(self):
        z = potts_partition(
            triangle(), PottsParams(beta=30.0, q=3, couplings=(-1, -1, -1))
        )
        assert z == pytest.approx(6.0, abs=1e-9)

    def test_two_point_honours_spin_cap(self):
        with pytest.raises(EnumerationCapExceeded):
            potts_two_point(complete(16), PottsParams(beta=1.0, q=3), 0, 1)  # 3^16 spin states

    def test_two_point_exact_honours_spin_cap(self):
        with pytest.raises(EnumerationCapExceeded):
            potts_two_point_exact(complete(16), 3, F(2), 0, 1)

    def test_corr_conn_checks_spin_cap_before_enumerating(self):
        # 3^15 spin states, above the default cap; no edges, so the bond cap passes
        with pytest.raises(EnumerationCapExceeded):
            verify_corr_conn(Multigraph(15, ()), F(1, 2), 3)

    def test_two_point_survives_large_beta(self):
        # tau is a ratio, so the largest energy is shifted out before exp
        assert potts_two_point(triangle(), PottsParams(beta=1000, q=2), 0, 1) == 0.5
        with pytest.raises(OverflowError, match="Z_P overflows a float at beta = 1000"):
            potts_partition(triangle(), PottsParams(beta=1000, q=2))

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_non_finite_beta_rejected(self, beta):
        with pytest.raises(ValueError, match="beta must be finite"):
            PottsParams(beta=beta, q=2)

    def test_overflow_at_huge_beta(self):
        # beta * 3 is inf, so every weight is inf / inf: raise, never return nan
        with pytest.raises(OverflowError):
            potts_partition(triangle(), PottsParams(beta=1e308, q=2))
        with pytest.raises(OverflowError):
            potts_two_point(triangle(), PottsParams(beta=1e308, q=2), 0, 1)

    def test_two_point_vertex_range(self):
        with pytest.raises(ValueError, match="vertex out of range"):
            potts_two_point(triangle(), PottsParams(beta=1.0, q=2), 0, 3)
        with pytest.raises(ValueError, match="vertex out of range"):
            potts_two_point(triangle(), PottsParams(beta=1.0, q=2), -1, 0)

    def test_two_point_exact_vertex_range(self):
        with pytest.raises(ValueError, match="vertex out of range"):
            potts_two_point_exact(triangle(), 2, F(2), 0, 7)
        with pytest.raises(ValueError, match="vertex out of range"):
            potts_two_point_exact(triangle(), 2, F(2), -1, 0)

    def test_two_point_beta_zero(self):
        assert potts_two_point(EDGE, PottsParams(beta=0.0, q=2), 0, 1) == pytest.approx(0.0)

    def test_two_point_same_vertex(self):
        assert potts_two_point(triangle(), PottsParams(beta=1.0, q=4), 2, 2) == pytest.approx(0.75)

    def test_two_point_single_edge_exact(self):
        assert potts_two_point_exact(EDGE, 2, F(2), 0, 1) == F(1, 6)

    def test_two_point_exact_int_weight_stays_exact(self):
        tau = potts_two_point_exact(triangle(), 2, 3, 0, 1)
        assert tau == F(1, 3) and type(tau) is F

    def test_external_field_biases_spins(self):
        fields = ((2.0, 0.0), (2.0, 0.0))
        z_biased = potts_partition(EDGE, PottsParams(beta=1.0, q=2, fields=fields))
        z_free = potts_partition(EDGE, PottsParams(beta=1.0, q=2))
        assert z_biased > z_free

    def test_ising_equivalence_q2(self):
        # q=2 Potts at beta equals the +-1 Ising model at beta/2 up to the
        # constant e^(beta/2) per edge: check agreement probabilities match.
        beta = 0.8
        g = triangle()
        pi_agree = potts_two_point(g, PottsParams(beta=beta, q=2), 0, 1) + 0.5
        # Ising route: weights exp((beta/2) * sum_e s_u s_v), s in {-1,+1}
        z = num = 0.0
        for code in range(2**g.n):
            s = [1 if code >> i & 1 else -1 for i in range(g.n)]
            w = math.exp(beta / 2 * sum(s[u] * s[v] for u, v in g.edges))
            z += w
            num += w * (1 + s[0] * s[1]) / 2
        assert pi_agree == pytest.approx(num / z, rel=1e-12)


def torus(k: int) -> Multigraph:
    return Multigraph(k * k, tuple(
        e for r in range(k) for c in range(k)
        for e in ((k * r + c, k * r + (c + 1) % k), (k * r + c, k * ((r + 1) % k) + c))
    ))


def _pinned_spin_inputs():
    """(g, q, couplings, pairs): 120 seeded multigraphs with loops, some
    with nonzero couplings of either sign, then Petersen, the 3x3 torus and
    C12 with the default couplings."""
    rng = random.Random(23)
    for i in range(120):
        g = seeded_multigraph(rng, loops=True)
        q = rng.choice((2, 3, 4))
        while q > 2 and q**g.n > 4096:
            q -= 1
        couplings = tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in g.edges) if i % 2 else None
        pairs = [tuple(rng.sample(range(g.n), 2)) for _ in range(rng.randrange(4))] if g.n > 1 else []
        yield g, q, couplings, pairs
    for g, qs in ((petersen(), (2, 3)), (torus(3), (2, 3)), (cycle(12), (2,))):
        for q in qs:
            yield g, q, None, [(0, 1), (0, g.n // 2), (g.n - 1, 2)]


def test_spin_tallies_pinned():
    """The spin tallies keep their counts and the order of their keys, and
    the float two-point function its values: a SHA-256 over both."""
    h = hashlib.sha256()
    for g, q, couplings, pairs in _pinned_spin_inputs():
        counts, hits = spin_counts(g, q, couplings, pairs)
        h.update(repr((list(counts.items()), [(pair, list(hit.items())) for pair, hit in hits.items()])).encode())
        for beta in (0.3, 1.1):
            params = PottsParams(beta=beta, q=q, couplings=couplings)
            h.update(repr(potts_partition(g, params)).encode())
            if pairs:
                h.update(repr(potts_two_point(g, params, *pairs[0])).encode())
    assert h.hexdigest() == "9be5637f1798c339ddaa812af069ded4f962e8dfb3290794867166e4b65c2b7a"


class TestIdentities:
    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("p", [F(1, 4), F(1, 2), F(3, 4)])
    def test_corr_conn_sweep(self, p, q):
        for g in simple_graphs(4, connected=True):
            assert verify_corr_conn(g, p, q)["pass"]

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("p", [F(1, 3), F(3, 4)])
    def test_corr_conn_report_matches_all_ordered_pairs(self, p, q):
        """Checking each distinct pair once reports what checking all n^2
        ordered pairs did, byte for byte."""

        def all_ordered_pairs(g):
            w = 1 / (1 - p)
            pairs = list(product(range(g.n), repeat=2))
            tau = _potts_two_points_exact(g, q, w, pairs)
            phi = _connection_probs(g, RCParams(p, F(q)), pairs)
            max_dev = max(
                (abs(tau[pair] - (1 - F(1, q)) * phi[pair]) for pair in pairs), default=F(0)
            )
            return {
                "identity": "corr-conn",
                "instances": len(phi),
                "max_abs_deviation": str(max_dev),
                "pass": max_dev == 0,
            }

        for g in connected_multigraphs_upto(4, 5):
            assert verify_corr_conn(g, p, q) == all_ordered_pairs(g)

    def test_partition_identity_sweep(self):
        for g in simple_graphs(4):
            for p, q in PQ_GRID:
                if q.denominator == 1 and q >= 2:
                    assert verify_partition_identity(g, p, int(q))["pass"]

    def test_rcpart_equals_multivariate_tutte(self):
        for g in simple_graphs(4):
            for p, q in PQ_GRID[:5]:
                v = p / (1 - p)
                z = rc_partition(g, RCParams(p, q))
                assert z == (1 - p) ** g.m * multivariate_tutte(g, q, [v] * g.m)

    def test_tutte_rc_identity_sweep(self):
        for g in simple_graphs(4, connected=True):
            if g.n < 2:
                continue
            for p, q in PQ_GRID:
                assert tutte_rc_identity(g, p, q)["pass"]

    @pytest.mark.parametrize(("q", "dev"), [(F(3), "24"), (F(3, 2), "375/128")])
    def test_tutte_rc_identity_fails_on_another_graphs_polynomial(self, q, dev, monkeypatch):
        # a known-false control: the triangle checked against C4's T(x, y)
        monkeypatch.setattr(measures, "tutte_poly", lambda g, cache=None: tutte_poly(cycle(4)))
        rep = tutte_rc_identity(triangle(), F(1, 2), q)
        assert rep["rc_deviation"] == dev and rep["pass"] is False

    def test_tutte_rc_identity_fails_on_a_wrong_potts_sum(self, monkeypatch):
        # a known-false control that only the Potts side sees
        exact = measures.potts_partition_exact
        monkeypatch.setattr(measures, "potts_partition_exact", lambda *args: exact(*args) + 1)
        rep = tutte_rc_identity(triangle(), F(1, 2), F(3))
        assert (rep["rc_deviation"], rep["potts_deviation"], rep["pass"]) == ("0", "1", False)

    def test_tutte_rc_rejects_disconnected(self):
        g = Multigraph(4, ((0, 1), (2, 3)))
        with pytest.raises(ValueError):
            tutte_rc_identity(g, F(1, 2), F(2))

    def test_change_of_variables(self):
        u, v = tutte_rc_params(F(1, 2), F(2))
        assert (u, v) == (3, 2)


def _lose_full_set(monkeypatch):
    """Make the subset kernel, as ``measures`` reads it, lose one subset:
    the full edge set, from key (|E|, 1) of every tally it returns."""

    def subset_counts(g, pairs=()):
        counts, hits = graphs.subset_counts(g, pairs)
        for tally in (counts, *hits.values()):
            tally[g.m, 1] -= 1
        return counts, hits

    monkeypatch.setattr(measures, "subset_counts", subset_counts)
    monkeypatch.setattr(measures, "subset_size_components", lambda g: subset_counts(g)[0])


class TestGatesFailOnALostSubset:
    """Negative controls: each gate fed by the subset kernel reports a loss
    of one subset on K4 (6 edges, the block path) as a failure."""

    def test_partition_identity(self, monkeypatch):
        p, q = F(1, 2), 3
        assert verify_partition_identity(complete(4), p, q)["pass"]
        _lose_full_set(monkeypatch)
        report = verify_partition_identity(complete(4), p, q)
        assert report["pass"] is False
        assert F(report["max_abs_deviation"]) == p**6 * q  # the lost subset's weight

    def test_corr_conn(self, monkeypatch):
        assert verify_corr_conn(complete(4), F(1, 2), 3)["pass"]
        _lose_full_set(monkeypatch)
        report = verify_corr_conn(complete(4), F(1, 2), 3)
        assert report["pass"] is False
        assert F(report["max_abs_deviation"]) == F(17, 7700)  # non-zero, and below 1/100


class TestGroundStates:
    def test_frustrated_triangle(self):
        states, frustrated = ground_states(triangle(), 2, [-1, -1, -1])
        assert frustrated and states == []

    def test_triangle_three_colours(self):
        states, frustrated = ground_states(triangle(), 3, [-1, -1, -1])
        assert not frustrated and len(states) == 6

    def test_ferromagnetic_constant_per_component(self):
        g = Multigraph(4, ((0, 1), (2, 3)))
        states, frustrated = ground_states(g, 3, [1, 1])
        assert not frustrated and len(states) == 9

    def test_honours_spin_cap(self):
        g = complete(16)  # 3^16 spin states, above the default cap
        with pytest.raises(EnumerationCapExceeded):
            ground_states(g, 3, [1] * g.m)


class TestZeroTemperature:
    def test_triangle_q3(self):
        rep = zero_temperature_check(triangle(), 3, [2.0, 5.0, 10.0, 20.0, 40.0])
        assert rep["pass"] and rep["chi"] == 6.0

    def test_frustrated_goes_to_zero(self):
        rep = zero_temperature_check(triangle(), 2, [2.0, 5.0, 10.0, 20.0, 40.0])
        assert rep["pass"] and rep["chi"] == 0.0

    def test_single_edge_q2(self):
        rep = zero_temperature_check(EDGE, 2, [2.0, 5.0, 10.0, 20.0, 40.0])
        assert rep["pass"] and rep["chi"] == 2.0

    @pytest.mark.parametrize("g", [triangle(), complete(5)], ids=["triangle", "K5"])
    def test_values_equal_potts_partition(self, g):
        """One enumeration for every beta gives the very floats of one
        potts_partition call per beta."""
        schedule = [0.5, 2.0, 5.0, 10.0, 40.0]
        rep = zero_temperature_check(g, 3, schedule)
        couplings = tuple([-1] * g.m)
        assert rep["z_values"] == [potts_partition(g, PottsParams(beta=b, q=3, couplings=couplings)) for b in schedule]

    def test_rejects_q_below_two(self):
        with pytest.raises(ValueError):
            zero_temperature_check(triangle(), 1, [2.0])

    def test_schedule_stopping_early_fails(self):
        # a known-false control: monotone, but far from chi(3) = 18 at beta = 1/2
        rep = zero_temperature_check(cycle(4), 3, [0.1, 0.5])
        assert rep["monotone"] and rep["pass"] is False


# Each model input has one reader in ``measures``.  Every entry point that
# takes the input raises that reader's ValueError on a bad value, before any
# random draw: entry -> (a call on the value, {bad value: message}).
_INTEGER_Q = dict.fromkeys([2.5, 1, 0, -2, math.nan, "3"], "q must be an integer >= 2")
_REAL_Q = {0: "q must be positive", -2: "q must be positive",
           math.nan: "q must be a finite real number", "3": "q must be a finite real number"}
_P = {**dict.fromkeys([0, 1, 1.5], r"p must lie in \(0,1\)"), "x": "p must be a real number"}
_CFG = SamplerConfig(burn_in=0, samples=10)
MODEL_INPUTS = {
    "PottsParams q": (lambda q: potts_partition(triangle(), PottsParams(beta=1.0, q=q)), _INTEGER_Q),
    "count_flows q": (lambda q: count_flows(triangle(), q), _INTEGER_Q),
    "compflow_identity q": (lambda q: compflow_identity(triangle(), 0.3, q), _INTEGER_Q),
    "sw_sample q": (lambda q: next(sw_sample(triangle(), 0.5, q, _CFG)), _INTEGER_Q),
    "flow_correlation_mc q": (lambda q: flow_correlation_mc(triangle(), 0.5, q, 0, 1, _CFG), _REAL_Q),
    "flow_connection_mc q": (lambda q: flow_connection_mc(triangle(), 0.5, q, 0, 1, _CFG), _REAL_Q),
    "RCParams p": (lambda p: RCParams(p, F(2)), _P),
    "RCParams q": (lambda q: RCParams(F(1, 2), q), {"3": "q must be a real number", 0: "q must be positive"}),
    "PottsParams beta": (lambda beta: PottsParams(beta=beta, q=2), {"1": "beta must be a real number",
                                                                    math.inf: "beta must be finite"}),
    "estimate_two_point q": (lambda q: estimate_two_point(triangle(), iter(_no_draws, None), 0, 1, q), _INTEGER_Q),
    "sw_sample p": (lambda p: next(sw_sample(triangle(), p, 2, _CFG)), _P),
    "bonds_given_spins p": (lambda p: bonds_given_spins(triangle(), (0, 0, 0), p, None), _P),
    "flow_connection_mc p": (lambda p: flow_connection_mc(triangle(), p, 2, 0, 1, _CFG), _P),
    "compflow_identity p": (lambda p: compflow_identity(triangle(), p, 2), _P),
}


def _no_draws(*args, **kwargs):
    raise AssertionError("a bad input reached the random stream")


@pytest.mark.parametrize(
    "entry, value", [(entry, value) for entry, (_, bad) in MODEL_INPUTS.items() for value in bad], ids=repr
)
def test_bad_model_input_raises_its_readers_message(entry, value, monkeypatch):
    for module in (coupling, flows):
        monkeypatch.setattr(module, "make_rng", _no_draws)
    call, bad = MODEL_INPUTS[entry]
    with pytest.raises(ValueError, match=f"^{bad[value]}$"):
        call(value)


@pytest.mark.parametrize("q", [2.0, np.int64(3)], ids=repr)
def test_integral_q_reads_as_its_int(q):
    g = Multigraph(3, ((0, 1), (1, 2), (0, 2), (0, 1)))
    cfg = SamplerConfig(seed=3, burn_in=2, samples=20)
    outputs = [
        lambda q: (PottsParams(beta=0.7, q=q), potts_partition(g, PottsParams(beta=0.7, q=q))),
        lambda q: count_flows(g, q),
        lambda q: compflow_identity(g, 0.4, q),
        lambda q: list(sw_sample(g, 0.6, q, cfg)),
    ]
    for output in outputs:
        assert repr(output(q)) == repr(output(int(q)))
