import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from rcpotts.coupling import (
    JointConfig,
    _RawDraws,
    SamplerConfig,
    batch_means,
    bonds_given_spins,
    estimate_two_point,
    joint_table,
    kernel_step_distribution,
    make_rng,
    open_clusters,
    satisfies_coupling_event,
    spins_given_bonds,
    sw_sample,
)
from rcpotts.graphs import Multigraph, complete, cycle, triangle
from rcpotts.measures import (
    PottsParams,
    RCParams,
    potts_two_point,
    rc_measure_table,
)

from .test_graphs import petersen
from .test_measures import torus

F = Fraction
EDGE = Multigraph(2, ((0, 1),))
MULTI = Multigraph(5, ((0, 1), (1, 1), (1, 2), (0, 1), (2, 3)))

# SHA-256 of each chain's "spins:bonds;" stream as drawn through the numpy
# Generator calls of bonds_given_spins and spins_given_bonds; any change to a
# seeded draw breaks one.
STREAM_DIGESTS = {
    "k20": (complete(20), 3 / 20, 3, SamplerConfig(seed=1, burn_in=0, samples=300), 0,
            "4bb618de46c16ade4c2d2ffdfee33e5f16c79581386887591fba6c098f8362fd"),
    # 2**32 mod q = 2**30 - 5: about one 32-bit draw in four is redrawn
    "q-rejection": (MULTI, 0.6, 3 * 2**30 + 5, SamplerConfig(seed=2, burn_in=2, samples=40, thinning=2), 0,
                    "ebdae52af564f7c721603ee552c29c03863768b46302bbd3724c74e65b9de373"),
    "q-64bit": (MULTI, 0.6, 2**40, SamplerConfig(seed=3, burn_in=1, samples=40), 1,
                "9266f729a3f5d4667b3cd30956c622f2fba9eb2ecf6128f84d0c73fa88c70bc2"),
    "q-2**63": (MULTI, 0.6, 2**63, SamplerConfig(seed=3, burn_in=1, samples=40), 0,
                "d37a9d58086ca3632ad7fa653b219f80577e3bcc7f30e7bfaf3e18ace8f213cd"),
    # m = 4,950 edge draws per sweep
    "k100": (complete(100), 3 / 100, 3, SamplerConfig(seed=4, burn_in=0, samples=3), 0,
             "810d3ad16d216ac6517e920c38f1c6c30fe48add50e92f366ff08b8d8e9c2825"),
    "fraction-p": (complete(6), F(1, 3), 4, SamplerConfig(seed=5, burn_in=5, samples=100, thinning=3), 2,
                   "16365b9f6d6a62928e4bb0f4709d70ebe4f76ff4ee9de7e3d8cc6c75865b2865"),
    "high-p": (cycle(12), 0.999999, 2, SamplerConfig(seed=6, burn_in=0, samples=50), 0,
               "0c6093e683465db13793e26a4f619d4f8bdf79d7e74ee8bd19ade804b60ab8ce"),
    "low-p": (cycle(12), 1e-9, 5, SamplerConfig(seed=6, burn_in=0, samples=50), 0,
              "b220fe987c7954102b3aa4a64603df1ba49d5af6de40b476765d8d8e3f88bc45"),
    # about 39,000 words: redrawn and kept halves across nine block refills
    "q-rejection-long": (MULTI, 0.6, 3 * 2**30 + 5, SamplerConfig(seed=9, burn_in=0, samples=6000), 1,
                         "b269f7b7ed88ccc7f85bd2392e8b169540672af5d778a1e886782226de1f7263"),
    # the benchmark's Swendsen-Wang graphs
    "petersen-q2": (petersen(), 0.4, 2, SamplerConfig(seed=21, burn_in=10, samples=2000), 0,
                    "717aa747253b4927cc426f65b96846bd337649e05ae36a9ab25ed2bfd019a6dd"),
    "petersen-q3": (petersen(), 0.6, 3, SamplerConfig(seed=22, burn_in=10, samples=2000), 0,
                    "cc493bc4751406da3459d24570b83ac541e861bfe01ba45b643ad7fd5baa8f9d"),
    "torus3-q2": (torus(3), 0.6, 2, SamplerConfig(seed=23, burn_in=10, samples=2000), 0,
                  "7c88518e9c972ecaa65883a75848ef8a26a42913ca8a5267c3ce52463a6d8ee6"),
    "torus3-q3": (torus(3), 0.4, 3, SamplerConfig(seed=24, burn_in=10, samples=2000), 0,
                  "6bda9ea93d66c0fd77e750ffdc0e3e662441ffdf41ba8032a9a5a8a6e80d73e1"),
    "c12-q2": (cycle(12), 0.5, 2, SamplerConfig(seed=25, burn_in=10, samples=2000), 0,
               "95bd09a5352ac2e12376f5da588e4d0e5aeeef3a56f2df3c5ff4219b2f8314c7"),
    "c12-q3": (cycle(12), 0.5, 3, SamplerConfig(seed=26, burn_in=10, samples=2000), 0,
               "9034c2d0c860fd046b02df030f2f1f69125f4fbb57237f1bf7b953a6b1821123"),
}


class TestJointTable:
    def test_single_edge_support(self):
        t = joint_table(EDGE, F(1, 2), 2)
        # 4 spin pairs with bonds closed + 2 agreeing pairs with the bond open
        assert len(t.probs) == 6
        assert sum(t.probs.values()) == 1

    def test_open_edge_forces_agreement(self):
        t = joint_table(EDGE, F(1, 2), 2)
        for cfg in t.probs:
            assert satisfies_coupling_event(EDGE, cfg.spins, cfg.bonds)

    def test_bond_marginal_matches_random_cluster(self):
        for p, q in [(F(1, 2), 2), (F(1, 3), 3), (F(3, 4), 2)]:
            joint = joint_table(triangle(), p, q)
            rc = rc_measure_table(triangle(), RCParams(p, F(q)))
            marginal = {}
            for cfg, pr in joint.probs.items():
                marginal[cfg.bonds] = marginal.get(cfg.bonds, F(0)) + pr
            assert marginal == {a: pr for a, pr in rc.probs.items() if pr}

    def test_spin_marginal_matches_potts(self):
        p, q = F(1, 2), 2
        joint = joint_table(triangle(), p, q)
        marginal = {}
        for cfg, pr in joint.probs.items():
            marginal[cfg.spins] = marginal.get(cfg.spins, F(0)) + pr
        # Potts with e^beta = 1/(1-p) = 2
        w = 1 / (1 - p)
        weights = {}
        from itertools import product

        for spins in product(range(q), repeat=3):
            wt = F(1)
            for u, v in triangle().edges:
                if spins[u] == spins[v]:
                    wt *= w
            weights[spins] = wt
        z = sum(weights.values())
        assert marginal == {s: wt / z for s, wt in weights.items()}


class TestConditionals:
    def test_spins_constant_on_clusters(self):
        rng = make_rng(7)
        for _ in range(50):
            bonds = int(rng.integers(0, 8))
            spins = spins_given_bonds(triangle(), bonds, 3, rng)
            assert satisfies_coupling_event(triangle(), spins, bonds)

    def test_bonds_closed_on_disagreement(self):
        rng = make_rng(11)
        spins = (0, 1, 0)
        for _ in range(50):
            bonds = bonds_given_spins(triangle(), spins, 0.9, rng)
            assert satisfies_coupling_event(triangle(), spins, bonds)

    def test_open_clusters_labels(self):
        labels = open_clusters(triangle(), 0b001)
        assert labels[0] == labels[1] != labels[2]

    def test_stationarity_exact(self):
        for p, q in [(F(1, 2), 2), (F(1, 3), 3)]:
            t = joint_table(triangle(), p, q)
            t2 = kernel_step_distribution(triangle(), t, p, q)
            assert t2.probs == t.probs

    def test_non_stationary_table_moves(self):
        # point mass is not stationary for the coupled kernels
        point = JointConfig((0, 0), 0)
        from rcpotts.measures import MeasureTable

        t = MeasureTable(("joint", 2, 2, 1), {point: F(1)})
        t2 = kernel_step_distribution(EDGE, t, F(1, 2), 2)
        assert len(t2.probs) > 1


class TestRng:
    def test_reproducible(self):
        a = make_rng(42).integers(0, 1000, size=8)
        b = make_rng(42).integers(0, 1000, size=8)
        assert list(a) == list(b)

    def test_streams_differ(self):
        a = make_rng(42, stream=0).integers(0, 1000, size=8)
        b = make_rng(42, stream=1).integers(0, 1000, size=8)
        assert list(a) != list(b)

    def test_generator_double_is_top_53_bits(self):
        # the raw-word reader's cut for r < p rests on this
        for seed in range(20):
            words = make_rng(seed).bit_generator.random_raw(1000)
            expected = ((words >> np.uint64(11)) * 2.0**-53).tolist()
            assert make_rng(seed).random(1000).tolist() == expected

    def test_raw_reader_matches_generator(self):
        # _RawDraws must give what the Generator gives on the same stream, for
        # interleaved random(k), integers(0, q, size=k) and scalar draws; a
        # numpy release that changes either algorithm fails here
        qs = (1, 2, 3, 1000, 2**31 + 11, 3 * 2**30 + 5, 2**32 - 1, 2**32, 2**32 + 3, 3 * 2**61, 2**63)
        ps = (0.5, F(1, 3), 1e-9, 0.999999, 1 - F(1, 10**20))
        for seed in range(20):
            plan = random.Random(seed)
            p = ps[seed % len(ps)]
            rng = make_rng(seed)
            draws = _RawDraws(make_rng(seed).bit_generator, p)
            for _ in range(40):
                q, k = plan.choice(qs), plan.choice((0, 1, 2, 3, 7, 40, 5000))
                op = plan.randrange(3)
                if op == 0:
                    assert draws.below(k) == [i for i, r in enumerate(rng.random(k).tolist()) if r < p]
                elif op == 1:
                    assert draws.integers(q, k) == rng.integers(0, q, size=k).tolist()
                else:
                    assert draws.integers(q, 1) == [int(rng.integers(0, q))]
            # a one-value range reads no word
            assert draws.integers(1, 5) == [0] * 5
            assert draws.integers(2**32, 3) == rng.integers(0, 2**32, size=3).tolist()

    def test_kept_half_survives_a_refill(self):
        # one draw leaves its word's high half kept; 5,000 doubles then force
        # a refill before the next 32-bit draw, which must read that half
        for seed in range(5):
            for q in (3, 1000, 3 * 2**30 + 5):
                rng = make_rng(seed)
                draws = _RawDraws(make_rng(seed).bit_generator, 0.5)
                assert draws.integers(q, 3) == rng.integers(0, q, size=3).tolist()
                assert draws.below(5000) == [i for i, r in enumerate(rng.random(5000).tolist()) if r < 0.5]
                assert draws.integers(q, 9) == rng.integers(0, q, size=9).tolist()

    def test_raw_reader_cut_at_drawn_values(self):
        # p equal to a drawn double: that draw is not below p.  A word whose
        # low 11 bits are zero sits exactly on the cut, so an off-by-one cut
        # shows there
        for seed in range(5):
            words = make_rng(seed).bit_generator.random_raw(20000).tolist()
            on_cut = next(w for w in words if w % 2048 == 0)
            for w in (words[0], on_cut):
                for p in ((w >> 11) * 2.0**-53, F(w >> 11, 2**53) + F(1, 2**60)):
                    rs = make_rng(seed).random(20000).tolist()
                    assert _RawDraws(make_rng(seed).bit_generator, p).below(20000) == [
                        i for i, r in enumerate(rs) if r < p
                    ]

    def test_sampler_matches_generator_kernels(self):
        # sw_sample's draws are the public kernels' draws on make_rng(seed, stream)
        plan = random.Random(1)
        for _ in range(30):
            n = plan.randint(1, 8)
            g = Multigraph(n, tuple((plan.randrange(n), plan.randrange(n)) for _ in range(plan.randint(0, 14))))
            p, q = plan.choice((1e-3, 0.3, 0.8, F(2, 7), np.float32(0.3))), plan.choice((2, 3, 7, 3 * 2**30 + 5, 2**40))
            cfg = SamplerConfig(seed=plan.randrange(1000), burn_in=plan.randint(0, 3), samples=20,
                                thinning=plan.randint(1, 2))
            stream = plan.randint(0, 2)
            rng = make_rng(cfg.seed, stream)
            spins = tuple(rng.integers(0, q, size=n).tolist())
            expected = []
            for sweep in range(cfg.burn_in + cfg.samples * cfg.thinning):
                bonds = bonds_given_spins(g, spins, p, rng)
                spins = spins_given_bonds(g, bonds, q, rng)
                if sweep >= cfg.burn_in and (sweep - cfg.burn_in + 1) % cfg.thinning == 0:
                    expected.append(JointConfig(spins, bonds))
            assert list(sw_sample(g, p, q, cfg, stream)) == expected


class TestSampler:
    def test_deterministic_given_seed(self):
        cfg = SamplerConfig(seed=3, burn_in=10, samples=5)
        run1 = list(sw_sample(triangle(), 0.5, 2, cfg))
        run2 = list(sw_sample(triangle(), 0.5, 2, cfg))
        assert run1 == run2

    def test_seeded_stream_unchanged(self):
        # With both bonds open, union-find gives the cluster {0, 2, 3} root 2
        # and {1} root 1, so the sorted roots that receive the spin draws come
        # in the other order than least-vertex labels would give them.
        g = Multigraph(4, ((0, 3), (2, 3)))
        cfg = SamplerConfig(seed=7, burn_in=0, samples=40)
        stream = " ".join(f"{''.join(map(str, c.spins))}:{c.bonds}" for c in sw_sample(g, 0.5, 3, cfg))
        assert stream == (
            "0021:0 2022:0 1020:0 2201:0 0202:0 2122:0 2202:0 0222:0 2012:0 2020:0 "
            "0022:0 2211:2 0000:0 0001:0 1211:0 0200:0 1111:0 1110:0 1221:0 0000:1 "
            "2211:2 2100:2 0021:0 2200:0 0100:2 1222:0 2211:2 0100:2 0020:0 0010:1 "
            "1201:1 2212:1 0221:0 2000:0 2022:2 0100:3 2012:0 1011:1 2022:3 0100:3"
        )
        # a loop, a parallel pair and an isolated vertex, with burn-in and thinning
        g = Multigraph(5, ((0, 1), (1, 1), (1, 2), (0, 1), (2, 3)))
        cfg = SamplerConfig(seed=11, burn_in=3, samples=30, thinning=2)
        stream = " ".join(f"{''.join(map(str, c.spins))}:{c.bonds}" for c in sw_sample(g, 0.6, 3, cfg))
        assert stream == (
            "10001:2 21110:22 20012:4 02012:0 00001:27 11111:30 11121:12 22022:9 22000:27 "
            "22001:26 22112:25 11102:12 22220:17 22201:10 00210:8 11110:1 11111:28 01111:22 "
            "02210:0 22002:2 11110:23 11020:9 22220:15 11112:27 22200:7 00112:1 00110:11 "
            "00002:11 22212:5 02200:6"
        )

    @pytest.mark.parametrize("case", sorted(STREAM_DIGESTS))
    def test_seeded_stream_digest(self, case):
        g, p, q, cfg, stream, expected = STREAM_DIGESTS[case]
        h = hashlib.sha256()
        for c in sw_sample(g, p, q, cfg, stream):
            h.update(f"{','.join(map(str, c.spins))}:{c.bonds};".encode())
        assert h.hexdigest() == expected

    def test_two_point_estimate_unchanged(self):
        # 10,000 samples span several labelling batches; every float is pinned
        g = cycle(12)
        cfg = SamplerConfig(seed=5, burn_in=10, samples=10000)
        est = estimate_two_point(g, sw_sample(g, 0.7, 3, cfg), 0, 3, 3)
        assert repr(est) == (
            "{'tau': 0.06096666666666667, 'tau_se': 0.006269682105136658, "
            "'conn': 0.0845, 'conn_se': 0.004120455995154428, 'n': 10000}"
        )

    def test_samples_respect_coupling_event(self):
        cfg = SamplerConfig(seed=1, burn_in=5, samples=100)
        for jc in sw_sample(triangle(), 0.6, 3, cfg):
            assert satisfies_coupling_event(triangle(), jc.spins, jc.bonds)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            list(sw_sample(triangle(), 1.5, 2, SamplerConfig()))
        for q in (1, 2.5, 2.9):
            with pytest.raises(ValueError, match="q must be an integer >= 2"):
                list(sw_sample(triangle(), 0.5, q, SamplerConfig()))
        for q in (2**63 + 1, 2**64):
            with pytest.raises(ValueError, match=r"q must be at most 2\*\*63"):
                list(sw_sample(triangle(), 0.5, q, SamplerConfig()))
        for p in (0.5j, "0.5", None):
            with pytest.raises(ValueError, match="p must be a real number"):
                list(sw_sample(triangle(), p, 2, SamplerConfig()))
        with pytest.raises(ValueError):
            SamplerConfig(samples=0)

    def test_numpy_real_p_is_its_double(self):
        # float32 -> float64 is exact, so a numpy p draws the chain of its double
        cfg = SamplerConfig(seed=4, burn_in=2, samples=50)
        for p in (np.float32(0.3), np.float16(0.6), np.float64(0.45)):
            assert list(sw_sample(MULTI, p, 3, cfg)) == list(sw_sample(MULTI, float(p), 3, cfg))
        rng, spins = make_rng(2), (0, 0, 1, 0, 2)
        assert bonds_given_spins(MULTI, spins, np.float32(0.3), rng) == bonds_given_spins(
            MULTI, spins, float(np.float32(0.3)), make_rng(2))

    def test_two_point_matches_exact_within_three_se(self):
        g = triangle()
        p, q = 0.5, 2
        cfg = SamplerConfig(seed=12345, burn_in=500, samples=20000)
        est = estimate_two_point(g, sw_sample(g, p, q, cfg), 0, 1, q)
        import math

        beta = -math.log(1 - p)
        tau_exact = potts_two_point(g, PottsParams(beta=beta, q=q), 0, 1)
        assert est["tau_se"] > 0
        assert abs(est["tau"] - tau_exact) < 3 * est["tau_se"] + 1e-12

    def test_connection_estimate_matches_correlation_scaling(self):
        # q * tau = connection probability for the coupled measure
        g = triangle()
        q = 3
        cfg = SamplerConfig(seed=777, burn_in=500, samples=20000)
        est = estimate_two_point(g, sw_sample(g, 0.4, q, cfg), 0, 2, q)
        lhs = q / (q - 1) * est["tau"]
        se = q / (q - 1) * est["tau_se"] + est["conn_se"]
        assert abs(lhs - est["conn"]) < 3 * se + 1e-12

    def test_two_point_vertex_range(self):
        cfg = SamplerConfig(burn_in=0, samples=10)
        for x in (7, -1):
            with pytest.raises(ValueError, match="vertex out of range"):
                estimate_two_point(triangle(), sw_sample(triangle(), 0.5, 2, cfg), x, 1, 2)

    def test_two_point_bad_vertex_leaves_stream_unread(self):
        samples = iter(sw_sample(triangle(), 0.5, 2, SamplerConfig(burn_in=0, samples=10)))
        with pytest.raises(ValueError, match="vertex out of range"):
            estimate_two_point(triangle(), samples, 0, 3, 2)
        assert len(list(samples)) == 10

    def test_two_point_bad_q_leaves_stream_unread(self):
        for q in (0, 2.5, 1):
            samples = iter(sw_sample(triangle(), 0.5, 2, SamplerConfig(burn_in=0, samples=10)))
            with pytest.raises(ValueError, match="q must be an integer >= 2"):
                estimate_two_point(triangle(), samples, 0, 1, q)
            assert len(list(samples)) == 10

    def test_two_point_empty_stream(self):
        for samples in ([], iter(())):
            with pytest.raises(ValueError, match="empty sample stream"):
                estimate_two_point(triangle(), samples, 0, 1, 2)

    def test_two_point_list_and_generator_agree(self):
        g = Multigraph(5, ((0, 1), (1, 1), (1, 2), (0, 1), (2, 3)))
        samples = list(sw_sample(g, 0.55, 3, SamplerConfig(seed=4, burn_in=2, samples=9000)))
        for x, y in [(0, 3), (1, 4), (2, 2)]:
            listed = estimate_two_point(g, samples, x, y, 3)
            streamed = estimate_two_point(g, (s for s in samples), x, y, 3)
            assert repr(listed) == repr(streamed)


class TestBatchMeans:
    def test_constant_sequence(self):
        mean, se = batch_means([2.0] * 64)
        assert mean == 2.0 and se == 0.0

    def test_short_sequence_zero_se(self):
        mean, se = batch_means([1.0])
        assert mean == 1.0 and se == 0.0

    def test_se_positive_for_noise(self):
        rng = make_rng(5)
        _, se = batch_means(rng.random(1024))
        assert se > 0
