import hashlib
import json
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from rcpotts.asymptotics import (
    ROOT_GRID,
    _potts_z_complete,
    _rc_z_complete,
    _root_residual,
    convergence_report,
    empirical_rate,
    eta,
    g_func,
    lambda_c,
    theta,
)
from rcpotts.graphs import complete
from rcpotts.measures import RCParams, potts_partition_exact, rc_partition

F = Fraction


class TestLambdaC:
    def test_continuity_at_two(self):
        # the q > 2 formula tends to 2 as q -> 2+
        assert lambda_c(2.0) == 2.0
        assert lambda_c(2.0 + 1e-9) == pytest.approx(2.0, abs=1e-6)

    def test_linear_below_two(self):
        assert lambda_c(1.0) == 1.0
        assert lambda_c(1.5) == 1.5

    def test_q_ten(self):
        assert lambda_c(10.0) == pytest.approx(2 * 9 / 8 * math.log(9))

    def test_positive_required(self):
        with pytest.raises(ValueError):
            lambda_c(0.0)


def _decimal_root(lam: float, q: float, lo=Decimal("1e-12"), hi=Decimal("1e-4")) -> float:
    """The root of e^(-lam t) = (1-t)/(1+(q-1)t) in (lo, hi), bisected in
    50-digit decimals, where the residual has no cancellation to speak of."""
    with localcontext() as ctx:
        ctx.prec = 50
        lam, q = Decimal(lam), Decimal(q)

        def residual(t):
            return (-lam * t).exp() - (1 - t) / (1 + (q - 1) * t)

        assert residual(lo) < 0 < residual(hi)
        for _ in range(120):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if residual(mid) < 0 else (lo, mid)
        return float((lo + hi) / 2)


def _scalar_theta(lam: float, q: float) -> float:
    """``theta`` as a scan of the grid point by point with ``math.exp``,
    from the right: the oracle for the numpy pass over the same grid."""
    if lam < lambda_c(q) or (lam == lambda_c(q) and q <= 2):
        return 0.0
    lo_all, hi_all = 1e-12, 1.0 - 1e-12
    points = (lo_all + (hi_all - lo_all) * i / ROOT_GRID for i in range(ROOT_GRID, -1, -1))
    hi = next(points)
    f_hi = _root_residual(hi, lam, q)
    for lo in points:
        f_lo = _root_residual(lo, lam, q) if lo > lo_all else math.expm1(-lam * lo) + q * lo / (1.0 + (q - 1.0) * lo)
        if f_hi == 0.0 or (f_lo < 0) != (f_hi < 0):
            break
        if f_lo == 0.0:
            return lo
        hi, f_hi = lo, f_lo
    else:
        return 0.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        f_mid = _root_residual(mid, lam, q)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0) == (f_mid < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestTheta:
    def test_zero_below_critical(self):
        assert theta(0.5, 1.0) == 0.0
        assert theta(1.9, 2.0) == 0.0

    def test_zero_at_critical_q_le_two(self):
        # theta = 0 is a double root at lambda_c = q: the residual near it is
        # rounding noise, from which no grid bracket may be read
        for q in (0.25, 0.5, 0.9, 1.0, 1.2, 1.5, 1.9, 2.0):
            assert theta(q, q) == 0.0
            assert eta(q, q) == pytest.approx(math.log(q) - (q - 1.0) / 2.0, abs=1e-15)

    def test_percolation_matches_classic_equation(self):
        # q = 1: the root equation reduces to 1 - theta = e^(-lam theta)
        th = theta(2.0, 1.0)
        assert 1.0 - th == pytest.approx(math.exp(-2.0 * th), abs=1e-10)
        assert th == pytest.approx(0.7968, abs=1e-4)

    def test_root_residual_vanishes(self):
        for lam, q in [(3.0, 2.0), (4.0, 3.0), (2.5, 1.5)]:
            th = theta(lam, q)
            assert abs(_root_residual(th, lam, q)) < 1e-9

    @pytest.mark.parametrize(
        ("lam", "q", "rel"), [(1.00001, 1.0, 1e-5), (1.500015, 1.5, 1e-5), (0.500005, 0.5, 1e-5), (2.0 + 1e-9, 2.0, 1e-2)]
    )
    def test_root_below_first_grid_step(self, lam, q, rel):
        # just above lambda_c for q <= 2 the root lies between the grid's
        # left end, where the residual's two terms round to the same float,
        # and its first step.  At q = 2 the root at lambda_c is triple, so the
        # float residual fixes it only to about 1e-3.
        assert theta(lam, q) < 1.0 / ROOT_GRID
        assert theta(lam, q) == pytest.approx(_decimal_root(lam, q), rel=rel)

    def test_matches_scalar_scan(self):
        # 3,000 seeded points, a third each below lambda_c, well above it and
        # within 1e-12..1e-2 (relative) above it, then the points just above
        # lambda_c of test_root_below_first_grid_step
        rng = random.Random(22)
        points = []
        for i in range(3000):
            q = rng.uniform(0.05, 12.0)
            scale = (rng.uniform(0.05, 1.0), rng.uniform(1.0, 4.0), 1.0 + 10.0 ** rng.uniform(-12, -2))[i % 3]
            points.append((lambda_c(q) * scale, q))
        points += [(1.00001, 1.0), (1.500015, 1.5), (0.500005, 0.5), (2.0 + 1e-9, 2.0)]
        assert [repr(theta(lam, q)) for lam, q in points] == [repr(_scalar_theta(lam, q)) for lam, q in points]

    def test_largest_root_is_positive_above_critical(self):
        assert theta(2.5, 2.0) > 0.3

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            theta(-1.0, 2.0)


def _pinned_points():
    """The benchmark's (lam, q) grid, lambda_c(q) (1 +- 1e-12) for q > 2 and
    320 seeded points with 0.2 < q < 12, half of them above lambda_c."""
    points = [(lam, q) for lam in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0) for q in (2.0, 3.0)]
    points += [(lambda_c(q) * (1 + s), q) for q in (2.5, 3.0, 4.0, 10.0) for s in (-1e-12, 0.0, 1e-12)]
    rng = random.Random(19)
    for i in range(320):
        q = rng.uniform(0.2, 12.0)
        points.append((lambda_c(q) * rng.uniform(1.0, 4.0) if i % 2 else rng.uniform(0.05, 12.0), q))
    return points


def test_values_pinned():
    """Every float of theta, eta and convergence_report is pinned: a SHA-256
    over their reprs and the reports' JSON."""
    h = hashlib.sha256()
    for lam, q in _pinned_points():
        h.update(f"{lam!r}:{q!r}:{theta(lam, q)!r}:{eta(lam, q)!r};".encode())
    for q in (2, 3):
        for lam in (0.5, 1.0, 1.5, 2.0, 3.0):
            h.update(json.dumps(convergence_report(q, lam, [4, 8, 12, 14])).encode())
    for q, lam in ((F(1, 2), 1.0), (1.5, 2.5), (F(5, 2), 3.0)):
        h.update(json.dumps(convergence_report(q, lam, [4, 6, 9])).encode())
    assert h.hexdigest() == "0ceca7577ef474c4d467f6eb33e7d7ddfef0d2a41063103b07a52c348113cb8e"


class TestEta:
    def test_value_at_lambda_one_q_two(self):
        # theta = 0, g(0) = 0: eta = log 2 - 1/4
        assert eta(1.0, 2.0) == pytest.approx(math.log(2.0) - 0.25, abs=1e-12)

    def test_g_at_zero(self):
        assert g_func(0.0, 3.0) == 0.0

    def test_g_domain(self):
        with pytest.raises(ValueError):
            g_func(1.0, 2.0)

    def test_continuity_across_critical_q_two(self):
        below = eta(2.0 - 1e-7, 2.0)
        above = eta(2.0 + 1e-7, 2.0)
        assert below == pytest.approx(above, abs=1e-5)


class TestEmpiricalRate:
    def test_matches_direct_rc_partition(self):
        n, lam, q = 4, 1.0, 2
        p = F(1, 4)
        z = rc_partition(complete(n), RCParams(p, F(q)))
        direct = (math.log(z.numerator) - math.log(z.denominator)) / n
        assert empirical_rate(n, lam, q) == pytest.approx(direct, rel=1e-12)

    def test_potts_recursion_matches_enumeration(self):
        for n in (2, 3, 4):
            for q in (2, 3):
                w = F(3, 2)
                assert _potts_z_complete(n, q, w) == potts_partition_exact(
                    complete(n), q, w
                )

    def test_q_one_rate_is_zero(self):
        assert empirical_rate(5, 1.0, 1) == 0.0

    def test_real_q_route(self):
        n, lam = 4, 1.0
        q = F(3, 2)
        p = F(1, 4)
        z = rc_partition(complete(n), RCParams(p, q))
        direct = (math.log(z.numerator) - math.log(z.denominator)) / n
        assert empirical_rate(n, lam, q) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("q", [F(1, 2), F(3, 2), F(2), F(3)])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_cluster_recursion_matches_enumeration(self, n, q):
        for p in (F(1, 2) / (n + 1), F(3, 2) / (n + 1)):
            assert _rc_z_complete(n, p, q) == rc_partition(complete(n), RCParams(p, q))

    @pytest.mark.parametrize("q", [2, 3, 6, 8])
    @pytest.mark.parametrize("n", [8, 14, 30, 40])
    def test_cluster_recursion_matches_potts_route(self, n, q):
        p = F(1, n)
        potts = (1 - p) ** (n * (n - 1) // 2) * _potts_z_complete(n, q, 1 / (1 - p))
        assert _rc_z_complete(n, p, F(q)) == potts

    def test_real_q_beyond_enumeration(self):
        # K8 has 2^28 edge subsets; the recursion needs none of them
        assert empirical_rate(8, 1.0, 1.5) == pytest.approx(0.2596679069514334, rel=1e-15)
        assert 0 < empirical_rate(60, 1.0, 1.5) < math.log(1.5)

    def test_n_must_exceed_lambda(self):
        with pytest.raises(ValueError):
            empirical_rate(2, 3.0, 2)


class TestConvergence:
    def test_q_two_lambda_one(self):
        rep = convergence_report(2, 1.0, [8, 16, 32, 64])
        assert rep["pass"] and rep["within_regime"]
        assert rep["eta"] == pytest.approx(math.log(2.0) - 0.25)
        assert rep["rows"][-1]["gap"] < rep["rows"][0]["gap"]

    def test_supercritical_q_one(self):
        rep = convergence_report(1, 2.0, [8, 16, 32])
        assert rep["within_regime"]
        assert rep["theta"] > 0

    def test_rising_gaps_fail(self):
        # a known-false control: n runs downwards, so the gaps rise, though
        # the last is below 0.2
        rep = convergence_report(2, 1.0, [14, 12, 8, 4])
        assert not rep["monotone"] and rep["rows"][-1]["gap"] < 0.2
        assert rep["pass"] is False

    def test_q_below_one_flagged(self):
        rep = convergence_report(F(1, 2), 1.0, [3, 4])
        assert not rep["within_regime"]
