"""Random-cluster model on the complete graph K_n with p = lambda/n:
critical intensity, giant-cluster density via root finding, the limiting
free energy, and empirical convergence of (1/n) log Z.

The regime with rigorous backing is q >= 1; values for q < 1 are computed
anyway but flagged as outside that regime.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .graphs import check_budget

ROOT_GRID = 10**4
_EXP_SLACK = 1e-12  # far above the gap between numpy's and math's exp below 1


def lambda_c(q: float) -> float:
    """Critical intensity: q for q <= 2, else 2 (q-1)/(q-2) log(q-1)."""
    if q <= 0:
        raise ValueError("q must be positive")
    if q <= 2:
        return float(q)
    return 2.0 * (q - 1.0) / (q - 2.0) * math.log(q - 1.0)


def _root_residual(theta: float, lam: float, q: float) -> float:
    return math.exp(-lam * theta) - (1.0 - theta) / (1.0 + (q - 1.0) * theta)


def theta(lam: float, q: float) -> float:
    """Giant-cluster density: 0 below lambda_c, and at lambda_c for q <= 2
    (a double root, near which the residual is rounding noise); otherwise the
    largest root of e^(-lam theta) = (1-theta)/(1+(q-1)theta) in [0, 1).

    "Largest root" needs global bracketing: the residual is evaluated on a
    grid of ROOT_GRID steps in one numpy pass, and the rightmost step holding
    a sign change or a zero is bisected to 1e-12.  No step to its right
    brackets a root, so it is the bracket a scan from the left would keep
    last.  Grid points whose residual lies within _EXP_SLACK of 0 are
    evaluated again with ``math.exp``, so every sign and zero is that of
    ``_root_residual``.  At the grid's left end both terms of the residual
    round to the same float, so there it is summed without cancellation.
    """
    if lam <= 0 or q <= 0:
        raise ValueError("lambda and q must be positive")
    lam_c = lambda_c(q)
    if lam < lam_c or (lam == lam_c and q <= 2):
        return 0.0
    lo_all = 1e-12
    hi_all = 1.0 - 1e-12
    t = lo_all + (hi_all - lo_all) * np.arange(ROOT_GRID + 1) / ROOT_GRID
    f = np.exp(-lam * t) - (1.0 - t) / (1.0 + (q - 1.0) * t)
    # numpy's exp may differ from math.exp in the last bits: recompute with
    # math.exp wherever that could flip the sign or make a zero
    for i in np.flatnonzero(np.abs(f) < _EXP_SLACK).tolist():
        f[i] = _root_residual(float(t[i]), lam, q)
    f[0] = math.expm1(-lam * lo_all) + q * lo_all / (1.0 + (q - 1.0) * lo_all)
    neg = f < 0
    stops = (neg[:-1] != neg[1:]) | (f[:-1] == 0.0)  # step i runs from t[i] to t[i + 1]
    stops[-1] |= f[-1] == 0.0
    if not stops.any():  # theta = 0 is always a root; a positive one below the left end has no bracket
        return 0.0
    i = int(np.flatnonzero(stops)[-1])
    lo, hi, f_lo = float(t[i]), float(t[i + 1]), float(f[i])
    if f_lo == 0.0 and neg[i] == neg[i + 1] and f[i + 1] != 0.0:  # a zero at a grid point, not a bracket
        return lo
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


def g_func(th: float, q: float) -> float:
    """g(theta) = -(q-1)(2-theta) log(1-theta) - [2+(q-1)theta] log[1+(q-1)theta]."""
    if not 0.0 <= th < 1.0:
        raise ValueError("theta must lie in [0,1)")
    return -(q - 1.0) * (2.0 - th) * math.log1p(-th) - (
        2.0 + (q - 1.0) * th
    ) * math.log1p((q - 1.0) * th)


def eta(lam: float, q: float) -> float:
    """Limiting free energy: g(theta)/(2q) - (q-1) lam / (2q) + log q."""
    return _eta_at(theta(lam, q), lam, q)


def _eta_at(th: float, lam: float, q: float) -> float:
    return g_func(th, q) / (2.0 * q) - (q - 1.0) / (2.0 * q) * lam + math.log(q)


def _log_fraction(x: Fraction) -> float:
    return math.log(x.numerator) - math.log(x.denominator)


@lru_cache(maxsize=None)
def _potts_z_complete(n: int, q: int, w: Fraction) -> Fraction:
    """Z_P on K_n with e^beta = w, exactly, by a sum over spin counts.

    A state holding c vertices has C(c, 2) agreeing edges.  With z[r] the
    sum for r vertices over the states so far, one state more makes it
    sum_c C(r, c) w^C(c, 2) z[r - c]; this avoids the q^n enumeration.  The
    last state is added at r = n only, so the sum takes at most
    (q-1)(n+1)(n+2)/2 terms, which BUDGET["kn_terms"] bounds.
    """
    check_budget("kn_terms", (q - 1) * (n + 1) * (n + 2) // 2)
    z = inner = [w ** (c * (c - 1) // 2) for c in range(n + 1)]
    for s in range(2, q + 1):
        rs = range(n if s == q else 0, n + 1)
        z = [sum(math.comb(r, c) * inner[c] * z[r - c] for c in range(r + 1)) for r in rs]
    return z[-1]


def _rc_z_complete(n: int, p: Fraction, q: Fraction) -> Fraction:
    """Z_RC on K_n, exactly, by splitting off vertex 0's open cluster
    (Bollobas, Grimmett & Janson, PTRF 1996).  With r = 1-p,

        Z_n = sum_k C(n-1, k-1) c_k q r^(k(n-k)) Z_(n-k),  Z_0 = 1,

    where c_k, the chance that bond percolation on K_k is connected, solves
    the same sum at q = 1, where every Z is 1.  Its three sums over k take
    n(3n+1)/2 terms in all, which BUDGET["kn_terms"] bounds.
    """
    check_budget("kn_terms", n * (3 * n + 1) // 2)
    r = 1 - p
    c, z = [], [Fraction(1)]  # c[k - 1] = c_k, z[j] = Z_j
    for j in range(1, n + 1):
        w = [math.comb(j - 1, k - 1) * r ** (k * (j - k)) for k in range(1, j + 1)]
        c.append(1 - sum(w[k] * c[k] for k in range(j - 1)))
        z.append(q * sum(w[k] * c[k] * z[j - 1 - k] for k in range(j)))
    return z[n]


def empirical_rate(n: int, lam: float, q) -> float:
    """(1/n) log Z_RC(n, lam/n, q), exact arithmetic then one float log.

    Integer q >= 2 goes through the Potts partition sum (Z_RC = (1-p)^|E| Z_P
    with e^(-beta) = 1-p); every other q through the cluster recursion.
    """
    if n <= lam:
        raise ValueError("p = lambda/n needs n > lambda")
    p = Fraction(lam).limit_denominator(10**9) / n
    m_edges = n * (n - 1) // 2
    q_frac = Fraction(q).limit_denominator(10**9)
    if q_frac.denominator == 1 and q_frac >= 2:
        w = 1 / (1 - p)  # e^beta
        z_p = _potts_z_complete(n, int(q_frac), w)
        log_z = m_edges * _log_fraction(1 - p) + _log_fraction(z_p)
    else:
        log_z = _log_fraction(_rc_z_complete(n, p, q_frac))
    return log_z / n


def convergence_report(q, lam: float, n_list) -> dict:
    """Empirical rates against the limiting eta, with the regime flag; it
    passes when the gaps fall monotonically and the last is below 0.2."""
    th = theta(lam, float(q))
    target = _eta_at(th, lam, float(q))
    rows = []
    for n in n_list:
        rate = empirical_rate(n, lam, q)
        rows.append({"n": n, "rate": rate, "gap": abs(rate - target)})
    gaps = [r["gap"] for r in rows]
    monotone = all(b <= a for a, b in zip(gaps, gaps[1:]))
    return {
        "identity": "kn-rate-convergence",
        "q": float(q),
        "lambda": lam,
        "lambda_c": lambda_c(float(q)),
        "theta": th,
        "eta": target,
        "rows": rows,
        "monotone": monotone,
        "within_regime": float(q) >= 1,
        "instances": len(rows),
        "pass": monotone and gaps[-1] < 0.2,
    }
