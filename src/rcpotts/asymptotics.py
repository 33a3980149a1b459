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

ROOT_GRID = 10**4


def lambda_c(q: float) -> float:
    """Critical intensity: q for q <= 2, else 2 (q-1)/(q-2) log(q-1)."""
    if q <= 0:
        raise ValueError("q must be positive")
    if q <= 2:
        return float(q)
    return 2.0 * (q - 1.0) / (q - 2.0) * math.log(q - 1.0)


def _root_residual(theta: float, lam: float, q: float) -> float:
    return math.exp(-lam * theta) - (1.0 - theta) / (1.0 + (q - 1.0) * theta)


def theta(lam: float, q: float, root_tol: float = 1e-12) -> float:
    """Giant-cluster density: 0 below lambda_c, otherwise the largest root
    of e^(-lam theta) = (1-theta)/(1+(q-1)theta) in [0, 1).

    The unit interval is scanned on a fine grid for sign changes and the
    rightmost bracket is bisected, since "largest root" needs global
    bracketing.
    """
    if lam <= 0 or q <= 0:
        raise ValueError("lambda and q must be positive")
    if lam < lambda_c(q):
        return 0.0
    lo_all = 1e-12
    hi_all = 1.0 - 1e-12
    grid = [lo_all + (hi_all - lo_all) * i / ROOT_GRID for i in range(ROOT_GRID + 1)]
    bracket = None
    prev_t, prev_r = grid[0], _root_residual(grid[0], lam, q)
    for t in grid[1:]:
        r = _root_residual(t, lam, q)
        if prev_r == 0.0:
            bracket = (prev_t, prev_t)
        if r == 0.0 or (prev_r < 0) != (r < 0):
            bracket = (prev_t, t)
        prev_t, prev_r = t, r
    if bracket is None:
        # theta = 0 is always a root; at lam = lambda_c (q <= 2) it is the
        # largest one and there is no positive bracket to find.
        if abs(_root_residual(0.0, lam, q)) < 1e-9:
            return 0.0
        raise ArithmeticError(
            f"no sign change of the root equation on (0,1) for lam={lam}, q={q}; "
            f"residual at 0+ is {_root_residual(lo_all, lam, q):.3e}, "
            f"at 1- is {_root_residual(hi_all, lam, q):.3e}"
        )
    lo, hi = bracket
    f_lo = _root_residual(lo, lam, q)
    while hi - lo > root_tol:
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


def eta(lam: float, q: float, root_tol: float = 1e-12) -> float:
    """Limiting free energy: g(theta)/(2q) - (q-1) lam / (2q) + log q."""
    th = theta(lam, q, root_tol)
    return g_func(th, q) / (2.0 * q) - (q - 1.0) / (2.0 * q) * lam + math.log(q)


def _log_fraction(x: Fraction) -> float:
    return math.log(x.numerator) - math.log(x.denominator)


@lru_cache(maxsize=None)
def _potts_z_complete(n: int, q: int, w: Fraction) -> Fraction:
    """Z_P on K_n with e^beta = w, exactly, by recursion over spin counts.

    A configuration with c_j vertices in state j has sum of C(c_j, 2)
    agreeing edges; summing multinomially over count vectors avoids the
    q^n enumeration; memoised on (remaining, slots), it takes O(n^2 q) steps.
    """

    @lru_cache(maxsize=None)
    def rec(remaining: int, slots: int) -> Fraction:
        # sum over c = count in the current spin state
        if slots == 1:
            return w ** (remaining * (remaining - 1) // 2)
        total = Fraction(0)
        for c in range(remaining + 1):
            total += (
                Fraction(math.comb(remaining, c))
                * w ** (c * (c - 1) // 2)
                * rec(remaining - c, slots - 1)
            )
        return total

    return rec(n, q)


def _rc_z_complete(n: int, p: Fraction, q: Fraction) -> Fraction:
    """Z_RC on K_n, exactly, by splitting off vertex 0's open cluster
    (Bollobas, Grimmett & Janson, PTRF 1996).  With r = 1-p,

        Z_n = sum_k C(n-1, k-1) c_k q r^(k(n-k)) Z_(n-k),  Z_0 = 1,

    where c_k, the chance that bond percolation on K_k is connected, solves
    the same sum at q = 1, where every Z is 1.
    """
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


def convergence_report(q, lam: float, n_list, gap_threshold: float = 0.2) -> dict:
    """Empirical rates against the limiting eta, with the regime flag."""
    target = eta(lam, float(q))
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
        "theta": theta(lam, float(q)),
        "eta": target,
        "rows": rows,
        "monotone": monotone,
        "within_regime": float(q) >= 1,
        "instances": len(rows),
        "pass": monotone and gaps[-1] < gap_threshold,
    }
