"""Volumes of lightlike and ideal tetrahedra.

Closed forms are built from the curvature-indexed Clausen function

    cl(lam, x) = -integral_0^x log|2 s_lam(theta/2)| dtheta,

which is the classical Clausen function for lam = 1, its hyperbolic
analogue for lam = -1, and x*(1 - log|x|) for lam = 0.  For lam = +-1 it
is evaluated by one route: integration by parts turns it into a Bernoulli
power series (Horner's rule on precomputed float coefficients), convergent
after reducing x to [-pi, pi] for lam = 1; for lam = -1 and |x| >= 3 the
dilogarithm form pi^2/6 - x^2/4 - Li2(exp(-x)) takes over, its series
converging geometrically (Lewin, Polylogarithms and Associated Functions,
1981, ch. 4).  The ideal volume is (cl(2a) + cl(2b) + cl(2g))/2 with
g = -(a + b); the lightlike volume is the ideal volume plus sine-log terms,
divided by the curvature, collapsing to a*b*(a+b)/3 in the flat case.

An independent oracle integrates each chart density in closed form along
one axis (see _ideal_oracle and _lightlike_v_integral) and the rest by
adaptive 1-D quadrature, never touching the Clausen evaluations, with
Sidi's sin^2 substitution (ISNM 112, 1993) widening the thin layers at the
ends.  Its nodes are the Kronrod nodes of dyadic panels of [0, 1] whatever
the cell (most calls are on the root's seven panels), so what depends on
them alone is cached across integrals (_node_cached, keyed on their bytes
and shape).  Each lightlike node at lam = +-1 takes one of two branches,
the general sum or, where 1/x < 1/2 at both ends, its tails alone, as a
Pade form.

A Bernoulli-number power series around zero curvature provides a third
route for small edge lengths.  One coefficient table,
4^k B_2k (-1)^k / (2k+1)!, serves both the Clausen series and this
curvature series.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from functools import lru_cache, wraps

import numpy as np

from .cubature import adaptive_quad
from .errors import ConvergenceWarning, DomainError, ToleranceNotReached
from .gcnum import (
    KIND_IDEAL,
    KIND_LIGHTLIKE,
    check_kind,
    check_lambda,
    gcos,
    gsin,
    validate_angles,
)

# -- Bernoulli numbers ---------------------------------------------------------


def _tangent_numbers(n: int) -> list[int]:
    """Tangent numbers T[k], tan x = sum_k T[k] x^(2k-1) / (2k-1)!, for
    k = 1..n (T[0] = 0), by the integer recurrence of Knuth & Buckholtz
    (Math. Comp. 21, 1967)."""
    t = [0, 1]
    for k in range(2, n + 1):
        t.append((k - 1) * t[k - 1])
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


# B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), formed as int / int, which
# Python rounds correctly.
_TANGENT = _tangent_numbers(30)


def bernoulli(n: int) -> float:
    """Bernoulli number B_n for even n up to 60 (B_0 included)."""
    # bool is a subclass of int, so test the exact type.
    if type(n) is not int or (n != 0 and (n % 2 != 0 or n < 2 or n > 60)):
        raise DomainError(f"need an even int index in [2, 60] (or 0), got {n!r}")
    if n == 0:
        return 1.0
    k = n // 2
    return (-1) ** (k - 1) * 2 * k * _TANGENT[k] / (4 ** k * (4 ** k - 1))


# -- generalized Clausen function ----------------------------------------------

# Taylor coefficients 4^k B_2k (-1)^k / (2k+1)!, k = 0..30, of the primitive
# F(lam, y) = integral_0^y x/t_lam(x) dx = y * sum_k c_k (lam y^2)^k.  The
# series has radius pi in |y|*sqrt|lam|; its terms shrink by (y/pi)^2.
# With B_2k in tangent numbers, c_k = -2k T_k / ((4^k - 1) (2k+1)!) for k >= 1.
_COT_COEFFS = (1.0, *(-2 * k * _TANGENT[k] / ((4 ** k - 1) * math.factorial(2 * k + 1))
                      for k in range(1, 31)))
# 1/n^2, n = 1..14: Li2(q) to double precision for q <= exp(-_LI2_FROM).
_LI2_COEFFS = tuple(1.0 / (n * n) for n in range(1, 15))
_LI2_FROM = 3.0
_LOG2 = math.log(2.0)


def _horner(coeffs: tuple[float, ...], u):
    """sum_k coeffs[k] u^k (two or more coefficients) for a float u, or for
    each element of an array u on its own: an element's value does not
    depend on the array it sits in, as it would through a matmul."""
    acc = coeffs[-1] * u + coeffs[-2]
    for c in coeffs[-3::-1]:
        acc *= u  # in place, acc being an array of its own
        acc += c
    return acc


def clausen(lam: int, x: float) -> float:
    """Curvature-indexed Clausen function; odd, and 2*pi-periodic for
    lam = 1.  For lam = +-1 it is 2 F(lam, x/2) - x log|2 s_lam(x/2)|,
    or the dilogarithm form for lam = -1 and |x| >= _LI2_FROM.  At x = +-inf
    it is its limit for lam = 0 and -1; for lam = 1, which has none, it
    raises DomainError."""
    check_lambda(lam)
    sign = -1.0 if x < 0 else 1.0
    x = abs(x)
    if x == 0.0:
        return 0.0
    if lam == 0:
        return sign * x * (1.0 - math.log(x))
    if lam == 1:
        if x == math.inf:
            raise DomainError("the periodic cl(1, x) has no limit as |x| grows")
        x = math.remainder(x, 2.0 * math.pi)
        if x < 0:
            sign, x = -sign, -x
        if x == 0.0:
            return 0.0
    elif x >= _LI2_FROM:
        q = math.exp(-x)
        return sign * (math.pi ** 2 / 6.0 - 0.25 * x * x - q * _horner(_LI2_COEFFS, q))
    y = 0.5 * x
    if y == 0.0:
        # x/2 underflows at the least subnormal x; the flat form is exact there.
        return sign * x * (1.0 - math.log(x))
    primitive = y * _horner(_COT_COEFFS, lam * y * y)
    return sign * (2.0 * primitive - x * math.log(abs(2.0 * gsin(lam, y))))


# -- closed-form volumes ---------------------------------------------------------


def ideal_volume(lam: int, alpha: float, beta: float) -> float:
    """Closed-form volume of the ideal tetrahedron with dihedral angles
    (alpha, beta, alpha + beta)."""
    validate_angles(lam, alpha, beta)
    gamma = -(alpha + beta)
    return 0.5 * (clausen(lam, 2 * alpha) + clausen(lam, 2 * beta) + clausen(lam, 2 * gamma))


def lightlike_volume(lam: int, alpha: float, beta: float) -> float:
    """Closed-form volume of the lightlike tetrahedron with edge lengths
    (alpha, beta, alpha + beta)."""
    validate_angles(lam, alpha, beta)
    if lam == 0:
        return alpha * beta * (alpha + beta) / 3.0
    gamma = -(alpha + beta)
    log_sum = (alpha * _log_gsin(lam, alpha) + beta * _log_gsin(lam, beta)
               + gamma * _log_gsin(lam, gamma))
    return (ideal_volume(lam, alpha, beta) + log_sum) / lam


def _log_gsin(lam: int, x: float) -> float:
    """log|s(x)|; at lam = -1 and |x| >= 20 as |x| - log 2 + log1p(-e^-2|x|),
    which stays finite where sinh overflows (past |x| ~ 710)."""
    if lam == -1 and abs(x) >= 20.0:
        return abs(x) - _LOG2 + math.log1p(-math.exp(-2.0 * abs(x)))
    return math.log(abs(gsin(lam, x)))


def _check_series_order(k_order: int):
    if type(k_order) is not int or not 1 <= k_order < len(_COT_COEFFS):
        raise DomainError(f"series order must be an int in [1, {len(_COT_COEFFS) - 1}] "
                          f"(the Bernoulli table), got {k_order!r}")


def lightlike_volume_series(lam: float, alpha: float, beta: float, k_order: int) -> float:
    """Bernoulli power series for the lightlike volume around zero
    curvature; `lam` may be any real here.  Emits ConvergenceWarning outside
    |alpha + beta| < pi / sqrt|lam|."""
    if not (0 < alpha < math.inf and 0 < beta < math.inf and math.isfinite(lam)):
        raise DomainError(f"need finite alpha, beta > 0 and finite lam, got "
                          f"({alpha}, {beta}, {lam})")
    _check_series_order(k_order)
    if lam != 0.0 and (alpha + beta) * math.sqrt(abs(lam)) >= math.pi:
        warnings.warn(
            f"series evaluated outside its convergence domain: "
            f"(alpha+beta)*sqrt|lam| = {(alpha + beta) * math.sqrt(abs(lam)):.3f} >= pi",
            ConvergenceWarning,
            stacklevel=2,
        )
    total = 0.0
    for k in range(1, k_order + 1):
        g_k = ((alpha + beta) ** (2 * k + 1) - alpha ** (2 * k + 1) - beta ** (2 * k + 1))
        total -= _COT_COEFFS[k] * lam ** (k - 1) * g_k
    return total


# -- quadrature oracle ------------------------------------------------------------


def _gsin_np(lam: int, x):
    if lam == 1:
        return np.sin(x)
    if lam == -1:
        return np.sinh(x)
    return x


# phi(u) = u^3 sum_k c_k u^(2k), c_k = (-1)^k (2 pi)^(2k+2) / (2k+3)!, k = 0..7:
# the Taylor series of u - sin(2 pi u) / (2 pi), to double precision for u <= 1/8.
_PHI_SERIES = tuple((-1) ** k * (2.0 * math.pi) ** (2 * k + 2) / math.factorial(2 * k + 3)
                    for k in range(8))
_TINY = np.finfo(float).tiny


def _node_cached(node_map):
    """node_map(u) for float nodes u, memoized on the bytes and the shape of
    u (see the module docstring).  The arrays returned are shared between
    callers, hence read-only, and are those node_map made from an array of
    u's shape: a lookup reshapes nothing."""

    @lru_cache(maxsize=64)
    def cached(key: bytes, shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
        out = node_map(np.frombuffer(key).reshape(shape))
        for arr in out:
            arr.flags.writeable = False
        return out

    @wraps(node_map)
    def lookup(u):
        u = np.asarray(u, dtype=float)
        return cached(u.tobytes(), u.shape)

    lookup.cache_clear = cached.cache_clear
    return lookup


def _sin2(u):
    """Sidi's sin^2 map phi(u) = u - sin(2 pi u) / (2 pi) of [0, 1] onto
    itself, and its derivative 2 sin(pi u)^2, which vanishes to second order
    at both ends.  Below u = 1/8 phi is summed as a series, since the
    difference loses all its digits as u goes to 0."""
    phi = u - np.sin(2.0 * math.pi * u) / (2.0 * math.pi)
    low = u < 0.125
    if low.any():
        ul = u[low]
        phi[low] = ul ** 3 * _horner(_PHI_SERIES, ul * ul)
    return phi, 2.0 * np.sin(math.pi * u) ** 2


@_node_cached
def _sin2_twice(u):
    """phi(phi(u)) and its derivative: nodes cluster like u^9 at both ends."""
    p, dp = _sin2(u)
    q, dq = _sin2(p)
    return q, dq * dp


def _ideal_oracle(lam: int, alpha: float, beta: float):
    """The ideal volume as an integrand over xi in [0, 1].

    The chart density in (theta, w), theta in [0, alpha], w in [0, 1], is
    r_edge / (2 (r0 - (1 - w) r_edge)) = 1 / (2 (q + w)), with
    q = s(alpha - theta) s(theta) / c and c = s(beta) s(alpha + beta), by
    s(a + b - t) s(t + b) - s(b) s(a + b) = s(a - t) s(t).  Its w integral
    is log1p(1 / q) / 2, which is symmetric about theta = alpha / 2, so
    theta runs over [0, alpha / 2], twice weighted, as (alpha / 2) phi(phi(xi)).
    """
    c = gsin(lam, beta) * gsin(lam, alpha + beta)

    def f(xi):
        p, dp = _sin2_twice(xi)
        theta = (0.5 * alpha) * p
        return ((0.5 * alpha) * dp) * np.log1p(c / (_gsin_np(lam, alpha - theta)
                                                     * _gsin_np(lam, theta)))

    return f


def _over_x(fn, x):
    """fn(x) / x, and its limit 1 at x = 0 (fn is arctan or log1p)."""
    if np.count_nonzero(x) == x.size:
        return fn(x) / x
    return np.divide(fn(x), x, out=np.ones_like(x), where=x != 0.0)


def _positive(x):
    """x with 1 where it is not > 0, and the mask of those (None if none)."""
    pos = x > 0.0
    if np.count_nonzero(pos) == x.size:
        return x, None
    return np.where(pos, x, 1.0), ~pos


# fn(x) / x - 1 = x^2 S(x^2), S(z) = sum_k (-lam)^k z^(k-1) / (2k + 1), k >= 1, for fn
# = arctan (lam = 1) or artanh (lam = -1), as x^2 N(x^2) / M(x^2) for x <= _TAIL_BELOW:
# (N, M) is the [6/6] (lam = 1) or [7/7] (lam = -1) Pade approximant of S.
_TAIL_PADE = {
    1: ((-0.3333333333333333, -0.9111111111111111, -0.9206349206349206, -0.4195077064642282,
         -0.08299558734341343, -0.005371812694467157, -9.947464773788896e-06),
        (1.0, 3.3333333333333335, 4.333333333333333, 2.763285024154589, 0.8881987577639752,
         0.1308924485125858, 0.006416296495714991)),
    -1: ((0.3333333333333333, -1.0795698924731183, 1.3606546956936278, -0.8392864499649817,
          0.2603978232454317, -0.03701965845410252, 0.001767686391825935,
          -2.1687464912821173e-06),
         (1.0, -3.838709677419355, 5.956618464961068, -4.780002471882338, 2.103201087628229,
          -0.49379503796488855, 0.05486611532943206, -0.002062635914640303))}
_TAIL_BELOW = 0.5


def _odd_tail(lam: int, x):
    """fn(x) / x - 1 for 0 <= x <= _TAIL_BELOW, where the difference loses
    its digits as x goes to 0, as the Pade form above: within 4e-16 (lam = 1)
    and 6e-16 (lam = -1) of 50-digit arctan and artanh on [1e-4, 1/2], in
    half the array operations of the 26-term series (3e-16)."""
    num, den = _TAIL_PADE[lam]
    z = x * x
    return z * _horner(num, z) / _horner(den, z)


def _lightlike_v_integral(lam: int, alpha: float, beta: float):
    """The lightlike chart density integrated over v, as a function of t in
    [-pi/4, pi/4].

    The density in (t, v), v in [0, 1], is g(r) width / cos(s)^2 with
    s = |t| + v width, width = pi/2 - 2|t|, and cot(r) = x = P / (d cos s),
    P = A + c sin s, A = a sin t + b cos t, where p = s(alpha) / s(beta),
    a, c = (p -+ 1/p) / 2, b, d = c(sigma), s(sigma) with
    sigma = alpha + beta, and g(r) = (s(2r) - 2r) / (-4 lam), or r^3 / 3.
    With w = sin s, the ends are w0 = sin|t| and w1 = cos|t|, where P is P0
    and P1.  At lam = 0 the v integral is
    d^3 (w1 - w0) (P0 + P1) / (6 (P0 P1)^2).  Otherwise
    g'(r) dr = -dx / (x^2 + lam)^2, and with
    Q = d^2 cos(s)^2 (x^2 + lam) = P^2 + lam d^2 (1 - w^2), integration by
    parts gives [tan(s) r] / (2 lam) - A d / (2 lam) integral dw / Q between
    s = |t| and s = pi/2 - |t| (the s(2r) half of [tan(s) g] cancels the
    rational part of the w integral).  With D = P0 P1 + lam d^2 (1 - w0 w1)
    and h = d |b sin t - a cos t| (w1 - w0), D^2 + lam h^2 = Q0 Q1, and the
    w integral is

        lam = 1:  (w1 - w0) atan2(h, D) / h,
        lam = -1: (w1 - w0) log1p(2 h (D + h) / (Q0 Q1)) / (2 h),

    both (w1 - w0) / D at h = 0.  At lam = 1, r = atan2(d cos s, P), and
    atan2 takes the branch past pi/2 where D < 0.  At lam = -1 the end
    w0 can sit near a root of Q, so Q = d^2 y (y + 2 cos s) is formed from
    y = (x - 1) cos s, a sum of terms >= 0 (with h' = (s + t) / 2,
    delta = (s - t) / 2):

        y = [p (sin t + sin s) / 2 + sin delta (cos h' / p + e^sigma sin h')
             + e^-sigma (cos t + cos s) / 2] / sinh sigma,

    r = log1p(2 cos s / y) / 2, and D = sqrt(Q0 Q1 + h^2).

    On small cells r and the w integral are O(r) while the v integral is
    O(r^3), so that sum cancels.  With u = 1/x (r = arctan u, or artanh u)
    and I0 = (w1 - w0) / (P0 P1) = integral dw / P^2, [tan(s) u] = A d I0
    exactly, so at a flat node, where u < 1/2 at both ends, the v integral
    is [tan(s) (r - u)] - A d (I - I0), with r - u = u T(u),
    T(u) = fn(u) / u - 1 (_odd_tail) and
    I - I0 = (w1 - w0) [T(h / D) - lam d^2 (1 - w0 w1) / (P0 P1)] / D.
    P, A, h and D are formed on every node; r, the w integral and the ends
    only on the nodes that are not flat, and the tails only on those that
    are, so a call whose nodes are all flat (small cells) forms no r.

    P0 and P1 are regrouped so that only a real change of sign cancels.
    With S = sin t + cos t, D' = cos t - sin t (both >= 0, the small one
    formed as sqrt(2) sin(pi/4 - |t|)) and p+- = p^(+-1) for t >= 0 and
    t < 0, P0 = p+- sin|t| + b cos t and
    P1 = (p - 1) / (2p) (p S - D') + 2 c(sigma/2)^2 cos t keep their digits
    on skewed cells, where p or 1/p is large, and as sigma -> pi at lam = 1,
    where c + b -> 0.  At t = 0, tan(s) r at s = pi/2 is its limit.  The
    code divides a, b, A and P by k = max(d, 1), and h, D and Q by k^2,
    which keeps every product in range for large sigma at lam = -1 and for
    tiny sigma; d / k is what is left of d.
    """
    s_a, s_b = gsin(lam, alpha), gsin(lam, beta)
    p = s_a / s_b
    sigma = alpha + beta
    d = gsin(lam, sigma)
    k = max(d, 1.0)
    dk = d / k
    a, b = 0.5 * (p - 1.0 / p) / k, gcos(lam, sigma) / k
    one_b = 2.0 * gcos(lam, 0.5 * sigma) ** 2 / k  # 1 + b
    half_pm = (p - 1.0) / (2.0 * p * k)
    p_pos, p_neg = p / k, 1.0 / (p * k)  # a + c and c - a
    if lam == -1:
        y_p, y_q = 0.5 * p / d, 1.0 / (p * d)
        y_m = 0.5 * math.exp(-sigma) / d
        y_e = -2.0 / math.expm1(-2.0 * sigma)  # e^sigma / sinh sigma

    # Each branch reads the first 8 rows of the t terms (see _t_terms) and `cell`:
    # u's numerators d cos s at both ends (0-1), h (2), P at both ends (3-4),
    # D (5), A (6), and at lam = -1 Q0 Q1 (7) and y at both ends (8-9).
    # tan(s) r at s = pi/2 - |t| is cos|t| r1 / sin|t|; r1 / sin|t| and the w
    # integral are fn(x) / x at small x, so t = 0 and h = 0 give their limits.
    def general(rows, cell):
        w1, dw, w0_w1 = rows[1], rows[3], rows[5]
        (e0, e1, h, p0, p1, big_d, big_a), rest = cell[:7], cell[7:]
        if lam == -1:
            q01, y0, y1 = rest
            r0 = 0.5 * np.log1p(rows[6] / y0)
            r1_w0 = _over_x(np.log1p, rows[7] / y1) / y1
            integral = dw * ((big_d + h) / q01
                             * _over_x(np.log1p, 2.0 * h * (big_d + h) / q01))
        else:
            r0 = np.arctan2(e0, p0)
            p1_pos, bad = _positive(p1)  # P1 > 0 wherever sin|t| is small
            r1_w0 = dk * _over_x(np.arctan, e1 / p1_pos) / p1_pos
            if bad is not None:
                r1_w0[bad] = np.arctan2(e1[bad], p1[bad]) / rows[0][bad]
            d_pos, bad = _positive(big_d)  # D > 0 wherever h is small
            integral = dw * _over_x(np.arctan, h / d_pos) / d_pos
            if bad is not None:
                integral[bad] = dw[bad] * np.arctan2(h[bad], big_d[bad]) / h[bad]
        return w1 * r1_w0 - w0_w1 * r0 - dk * big_a * integral

    # Where both u = 1/x are small, r and the w integral are their flat parts u
    # and I0 plus O(u^3) tails; the flat parts cancel exactly, so the tails are
    # summed alone (see above).  Should h / D reach 1/2, T(h / D) is fn / x - 1.
    def flat_tails(rows, cell):
        x = cell[:3] / cell[3:6]  # u at both ends, h / D
        tails = _odd_tail(lam, np.minimum(x, _TAIL_BELOW))
        if not x[2].max() < _TAIL_BELOW:  # unseen: h / D < max(u) in every sweep so far
            far = ~(x[2] < _TAIL_BELOW)
            tails[2][far] = (np.arctan if lam == 1 else np.arctanh)(x[2][far]) / x[2][far] - 1.0
        ends = rows[:2] * tails[:2] / cell[3:5]  # sin(s) T(u) / P at both ends
        return dk * (ends[1] - ends[0] - cell[6] * rows[3] / cell[5]
                     * (tails[2] - lam * dk * dk * rows[4] / (cell[3] * cell[4])))

    def f(t):
        # What depends on t alone is computed once per node set.
        (terms,) = _t_terms(t)
        rows, cos_t, sin_t = terms[:8], terms[1], terms[8]
        dw, b_cos = rows[3], b * cos_t  # w1 - w0
        cell = np.empty((7 if lam != -1 else 10, *t.shape))
        big_p = cell[3:5]  # P at both ends
        if lam == -1:
            y = cell[8:]
            np.add(y_p * terms[12:14] + terms[14:16] * (y_q * terms[16:18] + y_e * terms[18:20]),
                   y_m * terms[20:22], out=y)
            # Past sigma ~ 354 y can underflow (its terms shrink like e^-2 sigma): nan
            # there makes the cubature raise ToleranceNotReached, not divide by zero.
            y[y < _TINY] = np.nan
            np.multiply(dk, y + rows[1:3], out=big_p)
            y0, y1 = y
            np.multiply(dk ** 4 * y0 * (y0 + rows[6]), y1 * (y1 + rows[7]), out=cell[7])
        else:
            np.add(np.where(terms[9], p_pos, p_neg) * terms[0], b_cos, out=big_p[0])
            np.add(half_pm * (p * terms[10] - terms[11]), one_b * cos_t, out=big_p[1])
            if lam == 0:
                p0, p1 = big_p
                return dk ** 3 * dw * (p0 + p1) / (6.0 * (p0 * p1) ** 2)
        np.multiply(dk, rows[1:3], out=cell[:2])
        h = np.multiply(dk * np.abs(b * sin_t - a * cos_t), dw, out=cell[2])
        if lam == 1:
            np.add(big_p[0] * big_p[1], dk * dk * rows[4], out=cell[5])
        else:
            np.sqrt(cell[7] + h * h, out=cell[5])
        np.add(a * sin_t, b_cos, out=cell[6])
        flat = cell[:2] < _TAIL_BELOW * big_p
        flat = flat[0] & flat[1]
        n_flat = np.count_nonzero(flat)
        if n_flat == flat.size:
            v_int = flat_tails(rows, cell)
        elif n_flat == 0:
            v_int = general(rows, cell)
        else:
            # One gather per branch: the rows of its nodes.
            flat = flat.reshape(-1)
            on, off = flat.nonzero()[0], (~flat).nonzero()[0]
            rows, cell = rows.reshape(len(rows), -1), cell.reshape(len(cell), -1)
            v_int = np.empty(t.shape)
            v_flat = v_int.reshape(-1)  # a view: v_int is contiguous
            v_flat[on] = flat_tails(rows.take(on, axis=1), cell.take(on, axis=1))
            v_flat[off] = general(rows.take(off, axis=1), cell.take(off, axis=1))
        return v_int / (2.0 * lam)

    return f


@_node_cached
def _t_terms(t) -> tuple[np.ndarray]:
    """The terms of _lightlike_v_integral that depend on t alone, as rows, at
    s = |t| and s = pi/2 - |t| where paired: sin s (0-1), cos s (1-2),
    w1 - w0 (3), 1 - w0 w1 (4), w0 / w1 (5), 2 cos s (6-7), sin t (8),
    t >= 0 (9), S (10), D' (11), and y's terms: sin t + sin s (12-13),
    sin delta (14-15), cos h' (16-17), sin h' (18-19), cos t + cos s (20-21)."""
    att = np.abs(t)
    sin_t, cos_t = np.sin(t), np.cos(t)
    w0, w1 = np.abs(sin_t), cos_t
    dw = math.sqrt(2.0) * np.sin(0.25 * math.pi - att)
    pos_t = t >= 0.0
    half_sum = (0.5 * (att + t), 0.5 * (0.5 * math.pi - att + t))
    half_diff = (0.5 * (att - t), 0.5 * (0.5 * math.pi - att - t))
    return (np.stack((w0, w1, w0, dw, 1.0 - w0 * w1, w0 / w1, 2.0 * w1, 2.0 * w0, sin_t, pos_t,
                      np.where(pos_t, w0 + w1, dw), np.where(pos_t, dw, w0 + w1),
                      sin_t + w0, sin_t + w1, *map(np.sin, half_diff), *map(np.cos, half_sum),
                      *map(np.sin, half_sum), cos_t + w1, cos_t + w0)),)


@_node_cached
def _lightlike_nodes(u):
    """t = +-(pi/4) phi(u), stacked, and the Jacobian (pi/4) phi'(u)."""
    p, dp = _sin2(u)
    t = (0.25 * math.pi) * p
    return np.stack((t, -t)), (0.25 * math.pi) * dp


def _lightlike_oracle(lam: int, alpha: float, beta: float):
    """The lightlike volume as an integrand over u in [0, 1]: t = +-(pi/4)
    phi(u), both signs summed at each node.  phi clusters nodes at t = 0,
    where the v integral has a kink and, on skewed and large lam = -1
    cells, a layer ~min(p, 1/p) or ~e^-sigma wide, and at t = +-pi/4,
    where skewed cells have another.  Folding the two halves of t onto one
    u makes the root split give each half two panels from the start."""
    f = _lightlike_v_integral(lam, alpha, beta)

    def g(u):
        t, jac = _lightlike_nodes(u)
        return np.add(*f(t)) * jac  # the v integral at t and -t

    return g


def volume_quadrature(kind: str, lam: int, alpha: float, beta: float,
                      tol: float = 1e-8) -> tuple[float, float]:
    """Numerical volume by integrating the invariant volume form over the
    chart parametrization, independent of the closed forms: one adaptive
    1-D integral for either kind, the chart density having been integrated
    in closed form along one axis (w for the ideal kind, v for the
    lightlike one), with nodes clustered at the chart's edges.

    Returns (value, error estimate); raises ToleranceNotReached with the
    best estimate attached when the panel budget runs out, or at once when
    the integrand is not finite at a node (lightlike cells at lam = -1 past
    alpha + beta ~ 354, where the chart's y underflows) or its set-up or
    arithmetic leaves the float range: on extremely skewed or small cells,
    where theta underflows to 0 in the ideal chart, or p or 1/p passes
    ~1e154 in the lightlike one, and at lam = -1 past alpha + beta ~ 710.
    """
    check_kind(kind)
    validate_angles(lam, alpha, beta)
    if not tol >= 1e-10:  # also refuses NaN, which would stop the cubature at once
        raise DomainError(f"tolerance must be a number >= 1e-10, got {tol}")
    oracle = _ideal_oracle if kind == KIND_IDEAL else _lightlike_oracle
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return adaptive_quad(oracle(lam, alpha, beta), 0.0, 1.0, tol=tol)
    except (FloatingPointError, OverflowError, ZeroDivisionError) as exc:
        raise ToleranceNotReached(math.nan, math.inf,
                                  f"the integrand left the float range ({exc})") from None


# -- reporting --------------------------------------------------------------------


@dataclass(frozen=True)
class VolumeReport:
    kind: str
    lam: int
    alpha: float
    beta: float
    closed_form: float
    oracle: float | None = None
    oracle_err: float | None = None
    series: float | None = None
    series_order: int | None = None
    rel_discrepancy: float | None = None

    def as_dict(self) -> dict:
        """Fields in declaration order, `lam` keyed as "lambda"."""
        return {"lambda" if f.name == "lam" else f.name: getattr(self, f.name)
                for f in fields(self)}


def volume_report(kind: str, lam: int, alpha: float, beta: float,
                  with_oracle: bool = True, tol: float = 1e-8,
                  series_order: int | None = None) -> VolumeReport:
    """Closed form next to the quadrature oracle and (optionally) the
    series, with their relative discrepancy.  The kind and the series
    order are checked before anything is computed."""
    check_kind(kind)
    if series_order is not None:
        if kind != KIND_LIGHTLIKE:
            raise DomainError("the curvature series applies to the lightlike kind")
        _check_series_order(series_order)
    closed = (ideal_volume if kind == KIND_IDEAL else lightlike_volume)(lam, alpha, beta)
    oracle = oracle_err = rel = series = None
    if with_oracle:
        oracle, oracle_err = volume_quadrature(kind, lam, alpha, beta, tol=tol)
        rel = abs(closed - oracle) / max(abs(closed), 1e-12)
    if series_order is not None:
        series = lightlike_volume_series(lam, alpha, beta, series_order)
    return VolumeReport(kind, lam, alpha, beta, closed, oracle, oracle_err,
                        series, series_order, rel)
