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
1981, ch. 4).  The ideal volume is
(cl(2a) + cl(2b) + cl(2g))/2 with g = -(a + b); the lightlike volume is
the ideal volume plus sine-log terms, divided by the curvature, collapsing
to a*b*(a+b)/3 in the flat case.

An independent oracle integrates the invariant volume forms over the
explicit chart parametrizations by adaptive 1-D quadrature, never touching
the Clausen evaluations: each chart density is integrated in closed form
along one axis, w for the ideal chart (see _ideal_oracle) and v for the
lightlike one (see _lightlike_v_integral), leaving the ideal angle or the
lightlike t.  Those integrands have thin layers at their ends, whose width
shrinks with s(beta)/s(alpha) on skewed cells and with e^-(alpha+beta) at
lam = -1.  Sidi's sin^2 substitution phi(u) = u - sin(2 pi u)/(2 pi)
(ISNM 112, 1993), whose Jacobian 2 sin(pi u)^2 vanishes to second order at
both ends, widens them: the ideal angle gets it twice, and each half of
the lightlike t, which has a kink at t = 0, gets it once.  Both integrands
are written so that nothing cancels at a corner.  The map depends on the
nodes alone, and those are the Kronrod nodes of dyadic panels of [0, 1]
whatever the cell, so it is cached by node set across integrals.

A Bernoulli-number power series around zero curvature provides a third
route for small edge lengths.  One coefficient table,
4^k B_2k (-1)^k / (2k+1)!, serves both the Clausen series and this
curvature series.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache, wraps

import numpy as np

from .cubature import adaptive_quad
from .errors import ConvergenceWarning, DomainError, ToleranceNotReached
from .gcnum import check_lambda, gcos, gsin
from .tetrahedra import KIND_IDEAL, KIND_LIGHTLIKE, check_kind, validate_angles

# -- Bernoulli numbers ---------------------------------------------------------


@lru_cache(maxsize=None)
def _bernoulli_exact(n: int) -> Fraction:
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    acc = Fraction(0)
    for j in range(n):
        acc += math.comb(n + 1, j) * _bernoulli_exact(j)
    return -acc / (n + 1)


def bernoulli(n: int) -> float:
    """Bernoulli number B_n for even n up to 60 (B_0 included)."""
    if n != 0 and (n % 2 != 0 or n < 2 or n > 60):
        raise DomainError(f"need an even index in [2, 60] (or 0), got {n}")
    return float(_bernoulli_exact(n))


# -- generalized Clausen function ----------------------------------------------

# Taylor coefficients 4^k B_2k (-1)^k / (2k+1)!, k = 0..30, of the primitive
# F(lam, y) = integral_0^y x/t_lam(x) dx = y * sum_k c_k (lam y^2)^k.  The
# series has radius pi in |y|*sqrt|lam|; its terms shrink by (y/pi)^2.
_COT_COEFFS = tuple(float(Fraction(4 ** k * (-1) ** k) * _bernoulli_exact(2 * k)
                          / math.factorial(2 * k + 1)) for k in range(31))
# 1/n^2, n = 1..14: Li2(q) to double precision for q <= exp(-_LI2_FROM).
_LI2_COEFFS = tuple(1.0 / (n * n) for n in range(1, 15))
_LI2_FROM = 3.0


def _horner(coeffs: tuple[float, ...], u: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc


def clausen(lam: int, x: float) -> float:
    """Curvature-indexed Clausen function; odd, and 2*pi-periodic for
    lam = 1.  For lam = +-1 it is 2 F(lam, x/2) - x log|2 s_lam(x/2)|,
    or the dilogarithm form for lam = -1 and |x| >= _LI2_FROM."""
    check_lambda(lam)
    sign = -1.0 if x < 0 else 1.0
    x = abs(x)
    if x == 0.0:
        return 0.0
    if lam == 0:
        return sign * x * (1.0 - math.log(x))
    if lam == 1:
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
    log_sum = (alpha * math.log(abs(gsin(lam, alpha)))
               + beta * math.log(abs(gsin(lam, beta)))
               + gamma * math.log(abs(gsin(lam, gamma))))
    return (ideal_volume(lam, alpha, beta) + log_sum) / lam


def lightlike_volume_series(lam: float, alpha: float, beta: float, k_order: int) -> float:
    """Bernoulli power series for the lightlike volume around zero
    curvature; `lam` may be any real here.  Emits ConvergenceWarning outside
    |alpha + beta| < pi / sqrt|lam|."""
    if not (0 < alpha < math.inf and 0 < beta < math.inf and math.isfinite(lam)):
        raise DomainError(f"need finite alpha, beta > 0 and finite lam, got "
                          f"({alpha}, {beta}, {lam})")
    if not 1 <= k_order < len(_COT_COEFFS):
        raise DomainError(f"series order must lie in [1, {len(_COT_COEFFS) - 1}] "
                          f"(the Bernoulli table), got {k_order}")
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
_PHI_SERIES = np.array([(-1) ** k * (2.0 * math.pi) ** (2 * k + 2) / math.factorial(2 * k + 3)
                        for k in range(8)])
_PHI_POWERS = np.arange(8)
_TINY = np.finfo(float).tiny


def _node_cached(node_map):
    """node_map(u) for float nodes u, memoized on the bytes of u (see the
    module docstring).  The arrays returned are shared between callers,
    hence read-only, and shaped like u."""

    @lru_cache(maxsize=64)
    def cached(key: bytes) -> tuple[np.ndarray, ...]:
        out = node_map(np.frombuffer(key))
        for arr in out:
            arr.flags.writeable = False
        return out

    @wraps(node_map)
    def lookup(u):
        u = np.asarray(u, dtype=float)
        return tuple(arr.reshape(u.shape) for arr in cached(u.tobytes()))

    lookup.cache_clear = cached.cache_clear
    return lookup


@_node_cached
def _sin2(u):
    """Sidi's sin^2 map phi(u) = u - sin(2 pi u) / (2 pi) of [0, 1] onto
    itself, and its derivative 2 sin(pi u)^2, which vanishes to second order
    at both ends.  Below u = 1/8 phi is summed as a series, since the
    difference loses all its digits as u goes to 0."""
    phi = u - np.sin(2.0 * math.pi * u) / (2.0 * math.pi)
    low = u < 0.125
    if low.any():
        ul = u[low]
        phi[low] = ul ** 3 * ((ul * ul)[:, None] ** _PHI_POWERS @ _PHI_SERIES)
    return phi, 2.0 * np.sin(math.pi * u) ** 2


@_node_cached
def _sin2_twice(u):
    """phi(phi(u)) and its derivative: nodes cluster like u^9 at both ends."""
    p, dp = _sin2.__wrapped__(u)
    q, dq = _sin2.__wrapped__(p)
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
    return np.divide(fn(x), x, out=np.ones_like(x), where=x != 0.0)


# fn(x) / x - 1 = sum_k (-lam)^k x^2k / (2k + 1), k >= 1, for fn = arctan
# (lam = 1) or artanh (lam = -1): 26 terms reach double precision below
# x = _TAIL_BELOW.
_TAIL_POWERS = np.arange(1, 27)
_TAIL_SERIES = {lam: (-lam) ** _TAIL_POWERS / (2.0 * _TAIL_POWERS + 1.0) for lam in (1, -1)}
_TAIL_BELOW = 0.5


def _odd_tail(lam: int, x):
    """fn(x) / x - 1 as the series above, for 0 <= x <= _TAIL_BELOW, where
    the difference loses its digits as x goes to 0."""
    return (x * x)[..., None] ** _TAIL_POWERS @ _TAIL_SERIES[lam]


def _lightlike_v_integral(lam: int, alpha: float, beta: float):
    """The lightlike chart density integrated over v, as a function of t in
    [-pi/4, pi/4].

    The density in (t, v), v in [0, 1], is g(r) width / cos(s)^2 with
    s = |t| + v width, width = pi/2 - 2|t|, and cot(r) = x = P / (d cos s),
    P = A + c sin s, A = a sin t + b cos t, where p = s(alpha) / s(beta),
    a, c = (p -+ 1/p) / 2, b, d = c(sigma), s(sigma) with
    sigma = alpha + beta, and g(r) = (s(2r) - 2r) / (-4 lam), or r^3 / 3.
    With w = sin s, the ends are w0 = sin|t| and w1 = cos|t|, and P0, P1
    are the values of P there.

    At lam = 0 the v integral is d^3 (w1 - w0) (P0 + P1) / (6 (P0 P1)^2).
    Otherwise g'(r) dr = -dx / (x^2 + lam)^2, and with
    Q = d^2 cos(s)^2 (x^2 + lam) = P^2 + lam d^2 (1 - w^2), integration by
    parts gives

        [tan(s) r] / (2 lam) - A d / (2 lam) integral dw / Q

    between s = |t| and s = pi/2 - |t|: the s(2r) half of [tan(s) g]
    cancels the rational part of the w integral exactly.  With
    D = P0 P1 + lam d^2 (1 - w0 w1) and h = d |b sin t - a cos t| (w1 - w0),
    D^2 + lam h^2 = Q0 Q1, and the w integral is

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
    O(r^3), so the sum above cancels.  With u = 1/x (r = arctan u, or
    artanh u at lam = -1) and I0 = (w1 - w0) / (P0 P1) = integral dw / P^2,
    [tan(s) u] = A d I0 exactly, so where u < 1/2 at both ends the v
    integral is [tan(s) (r - u)] - A d (I - I0), with r - u = u T(u),
    T(u) = fn(u) / u - 1 summed as a series, and

        I - I0 = (w1 - w0) [T(h / D) - lam d^2 (1 - w0 w1) / (P0 P1)] / D.

    P0 and P1 are regrouped so that only a real change of sign cancels.
    With S = sin t + cos t, D' = cos t - sin t (both >= 0, the small one
    formed as sqrt(2) sin(pi/4 - |t|)) and p+- = p^(+-1) for t >= 0 and
    t < 0,

        P0 = p+- sin|t| + b cos t,
        P1 = (p - 1) / (2p) (p S - D') + 2 c(sigma/2)^2 cos t,

    which keep their digits on skewed cells, where p or 1/p is large, and
    as sigma -> pi at lam = 1, where c + b -> 0.  At t = 0, tan(s) r at
    s = pi/2 is its limit.  The code divides a, b, A and P by
    k = max(d, 1), and h, D and Q by k^2, which keeps every product in
    range for large sigma at lam = -1 and for tiny sigma; d / k is what is
    left of d.
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

    def ads_y(sin_t, cos_t, sin_s, cos_s, half_sum, half_diff):
        y = (y_p * (sin_t + sin_s)
             + np.sin(half_diff) * (y_q * np.cos(half_sum) + y_e * np.sin(half_sum))
             + y_m * (cos_t + cos_s))
        # Past sigma ~ 354 y can underflow (its terms shrink like e^-2 sigma);
        # nan there makes the cubature raise ToleranceNotReached instead of
        # dividing by zero.
        return np.where(y >= _TINY, y, np.nan)

    def f(t):
        att = np.abs(t)
        sin_t, cos_t = np.sin(t), np.cos(t)
        w0, w1 = np.abs(sin_t), cos_t  # sin|t|, cos|t|
        dw = math.sqrt(2.0) * np.sin(0.25 * math.pi - att)  # w1 - w0
        big_a = a * sin_t + b * cos_t
        h = dk * np.abs(b * sin_t - a * cos_t) * dw
        if lam != -1:
            pos_t = t >= 0.0
            s_plus, s_minus = np.where(pos_t, w0 + w1, dw), np.where(pos_t, dw, w0 + w1)
            p0 = np.where(pos_t, p_pos, p_neg) * w0 + b * cos_t
            p1 = half_pm * (p * s_plus - s_minus) + one_b * cos_t
        if lam == 0:
            return dk ** 3 * dw * (p0 + p1) / (6.0 * (p0 * p1) ** 2)
        # tan(s) r at s = pi/2 - |t| is cos|t| r1 / sin|t|; r1 / sin|t| and
        # the w integral are written as x -> fn(x) / x at small x, where
        # fn(x) / x -> 1, so that t = 0 and h = 0 give their limits.
        if lam == 1:
            r0 = np.arctan2(dk * w1, p0)
            pos = p1 > 0.0  # true wherever sin|t| is small
            p1_pos = np.where(pos, p1, 1.0)
            r1_w0 = dk * _over_x(np.arctan, dk * w0 / p1_pos) / p1_pos
            if not pos.all():
                r1_w0[~pos] = np.arctan2(dk * w0[~pos], p1[~pos]) / w0[~pos]
            big_d = p0 * p1 + dk * dk * (1.0 - w0 * w1)
            pos = big_d > 0.0  # true wherever h is small
            d_pos = np.where(pos, big_d, 1.0)
            fc = _over_x(np.arctan, h / d_pos)
            integral = dw * fc / d_pos
            if not pos.all():
                integral[~pos] = dw[~pos] * np.arctan2(h[~pos], big_d[~pos]) / h[~pos]
        else:
            y0 = ads_y(sin_t, cos_t, w0, w1, 0.5 * (att + t), 0.5 * (att - t))
            y1 = ads_y(sin_t, cos_t, w1, w0, 0.5 * (0.5 * math.pi - att + t),
                       0.5 * (0.5 * math.pi - att - t))
            p0, p1 = dk * (y0 + w1), dk * (y1 + w0)
            r0 = 0.5 * np.log1p(2.0 * w1 / y0)
            r1_w0 = _over_x(np.log1p, 2.0 * w0 / y1) / y1
            q01 = (dk ** 4 * y0 * (y0 + 2.0 * w1)) * (y1 * (y1 + 2.0 * w0))  # Q0 Q1
            big_d = np.sqrt(q01 + h * h)
            w_int = (big_d + h) / q01 * _over_x(np.log1p, 2.0 * h * (big_d + h) / q01)
            integral, fc = dw * w_int, big_d * w_int
        ends = w1 * r1_w0 - (w0 / w1) * r0
        v_int = ends - dk * big_a * integral
        # Where both u = 1/x are small, r and the w integral are their flat
        # parts u and I0 plus O(u^3) tails; the flat parts cancel exactly,
        # so the tails are summed alone (see above).
        flat = (dk * w1 < _TAIL_BELOW * p0) & (dk * w0 < _TAIL_BELOW * p1)
        if flat.any():
            sel = slice(None) if flat.all() else flat
            p0, p1, w0, w1, big_d = (arr[sel] for arr in (p0, p1, w0, w1, big_d))
            # u0, u1 < _TAIL_BELOW here; h / D need not be.
            x = np.stack((dk * w1 / p0, dk * w0 / p1, h[sel] / big_d))
            tail0, tail1, tail = _odd_tail(lam, np.minimum(x, _TAIL_BELOW))
            tail = np.where(x[2] < _TAIL_BELOW, tail, fc[sel] - 1.0)
            v_int[sel] = dk * (w1 * tail1 / p1 - w0 * tail0 / p0
                               - big_a[sel] * dw[sel] / big_d
                               * (tail - lam * dk * dk * (1.0 - w0 * w1) / (p0 * p1)))
        return v_int / (2.0 * lam)

    return f


def _lightlike_oracle(lam: int, alpha: float, beta: float):
    """The lightlike volume as an integrand over u in [0, 1]: t = +-(pi/4)
    phi(u), both signs summed at each node.  phi clusters nodes at t = 0,
    where the v integral has a kink and, on skewed and large lam = -1
    cells, a layer ~min(p, 1/p) or ~e^-sigma wide, and at t = +-pi/4,
    where skewed cells have another.  Folding the two halves of t onto one
    u makes the root split give each half two panels from the start."""
    f = _lightlike_v_integral(lam, alpha, beta)

    def g(u):
        p, dp = _sin2(u)
        t = (0.25 * math.pi) * p
        return f(np.stack((t, -t))).sum(axis=0) * ((0.25 * math.pi) * dp)

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
    alpha + beta ~ 354, where the chart's y underflows) or its arithmetic
    overflows, divides by zero or forms a nan: on extremely skewed or small
    cells, where theta underflows to 0 in the ideal chart, or p or 1/p
    passes ~1e154 in the lightlike one.
    """
    check_kind(kind)
    validate_angles(lam, alpha, beta)
    if not tol >= 1e-10:  # also refuses NaN, which would stop the cubature at once
        raise DomainError(f"tolerance must be a number >= 1e-10, got {tol}")
    oracle = _ideal_oracle if kind == KIND_IDEAL else _lightlike_oracle
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return adaptive_quad(oracle(lam, alpha, beta), 0.0, 1.0, tol=tol)
    except FloatingPointError as exc:
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
    series, with their relative discrepancy."""
    check_kind(kind)
    if series_order is not None and kind != KIND_LIGHTLIKE:
        raise DomainError("the curvature series applies to the lightlike kind")
    closed = (ideal_volume if kind == KIND_IDEAL else lightlike_volume)(lam, alpha, beta)
    oracle = oracle_err = rel = series = None
    if with_oracle:
        oracle, oracle_err = volume_quadrature(kind, lam, alpha, beta, tol=tol)
        rel = abs(closed - oracle) / max(abs(closed), 1e-12)
    if series_order is not None:
        series = lightlike_volume_series(lam, alpha, beta, series_order)
    return VolumeReport(kind, lam, alpha, beta, closed, oracle, oracle_err,
                        series, series_order, rel)
