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

An independent oracle computes either volume as one adaptive 1-D integral,
never touching the Clausen or log-sine evaluations: the ideal chart density
integrated in closed form along one axis (_ideal_oracle), or the Schlafli
route for the lightlike volume, which vanishes at alpha = 0 and has the
elementary derivative

    dV/dalpha = (alpha / t(alpha) - (alpha + beta) / t(alpha + beta)) / lam,

t = s / c (_lightlike_oracle; a test ties it to the chart density).
Sidi's sin^2 substitution (ISNM 112, 1993) clusters the nodes at the ends,
where the integrands have their layers.  The nodes are the Kronrod nodes of
dyadic panels of [0, 1] whatever the cell (most calls are on the root's
seven panels), so what depends on them alone is cached across integrals
(_node_cached, keyed on their bytes and shape).

A Bernoulli-number power series around zero curvature provides a third
route for small edge lengths.  One coefficient table,
4^k B_2k (-1)^k / (2k+1)!, serves both the Clausen series and this
curvature series.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left
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
    small, big = min(alpha, beta), max(alpha, beta)
    if big + small == big:
        # The terms in alpha + beta cancel those in the larger edge to nothing.
        # The volume is small dV/dsmall at 0 (the next term is small / big
        # smaller): small (1 - big / t(big)) / lam, in terms that do not cancel.
        t_half = (math.tan if lam == 1 else math.tanh)(0.5 * big)
        return small * (big * t_half - lam * _x_over_s_minus_1(lam, big))
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


@_node_cached
def _sin2_ends(u):
    """phi(u), phi(1 - u) and phi'(u), all three with their digits near
    u = 1 too: 1 - phi(u) = phi(1 - u) and phi'(u) = phi'(1 - u)."""
    (p, q), (dp, dq) = _sin2(np.stack((u, 1.0 - u)))
    return p, q, np.where(u < 0.5, dp, dq)


def _ideal_oracle(lam: int, alpha: float, beta: float):
    """The ideal volume as an integrand over xi in [0, 1].

    The chart density in (theta, w), theta in [0, alpha], w in [0, 1], is
    r_edge / (2 (r0 - (1 - w) r_edge)) = 1 / (2 (q + w)), with
    q = s(alpha - theta) s(theta) / c and c = s(beta) s(alpha + beta), by
    s(a + b - t) s(t + b) - s(b) s(a + b) = s(a - t) s(t).  Its w integral
    is log1p(1 / q) / 2, which is symmetric about theta = alpha / 2, so
    theta runs over [0, alpha / 2], twice weighted, as (alpha / 2) phi(phi(xi)).
    """
    # gsin and _gsin_np, without their per-call dispatch (lam is checked).
    m, s = {1: (math.sin, np.sin), -1: (math.sinh, np.sinh)}.get(lam, (float, np.asarray))
    c = m(beta) * m(alpha + beta)

    def f(xi):
        p, dp = _sin2_twice(xi)
        theta = (0.5 * alpha) * p
        return ((0.5 * alpha) * dp) * np.log1p(c / (s(alpha - theta) * s(theta)))

    return f


# x / s(x) = 1 + sum_k A_k (lam x^2)^k, k >= 1, A_k = (4^k - 2) |B_2k| / (2k)!
# > 0: with |B_2k| in tangent numbers (as for _COT_COEFFS) one int / int,
# correctly rounded.  The terms shrink like (x / pi)^2: the first n keep
# 2^-56 of the sum for |x| <= _SERIES_UP_TO[n - 1].
_X_OVER_S = tuple(2 * k * _TANGENT[k] * (4 ** k - 2)
                  / (4 ** k * (4 ** k - 1) * math.factorial(2 * k)) for k in range(1, 19))
_X_OVER_S_LAM = {lam: tuple(lam ** k * a for k, a in enumerate(_X_OVER_S, 1)) for lam in (1, -1)}
_SERIES_UP_TO = tuple((2.0 ** -56 * _X_OVER_S[0] / a) ** (0.5 / n)
                      for n, a in enumerate(_X_OVER_S[1:], 1))
_SERIES_BELOW = 0.25  # lightlike nodes x below this sum the series
_PI_LO = 1.2246467991473532e-16  # pi - math.pi


def _x_over_s_series(lam: int, x_max: float, minus: float = 0.0) -> tuple[float, ...]:
    """Coefficients in x^2 of x / s(x) - 1 - minus for |x| <= x_max <= 1,
    for _horner: as many terms as double precision needs there.  Near
    x = 0 the quotient x / s(x) - 1 loses its digits."""
    n = bisect_left(_SERIES_UP_TO, x_max) + 1
    return (-minus, *_X_OVER_S_LAM[lam][:n])


def _x_over_s_minus_1(lam: int, y: float) -> float:
    """y / s(y) - 1 for a float y > 0."""
    if y < 1.0:
        return _horner(_x_over_s_series(lam, y), y * y)
    return y * math.exp(-_log_gsin(lam, y)) - 1.0


def _lightlike_oracle(lam: int, alpha: float, beta: float):
    """The lightlike volume as an integrand over u in [0, 1]: dV/dalpha at
    x = alpha phi(u), times alpha phi'(u).  With y = x + beta, S(x) = x / s(x),
    s(y - x) = s(y) c(x) - c(y) s(x) and 1 - c(y) = 2 lam s(y/2)^2, it is

        F(x) = (2 beta s(y/2)^2 + lam s(beta) (S(x) - S(beta))) / s(y),

    whose two terms cancel to no less than half the larger (on a random
    scan).  Where x and beta are small, S(x) - S(beta) = O(x^2 - beta^2),
    so it is (S(x) - 1) - (S(beta) - 1), with S - 1 a series below
    _SERIES_BELOW (and for beta below 1); above it, and on every node when
    beta >= 1/2, x / s(x) - S(beta) costs F at most 24 eps.  At lam = 1,
    s(v) is sin(min(v, pi - v)), with pi - y = (pi - alpha - beta) +
    alpha phi(1 - u) and the first term in double length, so F keeps its
    digits in the layer near alpha + beta = pi.  At lam = -1, s(y)
    overflows past alpha + beta ~ 710.
    """
    if lam == 0:
        def flat(u):
            p, _, dp = _sin2_ends(u)
            return ((2.0 * alpha) * p + beta) * (beta / 3.0) * (alpha * dp)

        return flat

    s_beta, s_beta_m1 = gsin(lam, beta), _x_over_s_minus_1(lam, beta)
    # S(x) - S(beta) as a series, on all nodes, those below _SERIES_BELOW, or none.
    series = _x_over_s_series(lam, min(alpha, _SERIES_BELOW), s_beta_m1)
    all_series = beta < 0.5 and alpha <= _SERIES_BELOW
    some_series = beta < 0.5 and not all_series
    c_half, c_diff = 2.0 * beta, lam * s_beta  # the numerator: c_half s(y/2)^2 + c_diff d
    sigma = alpha + beta
    near, near_x = lam == 1 and sigma > 0.5 * math.pi, lam == 1 and alpha > 0.5 * math.pi
    if near:
        # pi - sigma for sigma = alpha + beta exactly: the rounding error of
        # fl(sigma) by TwoSum (Knuth), and pi - fl(sigma) is exact (Sterbenz).
        b_virtual = sigma - alpha
        sigma_err = (alpha - (sigma - b_virtual)) + (beta - b_virtual)
        pi_rest = (math.pi - sigma) + (_PI_LO - sigma_err)

    def f(u):
        p, pc, dp = _sin2_ends(u)
        x = alpha * p
        y = x + beta
        if near:
            pi_y = pi_rest + alpha * pc  # pi - y
            s_y = np.sin(np.minimum(y, pi_y))
        else:
            s_y = _gsin_np(lam, y)
        if all_series:
            d = _horner(series, x * x)
        else:
            d = x / _gsin_np(lam, np.minimum(x, pi_y + beta) if near_x else x) - (1.0 + s_beta_m1)
            if some_series:
                low = x < _SERIES_BELOW
                x_low = x[low]
                d[low] = _horner(series, x_low * x_low)
        h = _gsin_np(lam, 0.5 * y)
        return (c_half * (h * h) + c_diff * d) / s_y * (alpha * dp)

    return f


def volume_quadrature(kind: str, lam: int, alpha: float, beta: float,
                      tol: float = 1e-8) -> tuple[float, float]:
    """Numerical volume, independent of the closed forms: one adaptive 1-D
    integral, of the ideal chart density integrated along one axis or of
    the lightlike volume's Schlafli derivative (see the module docstring).

    Returns (value, error estimate); raises ToleranceNotReached with the
    best estimate attached when the panel budget runs out, or at once when
    the integrand is not finite at a node or its set-up or arithmetic
    leaves the float range: on extremely skewed or small ideal cells, where
    theta underflows to 0, and at lam = -1 past alpha + beta ~ 710.
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
