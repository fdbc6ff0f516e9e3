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
explicit chart parametrizations of both kinds by adaptive cubature; it
never touches the Clausen evaluations.  A Bernoulli-number power series
around zero curvature provides a third route for small edge lengths.  One
coefficient table, 4^k B_2k (-1)^k / (2k+1)!, serves both the Clausen
series and this curvature series.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .cubature import adaptive_quad_2d
from .errors import ConvergenceWarning, DomainError
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


def _np_gacot(lam: int, x: np.ndarray) -> np.ndarray:
    if lam == 1:
        return 0.5 * math.pi - np.arctan(x)
    if lam == -1:
        return 0.5 * np.log((x + 1.0) / (x - 1.0))
    return 1.0 / x


def _ideal_integrand(lam: int, alpha: float, beta: float):
    s_a = gsin(lam, alpha)
    s_ab = gsin(lam, alpha + beta)
    s_b = gsin(lam, beta)

    def f(theta, u):
        r_edge = s_b * s_ab / (s_a * _gsin_np(lam, theta + beta))
        r0 = _gsin_np(lam, alpha + beta - theta) / s_a
        return r_edge / (2.0 * (r0 - u * r_edge))

    return f


def _gsin_np(lam: int, x):
    if lam == 1:
        return np.sin(x)
    if lam == -1:
        return np.sinh(x)
    return x


def _lightlike_integrand(lam: int, alpha: float, beta: float):
    s_a, s_b = gsin(lam, alpha), gsin(lam, beta)
    a_c = 0.5 * (s_a / s_b - s_b / s_a)
    c_c = 0.5 * (s_a / s_b + s_b / s_a)
    b_c = gcos(lam, alpha + beta)
    d_c = gsin(lam, alpha + beta)

    def f(t, v):
        att = np.abs(t)
        width = 0.5 * math.pi - 2.0 * att
        s = att + v * width
        arg = (a_c * np.sin(t) + b_c * np.cos(t) + c_c * np.sin(s)) / (d_c * np.cos(s))
        r = _np_gacot(lam, arg)
        if lam == 0:
            g = r ** 3 / 3.0
        else:
            g = (_gsin_np(lam, 2.0 * r) - 2.0 * r) / (-4.0 * lam)
        return g * width / np.cos(s) ** 2

    return f


def volume_quadrature(kind: str, lam: int, alpha: float, beta: float,
                      tol: float = 1e-8) -> tuple[float, float]:
    """Numerical volume by integrating the invariant volume form over the
    chart parametrization; independent of the closed forms.

    Returns (value, error estimate); raises ToleranceNotReached with the
    best estimate attached when the panel budget runs out.
    """
    check_kind(kind)
    validate_angles(lam, alpha, beta)
    if not tol >= 1e-10:  # also refuses NaN, which would stop the cubature at once
        raise DomainError(f"tolerance must be a number >= 1e-10, got {tol}")
    if kind == KIND_IDEAL:
        f = _ideal_integrand(lam, alpha, beta)
        return adaptive_quad_2d(f, (0.0, alpha), (0.0, 1.0), tol=tol)
    f = _lightlike_integrand(lam, alpha, beta)
    return adaptive_quad_2d(f, (-0.25 * math.pi, 0.25 * math.pi), (0.0, 1.0), tol=tol)


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
