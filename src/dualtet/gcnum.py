"""Arithmetic and analysis over the 2d real algebras R[l] / (l^2 + lam).

An element is written z = x + l*y with l^2 = -lam.  The tag lam = +1 gives
the ordinary complex numbers, lam = 0 the dual numbers and lam = -1 the
split-complex (hyperbolic) numbers.  Every value carries its tag at runtime
and mixing tags raises `LambdaMismatch`; this is what lets the three
geometries run side by side in one process.

The module also provides the curvature-indexed trigonometric functions
(gsin, gcos, gtan, gcot and their inverses) that interpolate between the
circular (lam=1), flat (lam=0) and hyperbolic (lam=-1) families, and the
analytic continuation of real functions to the algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, LambdaMismatch, PoleAt, ZeroDivisor

# Relative tolerance deciding unit-ness of z: |z zbar| <= EPS_UNIT*(x^2+y^2)
# marks z as a zero divisor.  Exact zeros pass the test trivially.
EPS_UNIT = 1e-12

VALID_LAMBDAS = (-1, 0, 1)


def check_lambda(lam: int) -> int:
    # bool is a subclass of int and 1.0 == 1, so test the exact type too.
    if type(lam) is not int or lam not in VALID_LAMBDAS:
        raise DomainError(f"curvature sign must be -1, 0 or +1, got {lam!r}")
    return lam


def check_same_lambda(a: "GC", b: "GC") -> int:
    if a.lam != b.lam:
        raise LambdaMismatch(f"mixed curvature tags {a.lam} and {b.lam}")
    return a.lam


@dataclass(frozen=True)
class GC:
    """Element re + l*im of the algebra with l^2 = -lam."""

    re: float
    im: float
    lam: int

    def __post_init__(self):
        check_lambda(self.lam)

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        return GC(self.re + other.re, self.im + other.im, self.lam)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return GC(self.re - other.re, self.im - other.im, self.lam)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return GC(-self.re, -self.im, self.lam)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return GC(self.re * other, self.im * other, self.lam)
        other = self._coerce(other)
        # (x1 + l y1)(x2 + l y2) = (x1 x2 - lam y1 y2) + l (x1 y2 + x2 y1)
        return GC(
            self.re * other.re - self.lam * self.im * other.im,
            self.re * other.im + other.re * self.im,
            self.lam,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return GC(self.re / other, self.im / other, self.lam)
        return self * self._coerce(other).inv()

    def _coerce(self, other) -> "GC":
        if isinstance(other, GC):
            check_same_lambda(self, other)
            return other
        if isinstance(other, (int, float)):
            return GC(float(other), 0.0, self.lam)
        raise TypeError(f"cannot combine GC with {type(other)!r}")

    # -- conjugation, modulus, inverse --------------------------------------

    def conj(self) -> "GC":
        return GC(self.re, -self.im, self.lam)

    def mod_sq(self) -> float:
        """z * conj(z); real, possibly negative for lam = -1."""
        return self.re * self.re + self.lam * self.im * self.im

    def is_unit(self) -> bool:
        return abs(self.mod_sq()) > EPS_UNIT * (self.re * self.re + self.im * self.im)

    def inv(self) -> "GC":
        m = self.mod_sq()
        if not self.is_unit():
            raise ZeroDivisor(f"{self} is not a unit (|z|^2 = {m})")
        return GC(self.re / m, -self.im / m, self.lam)

    # -- misc ---------------------------------------------------------------

    def isclose(self, other: "GC", tol: float = 1e-12) -> bool:
        check_same_lambda(self, other)
        scale = max(1.0, abs(self.re), abs(self.im), abs(other.re), abs(other.im))
        return abs(self.re - other.re) <= tol * scale and abs(self.im - other.im) <= tol * scale

    def __repr__(self):
        return f"GC({self.re!r}, {self.im!r}, lam={self.lam})"


def gc(re: float, im: float = 0.0, lam: int = 1) -> GC:
    return GC(float(re), float(im), check_lambda(lam))


# -- curvature-indexed trigonometry ------------------------------------------


def gsin(lam: int, theta: float) -> float:
    """sinh, identity or sin for lam = -1, 0, +1."""
    check_lambda(lam)
    if lam == 1:
        return math.sin(theta)
    if lam == -1:
        return math.sinh(theta)
    return theta


def gcos(lam: int, theta: float) -> float:
    """cosh, 1 or cos for lam = -1, 0, +1."""
    check_lambda(lam)
    if lam == 1:
        return math.cos(theta)
    if lam == -1:
        return math.cosh(theta)
    return 1.0


def gtan(lam: int, theta: float) -> float:
    c = gcos(lam, theta)
    if abs(c) < 1e-14:
        raise PoleAt(f"gcos({lam}, {theta}) vanishes")
    return gsin(lam, theta) / c


def gcot(lam: int, theta: float) -> float:
    s = gsin(lam, theta)
    if abs(s) < 1e-14 * max(1.0, abs(theta)):
        raise PoleAt(f"gsin({lam}, {theta}) vanishes")
    return gcos(lam, theta) / s


def gatan(lam: int, r: float) -> float:
    """Inverse of gtan.  Branch (-pi/2, pi/2) for lam = 1; needs |r| < 1
    for lam = -1."""
    check_lambda(lam)
    if lam == 1:
        return math.atan(r)
    if lam == -1:
        if abs(r) >= 1.0:
            raise DomainError(f"gatan(-1, r) needs |r| < 1, got {r}")
        return math.atanh(r)
    return r


def gacot(lam: int, r: float) -> float:
    """Inverse of gcot.  Branch (0, pi) for lam = 1.  For lam = -1 the
    two arcoth branches are resolved by the sign of r (needs |r| > 1);
    for lam = 0 the inverse is 1/r."""
    check_lambda(lam)
    if lam == 1:
        return math.pi / 2.0 - math.atan(r)
    if lam == -1:
        if abs(r) <= 1.0:
            raise DomainError(f"gacot(-1, r) needs |r| > 1, got {r}")
        return 0.5 * math.log((r + 1.0) / (r - 1.0))
    if r == 0.0:
        raise DomainError("gacot(0, r) needs r != 0")
    return 1.0 / r


def exp_ell(lam: int, theta: float) -> GC:
    """exp(l*theta) = gcos(theta) + l*gsin(theta)."""
    return GC(gcos(lam, theta), gsin(lam, theta), check_lambda(lam))


def gc_angle(z: GC, tol: float = 1e-9) -> float:
    """Angle theta of a unit-modulus element z = exp(l*theta).

    Requires z*conj(z) = 1 (up to tol); for lam = -1 this forces re(z) > 0.
    """
    m = z.mod_sq()
    if abs(m - 1.0) > tol * max(1.0, z.re * z.re + z.im * z.im):
        raise DomainError(f"{z} does not lie on the unit circle (|z|^2 = {m})")
    if z.lam == 1:
        return math.atan2(z.im, z.re)
    if z.lam == -1:
        if z.re <= 0.0:
            raise DomainError(f"{z} is not exp(l*theta) for lam = -1 (re <= 0)")
        return math.asinh(z.im)
    return z.im / z.re


def polar(z: GC) -> tuple[float, float]:
    """Decompose a unit z as r * exp(l*theta) with real r.

    For lam = 1 the radius is positive and theta lies in (-pi, pi].  For
    lam = 0 and lam = -1 the radius carries the sign of re(z); for
    lam = -1 the decomposition needs |z|^2 > 0.
    """
    if not z.is_unit():
        raise ZeroDivisor(f"{z} has no polar form (zero divisor)")
    if z.lam == 1:
        return math.hypot(z.re, z.im), math.atan2(z.im, z.re)
    if z.lam == -1:
        m = z.mod_sq()
        if m <= 0.0:
            raise DomainError(f"{z} is not of the form r*exp(l*theta) for lam = -1")
        r = math.copysign(math.sqrt(m), z.re)
        return r, math.atanh(z.im / z.re)
    return z.re, z.im / z.re


def analytic_continue(f, z: GC, df=None) -> GC:
    """Extend a real-analytic f to the algebra at z = x + l*y.

    lam = -1 averages f over the null directions, lam = +1 evaluates f at
    the complex point x + iy (f must accept complex input there), and
    lam = 0 uses the jet f(x) + l*f'(x)*y.  If `df` is omitted for lam = 0
    the derivative is taken by a central difference.
    """
    x, y = z.re, z.im
    if z.lam == -1:
        fp, fm = f(x + y), f(x - y)
        return GC(0.5 * (fp + fm), 0.5 * (fp - fm), -1)
    if z.lam == 1:
        w = f(complex(x, y))
        return GC(w.real, w.imag, 1)
    if df is None:
        h = 1e-6 * (1.0 + abs(x))
        dfx = (f(x + h) - f(x - h)) / (2.0 * h)
    else:
        dfx = df(x)
    return GC(f(x), dfx * y, 0)
