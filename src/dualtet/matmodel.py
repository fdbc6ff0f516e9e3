"""2x2 matrix models of the three Lorentzian spaces and their duals.

Points of the spacetime family (anti-de Sitter / Minkowski / de Sitter for
lam = -1, 0, +1, written space "X") are projective classes of matrices fixed
by the involution `circ` with positive determinant; points of the dual
family (anti-de Sitter / half-pipe / hyperbolic, space "Y") are classes
fixed by the conjugate transpose `dag`.  Orientation-preserving isometries
are projective classes of matrices A with |det A|^2 > 0, acting by
A > x = A x A^circ on X and B > y = B y B^dag on Y.

Tangent vectors at the identity are traceless hermitian matrices for the
matching involution; a tangent at a general base point is stored as the
pair (base isometry, model vector at the identity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BaseMismatch,
    DomainError,
    LambdaMismatch,
    NormalizationFailure,
)
from .gcnum import GC, check_lambda, gc

SPACE_X = "X"
SPACE_Y = "Y"

PROJ_TOL = 1e-9  # projective equality: Frobenius distance of canonical reps


def check_space(space: str) -> str:
    if space not in (SPACE_X, SPACE_Y):
        raise DomainError(f"space must be 'X' or 'Y', got {space!r}")
    return space


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix over the algebra, row-major entries a, b, c, d."""

    a: GC
    b: GC
    c: GC
    d: GC

    def __post_init__(self):
        lam = self.a.lam
        for e in (self.b, self.c, self.d):
            if e.lam != lam:
                raise LambdaMismatch("matrix entries carry mixed curvature tags")

    @property
    def lam(self) -> int:
        return self.a.lam

    @property
    def entries(self) -> tuple[GC, GC, GC, GC]:
        return (self.a, self.b, self.c, self.d)

    @classmethod
    def identity(cls, lam: int) -> "Mat2":
        one, zero = gc(1, 0, lam), gc(0, 0, lam)
        return cls(one, zero, zero, one)

    @classmethod
    def from_real(cls, rows, lam: int) -> "Mat2":
        (a, b), (c, d) = rows
        return cls(gc(a, 0, lam), gc(b, 0, lam), gc(c, 0, lam), gc(d, 0, lam))

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    def __sub__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d)

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, s) -> "Mat2":
        return Mat2(self.a * s, self.b * s, self.c * s, self.d * s)

    __rmul__ = __mul__

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def det(self) -> GC:
        return self.a * self.d - self.b * self.c

    def tr(self) -> GC:
        return self.a + self.d

    def conj(self) -> "Mat2":
        return Mat2(self.a.conj(), self.b.conj(), self.c.conj(), self.d.conj())

    def circ(self) -> "Mat2":
        """Involution swapping the diagonal with conjugation and negating
        the conjugated off-diagonal."""
        return Mat2(self.d.conj(), -self.b.conj(), -self.c.conj(), self.a.conj())

    def dag(self) -> "Mat2":
        """Conjugate transpose."""
        return Mat2(self.a.conj(), self.c.conj(), self.b.conj(), self.d.conj())

    def adj(self) -> "Mat2":
        return Mat2(self.d, -self.b, -self.c, self.a)

    def inv(self) -> "Mat2":
        return self.adj() * self.det().inv()

    def traceless(self) -> "Mat2":
        h = self.tr() * 0.5
        return Mat2(self.a - h, self.b, self.c, self.d - h)

    def re_rows(self) -> list[list[float]]:
        return [[self.a.re, self.b.re], [self.c.re, self.d.re]]

    def im_rows(self) -> list[list[float]]:
        return [[self.a.im, self.b.im], [self.c.im, self.d.im]]

    def det_im(self) -> float:
        """Determinant of the matrix of imaginary parts."""
        return self.a.im * self.d.im - self.b.im * self.c.im

    def frob_sq(self) -> float:
        return sum(e.re * e.re + e.im * e.im for e in self.entries)

    def isclose(self, other: "Mat2", tol: float = 1e-12) -> bool:
        scale = max(1.0, math.sqrt(self.frob_sq()), math.sqrt(other.frob_sq()))
        return all(
            abs(x.re - y.re) <= tol * scale and abs(x.im - y.im) <= tol * scale
            for x, y in zip(self.entries, other.entries)
        )

    def __repr__(self):
        def fmt(z):
            return f"{z.re:.6g}{z.im:+.6g}l"

        return (f"Mat2[[{fmt(self.a)}, {fmt(self.b)}], "
                f"[{fmt(self.c)}, {fmt(self.d)}]; lam={self.lam}]")


def involution(m: Mat2, space: str) -> Mat2:
    """The involution whose fixed matrices model `space`: `circ` on X,
    `dag` on Y."""
    return m.circ() if check_space(space) == SPACE_X else m.dag()


def is_hermitian(m: Mat2, space: str, tol: float = 1e-9) -> bool:
    return involution(m, space).isclose(m, tol)


# -- embeddings of R^4 --------------------------------------------------------


def embed(v, space: str, lam: int) -> Mat2:
    """Linear identification of R^4 with the hermitian matrices of `space`."""
    check_space(space)
    check_lambda(lam)
    v1, v2, v3, v4 = (float(x) for x in v)
    if space == SPACE_X:
        return Mat2(
            GC(v2, v4, lam), GC(0.0, v3 - v1, lam),
            GC(0.0, v3 + v1, lam), GC(v2, -v4, lam),
        )
    return Mat2(
        GC(v1 + v3, 0.0, lam), GC(v4, v2, lam),
        GC(v4, -v2, lam), GC(v1 - v3, 0.0, lam),
    )


def unembed(m: Mat2, space: str) -> np.ndarray:
    """Inverse of `embed` on hermitian matrices (non-hermitian parts are
    discarded by symmetrization)."""
    check_space(space)
    if space == SPACE_X:
        x2 = 0.5 * (m.a.re + m.d.re)
        x4 = 0.5 * (m.a.im - m.d.im)
        x3 = 0.5 * (m.b.im + m.c.im)
        x1 = 0.5 * (m.c.im - m.b.im)
        return np.array([x1, x2, x3, x4])
    y1 = 0.5 * (m.a.re + m.d.re)
    y3 = 0.5 * (m.a.re - m.d.re)
    y4 = 0.5 * (m.b.re + m.c.re)
    y2 = 0.5 * (m.b.im - m.c.im)
    return np.array([y1, y2, y3, y4])


def quadric_diagonal(space: str, lam: int) -> np.ndarray:
    """Diagonal of the quadratic form v -> det(embed(v)) on R^4."""
    if check_space(space) == SPACE_X:
        return np.array([-float(lam), 1.0, float(lam), float(lam)])
    return np.array([1.0, -float(lam), -1.0, -1.0])


def quadric_value(v, space: str, lam: int) -> float:
    """det(embed(v)); positive exactly on points of the space."""
    v = np.asarray(v, float)
    return float(quadric_diagonal(space, lam) @ (v * v))


# -- isometries ---------------------------------------------------------------


@dataclass(frozen=True)
class Isometry:
    """Projective class of a matrix with |det|^2 > 0."""

    rep: Mat2

    def __post_init__(self):
        d = self.rep.det()
        m = d.mod_sq()
        if m <= 1e-24 * max(1.0, self.rep.frob_sq() ** 2):
            raise NormalizationFailure(f"|det|^2 = {m} is not positive: not an isometry")
        # Scale so |det|^2 = 1; a real positive factor keeps the class.
        # Skipped when already normalized so reloading a representative is
        # bit-stable.
        if abs(m - 1.0) > 1e-12:
            object.__setattr__(self, "rep", self.rep * (m ** -0.25))

    @property
    def lam(self) -> int:
        return self.rep.lam

    @classmethod
    def identity(cls, lam: int) -> "Isometry":
        return cls(Mat2.identity(lam))

    def inv(self) -> "Isometry":
        return Isometry(self.rep.inv())

    def __matmul__(self, other: "Isometry") -> "Isometry":
        return Isometry(self.rep @ other.rep)

    def projectively_equal(self, other: "Isometry", tol: float = PROJ_TOL) -> bool:
        """True when the reps differ by a scalar of the algebra, tested by
        vanishing of all pairwise cross products of entries."""
        p, q = self.rep.entries, other.rep.entries
        scale = math.sqrt(self.rep.frob_sq() * other.rep.frob_sq())
        for i in range(4):
            for j in range(i + 1, 4):
                cross = p[i] * q[j] - p[j] * q[i]
                if math.hypot(cross.re, cross.im) > tol * max(scale, 1e-30):
                    return False
        return True


# -- points -------------------------------------------------------------------


def _canonical_point_rep(m: Mat2, space: str) -> Mat2:
    """Scale a hermitian positive-determinant matrix to det = 1 and fix the
    sign by tr >= 0, breaking tr = 0 ties by the first nonzero coordinate."""
    if not is_hermitian(m, space, 1e-7):
        raise NormalizationFailure(f"representative is not hermitian for space {space!r}")
    d = m.det()
    scale = max(m.frob_sq(), 1e-300)
    if abs(d.im) > 1e-7 * scale:
        raise NormalizationFailure("determinant is not real")
    if d.re <= 1e-14 * scale:
        raise NormalizationFailure(f"representative has non-positive determinant {d.re}")
    m = m * (1.0 / math.sqrt(d.re))
    t = m.tr().re
    if t < 0:
        m = -m
    elif abs(t) <= 1e-12:
        vec = unembed(m, space)
        for comp in vec:
            if abs(comp) > 1e-12:
                if comp < 0:
                    m = -m
                break
    return m


@dataclass(frozen=True)
class Point:
    """Projective class of a hermitian matrix of positive determinant."""

    space: str
    rep: Mat2

    def __post_init__(self):
        check_space(self.space)
        object.__setattr__(self, "rep", _canonical_point_rep(self.rep, self.space))

    @property
    def lam(self) -> int:
        return self.rep.lam

    @classmethod
    def origin(cls, space: str, lam: int) -> "Point":
        return cls(space, Mat2.identity(lam))

    @classmethod
    def from_vector(cls, v, space: str, lam: int) -> "Point":
        return cls(space, embed(v, space, lam))

    def vector(self) -> np.ndarray:
        return unembed(self.rep, self.space)

    def isclose(self, other: "Point", tol: float = PROJ_TOL) -> bool:
        if self.space != other.space or self.lam != other.lam:
            return False
        d_plus = (self.rep - other.rep).frob_sq()
        d_minus = (self.rep + other.rep).frob_sq()
        return min(d_plus, d_minus) <= tol * tol * max(1.0, self.rep.frob_sq())

    def moved(self, a: Isometry) -> "Point":
        return act(a, self)


# -- tangents -----------------------------------------------------------------


def _model_inner(space: str, m1: Mat2, m2: Mat2) -> float:
    """Invariant bilinear form on the model tangent space at the identity,
    obtained by polarizing -det(Im .) for X and -det(.) for Y."""
    if space == SPACE_X:
        # X = l*M with M real traceless: <X1, X2> = m1 n1 + (m2 n3 + m3 n2)/2
        return (m1.a.im * m2.a.im
                + 0.5 * (m1.b.im * m2.c.im + m1.c.im * m2.b.im))
    a1, b1, c1 = m1.a.re, m1.b.re, m1.b.im
    a2, b2, c2 = m2.a.re, m2.b.re, m2.b.im
    return a1 * a2 + b1 * b2 + m1.lam * c1 * c2


@dataclass(frozen=True)
class Tangent:
    """Tangent vector stored as (base isometry, model vector at identity)."""

    space: str
    rep: Mat2
    base: Isometry | None = None

    def __post_init__(self):
        check_space(self.space)
        t = self.rep.tr()
        if math.hypot(t.re, t.im) > 1e-9 * max(1.0, math.sqrt(self.rep.frob_sq())):
            raise NormalizationFailure("tangent representative is not traceless")
        if not is_hermitian(self.rep, self.space, 1e-7):
            raise NormalizationFailure("tangent representative has the wrong hermitian type")
        if self.base is None:
            object.__setattr__(self, "base", Isometry.identity(self.rep.lam))

    @property
    def lam(self) -> int:
        return self.rep.lam

    def norm_sq(self) -> float:
        return _model_inner(self.space, self.rep, self.rep)

    def sigma(self) -> int:
        return causal_type(self)

    def base_point(self) -> Point:
        return act(self.base, Point.origin(self.space, self.lam))

    def normalized(self) -> "Tangent":
        return normalize_tangent(self)

    def moved(self, a: Isometry) -> "Tangent":
        return Tangent(self.space, self.rep, a @ self.base)


def causal_type(t: Tangent, tol: float = 1e-10) -> int:
    """Sign of the invariant norm: -1 timelike, 0 lightlike, +1 spacelike."""
    n = t.norm_sq()
    if abs(n) <= tol * max(t.rep.frob_sq(), 1e-300):
        return 0
    return 1 if n > 0 else -1


def normalize_tangent(t: Tangent) -> Tangent:
    """Divide by sqrt|<T,T>| unless the vector is lightlike."""
    if causal_type(t) == 0:
        return t
    return Tangent(t.space, t.rep * (1.0 / math.sqrt(abs(t.norm_sq()))), t.base)


def tangent_metric(t1: Tangent, t2: Tangent, tol: float = PROJ_TOL) -> float:
    """Invariant inner product of two tangents at the same base point."""
    if t1.space != t2.space:
        raise BaseMismatch("tangents live in different spaces")
    if t1.base.projectively_equal(t2.base, tol):
        return _model_inner(t1.space, t1.rep, t2.rep)
    if not t1.base_point().isclose(t2.base_point(), tol):
        raise BaseMismatch("tangents are based at different points")
    # Same point through different isometries: transport the second rep
    # through the stabilizer element joining the two frames.
    w = t1.base.inv() @ t2.base
    rep2 = w.rep @ t2.rep @ w.rep.inv()
    rep2 = _project_model(rep2, t1.space)
    return _model_inner(t1.space, t1.rep, rep2)


def _project_model(m: Mat2, space: str) -> Mat2:
    """Orthogonal projection onto the traceless hermitian model space;
    removes numerical drift after conjugation."""
    m = m.traceless()
    return (m + involution(m, space)) * 0.5


# -- group action -------------------------------------------------------------


def push(a: Isometry, m: Mat2, space: str) -> Mat2:
    """Twisted conjugation A m A^* with the involution of `space`: the
    action of an isometry on the matrices of X (A^* = A^circ) or Y
    (A^* = A^dag)."""
    return a.rep @ m @ involution(a.rep, space)


def act(a: Isometry, obj):
    """Apply an isometry: points via the twisted conjugation of their space,
    everything else through its own `moved` hook."""
    if isinstance(obj, Point):
        if a.lam != obj.lam:
            raise LambdaMismatch("isometry and point carry different curvature tags")
        return Point(obj.space, push(a, obj.rep, obj.space))
    if hasattr(obj, "moved"):
        return obj.moved(a)
    raise DomainError(f"cannot act on {type(obj)!r}")


# -- exponential --------------------------------------------------------------


def _cs_scalar(q: float) -> tuple[float, float]:
    """C, S with exp(M) = C*1 + S*M for traceless M, where q = det M."""
    if q > 1e-12:
        r = math.sqrt(q)
        return math.cos(r), math.sin(r) / r
    if q < -1e-12:
        r = math.sqrt(-q)
        return math.cosh(r), math.sinh(r) / r
    return 1.0 - q * 0.5 + q * q / 24.0, 1.0 - q / 6.0 + q * q / 120.0


def mat_exp_traceless(m: Mat2) -> Mat2:
    """Exponential of a traceless matrix whose determinant is real."""
    q = m.det()
    if abs(q.im) > 1e-9 * max(1.0, m.frob_sq()):
        raise DomainError("matrix exponential needs a real determinant here")
    cc, ss = _cs_scalar(q.re)
    return Mat2.identity(m.lam) * cc + m * ss


def point_sqrt(p: Point) -> Isometry:
    """Hermitian isometry A with A > origin = p, built as 1 + rep for the
    canonical det = 1, tr >= 0 representative."""
    rep = p.rep  # already canonical
    a = Mat2.identity(p.lam) + rep
    d = a.det()
    if d.re <= 0 or abs(d.im) > 1e-9 * max(1.0, a.frob_sq()):
        raise NormalizationFailure("no hermitian square root for this representative")
    return Isometry(a)


def exp_point(theta: float, t: Tangent) -> Point:
    """Point reached from the origin along a unit or lightlike tangent."""
    if theta < 0:
        raise DomainError("theta must be nonnegative")
    sigma = causal_type(t)
    if sigma != 0 and abs(abs(t.norm_sq()) - 1.0) > 1e-9:
        raise DomainError("tangent must be normalized or lightlike")
    # Periodicity: the exponential closes up exactly when the effective
    # trig family is circular.
    k = t.lam * sigma if t.space == SPACE_X else -sigma
    if k > 0 and theta >= 2.0 * math.pi:
        raise DomainError("theta must lie in [0, 2*pi) for a closed direction")
    return Point(t.space, mat_exp_traceless(t.rep * theta))
