"""Geodesics, planes, the ideal boundary and projective duality.

Geodesics are stored as (base isometry, unit or lightlike model direction);
planes as projective dual vectors in R^4 only.  Points of the ideal
boundary of the dual family are projective classes [v] of 2-vectors over
the algebra with v v^dag nonzero.  Like a `Mat2`, a `BoundaryPoint` stores
the four numbers (v1.re, v1.im, v2.re, v2.im) of its canonical
representative and one curvature tag, and builds `GC`s only when `v1` or
`v2` is read.  At lam = 0 and 1 it does its arithmetic on them in the
order `GC` would.  At lam = -1 a boundary point is a pair of real
projective points, its null components, and normalizing a point, moving
it and normalizing a triple work on each of them as a real 2x2 problem.

The duality pairing used throughout is

    pair(x, y) = -x1*y1 + x2*y2 + x3*y3 + x4*y4,

whose kernel conditions cut out the dual plane of a point and extend to
the ideal boundary, where they cut out lightlike planes.  With the vector
identifications used here this single form realizes the duality for all
three curvatures.

Each convention has one home.  Isometries act on matrices only through
`matmodel.push` (twisted conjugation by the involution of the space), and
the pairing's kernels are taken only in `_dual_kernel`, which also takes a
stack of kernels in one SVD call.  The spacelike geodesic cut out by two
dual vectors, whether the intersection of two lightlike planes or the dual
of a geodesic, is built only in `_spacelike_geodesic_dual_to`.  Only
`_normalizer` sends three points of the projective line to
(infinity, 0, 1) in the algebra's arithmetic, for ideal vertices at
lam = 0 and 1 and for the (real) rays of lightlike normals at every lam.

Planes are handled through the duality alone.  The duality turns the
action of A on one family into the action of S A S on the other, with
S = [[0, 1], [1, 0]], so a plane moves by one `push` of its dual vector
by S A S in the other family.  A plane is lightlike exactly when its dual
vector lies on the other family's boundary (`BOUNDARY_TOL`), and its
normal at the origin is read off the dual vector in closed form.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass

import numpy as np

from .errors import (
    BaseMismatch,
    Degenerate,
    DegenerateNormal,
    DomainError,
    Inadmissible,
    LambdaMismatch,
    NoCommonPoint,
    NoIntersection,
    NormalizationFailure,
    NotComparable,
    NotLightlike,
    NotSpacelikeConnected,
    WrongCausalClass,
)
from .gcnum import GC, _inv, _is_unit, _mod_sq, _mul, check_lambda, gacot
from .matmodel import (
    Isometry,
    Mat2,
    Point,
    Tangent,
    SPACE_X,
    SPACE_Y,
    PROJ_TOL,
    _canonical_point_rep,
    _mat,
    _model_inner,
    _point,
    _project_model,
    _unembed,
    check_space,
    embed,
    mat_exp_traceless,
    point_sqrt,
    push,
    quadric_diagonal,
    quadric_value,
    unembed,
)

_DUAL_SPACE = {SPACE_X: SPACE_Y, SPACE_Y: SPACE_X}


# -- linear algebra over R^4 ---------------------------------------------------

# pair(x, y) = sum of _PAIR_SIGNS * x * y, for every curvature.
_PAIR_SIGNS = np.array([-1.0, 1.0, 1.0, 1.0])


def _nullspace(a: np.ndarray, rtol: float = 1e-9):
    """Columns spanning the kernel of a.  For a stack of matrices (shape
    (n, k, m)), a list with one such array per matrix, from one SVD call;
    it gives each matrix the factors a call of its own would."""
    a = np.atleast_2d(np.asarray(a, float))
    _u, s, vh = np.linalg.svd(a)
    if a.ndim == 3:
        return [_kernel_columns(s_k, vh_k, rtol) for s_k, vh_k in zip(s, vh)]
    return _kernel_columns(s, vh, rtol)


def _kernel_columns(s: np.ndarray, vh: np.ndarray, rtol: float) -> np.ndarray:
    if s.size == 0 or s[0] == 0.0:
        return np.eye(vh.shape[-1])
    rank = int(np.count_nonzero(s > rtol * s[0]))
    return vh[rank:].T


def _dual_kernel(vectors):
    """Columns spanning the vectors that pair to zero with each of
    `vectors`; given a stack of such lists, one array per list (see
    `_nullspace`)."""
    return _nullspace(np.asarray(vectors, dtype=float) * _PAIR_SIGNS)


# -- model coordinates ---------------------------------------------------------

# Tangent model coordinates: X-space reps l*[[m1, m2], [m3, -m1]] map to
# (m1, m2, m3); Y-space reps [[a, b+lc], [b-lc, -a]] map to (a, b, c).


def model_coords(space: str, rep: Mat2) -> np.ndarray:
    f = rep.flat
    if check_space(space) == SPACE_X:
        return np.array([f[1], f[3], f[5]])
    return np.array([f[0], f[2], f[3]])


def model_from_coords(space: str, coords, lam: int) -> Mat2:
    m1, m2, m3 = (float(x) for x in coords)
    if check_space(space) == SPACE_X:
        return Mat2.from_flat((0, m1, 0, m2, 0, m3, 0, -m1), lam)
    return Mat2.from_flat((m1, 0, m2, m3, m2, -m3, -m1, 0), lam)


def model_gram(space: str, lam: int) -> np.ndarray:
    if check_space(space) == SPACE_X:
        return np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.5], [0.0, 0.5, 0.0]])
    return np.diag([1.0, 1.0, float(lam)])


def _traceless_coords_of_vector(space: str, v) -> np.ndarray:
    """Model coordinates of the traceless part of embed(v)."""
    v1, v2, v3, v4 = (float(x) for x in v)
    if space == SPACE_X:
        return np.array([v4, v3 - v1, v3 + v1])
    return np.array([v3, v4, v2])


# -- geodesics -----------------------------------------------------------------


@dataclass(frozen=True)
class Geodesic:
    """Curve t -> base > exp(t * direction) with unit-speed or lightlike
    model direction."""

    space: str
    base: Isometry
    direction: Mat2
    sigma: int

    @property
    def lam(self) -> int:
        return self.direction.lam

    def eval(self, t: float) -> Point:
        m = push(self.base, mat_exp_traceless(self.direction * t), self.space)
        return _point(self.space, m.flat, m.lam)

    def base_point(self) -> Point:
        return self.eval(0.0)

    def tangent(self) -> Tangent:
        return Tangent(self.space, self.direction, self.base)

    def moved(self, a: Isometry) -> "Geodesic":
        return Geodesic(self.space, a @ self.base, self.direction, self.sigma)

    def endpoints(self) -> tuple["BoundaryPoint", "BoundaryPoint"]:
        """Ideal endpoints of a spacelike geodesic in the dual family."""
        if self.space != SPACE_Y or self.sigma != 1:
            raise WrongCausalClass("endpoints exist for spacelike geodesics of the dual family")
        one = Mat2.identity(self.lam)
        plus, minus = (boundary_from_matrix(push(self.base, one + self.direction * sgn, SPACE_Y))
                       for sgn in (+1.0, -1.0))
        return plus, minus


def geodesic_from_tangent(t: Tangent) -> Geodesic:
    sigma = t.sigma()
    rep = t.rep if sigma == 0 else t.normalized().rep
    return Geodesic(t.space, t.base, rep, sigma)


def geodesic_through(p: Point, q: Point) -> Geodesic:
    """Unit-speed geodesic with g(0) = p passing through q."""
    sigma, _d, a, s_part = _arc_length_data(p, q)
    nsq = _model_inner(p.space, s_part, s_part)
    if s_part.frob_sq() <= 1e-20 * max(1.0, q.rep.frob_sq()):
        raise Degenerate("points coincide; no unique geodesic")
    rep = s_part if sigma == 0 else s_part * (1.0 / math.sqrt(abs(nsq)))
    return Geodesic(p.space, a, rep, sigma)


def _arc_length_data(p: Point, q: Point):
    if p.space != q.space or p.lam != q.lam:
        raise NotComparable("points live in different spaces")
    a = point_sqrt(p)
    ainv = a.rep.inv()
    m = ainv @ q.rep @ ainv
    try:
        m = _canonical_point_rep(m, p.space)
    except NormalizationFailure as exc:
        raise NotComparable(f"pair does not bound a geodesic segment: {exc}") from exc
    s_part = m.traceless()
    nsq = _model_inner(p.space, s_part, s_part)
    scale = max(s_part.frob_sq(), 1e-300)
    if s_part.frob_sq() <= 1e-24:
        sigma = 0
    elif abs(nsq) <= 1e-12 * scale:
        sigma = 0
    else:
        sigma = 1 if nsq > 0 else -1
    c = 0.5 * m.tr().re
    if sigma == 0:
        return 0, 0.0, a, s_part
    k = p.lam * sigma if p.space == SPACE_X else -sigma
    s_abs = math.sqrt(abs(nsq))
    if k == 0:
        d = s_abs
    elif k > 0:
        d = math.atan2(s_abs, c)
    else:
        d = math.asinh(s_abs)
    return sigma, d, a, s_part


def arc_length(p: Point, q: Point) -> tuple[int, float]:
    """Causal class and arc length of a geodesic segment joining p and q.

    The length satisfies |c_k(d)| = |tr(q' p'^-1)| / 2 on unit-determinant
    representatives, with k indexed by the segment's causal class (and the
    curvature for the spacetime family).  Lightlike pairs return (0, 0.0);
    for closed geodesics the principal segment is reported.
    """
    sigma, d, _a, _s = _arc_length_data(p, q)
    return sigma, d


# -- ideal boundary ------------------------------------------------------------


def _null_flat(p1, p2, m1, m2) -> tuple:
    """The canonical four numbers at lam = -1 of the boundary point with
    null components [p1 : p2] and [m1 : m2]; see `BoundaryPoint`."""
    s, t = p2 if abs(p2) > abs(p1) else p1, m2 if abs(m2) > abs(m1) else m1
    if not (abs(s) > 0.0 and abs(t) > 0.0):
        raise Degenerate("v v^dag = 0: not a boundary point")
    (p1, m1), (p2, m2) = _on_grid(p1 / s, m1 / t), _on_grid(p2 / s, m2 / t)
    return 0.5 * (p1 + m1), 0.5 * (p1 - m1), 0.5 * (p2 + m2), 0.5 * (p2 - m2)


def _on_grid(p, m) -> tuple:
    """The null components (p, m) of one entry rounded to multiples of
    2^-52 d, d the least power of two >= both (|x| + d - d): then
    re = (p + m)/2 and im = (p - m)/2 are exact, and re +- im gives p and m
    back exactly, so a canonical representative normalizes to its own bits,
    while an entry whose components are both small keeps their digits."""
    f, e = math.frexp(max(abs(p), abs(m)))
    d = math.ldexp(1.0, e - (f == 0.5))
    return math.copysign(abs(p) + d - d, p), math.copysign(abs(m) + d - d, m)


def _normalized(r1, i1, r2, i2, lam: int) -> tuple:
    """The canonical representative of [v1 : v2] on its four numbers; see
    `BoundaryPoint`."""
    if lam == -1:
        return _null_flat(r1 + i1, r2 + i2, r1 - i1, r2 - i2)
    return _unit_normalized(r1, i1, r2, i2, lam)


def _unit_normalized(r1, i1, r2, i2, lam: int) -> tuple:
    """[v1 : v2] with its second entry scaled to 1 when it is a unit,
    otherwise its first."""
    # Entries negligible against the vector scale are noise from matrix
    # arithmetic; snap them so the unit tests below see exact zeros.
    scale = max(abs(r1), abs(i1), abs(r2), abs(i2))
    if scale == 0.0:
        raise Degenerate("zero boundary vector")
    if math.hypot(r1, i1) <= 1e-11 * scale:
        r1 = i1 = 0.0
    if math.hypot(r2, i2) <= 1e-11 * scale:
        r2 = i2 = 0.0
    if _is_unit(r2, i2, lam):
        return (*_mul(r1, i1, *_inv(r2, i2, lam), lam), 1.0, 0.0)
    if _is_unit(r1, i1, lam):
        return (1.0, 0.0, *_mul(r2, i2, *_inv(r1, i1, lam), lam))
    raise Degenerate("v v^dag = 0: not a boundary point")


def _boundary(flat: tuple, lam: int) -> "BoundaryPoint":
    """Boundary point on four normalized numbers whose tag is checked."""
    p = _new(BoundaryPoint)
    _set_bp_flat(p, flat)
    _set_bp_lam(p, lam)
    return p


class BoundaryPoint:
    """Projective class [v] in the boundary of the dual family.

    At lam = 0 and 1 the canonical representative scales the second entry
    to 1 when it is a unit, otherwise the first.  At lam = -1, where
    x = re + l*im has null components x+- = re +- im, [v1 : v2] is the pair
    of real projective points [v1+ : v2+] and [v1- : v2-], and each pair is
    scaled by its entry of larger magnitude: all four numbers are O(1), and
    re +- im gives each component back exactly, to an ulp of the larger
    component of its entry (`_on_grid`), however far apart the scales of
    the two points' components are.

    Like a `Mat2`, a boundary point stores its entries as numbers, `flat =
    (v1.re, v1.im, v2.re, v2.im)`, beside one curvature tag `lam`, and at
    lam = 0 and 1 does its arithmetic on them as `GC` would, term for term.
    `v1` and `v2` build `GC`s only when read.  `BoundaryPoint(v1, v2)` takes
    two `GC`s of one tag.  A boundary point is immutable, and equal ones
    hash equal.
    """

    __slots__ = ("flat", "lam")

    def __init__(self, v1: GC, v2: GC):
        lam = v1.lam
        if v2.lam != lam:
            raise DomainError("boundary vector entries carry mixed curvature tags")
        _set_bp_flat(self, _normalized(v1.re, v1.im, v2.re, v2.im, lam))
        _set_bp_lam(self, lam)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _boundary, (self.flat, self.lam)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.lam == other.lam and self.flat == other.flat

    def __hash__(self):
        # The hash of the pair of `GC`s (v1, v2).
        r1, i1, r2, i2 = self.flat
        return hash(((r1, i1, self.lam), (r2, i2, self.lam)))

    def __repr__(self):
        r1, i1, r2, i2 = self.flat
        lam = self.lam
        return (f"BoundaryPoint(v1=GC({r1!r}, {i1!r}, lam={lam}), "
                f"v2=GC({r2!r}, {i2!r}, lam={lam}))")

    @property
    def v1(self) -> GC:
        return GC(self.flat[0], self.flat[1], self.lam)

    @property
    def v2(self) -> GC:
        return GC(self.flat[2], self.flat[3], self.lam)

    @classmethod
    def infinity(cls, lam: int) -> "BoundaryPoint":
        return _boundary(_normalized(1.0, 0.0, 0.0, 0.0, check_lambda(lam)), lam)

    @classmethod
    def zero(cls, lam: int) -> "BoundaryPoint":
        return _boundary(_normalized(0.0, 0.0, 1.0, 0.0, check_lambda(lam)), lam)

    @classmethod
    def one(cls, lam: int) -> "BoundaryPoint":
        return _boundary(_normalized(1.0, 0.0, 1.0, 0.0, check_lambda(lam)), lam)

    @classmethod
    def from_value(cls, z: GC) -> "BoundaryPoint":
        return _boundary(_normalized(z.re, z.im, 1.0, 0.0, z.lam), z.lam)

    def value(self) -> GC:
        """Affine coordinate z with [v] = [z : 1]."""
        r1, i1, r2, i2 = self.flat
        lam = self.lam
        if not _is_unit(r2, i2, lam):
            raise Degenerate("no affine coordinate: second entry is not a unit")
        return GC(*_mul(r1, i1, *_inv(r2, i2, lam), lam), lam)

    def matrix(self) -> Mat2:
        """v v^dag: entry (i, j) is v_i * conj(v_j)."""
        r1, i1, r2, i2 = self.flat
        lam = self.lam
        n1, n2 = -i1, -i2
        return _mat((r1 * r1 - lam * i1 * n1, r1 * n1 + r1 * i1,
                     r1 * r2 - lam * i1 * n2, r1 * n2 + r2 * i1,
                     r2 * r1 - lam * i2 * n1, r2 * n1 + r1 * i2,
                     r2 * r2 - lam * i2 * n2, r2 * n2 + r2 * i2), lam)

    def vec4(self) -> np.ndarray:
        return unembed(self.matrix(), SPACE_Y)

    def moved(self, b: Isometry) -> "BoundaryPoint":
        """[A v] for A the representative of b."""
        lam = self.lam
        if b.rep.lam != lam:
            raise LambdaMismatch(f"mixed curvature tags {b.rep.lam} and {lam}")
        a0, a1, b0, b1, c0, c1, d0, d1 = b.rep.flat
        x0, x1, y0, y1 = self.flat
        if lam == -1:
            xp, yp, xm, ym = x0 + x1, y0 + y1, x0 - x1, y0 - y1
            return _boundary(_null_flat((a0 + a1) * xp + (b0 + b1) * yp,
                                        (c0 + c1) * xp + (d0 + d1) * yp,
                                        (a0 - a1) * xm + (b0 - b1) * ym,
                                        (c0 - c1) * xm + (d0 - d1) * ym), lam)
        return _boundary(_normalized(
            (a0 * x0 - lam * a1 * x1) + (b0 * y0 - lam * b1 * y1),
            (a0 * x1 + x0 * a1) + (b0 * y1 + y0 * b1),
            (c0 * x0 - lam * c1 * x1) + (d0 * y0 - lam * d1 * y1),
            (c0 * x1 + x0 * c1) + (d0 * y1 + y0 * d1), lam), lam)

    def isclose(self, other: "BoundaryPoint", tol: float = PROJ_TOL) -> bool:
        if self.lam != other.lam:
            return False
        c_re, c_im = _det2(self, other)
        norm = max(1.0, *(abs(u) for u in self.flat), *(abs(u) for u in other.flat))
        return math.hypot(c_re, c_im) <= tol * norm * norm


_new = object.__new__
_set_bp_flat = BoundaryPoint.flat.__set__
_set_bp_lam = BoundaryPoint.lam.__set__


def boundary_from_matrix(m: Mat2) -> BoundaryPoint:
    """Recover [v] from a nonzero rank-1 hermitian class v v^dag."""
    lam = m.lam
    scale = math.sqrt(m.frob_sq())
    if scale == 0.0:
        raise Degenerate("zero matrix is not a boundary point")
    a0, a1, b0, b1, c0, c1, d0, d1 = m.flat
    if lam == -1:
        # The null component m+ = v+ v-^T is a real rank-1 matrix: v+ is
        # its larger column and v- its larger row.
        ap, bp, cp, dp = a0 + a1, b0 + b1, c0 + c1, d0 + d1
        col = (ap, cp) if ap * ap + cp * cp >= bp * bp + dp * dp else (bp, dp)
        row = (ap, bp) if ap * ap + bp * bp >= cp * cp + dp * dp else (cp, dp)
        return _boundary(_null_flat(*col, *row), lam)
    cut = 1e-11 * scale
    if math.hypot(a0, a1) <= cut:
        a0 = a1 = 0.0
    if math.hypot(b0, b1) <= cut:
        b0 = b1 = 0.0
    if math.hypot(c0, c1) <= cut:
        c0 = c1 = 0.0
    if math.hypot(d0, d1) <= cut:
        d0 = d1 = 0.0
    # Columns of v v^dag are conj(v1)*v and conj(v2)*v; use the column with
    # the larger diagonal unit, the first on a tie.
    a_unit, d_unit = _is_unit(a0, a1, lam), _is_unit(d0, d1, lam)
    if d_unit and (not a_unit or abs(_mod_sq(d0, d1, lam)) > abs(_mod_sq(a0, a1, lam))):
        return _boundary(_normalized(b0, b1, d0, d1, lam), lam)
    if a_unit:
        return _boundary(_normalized(a0, a1, c0, c1, lam), lam)
    raise Degenerate("matrix is not a nonzero rank-1 hermitian class")


def _det2(u: BoundaryPoint, w: BoundaryPoint) -> tuple:
    """(re, im) of the minor u.v1 * w.v2 - u.v2 * w.v1."""
    lam = u.lam
    if w.lam != lam:
        raise LambdaMismatch(f"mixed curvature tags {lam} and {w.lam}")
    p0, p1, p2, p3 = u.flat
    q0, q1, q2, q3 = w.flat
    return ((p0 * q2 - lam * p1 * q3) - (p2 * q0 - lam * p3 * q1),
            (p0 * q3 + q2 * p1) - (p2 * q1 + q0 * p3))


def is_spacelike_connected(b1: BoundaryPoint, b2: BoundaryPoint) -> bool:
    """Two ideal points bound a spacelike geodesic exactly when the minor
    of their representatives is a unit."""
    return _is_unit(*_det2(b1, b2), b1.lam)


def _null_pairs(y: BoundaryPoint) -> tuple:
    """The real projective points [v1+ : v2+] and [v1- : v2-] of a boundary
    point at lam = -1."""
    r1, i1, r2, i2 = y.flat
    return (r1 + i1, r2 + i2), (r1 - i1, r2 - i2)


def _null_minor(u: BoundaryPoint, w: BoundaryPoint, message: str) -> tuple[float, float]:
    """The minor u.v1 * w.v2 - u.v2 * w.v1 at lam = -1, in null components
    (p, m); the points are not spacelike-connected unless it is a unit."""
    if w.lam != u.lam:
        raise LambdaMismatch(f"mixed curvature tags {u.lam} and {w.lam}")
    p, m = ((a0 * b1 - a1 * b0) for (a0, a1), (b0, b1) in zip(_null_pairs(u), _null_pairs(w)))
    if not _is_unit(0.5 * (p + m), 0.5 * (p - m), -1):
        raise NotSpacelikeConnected(message)
    return p, m


_TRIPLE = "a pair of the triple is not joined by a spacelike geodesic"


def boundary_normalize(y1: BoundaryPoint, y2: BoundaryPoint, y3: BoundaryPoint) -> Isometry:
    """Unique isometry sending (y1, y2, y3) to (infinity, 0, 1)."""
    lam = y1.lam
    if lam == -1:
        # One real 2x2 matrix of det +-1 per null component:
        # [[d13 w1, -d13 w0], [-d32 u1, d32 u0]] for (u, w) = (y1, y2).
        minors = (_null_minor(u, w, _TRIPLE) for u, w in ((y1, y2), (y3, y2), (y1, y3)))
        rows = []
        for (u0, u1), (w0, w1), d12, d32, d13 in zip(_null_pairs(y1), _null_pairs(y2), *minors):
            s = abs(d12 * d32 * d13) ** -0.5
            rows.append((d13 * w1 * s, -d13 * w0 * s, -d32 * u1 * s, d32 * u0 * s))
        flat = tuple(v for p, m in zip(*rows) for v in (0.5 * (p + m), 0.5 * (p - m)))
        return Isometry(_mat(flat, lam))
    return _normalizer(y1, y2, y3)


def _normalizer(y1: BoundaryPoint, y2: BoundaryPoint, y3: BoundaryPoint) -> Isometry:
    """`boundary_normalize` in the algebra's arithmetic."""
    lam = y1.lam
    d12 = _det2(y1, y2)
    d32 = _det2(y3, y2)
    d13 = _det2(y1, y3)
    for d in (d12, d32, d13):
        if not _is_unit(*d, lam):
            raise NotSpacelikeConnected(_TRIPLE)
    d12_inv = _inv(*d12, lam)
    lmb = _mul(*d32, *d12_inv, lam)
    mu = _mul(*d13, *d12_inv, lam)
    x0, x1, x2, x3 = y1.flat
    z0, z1, z2, z3 = y2.flat
    # [[lmb * y1.v1, mu * y2.v1], [lmb * y1.v2, mu * y2.v2]]
    binv = (*_mul(*lmb, x0, x1, lam), *_mul(*mu, z0, z1, lam),
            *_mul(*lmb, x2, x3, lam), *_mul(*mu, z2, z3, lam))
    return Isometry(_mat(binv, lam)).inv()


def _null_cross_ratios(y1: BoundaryPoint, y2: BoundaryPoint, y3: BoundaryPoint,
                       y4: BoundaryPoint) -> tuple[float, float]:
    """At lam = -1, the null components (z+, z-) of the cross-ratio: the
    real cross-ratios [y4, y2][y3, y1] / ([y4, y1][y3, y2]) of the four
    points' null components, each from minors of O(1) numbers."""
    _d12, d32, d13 = (_null_minor(u, w, _TRIPLE) for u, w in ((y1, y2), (y3, y2), (y1, y3)))
    d41, d42, _d43 = (_null_minor(y4, y, f"fourth point is not spacelike-connected to the {name}")
                      for y, name in ((y1, "first"), (y2, "second"), (y3, "third")))
    return -d42[0] * d13[0] / (d41[0] * d32[0]), -d42[1] * d13[1] / (d41[1] * d32[1])


def cross_ratio(y1: BoundaryPoint, y2: BoundaryPoint, y3: BoundaryPoint,
                y4: BoundaryPoint) -> GC:
    """Cross-ratio z with (y1, y2, y3, y4) ~ (infinity, 0, 1, [z : 1]); at
    lam = -1, z+- are the real cross-ratios of the null components."""
    if y1.lam == -1:
        zp, zm = _null_cross_ratios(y1, y2, y3, y4)
        return GC(0.5 * (zp + zm), 0.5 * (zp - zm), -1)
    return _cross_ratio_from(boundary_normalize(y1, y2, y3), y4)


def _cross_ratio_from(b: Isometry, y4: BoundaryPoint) -> GC:
    """The cross-ratio of y4 against a triple, given the isometry `b` that
    `boundary_normalize` returned for that triple."""
    lam = y4.lam
    w1r, w1i, w2r, w2i = y4.moved(b).flat
    if not _is_unit(w2r, w2i, lam):
        raise NotSpacelikeConnected("fourth point is not spacelike-connected to the first")
    if not _is_unit(w1r, w1i, lam):
        raise NotSpacelikeConnected("fourth point is not spacelike-connected to the second")
    if not _is_unit(w1r - w2r, w1i - w2i, lam):
        raise NotSpacelikeConnected("fourth point is not spacelike-connected to the third")
    z_re, z_im = _mul(w1r, w1i, *_inv(w2r, w2i, lam), lam)
    scale = max(1.0, abs(z_re), abs(z_im))
    if (math.hypot(z_re, z_im) <= 1e-12 * scale
            or math.hypot(z_re - 1.0, z_im) <= 1e-12 * scale):
        raise Degenerate(f"degenerate cross-ratio {GC(z_re, z_im, lam)}")
    return GC(z_re, z_im, lam)


# -- planes --------------------------------------------------------------------


def _canonical_dual_vec(w) -> np.ndarray:
    w = np.asarray(w, float)
    n = math.sqrt(w.dot(w))  # `np.linalg.norm(w)`, as numpy computes it for a vector
    if n == 0.0:
        raise DegenerateNormal("zero dual vector")
    w = w / n
    for comp in w.tolist():
        if abs(comp) > 1e-12:
            if comp < 0:
                w = -w
            break
    return w


# A plane is lightlike exactly when its dual vector lies on the boundary of
# the other family's quadric; `is_lightlike` and `dualize` share this cut.
BOUNDARY_TOL = 1e-10


def _dual_action(a: Isometry) -> Isometry:
    """The action of `a` on one family, seen on the other through the
    duality: S a S with S = [[0, 1], [1, 0]]."""
    a0, a1, b0, b1, c0, c1, d0, d1 = a.rep.flat
    return Isometry(_mat((d0, d1, c0, c1, b0, b1, a0, a1), a.lam))


@dataclass(frozen=True)
class Plane:
    """Geodesic plane cut out by pair(. , dual_vec) = 0."""

    space: str
    lam: int
    dual_vec: np.ndarray

    def __post_init__(self):
        check_space(self.space)
        check_lambda(self.lam)
        object.__setattr__(self, "dual_vec", _canonical_dual_vec(self.dual_vec))

    def contains_vector(self, v, tol: float = PROJ_TOL) -> bool:
        v = np.asarray(v, float)
        return abs(float((v * _PAIR_SIGNS) @ self.dual_vec)) <= tol * max(np.linalg.norm(v), 1e-300)

    def contains(self, p: Point, tol: float = PROJ_TOL) -> bool:
        if p.space != self.space or p.lam != self.lam:
            raise DomainError("point and plane live in different spaces")
        return self.contains_vector(p.vector(), tol)

    def moved(self, a: Isometry) -> "Plane":
        return self._pushed(_dual_action(a))

    def _pushed(self, sas: Isometry) -> "Plane":
        """The plane moved by the isometry whose `_dual_action` is `sas`;
        callers moving several planes by one isometry compute it once."""
        other = _DUAL_SPACE[self.space]
        w = push(sas, embed(self.dual_vec.tolist(), other, self.lam), other)
        return Plane(self.space, self.lam, _unembed(w.flat, other))

    def is_lightlike(self) -> bool:
        """True when the induced metric is degenerate, that is, when the
        dual vector lies on the boundary of the other family.  A plane that
        does not meet its space raises `DegenerateNormal`.

        For an X plane both tests are closed forms in the unit dual vector
        w.  Its hull {v : -v1 w1 + v2 w2 + v3 w3 + v4 w4 = 0} meets X when
        the largest value of X's quadric diag(-lam, 1, lam, lam) on its unit
        vectors exceeds 1e-12 (`_point_in_span`).  At lam = 1 the hull meets
        span(e2, e3, e4) in at least two dimensions, and at lam = -1
        span(e1, e2) in at least one; the quadric is |v|^2 on both, so that
        value is at least 1.  At lam = 0 it is 1 - w2^2.  The boundary test
        is Y's quadric diag(1, -lam, -1, -1).  Y planes take the kernel and
        its eigenvalues."""
        lam = self.lam
        if self.space == SPACE_X:
            w1, w2, w3, w4 = self.dual_vec.tolist()
            if lam == 0 and not 1.0 - w2 * w2 > 1e-12:
                raise DegenerateNormal("plane does not meet the space")
            return abs(w1 * w1 - lam * w2 * w2 - w3 * w3 - w4 * w4) <= BOUNDARY_TOL
        if _point_in_span(self.space, lam, _dual_kernel([self.dual_vec])) is None:
            raise DegenerateNormal("plane does not meet the space")
        return abs(quadric_value(self.dual_vec, SPACE_X, lam)) <= BOUNDARY_TOL

    def _normal_rep_at_origin(self) -> Mat2:
        """Model normal at the origin; the plane must pass through it."""
        one_vec = np.zeros(4)
        one_vec[1 if self.space == SPACE_X else 0] = 1.0
        if not self.contains_vector(one_vec, 1e-7):
            raise DegenerateNormal("plane does not pass through the origin")
        coords = _traceless_coords_of_vector(self.space, self.dual_vec)
        if self.space == SPACE_Y:
            coords = coords * np.array([self.lam, self.lam, 1.0])
        if np.linalg.norm(coords) <= 1e-12:
            raise DegenerateNormal("the plane has no normal direction at the origin")
        rep = model_from_coords(self.space, coords, self.lam)
        norm_sq = _model_inner(self.space, rep, rep)
        if abs(norm_sq) > 1e-12:
            rep = rep * (1.0 / math.sqrt(abs(norm_sq)))
        return rep

    def normal_at_point(self, p: Point) -> Tangent:
        """Normal tangent of the plane based at a point of it."""
        a = point_sqrt(p)
        rep = self.moved(a.inv())._normal_rep_at_origin()
        return Tangent(self.space, rep, a)

    def projectively_equal(self, other: "Plane", tol: float = PROJ_TOL) -> bool:
        return (self.space == other.space and self.lam == other.lam
                and (np.allclose(self.dual_vec, other.dual_vec, rtol=0.0, atol=tol)
                     or np.allclose(self.dual_vec, -other.dual_vec, rtol=0.0, atol=tol)))


def plane_from_normal(base: Point, n: Tangent) -> Plane:
    """Geodesic plane through `base` whose tangent space is the orthogonal
    complement of `n`."""
    if math.sqrt(n.rep.frob_sq()) <= 1e-14:
        raise DegenerateNormal("zero normal vector")
    if n.space != base.space or n.lam != base.lam:
        raise BaseMismatch("normal and base live in different spaces")
    if not n.base_point().isclose(base):
        raise BaseMismatch("normal is not based at the given point")
    # The dual vector of the plane through the origin: the normal itself on
    # X, its polar on Y.
    w = unembed(n.rep, n.space)
    if n.space == SPACE_Y:
        w = w * _PAIR_SIGNS * quadric_diagonal(SPACE_Y, n.lam)
    return Plane(n.space, n.lam, w).moved(n.base)


def plane_through_points(p1: Point, p2: Point, p3: Point) -> Plane:
    """Plane spanned by three projectively independent points."""
    w = _dual_kernel([p1.vector(), p2.vector(), p3.vector()])
    if w.shape[1] != 1:
        raise Degenerate("points do not span a plane")
    return Plane(p1.space, p1.lam, w[:, 0])


# -- lightlike plane geometry --------------------------------------------------


def _point_in_span(space: str, lam: int, span: np.ndarray):
    """Vector with positive quadric value inside the column span, or None."""
    small = (span.T * quadric_diagonal(space, lam)) @ span
    evals, evecs = np.linalg.eigh(0.5 * (small + small.T))
    idx = int(np.argmax(evals))
    if evals[idx] <= 1e-12:
        return None
    return span @ evecs[:, idx]


def intersect_lightlike_planes(p1: Plane, p2: Plane) -> Geodesic:
    """The spacelike geodesic along which two lightlike planes meet."""
    for pl in (p1, p2):
        if not pl.is_lightlike():
            raise NotLightlike("both planes must be lightlike")
    if p1.projectively_equal(p2):
        raise NoIntersection("planes coincide")
    return _spacelike_geodesic_dual_to(p1.space, p1.lam, [p1.dual_vec, p2.dual_vec])


def _spacelike_geodesic_dual_to(space: str, lam: int, duals) -> Geodesic:
    """The spacelike geodesic of `space` on which every vector pairs to zero
    with both `duals`: where their two dual planes meet."""
    span = _dual_kernel(duals)
    if span.shape[1] != 2:
        raise NoIntersection("planes are not in general position")
    v0 = _point_in_span(space, lam, span)
    if v0 is None:
        raise NoIntersection("projective intersection misses the space")
    a = point_sqrt(Point.from_vector(v0, space, lam))
    # Second direction inside the span gives the geodesic direction at base.
    coeff = np.linalg.lstsq(span, v0, rcond=None)[0]
    other = span @ np.array([-coeff[1], coeff[0]])
    s_part = _project_model(push(a.inv(), embed(other, space, lam), space), space)
    nsq = _model_inner(space, s_part, s_part)
    if nsq <= 1e-12 * max(s_part.frob_sq(), 1e-300):
        raise NoIntersection("intersection direction is not spacelike")
    return Geodesic(space, a, s_part * (1.0 / math.sqrt(nsq)), 1)


def spacelike_geodesic_to_plane_pair(g: Geodesic) -> tuple[Plane, Plane]:
    """The two lightlike planes through a spacelike geodesic of the
    spacetime family: the duals of the ideal endpoints of its dual."""
    if g.space != SPACE_X or g.sigma != 1:
        raise WrongCausalClass("needs a spacelike geodesic of the spacetime family")
    e1, e2 = dualize(g).endpoints()
    return dualize(e1), dualize(e2)


# Model coordinates of the lightlike normals n_1, n_2, n_3 of the standard
# faces through the origin; their rays are 0, infinity and 1.
STANDARD_LIGHT_NORMAL_COORDS = ((0.0, 0.0, 1.0), (0.0, -1.0, 0.0), (1.0, -1.0, 1.0))


def common_point_three_planes(p1: Plane, p2: Plane, p3: Plane) -> tuple[Point, Isometry]:
    """Common point of three pairwise-intersecting lightlike planes and an
    isometry moving it to the origin with the three normals in standard
    position (unique up to the order-6 permutation group).

    Once the point is at the origin, a plane's normal there is
    l*[[w4, w3 - w1], [w3 + w1, -w4]] for its dual vector w.  It is null,
    so it has rank one, and its larger column is its ray [p : q] on the
    projective line; `_normalizer` sends the rays of the three normals to
    0, infinity and 1, where the standard ones lie."""
    planes = (p1, p2, p3)
    lam = p1.lam
    for k, pl in enumerate(planes, start=1):
        if not pl.is_lightlike():
            raise NotLightlike(f"plane {k} of the three is not lightlike")
    kern = _dual_kernel([pl.dual_vec for pl in planes])
    if kern.shape[1] != 1:
        raise NoCommonPoint("planes do not meet in a single projective point")
    v = kern[:, 0].tolist()
    v1, v2, v3, v4 = v
    if -lam * v1 * v1 + v2 * v2 + lam * v3 * v3 + lam * v4 * v4 <= 1e-14:
        raise NoCommonPoint("projective intersection misses the space")
    pt = _point(SPACE_X, embed(v, SPACE_X, lam).flat, lam)
    a0 = point_sqrt(pt).inv()
    sas = _dual_action(a0)
    rays = []
    for pl in planes:
        w1, _w2, w3, w4 = pl._pushed(sas).dual_vec.tolist()
        p, q = w4, w3 + w1
        if (w3 - w1) ** 2 + w4 * w4 > p * p + q * q:
            p, q = w3 - w1, -w4
        rays.append(_boundary(_unit_normalized(p, 0.0, q, 0.0, lam), lam))
    # The rays are real, so at lam = -1 too the algebra's arithmetic on
    # them is real arithmetic, with no null component to lose.
    return pt, _normalizer(rays[1], rays[0], rays[2]) @ a0


def standard_light_normals(lam: int) -> tuple[Mat2, Mat2, Mat2]:
    n1, n2, n3 = (model_from_coords(SPACE_X, c, lam) for c in STANDARD_LIGHT_NORMAL_COORDS)
    return n1, n2, n3


# -- duality -------------------------------------------------------------------


def dualize(obj):
    """Projective duality on points, planes, boundary points and spacelike
    geodesics.  Applying it twice is the identity up to representatives."""
    if isinstance(obj, Point):
        return Plane(_DUAL_SPACE[obj.space], obj.lam, obj.vector())
    if isinstance(obj, BoundaryPoint):
        return Plane(SPACE_X, obj.lam, obj.vec4())
    if isinstance(obj, Plane):
        w = obj.dual_vec
        other = _DUAL_SPACE[obj.space]
        if quadric_value(w, other, obj.lam) > BOUNDARY_TOL:
            return _point(other, embed(w, other, obj.lam).flat, obj.lam)
        if obj.space == SPACE_X:
            try:
                return boundary_from_matrix(embed(w, SPACE_Y, obj.lam))
            except Degenerate as exc:
                raise WrongCausalClass(f"plane has no dual point: {exc}") from exc
        raise WrongCausalClass("plane has no dual point in the spacetime family")
    if isinstance(obj, Geodesic):
        if obj.sigma != 1:
            raise WrongCausalClass("only spacelike geodesics have spacelike duals")
        # The dual geodesic pairs to zero with every point of the original.
        duals = [obj.eval(0.0).vector(), obj.eval(0.7).vector()]
        return _spacelike_geodesic_dual_to(_DUAL_SPACE[obj.space], obj.lam, duals)
    raise WrongCausalClass(f"cannot dualize {type(obj)!r}")


# -- stabilizers ---------------------------------------------------------------


def stabilizer_element(g: Geodesic, theta: float, a: float, b: float) -> Isometry:
    """Isometry preserving the geodesic setwise: a shift by theta composed
    with the (a, b) rotation/boost fixing the direction."""
    if g.sigma == 0:
        raise WrongCausalClass("stabilizers are provided for spacelike or timelike geodesics")
    lam = g.lam
    sig = g.sigma
    if g.space == SPACE_X:
        if abs(a * a - sig * b * b) <= 1e-12 * (a * a + b * b):
            raise Inadmissible(f"(a, b) = ({a}, {b}) is not admissible")
        u = Mat2.from_real(g.direction.im_rows(), lam) * b + Mat2.identity(lam) * a
    else:
        if abs(a * a + lam * sig * b * b) <= 1e-12 * (a * a + b * b):
            raise Inadmissible(f"(a, b) = ({a}, {b}) is not admissible")
        ell = GC(0.0, 1.0, lam)
        u = g.direction * (ell * b) + Mat2.identity(lam) * a
    shift = mat_exp_traceless(g.direction * (0.5 * theta))
    return g.base @ Isometry(shift @ u) @ g.base.inv()


def stabilizer_angle(g: Geodesic, a: float, b: float) -> float:
    """Rotation/boost angle of the (a, b) component of a stabilizer."""
    if b == 0.0:
        return 0.0
    idx = -g.sigma if g.space == SPACE_X else g.lam * g.sigma
    return 2.0 * gacot(idx, a / b)
