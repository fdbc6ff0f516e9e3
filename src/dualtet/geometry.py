"""Geodesics, planes, the ideal boundary and projective duality.

Geodesics are stored as (base isometry, unit or lightlike model direction);
planes as projective dual vectors in R^4 together with an optional
(base isometry, model normal) presentation.  Points of the ideal boundary
of the dual family are projective classes [v] of 2-vectors over the
algebra with v v^dag nonzero.

The duality pairing used throughout is

    pair(x, y) = -x1*y1 + x2*y2 + x3*y3 + x4*y4,

whose kernel conditions cut out the dual plane of a point and extend to
the ideal boundary, where they cut out lightlike planes.  With the vector
identifications used here this single form realizes the duality for all
three curvatures.

Each convention has one home.  Isometries act on matrices only through
`matmodel.push` (twisted conjugation by the involution of the space), and
the pairing's kernels are taken only in `_dual_kernel`.  The spacelike
geodesic cut out by two dual vectors, whether the intersection of two
lightlike planes or the dual of a geodesic, is built only in
`_spacelike_geodesic_dual_to`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BaseMismatch,
    Degenerate,
    DegenerateNormal,
    DomainError,
    Inadmissible,
    NoCommonPoint,
    NoIntersection,
    NotComparable,
    NotLightlike,
    NotSpacelikeConnected,
    WrongCausalClass,
)
from .gcnum import GC, check_lambda, gacot, gc
from .matmodel import (
    Isometry,
    Mat2,
    Point,
    Tangent,
    SPACE_X,
    SPACE_Y,
    PROJ_TOL,
    _canonical_point_rep,
    _model_inner,
    _project_model,
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


def _nullspace(a: np.ndarray, rtol: float = 1e-9) -> np.ndarray:
    """Columns spanning the kernel of a."""
    a = np.atleast_2d(np.asarray(a, float))
    u, s, vh = np.linalg.svd(a)
    if s.size == 0 or s[0] == 0.0:
        return np.eye(a.shape[1])
    rank = int(np.sum(s > rtol * s[0]))
    return vh[rank:].T


def _dual_kernel(vectors) -> np.ndarray:
    """Columns spanning the vectors that pair to zero with each of
    `vectors`."""
    return _nullspace(np.asarray(vectors, dtype=float) * _PAIR_SIGNS)


# -- model coordinates ---------------------------------------------------------

# Tangent model coordinates: X-space reps l*[[m1, m2], [m3, -m1]] map to
# (m1, m2, m3); Y-space reps [[a, b+lc], [b-lc, -a]] map to (a, b, c).


def model_coords(space: str, rep: Mat2) -> np.ndarray:
    if check_space(space) == SPACE_X:
        return np.array([rep.a.im, rep.b.im, rep.c.im])
    return np.array([rep.a.re, rep.b.re, rep.b.im])


def model_from_coords(space: str, coords, lam: int) -> Mat2:
    m1, m2, m3 = (float(x) for x in coords)
    if check_space(space) == SPACE_X:
        return Mat2(GC(0, m1, lam), GC(0, m2, lam), GC(0, m3, lam), GC(0, -m1, lam))
    return Mat2(GC(m1, 0, lam), GC(m2, m3, lam), GC(m2, -m3, lam), GC(-m1, 0, lam))


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
        return Point(self.space, push(self.base, mat_exp_traceless(self.direction * t), self.space))

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
    except Exception as exc:  # noqa: BLE001 - surface as comparability failure
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


def _null_branch(z: GC) -> int:
    """+1 / -1 when z is a real multiple of (1 + l) / (1 - l); 0 otherwise."""
    if z.lam != -1:
        return 0
    scale = max(abs(z.re), abs(z.im), 1e-300)
    if abs(z.re - z.im) <= 1e-12 * scale:
        return 1
    if abs(z.re + z.im) <= 1e-12 * scale:
        return -1
    return 0


@dataclass(frozen=True)
class BoundaryPoint:
    """Projective class [v] in the boundary of the dual family.

    The canonical representative scales the second entry to 1 when it is a
    unit, otherwise the first; the remaining split-complex case with two
    zero-divisor entries is normalized onto the pair (1 + l, +-(1 - l)).
    """

    v1: GC
    v2: GC

    def __post_init__(self):
        v1, v2 = self.v1, self.v2
        if v1.lam != v2.lam:
            raise DomainError("boundary vector entries carry mixed curvature tags")
        # Entries negligible against the vector scale are noise from matrix
        # arithmetic; snap them so the unit tests below see exact zeros.
        scale = max(abs(v1.re), abs(v1.im), abs(v2.re), abs(v2.im))
        if scale == 0.0:
            raise Degenerate("zero boundary vector")
        if math.hypot(v1.re, v1.im) <= 1e-11 * scale:
            v1 = gc(0, 0, v1.lam)
        if math.hypot(v2.re, v2.im) <= 1e-11 * scale:
            v2 = gc(0, 0, v2.lam)
        if v2.is_unit():
            v1, v2 = v1 * v2.inv(), gc(1, 0, v2.lam)
        elif v1.is_unit():
            v1, v2 = gc(1, 0, v1.lam), v2 * v1.inv()
        else:
            b1, b2 = _null_branch(v1), _null_branch(v2)
            if b1 == 0 or b2 == 0 or b1 == b2:
                raise Degenerate("v v^dag = 0: not a boundary point")
            # v ~ (a(1+e*l), b(1-e*l)); unit rescaling (including by l)
            # always reaches ((1+e*l), (1-e*l)).
            v1 = GC(1.0, float(b1), v1.lam)
            v2 = GC(1.0, -float(b1), v2.lam)
        object.__setattr__(self, "v1", v1)
        object.__setattr__(self, "v2", v2)

    @property
    def lam(self) -> int:
        return self.v1.lam

    @classmethod
    def infinity(cls, lam: int) -> "BoundaryPoint":
        return cls(gc(1, 0, lam), gc(0, 0, lam))

    @classmethod
    def zero(cls, lam: int) -> "BoundaryPoint":
        return cls(gc(0, 0, lam), gc(1, 0, lam))

    @classmethod
    def one(cls, lam: int) -> "BoundaryPoint":
        return cls(gc(1, 0, lam), gc(1, 0, lam))

    @classmethod
    def from_value(cls, z: GC) -> "BoundaryPoint":
        return cls(z, gc(1, 0, z.lam))

    def value(self) -> GC:
        """Affine coordinate z with [v] = [z : 1]."""
        if not self.v2.is_unit():
            raise Degenerate("no affine coordinate: second entry is not a unit")
        return self.v1 * self.v2.inv()

    def matrix(self) -> Mat2:
        v1, v2 = self.v1, self.v2
        return Mat2(v1 * v1.conj(), v1 * v2.conj(), v2 * v1.conj(), v2 * v2.conj())

    def vec4(self) -> np.ndarray:
        return unembed(self.matrix(), SPACE_Y)

    def moved(self, b: Isometry) -> "BoundaryPoint":
        w1 = b.rep.a * self.v1 + b.rep.b * self.v2
        w2 = b.rep.c * self.v1 + b.rep.d * self.v2
        return BoundaryPoint(w1, w2)

    def isclose(self, other: "BoundaryPoint", tol: float = PROJ_TOL) -> bool:
        if self.lam != other.lam:
            return False
        cross = self.v1 * other.v2 - self.v2 * other.v1
        norm = max(1.0, *(abs(u) for z in (self.v1, self.v2, other.v1, other.v2)
                          for u in (z.re, z.im)))
        return math.hypot(cross.re, cross.im) <= tol * norm * norm


def boundary_from_matrix(m: Mat2) -> BoundaryPoint:
    """Recover [v] from a nonzero rank-1 hermitian class v v^dag."""
    lam = m.lam
    scale = math.sqrt(m.frob_sq())
    if scale == 0.0:
        raise Degenerate("zero matrix is not a boundary point")

    def snapped(z: GC) -> GC:
        return gc(0, 0, lam) if math.hypot(z.re, z.im) <= 1e-11 * scale else z

    a, b, c, d = (snapped(e) for e in m.entries)
    # Columns of v v^dag are conj(v1)*v and conj(v2)*v; use the column with
    # the larger diagonal unit.
    cols = []
    if a.is_unit():
        cols.append((abs(a.mod_sq()), (a, c)))
    if d.is_unit():
        cols.append((abs(d.mod_sq()), (b, d)))
    if cols:
        _best, (v1, v2) = max(cols, key=lambda item: item[0])
        return BoundaryPoint(v1, v2)
    # Split-complex double-null class: m ~ [[0, c(1+el)], [c(1-el), 0]].
    br = _null_branch(b)
    if lam == -1 and br != 0 and math.hypot(b.re, b.im) > 1e-11 * scale:
        return BoundaryPoint(GC(1.0, float(br), lam), GC(1.0, -float(br), lam))
    raise Degenerate("matrix is not a nonzero rank-1 hermitian class")


def _det2(u: BoundaryPoint, w: BoundaryPoint) -> GC:
    return u.v1 * w.v2 - u.v2 * w.v1


def is_spacelike_connected(b1: BoundaryPoint, b2: BoundaryPoint) -> bool:
    """Two ideal points bound a spacelike geodesic exactly when the minor
    of their representatives is a unit."""
    return _det2(b1, b2).is_unit()


def boundary_normalize(y1: BoundaryPoint, y2: BoundaryPoint, y3: BoundaryPoint) -> Isometry:
    """Unique isometry sending (y1, y2, y3) to (infinity, 0, 1)."""
    d12 = _det2(y1, y2)
    d32 = _det2(y3, y2)
    d13 = _det2(y1, y3)
    for d in (d12, d32, d13):
        if not d.is_unit():
            raise NotSpacelikeConnected("a pair of the triple is not joined by a spacelike geodesic")
    lam_inv = d12.inv()
    lmb = d32 * lam_inv
    mu = d13 * lam_inv
    binv = Mat2(lmb * y1.v1, mu * y2.v1, lmb * y1.v2, mu * y2.v2)
    return Isometry(binv).inv()


def cross_ratio(y1: BoundaryPoint, y2: BoundaryPoint, y3: BoundaryPoint,
                y4: BoundaryPoint) -> GC:
    """Cross-ratio z with (y1, y2, y3, y4) ~ (infinity, 0, 1, [z : 1])."""
    b = boundary_normalize(y1, y2, y3)
    w = y4.moved(b)
    w1, w2 = w.v1, w.v2
    if not w2.is_unit():
        raise NotSpacelikeConnected("fourth point is not spacelike-connected to the first")
    if not w1.is_unit():
        raise NotSpacelikeConnected("fourth point is not spacelike-connected to the second")
    if not (w1 - w2).is_unit():
        raise NotSpacelikeConnected("fourth point is not spacelike-connected to the third")
    z = w1 * w2.inv()
    scale = max(1.0, abs(z.re), abs(z.im))
    if math.hypot(z.re, z.im) <= 1e-12 * scale or math.hypot(z.re - 1.0, z.im) <= 1e-12 * scale:
        raise Degenerate(f"degenerate cross-ratio {z}")
    return z


# -- planes --------------------------------------------------------------------


def _canonical_dual_vec(w) -> np.ndarray:
    w = np.asarray(w, float)
    n = np.linalg.norm(w)
    if n == 0.0:
        raise DegenerateNormal("zero dual vector")
    w = w / n
    for comp in w:
        if abs(comp) > 1e-12:
            if comp < 0:
                w = -w
            break
    return w


@dataclass(frozen=True)
class Plane:
    """Geodesic plane cut out by pair(. , dual_vec) = 0."""

    space: str
    lam: int
    dual_vec: np.ndarray
    base: Isometry | None = None
    normal: Mat2 | None = None

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

    def kernel_basis(self) -> np.ndarray:
        return _dual_kernel([self.dual_vec])

    def moved(self, a: Isometry) -> "Plane":
        cols = [unembed(push(a, embed(v, self.space, self.lam), self.space), self.space)
                for v in self.kernel_basis().T]
        w = _dual_kernel(cols)
        if w.shape[1] != 1:
            raise DegenerateNormal("isometry image did not produce a plane")
        base = (a @ self.base) if self.base is not None else None
        return Plane(self.space, self.lam, w[:, 0], base=base, normal=self.normal)

    def normal_tangent(self) -> Tangent:
        self._ensure_frame()
        return Tangent(self.space, self.normal, self.base)

    def is_lightlike(self) -> bool:
        return self.normal_tangent().sigma() == 0

    def _ensure_frame(self):
        if self.base is not None and self.normal is not None:
            return
        v0 = _point_in_span(self.space, self.lam, self.kernel_basis())
        if v0 is None:
            raise DegenerateNormal("plane does not meet the space")
        a = point_sqrt(Point.from_vector(v0, self.space, self.lam))
        rep = self.moved(a.inv())._normal_rep_at_origin()
        object.__setattr__(self, "base", a)
        object.__setattr__(self, "normal", rep)

    def _normal_rep_at_origin(self) -> Mat2:
        """Model normal at the origin; the plane must pass through it."""
        one_vec = np.zeros(4)
        one_vec[1 if self.space == SPACE_X else 0] = 1.0
        if not self.contains_vector(one_vec, 1e-7):
            raise DegenerateNormal("plane does not pass through the origin")
        kern = self.kernel_basis()
        rows = [_traceless_coords_of_vector(self.space, v) for v in kern.T]
        g = model_gram(self.space, self.lam)
        n = _nullspace(np.array(rows) @ g)
        if n.shape[1] != 1:
            raise DegenerateNormal("could not isolate a unique normal direction")
        rep = model_from_coords(self.space, n[:, 0], self.lam)
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
                and (np.allclose(self.dual_vec, other.dual_vec, atol=tol)
                     or np.allclose(self.dual_vec, -other.dual_vec, atol=tol)))


def _orthobasis_of_normal(space: str, lam: int, n_coords: np.ndarray) -> np.ndarray:
    g = model_gram(space, lam)
    return _nullspace((g @ n_coords)[None, :])


def plane_from_normal(base: Point, n: Tangent) -> Plane:
    """Geodesic plane through `base` whose tangent space is the orthogonal
    complement of `n`."""
    if math.sqrt(n.rep.frob_sq()) <= 1e-14:
        raise DegenerateNormal("zero normal vector")
    if n.space != base.space or n.lam != base.lam:
        raise BaseMismatch("normal and base live in different spaces")
    if not n.base_point().isclose(base):
        raise BaseMismatch("normal is not based at the given point")
    a = n.base
    coords = model_coords(n.space, n.rep)
    basis = _orthobasis_of_normal(n.space, n.lam, coords)
    if basis.shape[1] != 2:
        raise DegenerateNormal("normal does not have a 2d orthogonal complement")
    models = [Mat2.identity(n.lam)] + [model_from_coords(n.space, col, n.lam) for col in basis.T]
    w = _dual_kernel([unembed(push(a, m, n.space), n.space) for m in models])
    if w.shape[1] != 1:
        raise DegenerateNormal("normal data is degenerate")
    return Plane(n.space, n.lam, w[:, 0], base=a, normal=n.rep)


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
    spacetime family."""
    if g.space != SPACE_X or g.sigma != 1:
        raise WrongCausalClass("needs a spacelike geodesic of the spacetime family")
    x = model_coords(SPACE_X, g.direction)
    perp = _orthobasis_of_normal(SPACE_X, g.lam, x)  # 2d, Lorentzian
    gmat = model_gram(SPACE_X, g.lam)
    a11 = perp[:, 0] @ gmat @ perp[:, 0]
    a12 = perp[:, 0] @ gmat @ perp[:, 1]
    a22 = perp[:, 1] @ gmat @ perp[:, 1]
    # Null directions of s*u + w solve a11 s^2 + 2 a12 s + a22 = 0.
    planes = []
    base_pt = g.base_point()
    if abs(a11) < 1e-14:
        combos = [(1.0, 0.0)]
        if abs(a12) > 1e-14:
            combos.append((-a22 / (2.0 * a12), 1.0))
    else:
        disc = a12 * a12 - a11 * a22
        if disc <= 0:
            raise NotLightlike("no lightlike normals orthogonal to this direction")
        r = math.sqrt(disc)
        combos = [((-a12 + r) / a11, 1.0), ((-a12 - r) / a11, 1.0)]
    for s, t in combos:
        n = s * perp[:, 0] + t * perp[:, 1]
        n = n / np.linalg.norm(n)
        rep = model_from_coords(SPACE_X, n, g.lam)
        planes.append(plane_from_normal(base_pt, Tangent(SPACE_X, rep, g.base)))
    if len(planes) != 2 or planes[0].projectively_equal(planes[1]):
        raise NotLightlike("failed to find two distinct lightlike planes")
    return planes[0], planes[1]


# Model coordinates of the lightlike normals n_1, n_2, n_3 of the standard
# faces through the origin, and the labels [p : q] of their rays.
STANDARD_LIGHT_NORMAL_COORDS = ((0.0, 0.0, 1.0), (0.0, -1.0, 0.0), (1.0, -1.0, 1.0))
STANDARD_LIGHT_NORMAL_LABELS = ((0.0, 1.0), (1.0, 0.0), (1.0, 1.0))  # values 0, inf, 1


def _light_ray_label(space: str, rep: Mat2) -> np.ndarray:
    """Projective label [p : q] of a lightlike model direction of the
    spacetime family."""
    m = np.array(rep.im_rows())
    col1, col2 = m[:, 0], m[:, 1]
    u = col1 if np.linalg.norm(col1) >= np.linalg.norm(col2) else col2
    n = np.linalg.norm(u)
    if n <= 1e-14:
        raise DegenerateNormal("zero lightlike direction")
    return u / n


def _real_mobius_to(labels, targets, lam: int) -> Isometry:
    """Real projective matrix sending three labels to three targets."""

    def to_standard(trip):
        u1, u2, u3 = (np.asarray(t, float) for t in trip)
        d12 = u1[0] * u2[1] - u1[1] * u2[0]
        d32 = u3[0] * u2[1] - u3[1] * u2[0]
        d13 = u1[0] * u3[1] - u1[1] * u3[0]
        if min(abs(d12), abs(d32), abs(d13)) < 1e-13:
            raise Degenerate("labels are not pairwise distinct")
        lmb, mu = d32 / d12, d13 / d12
        binv = np.array([[lmb * u1[0], mu * u2[0]], [lmb * u1[1], mu * u2[1]]])
        return np.linalg.inv(binv)

    m = np.linalg.inv(to_standard(targets)) @ to_standard(labels)
    return Isometry(Mat2.from_real(m.tolist(), lam))


def common_point_three_planes(p1: Plane, p2: Plane, p3: Plane) -> tuple[Point, Isometry]:
    """Common point of three pairwise-intersecting lightlike planes and an
    isometry moving it to the origin with the three normals in standard
    position (unique up to the order-6 permutation group)."""
    planes = (p1, p2, p3)
    lam = p1.lam
    for pl in planes:
        if not pl.is_lightlike():
            raise NotLightlike("all three planes must be lightlike")
    kern = _dual_kernel([pl.dual_vec for pl in planes])
    if kern.shape[1] != 1:
        raise NoCommonPoint("planes do not meet in a single projective point")
    v = kern[:, 0]
    if quadric_value(v, SPACE_X, lam) <= 1e-14:
        raise NoCommonPoint("projective intersection misses the space")
    pt = Point.from_vector(v, SPACE_X, lam)
    a0 = point_sqrt(pt).inv()
    labels = []
    for pl in planes:
        rep = pl.moved(a0)._normal_rep_at_origin()
        labels.append(_light_ray_label(SPACE_X, rep))
    u = _real_mobius_to(labels, STANDARD_LIGHT_NORMAL_LABELS, lam)
    return pt, u @ a0


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
        if quadric_value(w, other, obj.lam) > 1e-12:
            return Point.from_vector(w, other, obj.lam)
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
