"""Lightlike tetrahedra of the spacetime family and ideal tetrahedra of the
dual family.

Both kinds are classified up to isometry by a pair of positive parameters
(alpha, beta) with gamma = -(alpha + beta): edge lengths alpha, beta,
alpha + beta for the lightlike kind, dihedral angles for the ideal kind,
with opposite edges sharing their value.  Each edge also carries a shape
parameter z in the algebra; its argument encodes the edge value and its
modulus the angle between the internal planes (lightlike kind) or the
shearing distance (ideal kind).

A tetrahedron is stored as (kind, lam, alpha, beta, pose): `pose` is the
isometry carrying the standard-position configuration to the actual one,
and the four vertices are cached on construction.  `sample` draws in a
chart per kind, whose constants are cached on first use: the
trigonometric values of alpha, beta and gamma, the 4x4 action of the pose
on the hermitian entries of the tetrahedron's space, and |det pose|.  It
writes each chart point as its hermitian entries, of det 1 by
construction, and moves it by the pose's action divided by |det pose|, so
no determinant is recomputed from pushed entries.  `contains` reads a
point's coordinates in the basis of the four vertex vectors: the rows of
the inverse of their matrix, cached on first use, are the faces' dual
vectors, and the point is inside when its four coordinates share a sign.

Each face of a lightlike tetrahedron is its frame normal's dual vector,
pushed once by the pose, and an ideal edge symmetry reads the order of the
opposite vertices off the labels.

Duality swaps the kinds and keeps (alpha, beta), and the dual of either
kind is written down: the tetrahedron of the other kind with pose S A S,
A the pose and S = [[0, 1], [1, 0]] (Danciger's generalized ideal
tetrahedron is the dual of the lightlike one with the same parameters).

Recovery reads (alpha, beta) off the vertices, and the relabeling they
carry off which member of the parameters' orbit under relabeling is the
canonical one: one pose, checked once against the vertices.  An ideal
tetrahedron is read off its cross-ratio, at lam = -1 off the two real
cross-ratios of its null components.  A lightlike one is read through its
ideal dual, the points dual to its faces, except at lam = -1: there a
small edge beside long ones leaves the long edge in a dual null component
far below 1, held to an absolute ulp only, so it is read off the edge
angles at the common point of three faces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    ChartInversionFailure,
    Degenerate,
    DomainError,
    DualtetError,
    NoIntersection,
    NotATetrahedron,
    PoleAt,
)
from .gcnum import (
    GC,
    KIND_IDEAL,
    KIND_LIGHTLIKE,
    _mod_sq,
    check_kind,
    check_lambda,
    exp_ell,
    gacot,
    gc,
    gc_angle,
    gcos,
    gsin,
    gtan,
    polar,
    validate_angles,
)
from .geometry import (
    BoundaryPoint,
    Geodesic,
    Plane,
    boundary_from_matrix,
    boundary_normalize,
    common_point_three_planes,
    model_from_coords,
    standard_light_normals,
    _boundary,
    _cross_ratio_from,
    _dual_action,
    _dual_kernel,
    _null_cross_ratios,
    _null_flat,
)
from .matmodel import (
    Isometry,
    Mat2,
    Point,
    SPACE_X,
    SPACE_Y,
    _abs_det,
    _acted,
    _action,
    _canonical_point,
    _point,
    _signed,
    _unembed,
    _unherm,
    act,
    mat_exp_traceless,
    embed,
    unembed,
)

# Opposite-edge pairing; each entry lists the two edges sharing one value.
EDGE_PAIRS = (
    (frozenset({1, 2}), frozenset({3, 4})),
    (frozenset({3, 1}), frozenset({2, 4})),
    (frozenset({2, 3}), frozenset({1, 4})),
)

EDGE_ORDER = ((1, 2), (3, 4), (3, 1), (2, 4), (2, 3), (1, 4))

SCHEMA_VERSION = "1"


def _alphas(alpha: float, beta: float) -> dict[int, float]:
    return {1: alpha, 2: beta, 3: -(alpha + beta)}


# -- standard frame ------------------------------------------------------------


# Model coordinates of the unit edge directions from vertex 4 to vertex i.
_X4_COORDS = {1: (1.0, -2.0, 0.0), 2: (1.0, 0.0, 2.0), 3: (-1.0, 0.0, 0.0)}


def _x4i(lam: int, i: int) -> Mat2:
    return model_from_coords(SPACE_X, _X4_COORDS[i], lam)


class _StandardFrame:
    """Exact matrices of the standard-position lightlike tetrahedron."""

    def __init__(self, lam: int, alpha: float, beta: float):
        self.lam = lam
        self.alphas = _alphas(alpha, beta)

    def a_iso(self, i: int) -> Isometry:
        if i == 4:
            return Isometry.identity(self.lam)
        return Isometry(mat_exp_traceless(_x4i(self.lam, i) * (0.5 * self.alphas[i])))

    def x_dir(self, i: int, j: int) -> Mat2:
        """Unit direction of the edge geodesic at its start vertex i."""
        lam = self.lam
        if i == 4:
            return _x4i(lam, j)
        if j == 4:
            return -_x4i(lam, i)
        al = self.alphas
        ratio = gsin(lam, al[j]) / gsin(lam, al[i] + al[j])
        xi, xj = _x4i(lam, i), _x4i(lam, j)
        return xi - (xi + xj) * ratio

    def n_dir(self, i: int, j: int) -> Mat2:
        """Lightlike normal (transported to the identity frame of vertex i)
        of the face opposite vertex j."""
        lam = self.lam
        al = self.alphas
        n4 = standard_light_normals(lam)
        if i == 4:
            return n4[j - 1]
        if j != 4:
            return -n4[j - 1] * (gsin(lam, al[i] + al[j]) / gsin(lam, al[j]))
        out = _x4i(lam, i)
        for k in (1, 2, 3):
            if k != i:
                out = out - n4[k - 1] * (gsin(lam, al[i] + al[k]) / gsin(lam, al[k]))
        return out

    def vertex(self, i: int) -> Mat2:
        if i == 4:
            return Mat2.identity(self.lam)
        return mat_exp_traceless(_x4i(self.lam, i) * self.alphas[i])


def standard_vertices(kind: str, lam: int, alpha: float, beta: float):
    """Vertices of the standard-position tetrahedron, in label order."""
    check_kind(kind)
    validate_angles(lam, alpha, beta)
    if kind == KIND_LIGHTLIKE:
        frame = _StandardFrame(lam, alpha, beta)
        return tuple(_point(SPACE_X, frame.vertex(i).flat, lam) for i in (1, 2, 3, 4))
    if lam == -1:
        fourth = _boundary(_null_flat(*_standard_null_pairs(alpha, beta)), lam)
    else:
        fourth = BoundaryPoint.from_value(-exp_ell(lam, -(alpha + beta))
                                          * (gsin(lam, beta) / gsin(lam, alpha)))
    return BoundaryPoint.infinity(lam), BoundaryPoint.zero(lam), BoundaryPoint.one(lam), fourth


def _standard_null_pairs(alpha: float, beta: float) -> tuple:
    """The null components [z+ : 1] and [z- : 1] of the fourth standard
    ideal vertex at lam = -1, z+- = -k e^(+-gamma).  With
    k = s(beta)/s(alpha) = e^(beta - alpha) q, z+ is -e^(-2 alpha) q and
    1/z- is -e^(-2 beta) / q: no e^(alpha + beta) is formed, and each pair
    is written with its larger entry 1, so no entry overflows."""
    a2, b2 = 2.0 * alpha, 2.0 * beta
    q = math.expm1(-b2) / math.expm1(-a2)
    log_q = math.log(q)
    plus = (-math.exp(-a2) * q, 1.0) if log_q <= a2 else (1.0, -math.exp(a2) / q)
    minus = (1.0, -math.exp(-b2) / q) if log_q >= -b2 else (-math.exp(b2) * q, 1.0)
    return (*plus, *minus)


# -- the tetrahedron -----------------------------------------------------------


@dataclass(frozen=True)
class EdgeData:
    edge: tuple[int, int]
    opposite: tuple[int, int]
    value: float            # edge length (lightlike) or dihedral angle (ideal)
    z: GC                   # shape parameter
    mod_z: float            # |z|
    phi: float              # internal-plane angle resp. shearing distance
    sigma: int              # sign of the sine ratio (lightlike symmetries)


@dataclass(frozen=True)
class Tetrahedron:
    kind: str
    lam: int
    alpha: float
    beta: float
    pose: Isometry = None
    vertices: tuple = field(default=None, compare=False)

    def __post_init__(self):
        check_kind(self.kind)
        validate_angles(self.lam, self.alpha, self.beta)
        if self.pose is None:
            object.__setattr__(self, "pose", Isometry.identity(self.lam))
        std = standard_vertices(self.kind, self.lam, self.alpha, self.beta)
        object.__setattr__(self, "vertices", tuple(act(self.pose, v) for v in std))

    @property
    def gamma(self) -> float:
        return -(self.alpha + self.beta)

    @property
    def space(self) -> str:
        return SPACE_X if self.kind == KIND_LIGHTLIKE else SPACE_Y

    def frame(self) -> _StandardFrame:
        return _StandardFrame(self.lam, self.alpha, self.beta)

    def vertex(self, i: int):
        return self.vertices[i - 1]

    # Chart constants of `sample` and face rows of `contains`, on first use.

    @cached_property
    def _pose_action(self) -> tuple:
        """The pose's push on the hermitian entries of the tetrahedron's space."""
        return _action(self.pose.rep.flat, self.lam, self.space)

    @cached_property
    def _abs_det_pose(self) -> float:
        return _abs_det(self.pose.rep.flat, self.lam)

    @cached_property
    def _light_tans(self) -> tuple[float, float, float]:
        """gtan of alpha, beta and gamma; inf at a pole of gtan (an angle of
        pi/2 at lam = 1), where the chart's cotangent term is 0."""
        lam = self.lam
        return tuple(_tan_or_inf(lam, x) for x in (self.alpha, self.beta, self.gamma))

    @cached_property
    def _ideal_chart(self) -> "_IdealChart":
        lam = self.lam
        try:
            s_gamma = gsin(lam, self.gamma)
            k = gsin(lam, self.beta) / gsin(lam, self.alpha)
            null = (math.exp(self.gamma) * k, math.exp(-self.gamma) * k) if lam == -1 else (0.0, 0.0)
            chart = _IdealChart(gsin(lam, self.alpha), s_gamma, k, gcos(lam, self.gamma) * k,
                                s_gamma * k, *null)
            if all(map(math.isfinite, chart)):
                return chart
        except OverflowError:
            pass
        raise _chart_out_of_range(self)

    @cached_property
    def _face_rows(self) -> tuple:
        """The rows of V^-1, V with the vertex vectors as columns: row j, face
        j's dual vector, pairs to zero with every vertex but j and reads 1 on
        vertex j; each is signed so that the chart's centre reads positive."""
        vecs = [v.vector() if self.kind == KIND_LIGHTLIKE else v.vec4() for v in self.vertices]
        try:
            rows = np.linalg.inv(np.array(vecs).T)
        except np.linalg.LinAlgError as exc:
            raise Degenerate(f"the vertex vectors span no tetrahedron in doubles ({exc})") from exc
        if not np.isfinite(rows).all():
            raise Degenerate("the vertex vectors span no tetrahedron in doubles (inf in V^-1)")
        centre = rows @ _unembed(_centre(self).rep.flat, self.space)
        return tuple(tuple(row) for row in np.where(centre[:, None] < 0, -rows, rows).tolist())

    def moved(self, a: Isometry) -> "Tetrahedron":
        return Tetrahedron(self.kind, self.lam, self.alpha, self.beta, a @ self.pose)

    def faces(self) -> tuple[Plane, Plane, Plane, Plane]:
        """The four face planes of a lightlike tetrahedron, f_j opposite
        vertex j: each frame normal n's dual vector `unembed(n)`, pushed once,
        by the pose, or for f_4 (normal at vertex 1) by the pose after a_1."""
        if self.kind != KIND_LIGHTLIKE:
            raise DomainError("faces as lightlike planes exist for the lightlike kind")
        frame = self.frame()
        sas = _dual_action(self.pose)
        f1, f2, f3 = (Plane(SPACE_X, self.lam, unembed(n, SPACE_X))._pushed(sas)
                      for n in standard_light_normals(self.lam))
        f4 = Plane(SPACE_X, self.lam, unembed(frame.n_dir(1, 4), SPACE_X))
        return f1, f2, f3, f4._pushed(_dual_action(self.pose @ frame.a_iso(1)))

    def edge_geodesic(self, i: int, j: int) -> Geodesic:
        """Edge geodesic with g(0) at vertex i, running through vertex j."""
        if self.kind != KIND_LIGHTLIKE:
            raise DomainError("edge geodesics are provided for the lightlike kind")
        frame = self.frame()
        direction = frame.x_dir(i, j)
        base = self.pose @ frame.a_iso(i)
        return Geodesic(SPACE_X, base, direction, 1)


def _tan_or_inf(lam: int, x: float) -> float:
    try:
        return gtan(lam, x)
    except PoleAt:
        return math.inf


class _IdealChart(NamedTuple):
    """Constants of the ideal sampling chart: s(alpha), s(gamma), the
    ratio k = s(beta)/s(alpha), and exp_ell(gamma) * k as (re, im); at
    lam = -1 also as its null coordinates re + im = exp(gamma) * k and
    re - im = exp(-gamma) * k (0 elsewhere)."""

    s_alpha: float
    s_gamma: float
    k: float
    shift_re: float
    shift_im: float
    shift_plus: float
    shift_minus: float


def lightlike_from_angles(lam: int, alpha: float, beta: float,
                          pose: Isometry | None = None) -> Tetrahedron:
    return Tetrahedron(KIND_LIGHTLIKE, lam, alpha, beta, pose)


def ideal_from_angles(lam: int, alpha: float, beta: float,
                      pose: Isometry | None = None) -> Tetrahedron:
    return Tetrahedron(KIND_IDEAL, lam, alpha, beta, pose)


# -- edge data -----------------------------------------------------------------


def _shape_param(lam: int, alpha: float, beta: float, edge) -> tuple[GC, float, float]:
    """Shape parameter of an edge, the real sine ratio it is built from, and
    the edge value (length or dihedral angle) alpha + beta, beta or alpha;
    |exp_ell| = 1, so the ratio's absolute value is the parameter's modulus.
    A parameter or modulus outside the float range raises `DomainError`."""
    gamma = -(alpha + beta)
    e = frozenset(edge)
    if e in EDGE_PAIRS[0]:
        num, den, arg = beta, alpha, gamma
    elif e in EDGE_PAIRS[1]:
        num, den, arg = alpha, gamma, beta
    elif e in EDGE_PAIRS[2]:
        num, den, arg = gamma, beta, alpha
    else:
        raise DomainError(f"not an edge: {tuple(edge)!r}")
    try:
        ratio = gsin(lam, num) / gsin(lam, den)
        z = -exp_ell(lam, arg) * ratio
        if ratio != 0.0 and math.isfinite(z.re) and math.isfinite(z.im):
            return z, ratio, abs(arg)
    except OverflowError:
        pass
    raise DomainError(f"the shape parameter of edge {tuple(edge)!r} at ({alpha!r}, {beta!r}), "
                      f"lam = {lam}, leaves the float range")


def edge_data(t: Tetrahedron) -> list[EdgeData]:
    """Shape parameters, edge values and internal angles of all six edges."""
    out = []
    for edge in EDGE_ORDER:
        rest = tuple(sorted(set((1, 2, 3, 4)) - set(edge)))
        z, ratio, value = _shape_param(t.lam, t.alpha, t.beta, edge)
        mod = abs(ratio)
        phi = abs(math.log(mod))
        sig = 1 if ratio > 0 else -1
        out.append(EdgeData(edge, rest, value, z, mod, phi, sig))
    return out


# -- opposite-edge distances and null projections -------------------------------


def opposite_edge_distance(t: Tetrahedron, i: int, s: float, u: float,
                           tol: float = 1e-12) -> tuple[int, float]:
    """Causal class and arc length between the points at offsets (s, u) from
    the midpoints of the opposite edges e_4i and e_jk."""
    if t.kind != KIND_LIGHTLIKE:
        raise DomainError("opposite-edge distances are defined for the lightlike kind")
    if i not in (1, 2, 3):
        raise DomainError("the pair label is the index i of the edge pair (4i | jk)")
    al = _alphas(t.alpha, t.beta)
    j, k = sorted(set((1, 2, 3)) - {i})
    half = 0.5 * abs(al[i])
    if not (-half < s < half and -half < u < half):
        raise DomainError(f"offsets must lie in (-{half}, {half})")
    lam = t.lam
    if lam == 0:
        val = (((s + u) ** 2 * al[j] + (s - u) ** 2 * al[k]) / (al[j] + al[k])
               - al[j] * al[k])
        if abs(val) <= tol:
            return 0, 0.0
        return (1 if val > 0 else -1), math.sqrt(abs(val))
    r = abs((gcos(lam, s + u) * gsin(lam, al[j]) + gcos(lam, s - u) * gsin(lam, al[k]))
            / gsin(lam, al[j] + al[k]))
    if abs(r - 1.0) <= tol:
        return 0, 0.0
    if r > 1.0:
        # |c_{sigma*lam}| > 1 forces the hyperbolic branch.
        return -lam, math.acosh(r)
    return lam, math.acos(r)


def null_projection(t: Tetrahedron, i: int, edge) -> Point:
    """Intersection of the lightlike geodesic through vertex i (inside its
    adjacent face opposite the remaining vertex) with the edge geodesic."""
    if t.kind != KIND_LIGHTLIKE:
        raise DomainError("null projections are defined for the lightlike kind")
    k, l = sorted(edge)
    if i in (k, l) or not {i, k, l} <= {1, 2, 3, 4}:
        raise NoIntersection(f"no null projection of vertex {i} on edge {tuple(edge)}")
    al = _alphas(t.alpha, t.beta)
    if l == 4:
        k, l = 4, k
    if k == 4:
        param = -al[i]
        return t.edge_geodesic(4, l).eval(param)
    if i == 4:
        param = -al[k]
    else:
        param = -al[l]
    return t.edge_geodesic(k, l).eval(param)


# -- edge symmetries -------------------------------------------------------------


def edge_symmetry(t: Tetrahedron, edge) -> Isometry:
    """Isometry fixing the edge setwise that swaps it with its opposite
    edge data: maps vertex i to j (lightlike kind) or fixes the edge's ideal
    endpoints and maps one opposite vertex to the other (ideal kind)."""
    i, j = edge
    if t.kind == KIND_LIGHTLIKE:
        return _edge_symmetry_lightlike(t, i, j)
    return _edge_symmetry_ideal(t, i, j)


def _edge_symmetry_lightlike(t: Tetrahedron, i: int, j: int) -> Isometry:
    frame = t.frame()
    lam = t.lam
    z, ratio, _value = _shape_param(lam, t.alpha, t.beta, (i, j))
    sig = 1 if ratio > 0 else -1
    x_ij = frame.x_dir(i, j)
    im_x = Mat2.from_real(x_ij.im_rows(), lam)
    one = Mat2.identity(lam)
    core = (one + im_x) * (z * 0.5) - (one - im_x) * (0.5 * sig)
    a_i = frame.a_iso(i)
    iso = Isometry(a_i.rep @ core @ a_i.rep.inv())
    return t.pose @ iso @ t.pose.inv()


def _edge_symmetry_ideal(t: Tetrahedron, i: int, j: int) -> Isometry:
    z_target, _ratio, _value = _shape_param(t.lam, t.alpha, t.beta, (i, j))
    k, l = edge_symmetry_mapping(t, (i, j))
    b = boundary_normalize(t.vertex(i), t.vertex(j), t.vertex(k))
    z = _cross_ratio_from(b, t.vertex(l))
    # Far into lam = -1 the vertices may not carry z_target: refuse, not mislead.
    if not z.isclose(z_target, 1e-7):
        raise NotATetrahedron("edge shape parameter does not match the vertex labels")
    b = b.inv()
    zero = gc(0, 0, t.lam)
    core = Mat2(z, zero, zero, gc(1, 0, t.lam))
    return b @ Isometry(core) @ b.inv()


def edge_symmetry_mapping(t: Tetrahedron, edge) -> tuple[int, int]:
    """For the ideal kind, the ordered pair (k, l) with the edge symmetry
    taking vertex k to vertex l: shape parameters are invariant under even
    permutations of the vertices, so (i, j, k, l) is an even permutation
    of (1, 2, 3, 4).  The labels alone fix it; no geometry is done."""
    i, j = edge
    if t.kind != KIND_IDEAL:
        raise DomainError("mapping metadata applies to the ideal kind")
    rest = sorted({1, 2, 3, 4} - {i, j})
    if len(rest) != 2:
        raise DomainError(f"not an edge: {tuple(edge)!r}")
    k, l = rest
    # With k < l, (i, j, k, l) has i + j - 2 - [i < j] inversions.
    return (k, l) if (i + j + (i < j)) % 2 == 0 else (l, k)


# -- recovery -------------------------------------------------------------------

_PERM_WORDS = ((), ("T",), ("T", "T"), ("I",), ("T", "I"), ("T", "T", "I"))


@lru_cache(maxsize=None)
def _perm_isometries(lam: int) -> tuple[Isometry, ...]:
    """The six label permutations of a standard tetrahedron, built once per
    curvature.  Entry k is the relabeling carried by vertices whose k-th
    orbit member is the canonical one, in the orbit of their edge angles
    (`_recover_lightlike_raw`) and of their cross-ratio
    (`_cross_ratio_orbit`) alike."""
    t_mat = Mat2.from_real([[0, 1], [-1, 1]], lam)
    i_mat = Mat2.from_real([[0, 1], [1, 0]], lam)
    table = {"T": t_mat, "I": i_mat}
    out = []
    for word in _PERM_WORDS:
        m = Mat2.identity(lam)
        for ch in word:
            m = m @ table[ch]
        out.append(Isometry(m))
    return tuple(out)


def _match_sets(found, expected, tol: float = 1e-7) -> bool:
    used = [False] * len(expected)
    for f in found:
        hit = False
        for idx, e in enumerate(expected):
            if not used[idx] and f.isclose(e, tol):
                used[idx] = True
                hit = True
                break
        if not hit:
            return False
    return True


def recover_parameters(vertices, kind: str, lam: int) -> tuple[Isometry, float, float]:
    """Invert the constructors: the pose and canonical positive parameters
    of a tetrahedron given by its vertices (in any labeling).  The orbit
    index k of the canonical member of the cross-ratio (or, for a lightlike
    tetrahedron at lam = -1, of the edge angles) names the relabeling
    `_perm_isometries(lam)[k]` the vertices carry: one pose, checked once."""
    return _recover(vertices, kind, lam)[:3]


def _recover(vertices, kind: str, lam: int):
    """`recover_parameters`, and the images of the standard vertices under
    the pose that it checked against the vertices: those of
    `Tetrahedron(kind, lam, alpha, beta, pose)`, bit for bit.  Every failure
    is `NotATetrahedron`, chained to the library error (or the kernel SVD's
    `LinAlgError`) that stopped it."""
    check_kind(kind)
    check_lambda(lam)
    if len(vertices) != 4:
        raise NotATetrahedron("need exactly four vertices")
    try:
        if kind == KIND_IDEAL:
            pose, alpha, beta = _recover_ideal_raw(vertices, lam)
        else:
            pose, alpha, beta = _recover_lightlike_raw(vertices, lam)
        imgs = tuple(act(pose, v) for v in standard_vertices(kind, lam, alpha, beta))
        if _match_sets(imgs, list(vertices)):
            return pose, alpha, beta, imgs
    except NotATetrahedron:
        raise
    except (DualtetError, np.linalg.LinAlgError) as exc:
        raise NotATetrahedron(f"vertex set is not a {kind} tetrahedron: {exc}") from exc
    raise NotATetrahedron("vertices are not an isometric image of a standard tetrahedron")


def _recover_lightlike_raw(vertices, lam: int):
    """The pose and parameters of lightlike vertices, read through the
    ideal dual, whose vertices are the points dual to the faces and whose
    pose A gives this tetrahedron's, S A S.  At lam = -1 they are read off
    the edge angles instead: an isometry moves the common point of the
    faces opposite vertices 1, 2 and 3 to the origin, with their normals in
    standard position, and vertices 1, 2 and 3 there give the parameters
    and the relabeling."""
    for v in vertices:
        if not isinstance(v, Point) or v.space != SPACE_X or v.lam != lam:
            raise NotATetrahedron("lightlike vertices must be points of the spacetime family")
    kernels = list(_triple_kernels([v.vector() for v in vertices]))
    if lam != -1:
        duals = []
        for i, y in enumerate(kernels):
            try:
                duals.append(boundary_from_matrix(embed(y, SPACE_Y, lam)))
            except Degenerate as exc:
                raise NotATetrahedron(f"dual vertex {i + 1} is not ideal: {exc}") from exc
        pose, alpha, beta = _recover_ideal_raw(duals, lam)
        return _dual_action(pose), alpha, beta
    _pt, a = common_point_three_planes(*(Plane(SPACE_X, lam, kern) for kern in kernels[:3]))
    angles = []
    for idx, flip in ((0, 1.0), (1, 1.0), (2, -1.0)):
        m = act(a, vertices[idx]).rep
        angles.append(flip * 0.5 * gc_angle(m.a * m.d.inv(), tol=1e-6))  # exp(2*l*angle)
    al, be, ga = angles
    if abs(al + be + ga) > 1e-7 * max(1.0, abs(al), abs(be)):
        raise NotATetrahedron(f"edge angles do not close up: {(al, be, ga)}")
    orbit = ((al, be), (be, ga), (ga, al), (-be, -al), (-al, -ga), (-ga, -be))
    for k, (x, y) in enumerate(orbit):
        if x > 1e-12 and y > 1e-12:
            return (_perm_isometries(lam)[k] @ a).inv(), x, y
    raise NotATetrahedron(f"edge angles {(al, be, ga)} admit no positive parameter choice")


def _recover_ideal_raw(vertices, lam: int):
    for v in vertices:
        if not isinstance(v, BoundaryPoint) or v.lam != lam:
            raise NotATetrahedron("ideal vertices must be boundary points")
    normalizer = boundary_normalize(vertices[0], vertices[1], vertices[2])
    if lam == -1:
        orbit = _null_orbit(*_null_cross_ratios(*vertices))
        triples = map(_null_triple, orbit)
    else:
        orbit = _cross_ratio_orbit(_cross_ratio_from(normalizer, vertices[3]))
        triples = (_canonical_triple_from_shape(z, lam) for z in orbit)
    for k, triple in enumerate(triples):
        if triple is not None:
            break
    else:
        raise NotATetrahedron(f"cross-ratio {orbit[0]} admits no positive parameter choice")
    return (_perm_isometries(lam)[k] @ normalizer).inv(), triple[0], triple[1]


def _cross_ratio_orbit(z: GC) -> list[GC]:
    one = gc(1, 0, z.lam)
    zi = z.inv()
    w = (one - z).inv()
    return [z, w, (z - one) * zi, zi, z * (z - one).inv(), one - z]


def _canonical_triple_from_shape(z: GC, lam: int) -> tuple[float, float, float] | None:
    """Positive parameters with z = -(s(beta)/s(alpha)) * exp(l*gamma), or
    None when z is not in canonical form."""
    one = gc(1, 0, lam)
    try:
        if lam == 1:
            ga = math.remainder(math.atan2(z.im, z.re) - math.pi, 2.0 * math.pi)
            w = one - z
            be = math.remainder(-math.atan2(w.im, w.re), 2.0 * math.pi)
        else:
            r1, ga = polar(z)
            r2, mbe = polar(one - z)
            if r1 >= 0 or r2 <= 0:
                return None
            be = -mbe
        al = -(be + ga)
        if not (al > 1e-12 and be > 1e-12 and ga < -1e-12):
            return None
        if lam == 1 and al + be >= math.pi - 1e-12:
            return None
        ratio = -gsin(lam, be) / gsin(lam, al)
        expect = exp_ell(lam, ga) * ratio
        if not z.isclose(expect, 1e-7):
            return None
        return al, be, ga
    except DualtetError:  # this orbit member is not canonical; try the next
        return None


def _null_orbit(zp: float, zm: float) -> list[tuple[float, float]]:
    """`_cross_ratio_orbit` at lam = -1, on each null component."""
    return [(zp, zm), (1.0 / (1.0 - zp), 1.0 / (1.0 - zm)), ((zp - 1.0) / zp, (zm - 1.0) / zm),
            (1.0 / zp, 1.0 / zm), (zp / (zp - 1.0), zm / (zm - 1.0)), (1.0 - zp, 1.0 - zm)]


def _null_triple(z: tuple[float, float]) -> tuple[float, float, float] | None:
    """`_canonical_triple_from_shape` at lam = -1 on the null components
    z+- = -k e^(+-gamma), 1 - z+- = r e^(-+beta): gamma = log(z+/z-)/2 and
    beta = -log((1 - z+)/(1 - z-))/2, with no cancellation."""
    zp, zm = z
    if not (zp < 0.0 and zm < 0.0):
        return None
    ga = 0.5 * math.log(zp / zm)
    be = -0.5 * math.log((1.0 - zp) / (1.0 - zm))
    al = -(be + ga)
    if not (al > 1e-12 and be > 1e-12 and ga < -1e-12):
        return None
    return al, be, ga


# -- duality --------------------------------------------------------------------


def _triple_kernels(vecs):
    """For each i, the kernel of the pairing with the three vectors other
    than vecs[i]: four 3-point kernels from one stacked SVD.  Each is
    checked to be one projective point (the three span a plane) as taken."""
    stack = [[vecs[j] for j in range(4) if j != i] for i in range(4)]
    for kern in _dual_kernel(stack):
        if kern.shape[1] != 1:
            raise NotATetrahedron("three of the vertices do not span a plane")
        yield kern[:, 0]


def dualize_tet(t: Tetrahedron) -> Tetrahedron:
    """The projectively dual tetrahedron: each vertex is the common point of
    the planes dual to the other kind's three complementary vertices.  The
    parameters (alpha, beta) are preserved and the kinds swap, and the dual
    is written down in closed form: the tetrahedron of the other kind with
    the same (alpha, beta) and pose S A S, A the pose of t and
    S = [[0, 1], [1, 0]]."""
    kind = KIND_LIGHTLIKE if t.kind == KIND_IDEAL else KIND_IDEAL
    return Tetrahedron(kind, t.lam, t.alpha, t.beta, _dual_action(t.pose))


# -- sampling charts and membership -----------------------------------------------


def _light_chart_r(t: Tetrahedron, a: float, b: float) -> float:
    """Boundary radius r(a, b) of the lightlike sampling chart."""
    lam = t.lam
    norm = max(math.sqrt(max(1.0 - 4.0 * a * b, 0.0)), 1e-15)
    tan_a, tan_b, tan_g = t._light_tans
    num = a / tan_a + b / tan_b + (a + b - 1.0) / tan_g
    try:
        return gacot(lam, num / norm)
    except DomainError as exc:
        raise ChartInversionFailure(f"chart radius undefined at ({a}, {b}): {exc}") from exc


def _light_chart_point(t: Tetrahedron, r: float, a: float, b: float) -> Point:
    """The pose applied to exp(r * xhat), xhat the unit chart direction
    model_from_coords(X, (1, -2a, 2b)) / sqrt(1 - 4ab).  Since
    xhat^2 = -lam, the exponential is gcos(r) + gsin(r) xhat, of det 1; the
    chart's radius stays below 19 at lam = -1, so cosh does not overflow."""
    s = gsin(t.lam, r) / math.sqrt(max(1.0 - 4.0 * a * b, 1e-300))
    return _posed_point(t, (gcos(t.lam, r), s, -2.0 * a * s, 2.0 * b * s))


def _posed_point(t: Tetrahedron, h: tuple) -> Point:
    """The pose applied to the chart point with hermitian entries h, whose
    det is 1 by construction: the pose's action divided by |det pose|, with
    `_canonical`'s sign."""
    space = t.space
    m = _acted(t._pose_action, h, t._abs_det_pose)
    return _canonical_point(space, _signed(_unherm(m, space), space), t.lam)


def _ideal_chart_limits(t: Tetrahedron, theta: float) -> float:
    chart = t._ideal_chart
    return chart.k * (chart.s_gamma / gsin(t.lam, theta - t.beta))


def _ideal_chart_tmin(t: Tetrahedron, r: float, theta: float) -> float:
    val = gsin(t.lam, theta - t.gamma) / t._ideal_chart.s_alpha * r - r * r
    return math.sqrt(max(val, 0.0))


def _ideal_chart_point(t: Tetrahedron, theta: float, r: float, tval: float) -> Point:
    """The pose applied to the horospherical chart point (theta, r, tval)."""
    lam = t.lam
    chart = t._ideal_chart
    # z = exp_ell(theta - beta) * r - exp_ell(gamma) * k
    if lam == -1:
        # In null coordinates z+- = z.re +- z.im, each from its own
        # exponential: |z|^2 = z+ z-, where z.re^2 - z.im^2 would cancel.
        e = math.exp(theta - t.beta)
        z_plus, z_minus = e * r - chart.shift_plus, r / e - chart.shift_minus
        z_re, z_im = (z_plus + z_minus) * 0.5, (z_plus - z_minus) * 0.5
        mod_sq = z_plus * z_minus
    else:
        z_re = gcos(lam, theta - t.beta) * r - chart.shift_re
        z_im = gsin(lam, theta - t.beta) * r - chart.shift_im
        mod_sq = _mod_sq(z_re, z_im, lam)
    s = 1.0 / tval
    # [[(t^2 + |z|^2) / t, z / t], [conj(z) / t, 1 / t]], of det 1
    return _posed_point(t, ((tval * tval + mod_sq) / tval, s, z_re * s, z_im * s))


def _chart_point(t: Tetrahedron, x: float, y: float, u: float) -> Point:
    """The chart point of `sample` at the uniform draws (x, y, u)."""
    if t.kind == KIND_LIGHTLIKE:
        if x + y > 1.0:
            x, y = 1.0 - x, 1.0 - y
        return _light_chart_point(t, u * _light_chart_r(t, x, y), x, y)
    theta = -t.alpha * x
    r = y * _ideal_chart_limits(t, theta)
    tval = (_ideal_chart_tmin(t, r, theta) + 1e-9) / max(u, 1e-9)
    return _ideal_chart_point(t, theta, r, tval)


def _centre(t: Tetrahedron) -> Point:
    """The chart's centre: a = b = 1/3 at half the radius, or theta = -alpha/2."""
    return _chart_point(t, *((1 / 3, 1 / 3, 0.5) if t.kind == KIND_LIGHTLIKE else (0.5, 0.5, 0.5)))


def sample(t: Tetrahedron, n: int, seed: int):
    """Deterministic interior samples drawn uniformly in chart coordinates:
    3n uniforms at once, three per point, each chart point written as its
    hermitian entries and moved by the pose's action on them.  Points that
    leave the float range raise `DomainError`."""
    if type(n) is not int or n < 0:
        raise DomainError(f"the number of samples must be an int >= 0, got {n!r}")
    if type(seed) is not int or seed < 0:
        raise DomainError(f"the seed must be an int >= 0, got {seed!r}")
    draws = iter(np.random.default_rng(seed).random(3 * n).tolist())
    out = [_chart_point(t, *xyu) for xyu in zip(draws, draws, draws)]
    if not all(math.isfinite(x) for p in out for x in p.rep.flat):
        raise _chart_out_of_range(t)
    return out


def _chart_out_of_range(t: Tetrahedron) -> DomainError:
    return DomainError(f"the {t.kind} chart of ({t.alpha!r}, {t.beta!r}) at lam = {t.lam} "
                       "leaves the float range")


def _coefficients(t: Tetrahedron, p: Point) -> list[float]:
    """p's coordinates in the basis of the vertex vectors, each signed so
    that the chart's centre reads positive: the face rows paired with p."""
    if p.space != t.space or p.lam != t.lam:
        raise DomainError("point lives in the wrong space")
    x1, x2, x3, x4 = _unembed(p.rep.flat, t.space)
    return [r1 * x1 + r2 * x2 + r3 * x3 + r4 * x4 for r1, r2, r3, r4 in t._face_rows]


def contains(t: Tetrahedron, p: Point, tol: float = 1e-9) -> bool:
    """Whether p lies in the tetrahedron, the projective simplex of its
    vertices: p's four coordinates in the basis of the vertex vectors share
    a sign, each up to `tol` times the sum of their magnitudes.  `tol` is
    relative.  The face rows are computed once per tetrahedron, on first
    use; a vertex matrix that is singular in doubles raises `Degenerate`.
    """
    try:
        finite = 0 <= tol < math.inf
    except TypeError:  # not a number
        finite = False
    if not finite:
        raise DomainError(f"tol must be a finite number >= 0, got {tol!r}")
    c = _coefficients(t, p)
    if sum(c) < 0:
        c = [-x for x in c]
    return bool(min(c) >= -tol * sum(map(abs, c)))


# -- serialization ----------------------------------------------------------------


def to_descriptor(t: Tetrahedron) -> dict:
    rep = t.pose.rep
    return {
        "schema_version": SCHEMA_VERSION,
        "lambda": t.lam,
        "kind": t.kind,
        "alpha": t.alpha,
        "beta": t.beta,
        "pose": [[[e.re, e.im] for e in (rep.a, rep.b)],
                 [[e.re, e.im] for e in (rep.c, rep.d)]],
    }


def pose_from_rows(rows, lam: int) -> Isometry:
    """Isometry whose representative is [[a, b], [c, d]], given as a 2x2
    array of [re, im] pairs (the `pose` of a descriptor)."""
    try:
        (a, b), (c, d) = rows
        return Isometry(Mat2(*(GC(re, im, lam) for re, im in (a, b, c, d))))
    except (TypeError, ValueError) as exc:  # wrong shape, or entries that are not numbers
        raise DomainError(f"pose must be a 2x2 array of [re, im] pairs, got {rows!r}") from exc


def from_descriptor(d: dict) -> Tetrahedron:
    if not isinstance(d, dict):
        raise DomainError(f"a descriptor is a JSON object, got {type(d).__name__}")
    if d.get("schema_version") != SCHEMA_VERSION:
        raise DomainError(f"unsupported schema version {d.get('schema_version')!r}")
    try:
        lam, kind = d["lambda"], d["kind"]
        alpha, beta = float(d["alpha"]), float(d["beta"])
    except KeyError as exc:
        raise DomainError(f"descriptor lacks the key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DomainError(f"descriptor parameters must be numbers: {exc}") from exc
    check_lambda(lam)
    check_kind(kind)
    pose = None if d.get("pose") is None else pose_from_rows(d["pose"], lam)
    return Tetrahedron(kind, lam, alpha, beta, pose)
