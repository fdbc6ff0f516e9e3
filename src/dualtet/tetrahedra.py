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
and the four vertices are cached on construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    ChartInversionFailure,
    Degenerate,
    DomainError,
    NoIntersection,
    NotATetrahedron,
    NotSpacelikeConnected,
)
from .gcnum import GC, check_lambda, exp_ell, gacot, gc, gc_angle, gcos, gsin, gtan, polar
from .geometry import (
    STANDARD_LIGHT_NORMAL_COORDS,
    BoundaryPoint,
    Geodesic,
    Plane,
    boundary_from_matrix,
    boundary_normalize,
    cross_ratio,
    model_from_coords,
    plane_from_normal,
    _dual_kernel,
)
from .matmodel import (
    Isometry,
    Mat2,
    Point,
    Tangent,
    SPACE_X,
    SPACE_Y,
    act,
    mat_exp_traceless,
    quadric_value,
    embed,
)

KIND_LIGHTLIKE = "lightlike"
KIND_IDEAL = "ideal"

# Opposite-edge pairing; each entry lists the two edges sharing one value.
EDGE_PAIRS = (
    (frozenset({1, 2}), frozenset({3, 4})),
    (frozenset({3, 1}), frozenset({2, 4})),
    (frozenset({2, 3}), frozenset({1, 4})),
)

EDGE_ORDER = ((1, 2), (3, 4), (3, 1), (2, 4), (2, 3), (1, 4))

SCHEMA_VERSION = "1"


def check_kind(kind: str) -> str:
    if kind not in (KIND_LIGHTLIKE, KIND_IDEAL):
        raise DomainError(f"kind must be 'lightlike' or 'ideal', got {kind!r}")
    return kind


def validate_angles(lam: int, alpha: float, beta: float):
    check_lambda(lam)
    if not (0 < alpha < math.inf and 0 < beta < math.inf):
        raise DomainError(f"parameters must be positive and finite, got ({alpha}, {beta})")
    if lam == 1 and alpha + beta >= math.pi:
        raise DomainError(f"alpha + beta must stay below pi for lam = 1, got {alpha + beta}")


def _alphas(alpha: float, beta: float) -> dict[int, float]:
    return {1: alpha, 2: beta, 3: -(alpha + beta)}


# -- standard frame ------------------------------------------------------------


# Model coordinates of the unit edge directions from vertex 4 to vertex i.
_X4_COORDS = {1: (1.0, -2.0, 0.0), 2: (1.0, 0.0, 2.0), 3: (-1.0, 0.0, 0.0)}


def _x4i(lam: int, i: int) -> Mat2:
    return model_from_coords(SPACE_X, _X4_COORDS[i], lam)


def _n4j(lam: int, j: int) -> Mat2:
    """Lightlike normal at vertex 4 of the face opposite vertex j."""
    return model_from_coords(SPACE_X, STANDARD_LIGHT_NORMAL_COORDS[j - 1], lam)


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
        if i == 4:
            return _n4j(lam, j)
        if j != 4:
            return -_n4j(lam, j) * (gsin(lam, al[i] + al[j]) / gsin(lam, al[j]))
        out = _x4i(lam, i)
        for k in (1, 2, 3):
            if k != i:
                out = out - _n4j(lam, k) * (gsin(lam, al[i] + al[k]) / gsin(lam, al[k]))
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
        return tuple(Point(SPACE_X, frame.vertex(i)) for i in (1, 2, 3, 4))
    gamma = -(alpha + beta)
    z = -exp_ell(lam, gamma) * (gsin(lam, beta) / gsin(lam, alpha))
    return (
        BoundaryPoint.infinity(lam),
        BoundaryPoint.zero(lam),
        BoundaryPoint.one(lam),
        BoundaryPoint.from_value(z),
    )


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

    def moved(self, a: Isometry) -> "Tetrahedron":
        return Tetrahedron(self.kind, self.lam, self.alpha, self.beta, a @ self.pose)

    def faces(self) -> tuple[Plane, Plane, Plane, Plane]:
        """The four face planes of a lightlike tetrahedron, f_j opposite
        vertex j."""
        if self.kind != KIND_LIGHTLIKE:
            raise DomainError("faces as lightlike planes exist for the lightlike kind")
        frame = self.frame()
        out = []
        origin = Point.origin(SPACE_X, self.lam)
        for j in (1, 2, 3):
            n = Tangent(SPACE_X, _normalize_light(frame.n_dir(4, j)), Isometry.identity(self.lam))
            out.append(plane_from_normal(origin, n).moved(self.pose))
        a1 = frame.a_iso(1)
        base1 = act(a1, origin)
        n14 = Tangent(SPACE_X, _normalize_light(frame.n_dir(1, 4)), a1)
        out.append(plane_from_normal(base1, n14).moved(self.pose))
        return out[0], out[1], out[2], out[3]

    def edge_geodesic(self, i: int, j: int) -> Geodesic:
        """Edge geodesic with g(0) at vertex i, running through vertex j."""
        if self.kind != KIND_LIGHTLIKE:
            raise DomainError("edge geodesics are provided for the lightlike kind")
        frame = self.frame()
        direction = frame.x_dir(i, j)
        base = self.pose @ frame.a_iso(i)
        return Geodesic(SPACE_X, base, direction, 1)


def _normalize_light(m: Mat2) -> Mat2:
    scale = math.sqrt(m.frob_sq())
    return m * (1.0 / scale)


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
    |exp_ell| = 1, so the ratio's absolute value is the parameter's modulus."""
    gamma = -(alpha + beta)
    e = frozenset(edge)
    if e in EDGE_PAIRS[0]:
        ratio, arg = gsin(lam, beta) / gsin(lam, alpha), gamma
    elif e in EDGE_PAIRS[1]:
        ratio, arg = gsin(lam, alpha) / gsin(lam, gamma), beta
    elif e in EDGE_PAIRS[2]:
        ratio, arg = gsin(lam, gamma) / gsin(lam, beta), alpha
    else:
        raise DomainError(f"not an edge: {tuple(edge)!r}")
    return -exp_ell(lam, arg) * ratio, ratio, abs(arg)


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
    return _edge_symmetry_ideal(t, i, j)[0]


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


def _edge_symmetry_ideal(t: Tetrahedron, i: int, j: int) -> tuple[Isometry, int, int]:
    z_target, _ratio, _value = _shape_param(t.lam, t.alpha, t.beta, (i, j))
    k, l = sorted(set((1, 2, 3, 4)) - {i, j})
    yi, yj = t.vertex(i), t.vertex(j)
    for kk, ll in ((k, l), (l, k)):
        z = cross_ratio(yi, yj, t.vertex(kk), t.vertex(ll))
        if z.isclose(z_target, 1e-7):
            b = boundary_normalize(yi, yj, t.vertex(kk)).inv()
            zero = gc(0, 0, t.lam)
            core = Mat2(z, zero, zero, gc(1, 0, t.lam))
            return b @ Isometry(core) @ b.inv(), kk, ll
    raise NotATetrahedron("edge shape parameter does not match any vertex labeling")


def edge_symmetry_mapping(t: Tetrahedron, edge) -> tuple[int, int]:
    """For the ideal kind, the ordered pair (k, l) with the edge symmetry
    taking vertex k to vertex l."""
    i, j = edge
    if t.kind != KIND_IDEAL:
        raise DomainError("mapping metadata applies to the ideal kind")
    _iso, k, l = _edge_symmetry_ideal(t, i, j)
    return k, l


# -- recovery -------------------------------------------------------------------

_PERM_WORDS = ((), ("T",), ("T", "T"), ("I",), ("T", "I"), ("T", "T", "I"))


@lru_cache(maxsize=None)
def _perm_isometries(lam: int) -> tuple[Isometry, ...]:
    """The six label permutations of a standard tetrahedron, built once per
    curvature."""
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


def _orbit_triples(a: float, b: float, g: float):
    return (
        (a, b, g), (b, g, a), (g, a, b),
        (-b, -a, -g), (-a, -g, -b), (-g, -b, -a),
    )


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


def _canonical_from_triple(lam: int, trips) -> tuple[float, float] | None:
    for a, b, _g in trips:
        if a > 1e-12 and b > 1e-12 and not (lam == 1 and a + b >= math.pi - 1e-12):
            return a, b
    return None


def recover_parameters(vertices, kind: str, lam: int) -> tuple[Isometry, float, float]:
    """Invert the constructors: the pose and canonical positive parameters
    of a tetrahedron given by its vertices (in any labeling)."""
    check_kind(kind)
    check_lambda(lam)
    if len(vertices) != 4:
        raise NotATetrahedron("need exactly four vertices")
    if kind == KIND_LIGHTLIKE:
        normalizer, triples = _recover_lightlike_raw(vertices, lam)
    else:
        normalizer, triples = _recover_ideal_raw(vertices, lam)
    perms = _perm_isometries(lam)
    seen = []
    for triple in triples:
        canon = _canonical_from_triple(lam, _orbit_triples(*triple))
        if canon is None or any(abs(canon[0] - c[0]) + abs(canon[1] - c[1]) < 1e-12 for c in seen):
            continue
        seen.append(canon)
        alpha, beta = canon
        std = standard_vertices(kind, lam, alpha, beta)
        for w in perms:
            pose = (w @ normalizer).inv()
            imgs = [act(pose, v) for v in std]
            if _match_sets(imgs, list(vertices)):
                return pose, alpha, beta
    raise NotATetrahedron("vertices are not an isometric image of a standard tetrahedron")


def _recover_lightlike_raw(vertices, lam: int):
    from .geometry import common_point_three_planes, plane_through_points

    for v in vertices:
        if not isinstance(v, Point) or v.space != SPACE_X or v.lam != lam:
            raise NotATetrahedron("lightlike vertices must be points of the spacetime family")
    x = list(vertices)
    try:
        faces = {j: plane_through_points(*(x[i] for i in range(4) if i != j)) for j in range(3)}
        for j, f in faces.items():
            if not f.is_lightlike():
                raise NotATetrahedron(f"face opposite vertex {j + 1} is not lightlike")
        _pt, a = common_point_three_planes(faces[0], faces[1], faces[2])
    except NotATetrahedron:
        raise
    except Exception as exc:  # noqa: BLE001
        raise NotATetrahedron(f"vertex set is degenerate: {exc}") from exc
    angles = []
    for idx, flip in ((0, 1.0), (1, 1.0), (2, -1.0)):
        m = act(a, x[idx]).rep
        rho = m.a * m.d.inv()  # exp(2*l*angle)
        try:
            angles.append(flip * 0.5 * gc_angle(rho, tol=1e-6))
        except DomainError as exc:
            raise NotATetrahedron(f"vertex {idx + 1} is not in standard form: {exc}") from exc
    al, be, ga = angles
    if lam == 1:
        # Each angle is known modulo pi only; enumerate representative
        # combinations whose sum closes up to zero.  On closed spacelike
        # geodesics several complementary-arc solids share one vertex set;
        # the gamma-slot subtraction is listed first so the labeling-
        # consistent solid wins.
        reps = [v % math.pi for v in (al, be, ga)]
        total = sum(reps)
        candidates = []
        if abs(total - math.pi) < 1e-7:
            for drop in (2, 0, 1):
                cand = [r - (math.pi if k == drop else 0.0) for k, r in enumerate(reps)]
                candidates.append(tuple(cand))
        elif abs(total - 2.0 * math.pi) < 1e-7:
            for keep in (0, 1, 2):
                cand = [r - (0.0 if k == keep else math.pi) for k, r in enumerate(reps)]
                candidates.append(tuple(cand))
        if not candidates:
            raise NotATetrahedron(f"edge angles do not close up modulo pi: {reps}")
        return a, candidates
    if abs(al + be + ga) > 1e-7 * max(1.0, abs(al), abs(be)):
        raise NotATetrahedron(f"edge angles do not close up: {(al, be, ga)}")
    return a, [(al, be, ga)]


def _cross_ratio_orbit(z: GC) -> list[GC]:
    one = gc(1, 0, z.lam)
    zi = z.inv()
    w = (one - z).inv()
    return [z, w, (z - one) * zi, zi, one - z, z * (z - one).inv()]


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
    except Exception:  # noqa: BLE001 - candidate simply fails
        return None


def _recover_ideal_raw(vertices, lam: int):
    for v in vertices:
        if not isinstance(v, BoundaryPoint) or v.lam != lam:
            raise NotATetrahedron("ideal vertices must be boundary points")
    try:
        b = boundary_normalize(vertices[0], vertices[1], vertices[2])
        z = cross_ratio(vertices[0], vertices[1], vertices[2], vertices[3])
    except (NotSpacelikeConnected, Degenerate) as exc:
        raise NotATetrahedron(f"vertices do not span an ideal tetrahedron: {exc}") from exc
    for cand in _cross_ratio_orbit(z):
        triple = _canonical_triple_from_shape(cand, lam)
        if triple is not None:
            return b, [triple]
    raise NotATetrahedron(f"cross-ratio {z} admits no positive parameter choice")


# -- duality --------------------------------------------------------------------


def _triple_kernel(vs) -> np.ndarray:
    kern = _dual_kernel(vs)
    if kern.shape[1] != 1:
        raise NotATetrahedron("dual planes do not meet in a single projective point")
    return kern[:, 0]


def dualize_tet(t: Tetrahedron) -> Tetrahedron:
    """The projectively dual tetrahedron: each vertex is the common point of
    the planes dual to the other kind's three complementary vertices.  The
    parameters (alpha, beta) are preserved and the kinds swap."""
    lam = t.lam
    if t.kind == KIND_LIGHTLIKE:
        vecs = [v.vector() for v in t.vertices]
        new_vertices = []
        for i in range(4):
            y = _triple_kernel([vecs[j] for j in range(4) if j != i])
            try:
                new_vertices.append(boundary_from_matrix(embed(y, SPACE_Y, lam)))
            except Degenerate as exc:
                raise NotATetrahedron(f"dual vertex {i + 1} is not ideal: {exc}") from exc
        pose, alpha, beta = recover_parameters(new_vertices, KIND_IDEAL, lam)
        return Tetrahedron(KIND_IDEAL, lam, alpha, beta, pose)
    vecs = [v.vec4() for v in t.vertices]
    new_points = []
    for i in range(4):
        xv = _triple_kernel([vecs[j] for j in range(4) if j != i])
        if quadric_value(xv, SPACE_X, lam) <= 0:
            raise NotATetrahedron(f"dual vertex {i + 1} misses the spacetime family")
        new_points.append(Point.from_vector(xv, SPACE_X, lam))
    pose, alpha, beta = recover_parameters(new_points, KIND_LIGHTLIKE, lam)
    return Tetrahedron(KIND_LIGHTLIKE, lam, alpha, beta, pose)


# -- membership charts ------------------------------------------------------------


def _light_chart_r(t: Tetrahedron, a: float, b: float) -> float:
    """Boundary radius r(a, b) of the lightlike membership chart."""
    lam = t.lam
    norm = max(math.sqrt(max(1.0 - 4.0 * a * b, 0.0)), 1e-15)
    num = (a / gtan(lam, t.alpha) + b / gtan(lam, t.beta)
           + (a + b - 1.0) / gtan(lam, t.gamma))
    try:
        return gacot(lam, num / norm)
    except DomainError as exc:
        raise ChartInversionFailure(f"chart radius undefined at ({a}, {b}): {exc}") from exc


def _light_chart_point(t: Tetrahedron, r: float, a: float, b: float) -> Point:
    lam = t.lam
    norm = math.sqrt(max(1.0 - 4.0 * a * b, 1e-300))
    xhat = model_from_coords(SPACE_X, (1.0, -2.0 * a, 2.0 * b), lam) * (1.0 / norm)
    return act(t.pose, Point(SPACE_X, mat_exp_traceless(xhat * r)))


def contains(t: Tetrahedron, p: Point, tol: float = 1e-9) -> bool:
    """Membership test via inversion of the global parametrization chart."""
    if t.kind == KIND_LIGHTLIKE:
        return _contains_lightlike(t, p, tol)
    return _contains_ideal(t, p, tol)


def _contains_lightlike(t: Tetrahedron, p: Point, tol: float) -> bool:
    if p.space != SPACE_X or p.lam != t.lam:
        raise DomainError("point lives in the wrong space")
    q = act(t.pose.inv(), p)
    m = q.rep
    lam = t.lam
    scale = math.sqrt(m.frob_sq())
    s_part = m.traceless()
    if math.sqrt(s_part.frob_sq()) <= tol * scale:
        return True  # the vertex at the origin
    # Orient the representative so the radial sine coefficient is positive.
    if s_part.a.im < 0:
        m, s_part = -m, -s_part
    c = 0.5 * m.tr().re
    m1, m2, m3 = s_part.a.im, s_part.b.im, s_part.c.im
    if m1 <= tol * scale:
        return False
    a = -m2 / (2.0 * m1)
    b = m3 / (2.0 * m1)
    if a < -tol or b < -tol or a + b > 1.0 + tol:
        return False
    norm = math.sqrt(max(1.0 - 4.0 * a * b, 0.0))
    s_val = m1 * norm
    # Recover the radius from the (cos-like, sin-like) pair.
    if lam == 1:
        r = math.atan2(s_val, c)
    else:
        if c < 0:
            return False
        r = math.asinh(s_val) if lam == -1 else s_val
    if r < -tol:
        return False
    rmax = _light_chart_r(t, min(max(a, 0.0), 1.0), min(max(b, 0.0), 1.0))
    return r <= rmax + tol * (1.0 + abs(rmax))


def _ideal_chart_limits(t: Tetrahedron, theta: float) -> float:
    lam = t.lam
    return (gsin(lam, t.beta) / gsin(lam, t.alpha)) * (gsin(lam, t.gamma)
                                                       / gsin(lam, theta - t.beta))


def _ideal_chart_tmin(t: Tetrahedron, r: float, theta: float) -> float:
    lam = t.lam
    val = gsin(lam, theta - t.gamma) / gsin(lam, t.alpha) * r - r * r
    return math.sqrt(max(val, 0.0))


def _contains_ideal(t: Tetrahedron, p: Point, tol: float) -> bool:
    if p.space != SPACE_Y or p.lam != t.lam:
        raise DomainError("point lives in the wrong space")
    lam = t.lam
    q = act(t.pose.inv(), p)
    m = q.rep if q.rep.d.re > 0 else -q.rep
    if abs(m.d.re) <= 1e-12 * math.sqrt(m.frob_sq()) or abs(m.d.im) > 1e-9 * math.sqrt(m.frob_sq()):
        raise ChartInversionFailure("horospherical chart breaks down at this point")
    tval = 1.0 / m.d.re
    z = GC(m.b.re * tval, m.b.im * tval, lam)
    w = z + exp_ell(lam, t.gamma) * (gsin(lam, t.beta) / gsin(lam, t.alpha))
    wnorm = math.hypot(w.re, w.im)
    if wnorm <= tol:
        # On the edge toward the fourth vertex; theta is free.
        return tval >= -tol
    if lam == 1:
        r = wnorm
        theta = math.atan2(w.im, w.re) + t.beta
        theta = math.remainder(theta, 2.0 * math.pi)
    else:
        try:
            r, phi = polar(w)
        except Exception:
            return False
        if r < 0:
            return False
        theta = phi + t.beta
    if not (-t.alpha - tol <= theta <= tol):
        return False
    rmax = _ideal_chart_limits(t, theta)
    if r > rmax + tol * max(1.0, rmax):
        return False
    return tval >= _ideal_chart_tmin(t, r, theta) - tol


def sample(t: Tetrahedron, n: int, seed: int):
    """Deterministic interior samples drawn uniformly in chart coordinates."""
    rng = np.random.default_rng(seed)
    out = []
    if t.kind == KIND_LIGHTLIKE:
        while len(out) < n:
            a, b = rng.random(2)
            if a + b > 1.0:
                a, b = 1.0 - a, 1.0 - b
            r = rng.random() * _light_chart_r(t, a, b)
            out.append(_light_chart_point(t, r, a, b))
        return out
    while len(out) < n:
        theta = -t.alpha * rng.random()
        r = rng.random() * _ideal_chart_limits(t, theta)
        u = rng.random()
        tval = (_ideal_chart_tmin(t, r, theta) + 1e-9) / max(u, 1e-9)
        z = exp_ell(t.lam, theta - t.beta) * r - exp_ell(t.lam, t.gamma) * (
            gsin(t.lam, t.beta) / gsin(t.lam, t.alpha))
        mat = Mat2(
            GC((tval * tval + z.mod_sq()) / tval, 0, t.lam),
            z * (1.0 / tval),
            z.conj() * (1.0 / tval),
            GC(1.0 / tval, 0, t.lam),
        )
        out.append(act(t.pose, Point(SPACE_Y, mat)))
    return out


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
