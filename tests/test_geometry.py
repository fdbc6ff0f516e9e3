import copy
import itertools
import math
import pickle
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from dualtet import (
    BoundaryPoint,
    Degenerate,
    DegenerateNormal,
    DomainError,
    GC,
    Geodesic,
    Isometry,
    LambdaMismatch,
    Mat2,
    NotSpacelikeConnected,
    Point,
    Tangent,
    act,
    arc_length,
    boundary_from_matrix,
    boundary_normalize,
    common_point_three_planes,
    lightlike_from_angles,
    cross_ratio,
    dualize,
    gc,
    geodesic_from_tangent,
    intersect_lightlike_planes,
    is_spacelike_connected,
    plane_from_normal,
    plane_through_points,
    point_sqrt,
    spacelike_geodesic_to_plane_pair,
    stabilizer_angle,
    stabilizer_element,
    standard_light_normals,
    unembed,
)
from dualtet.errors import NormalizationFailure
from dualtet.geometry import Plane, _dual_kernel, _null_cross_ratios, model_from_coords
from conftest import LAMBDAS, random_isometry, random_point, random_tangent

SPACELIKE_DIAG = {lam: Mat2(gc(0, 1, lam), gc(0, 0, lam), gc(0, 0, lam), gc(0, -1, lam))
                  for lam in LAMBDAS}


def boundary_value(lam, re, im):
    return BoundaryPoint.from_value(GC(re, im, lam))


# -- geodesics -------------------------------------------------------------------


def test_geodesic_eval_at_zero_is_base(rng):
    for lam in LAMBDAS:
        for space in ("X", "Y"):
            t = act(random_isometry(rng, lam), random_tangent(rng, space, lam))
            g = geodesic_from_tangent(t)
            assert g.eval(0.0).isclose(t.base_point())


def test_dual_family_spacelike_geodesic_is_cosh_sinh():
    for lam in LAMBDAS:
        y = Mat2(gc(1, 0, lam), gc(0, 0, lam), gc(0, 0, lam), gc(-1, 0, lam))
        g = geodesic_from_tangent(Tangent("Y", y))
        for t in (0.4, 1.3):
            want = Mat2(gc(math.cosh(t) + math.sinh(t), 0, lam), gc(0, 0, lam),
                        gc(0, 0, lam), gc(math.cosh(t) - math.sinh(t), 0, lam))
            assert g.eval(t).isclose(Point("Y", want))


def test_circular_spacelike_geodesic_closes_projectively():
    g = geodesic_from_tangent(Tangent("X", SPACELIKE_DIAG[1]))
    for t in np.linspace(0.0, 2.5, 7):
        assert g.eval(t).isclose(g.eval(t + math.pi))


def test_arc_length_same_point(rng):
    p = random_point(rng, "X", -1)
    sig, d = arc_length(p, p)
    assert d == 0.0


def test_arc_length_reproduces_geodesic_parameter(rng):
    for lam in LAMBDAS:
        for space in ("X", "Y"):
            a = random_isometry(rng, lam)
            t = act(a, random_tangent(rng, space, lam))
            g = geodesic_from_tangent(t)
            for dist in (0.3, 1.2):
                sig, d = arc_length(g.eval(0.0), g.eval(dist))
                assert sig == 1
                k = lam if space == "X" else -1
                if k == 1:
                    assert min(d, math.pi - d) == pytest.approx(min(dist, math.pi - dist),
                                                                abs=1e-9)
                else:
                    assert d == pytest.approx(dist, abs=1e-9)


def test_arc_length_timelike(rng):
    for lam in LAMBDAS:
        t = random_tangent(rng, "X", lam, sigma=-1)
        g = geodesic_from_tangent(t)
        sig, d = arc_length(g.eval(0.0), g.eval(0.7))
        assert sig == -1
        if lam * -1 >= 0:
            assert d == pytest.approx(0.7, abs=1e-9)


def test_flat_interval_formula_matches_trace_route(rng):
    # sigma * d^2 = -det Im(q - p) on aligned unit-determinant representatives.
    for _ in range(40):
        a = random_isometry(rng, 0)
        t = act(a, random_tangent(rng, "X", 0, sigma=1 if rng.random() < 0.5 else -1))
        g = geodesic_from_tangent(t)
        p, q = g.eval(0.0), g.eval(0.9)
        sig, d = arc_length(p, q)
        mp, mq = p.rep, q.rep
        if (mp.tr().re > 0) != (mq.tr().re > 0):
            mq = -mq
        diff = mq - mp
        assert -diff.det_im() == pytest.approx(sig * d * d, abs=1e-9)


# -- planes -----------------------------------------------------------------------


def test_base_point_lies_in_its_plane(rng):
    for lam in LAMBDAS:
        p = random_point(rng, "X", lam)
        n = act(point_sqrt(p), random_tangent(rng, "X", lam))
        pl = plane_from_normal(p, n)
        assert pl.contains(p)


def test_standard_lightlike_plane_contains_exponential_curve():
    for lam in LAMBDAS:
        n1 = standard_light_normals(lam)[0]
        pl = plane_from_normal(Point.origin("X", lam), Tangent("X", n1))
        assert pl.is_lightlike()
        g = geodesic_from_tangent(Tangent("X", SPACELIKE_DIAG[lam]))
        for t in (-0.8, 0.3, 1.5):
            assert pl.contains(g.eval(t))


def test_plane_membership_matches_exponential_chart(rng):
    from dualtet.geometry import _nullspace, model_coords, model_gram
    from dualtet import mat_exp_traceless

    for lam in LAMBDAS:
        p = random_point(rng, "X", lam)
        a = point_sqrt(p)
        n = act(a, random_tangent(rng, "X", lam))
        pl = plane_from_normal(p, n)
        # The tangent plane at the origin: coordinates orthogonal to the normal's.
        basis = _nullspace((model_gram("X", lam) @ model_coords("X", n.rep))[None, :])
        for _ in range(10):
            t1, t2 = rng.normal(size=2)
            w = model_from_coords("X", basis @ np.array([t1, t2]), lam)
            w = (w + w.circ()) * 0.5
            try:
                chart_point = Point("X", a.rep @ mat_exp_traceless(w) @ a.rep.circ())
            except Exception:
                continue
            assert pl.contains(chart_point, 1e-8)
        for step in (-0.5, 0.5):  # off the plane along its unit spacelike normal
            off = Point("X", a.rep @ mat_exp_traceless(n.rep * step) @ a.rep.circ())
            assert not pl.contains(off, 1e-6), (lam, step)


def _moved_by_kernels(pl, a):
    """Reference for `Plane.moved`: push a basis of the plane's kernel and
    take the dual kernel of the images."""
    from dualtet.geometry import _dual_kernel
    from dualtet.matmodel import embed, push, unembed

    cols = [unembed(push(a, embed(v, pl.space, pl.lam), pl.space), pl.space)
            for v in _dual_kernel([pl.dual_vec]).T]
    w = _dual_kernel(cols)
    assert w.shape[1] == 1
    return w[:, 0] / np.linalg.norm(w[:, 0])


def test_plane_moved_matches_kernel_round_trip():
    rng = np.random.default_rng(41)
    for lam in LAMBDAS:
        for space in ("X", "Y"):
            for _ in range(40):
                pts = [random_point(rng, space, lam) for _ in range(3)]
                pl = plane_through_points(*pts)
                a = random_isometry(rng, lam)
                got = pl.moved(a)
                want = _moved_by_kernels(pl, a)
                assert min(np.abs(got.dual_vec - want).max(),
                           np.abs(got.dual_vec + want).max()) <= 1e-9
                for p in pts:
                    assert got.contains(act(a, p), 1e-9)


def test_is_lightlike_matches_causal_class_of_normal():
    """The dual-vector test agrees with the causal class of the normal at a
    point of the plane, for spacetime planes at every curvature and
    anti-de Sitter planes of the dual family."""
    rng = np.random.default_rng(43)
    cases = [(space, lam) for lam in LAMBDAS for space in ("X", "Y")
             if space == "X" or lam == -1]
    seen = set()
    for space, lam in cases:
        planes = []
        for _ in range(60):
            pts = [random_point(rng, space, lam) for _ in range(3)]
            planes.append((plane_through_points(*pts), pts[0]))
        if space == "X":
            for _ in range(5):
                a, b = rng.uniform(0.15, 1.2, 2)
                t = lightlike_from_angles(lam, a, b, random_isometry(rng, lam))
                for j, face in enumerate(t.faces(), start=1):
                    planes.append((face, t.vertex(1 if j != 1 else 2)))
        for pl, p in planes:
            light = pl.is_lightlike()
            assert light == (pl.normal_at_point(p).sigma() == 0)
            seen.add(light)
    assert seen == {True, False}


def test_faces_are_lightlike_and_dualize_to_boundary_points():
    """Face planes built from the normals and from vertex triples sit on
    the dual boundary by the one tolerance `is_lightlike` and `dualize`
    share."""
    rng = np.random.default_rng(47)
    for lam in LAMBDAS:
        for _ in range(10):
            a, b = rng.uniform(0.05, 1.4, 2)
            t = lightlike_from_angles(lam, a, b, random_isometry(rng, lam))
            v = t.vertices
            triples = [plane_through_points(*(v[i] for i in range(4) if i != j))
                       for j in range(4)]
            for face in list(t.faces()) + triples:
                assert face.is_lightlike()
                assert isinstance(dualize(face), BoundaryPoint)


def test_half_pipe_planes_are_lightlike_exactly_when_vertical():
    # Half-pipe (Y, lam = 0): the metric degenerates along the fibre, so a
    # plane is lightlike exactly when it contains the fibre direction.
    t = lightlike_from_angles(0, 0.7, 0.4)
    for x in t.vertices:
        assert not dualize(x).is_lightlike()
    assert Plane("Y", 0, [0.0, 0.0, 1.0, 0.0]).is_lightlike()
    assert not Plane("Y", 0, [0.0, 1.0, 1.0, 0.0]).is_lightlike()


def test_plane_missing_its_space_has_no_causal_class():
    # In the hyperbolic space the plane -y1 + 0.2 y4 = 0 lies outside the
    # quadric's positive cone.
    with pytest.raises(DegenerateNormal):
        Plane("Y", 1, [1.0, 0.0, 0.0, 0.2]).is_lightlike()


def _ref_is_lightlike(pl):
    """`Plane.is_lightlike` through the plane's kernel and the eigenvalues of
    its space's quadric on it, as every plane took it before the closed form
    for X planes; the answer, or the class of the error raised."""
    from dualtet.geometry import BOUNDARY_TOL, _point_in_span
    from dualtet.matmodel import quadric_value

    if _point_in_span(pl.space, pl.lam, _dual_kernel([pl.dual_vec])) is None:
        return DegenerateNormal
    other = "Y" if pl.space == "X" else "X"
    return abs(quadric_value(pl.dual_vec, other, pl.lam)) <= BOUNDARY_TOL


def _is_lightlike_or_error(pl):
    try:
        return pl.is_lightlike()
    except DegenerateNormal:
        return DegenerateNormal


def test_closed_form_lightlike_test_matches_the_kernel_route():
    """X planes are tested in closed form: at every curvature the answer, or
    `DegenerateNormal`, is the kernel route's on random unit dual vectors,
    on the faces of posed lightlike tetrahedra (from the frame and from
    vertex triples), and at lam = 0 on both sides of the 1e-12 cut of
    1 - w2^2: 1e-11 meets the space and 1e-13 does not."""
    rng = np.random.default_rng(4949)
    seen = {True: 0, False: 0, DegenerateNormal: 0}
    for lam in LAMBDAS:
        planes = [Plane("X", lam, rng.normal(size=4)) for _ in range(300)]
        for _ in range(20):
            a, b = np.exp(rng.uniform(math.log(0.02), math.log(1.5), 2))
            t = lightlike_from_angles(lam, float(a), float(b), random_isometry(rng, lam))
            v = t.vertices
            planes += t.faces()
            planes += [plane_through_points(*(v[i] for i in range(4) if i != j))
                       for j in range(4)]
        if lam == 0:
            for gap in (1e-11, 1e-13):
                for _ in range(20):
                    rest = rng.normal(size=3)
                    rest *= math.sqrt(gap) / np.linalg.norm(rest)
                    w = [rest[0], math.sqrt(1.0 - gap), rest[1], rest[2]]
                    pl = Plane("X", 0, w)
                    assert (_is_lightlike_or_error(pl) is DegenerateNormal) == (gap < 1e-12), w
                    planes.append(pl)
            planes.append(Plane("X", 0, [0.0, 1.0, 0.0, 0.0]))
        for pl in planes:
            got = _is_lightlike_or_error(pl)
            assert got == _ref_is_lightlike(pl), (lam, pl.dual_vec.tolist())
            seen[got] += 1
    assert min(seen.values()) >= 20, seen


def test_lightlike_intersection_standard_pair():
    for lam in LAMBDAS:
        one = Point.origin("X", lam)
        n1, n2, _ = standard_light_normals(lam)
        p1 = plane_from_normal(one, Tangent("X", n1))
        p2 = plane_from_normal(one, Tangent("X", n2))
        g = intersect_lightlike_planes(p1, p2)
        assert g.sigma == 1
        want = geodesic_from_tangent(Tangent("X", SPACELIKE_DIAG[lam]))
        for t in (-0.5, 0.9):
            p = want.eval(t)
            sig, d = arc_length(g.eval(0.0), p)
            hits = [g.eval(s) for s in (d, -d)]
            if lam == 1:
                hits += [g.eval(math.pi - d), g.eval(d - math.pi)]
            assert any(h.isclose(p, 1e-8) for h in hits)


def test_spacelike_geodesic_plane_pair_round_trip(rng):
    for lam in LAMBDAS:
        a = random_isometry(rng, lam)
        g = geodesic_from_tangent(act(a, random_tangent(rng, "X", lam, sigma=1)))
        p1, p2 = spacelike_geodesic_to_plane_pair(g)
        assert p1.is_lightlike() and p2.is_lightlike()
        back = intersect_lightlike_planes(p1, p2)
        for t in (-0.4, 0.0, 0.8):
            assert p1.contains(g.eval(t), 1e-7)
            assert p2.contains(g.eval(t), 1e-7)
        sig, d = arc_length(back.eval(0.0), g.eval(0.0))
        assert sig in (0, 1)


def test_common_point_standard_triple():
    for lam in LAMBDAS:
        one = Point.origin("X", lam)
        planes = [plane_from_normal(one, Tangent("X", n))
                  for n in standard_light_normals(lam)]
        pt, a = common_point_three_planes(*planes)
        assert pt.isclose(one)
        assert act(a, pt).isclose(one)
        # normals are already standard, so the map fixes the configuration
        for pl, n_std in zip(planes, standard_light_normals(lam)):
            moved = pl.moved(a)._normal_rep_at_origin()
            cross = moved @ n_std.adj()  # proportional iff traceless part dies
            assert abs(cross.traceless().frob_sq()) < 1e-14 * n_std.frob_sq()


def _reference_common_point(planes):
    """Common point and standard-position isometry by a second route: each
    normal's ray [p : q] is the larger column of its model matrix at the
    origin, and a real Mobius map on numpy 2-vectors sends the three rays
    to the standard labels (0, inf, 1)."""
    lam = planes[0].lam
    v = _dual_kernel([pl.dual_vec for pl in planes])[:, 0]
    pt = Point.from_vector(v, "X", lam)
    a0 = point_sqrt(pt).inv()
    labels = []
    for pl in planes:
        m = np.array(pl.moved(a0)._normal_rep_at_origin().im_rows())
        col1, col2 = m[:, 0], m[:, 1]
        u = col1 if np.linalg.norm(col1) >= np.linalg.norm(col2) else col2
        labels.append(u / np.linalg.norm(u))

    def to_standard(trip):
        u1, u2, u3 = (np.asarray(t, float) for t in trip)
        d12 = u1[0] * u2[1] - u1[1] * u2[0]
        d32 = u3[0] * u2[1] - u3[1] * u2[0]
        d13 = u1[0] * u3[1] - u1[1] * u3[0]
        lmb, mu = d32 / d12, d13 / d12
        return np.linalg.inv(np.array([[lmb * u1[0], mu * u2[0]], [lmb * u1[1], mu * u2[1]]]))

    m = np.linalg.inv(to_standard(((0.0, 1.0), (1.0, 0.0), (1.0, 1.0)))) @ to_standard(labels)
    return pt, Isometry(Mat2.from_real(m.tolist(), lam)) @ a0


def test_common_point_equivariance(rng):
    """Moved standard triples and the first three faces of posed lightlike
    tetrahedra: the common point and the isometry agree with the reference
    route, and the isometry takes the point to the origin."""
    for lam in LAMBDAS:
        one = Point.origin("X", lam)
        planes = [plane_from_normal(one, Tangent("X", n))
                  for n in standard_light_normals(lam)]
        triples = []
        for _ in range(50):
            b = random_isometry(rng, lam)
            triples.append(([pl.moved(b) for pl in planes], act(b, one)))
        while len(triples) < 100:
            alpha, beta = np.exp(rng.uniform(math.log(0.02), math.log(3.0), 2)).tolist()
            if lam == 1 and alpha + beta >= math.pi:
                continue
            t = lightlike_from_angles(lam, alpha, beta, random_isometry(rng, lam))
            triples.append((t.faces()[:3], t.vertex(4)))
        for moved, want in triples:
            pt, a = common_point_three_planes(*moved)
            ref_pt, ref_a = _reference_common_point(moved)
            assert pt.isclose(want, 1e-7)
            assert act(a, pt).isclose(one, 1e-7)
            assert pt.isclose(ref_pt, 1e-9)
            assert a.projectively_equal(ref_a, 1e-9)


def test_plane_projective_equality_uses_its_tolerance():
    """Unit dual vectors 2.8e-6 apart are equal at 1e-5 and not at 1e-9."""
    p = Plane("X", 0, [0.0, 0.6, 0.8, 0.0])
    q = Plane("X", 0, [0.0, 0.6 + 2.8e-6 * 0.8, 0.8 - 2.8e-6 * 0.6, 0.0])
    assert np.linalg.norm(p.dual_vec - q.dual_vec) == pytest.approx(2.8e-6, rel=1e-6)
    assert not p.projectively_equal(q, 1e-9)
    assert p.projectively_equal(q, 1e-5)


# -- ideal boundary ----------------------------------------------------------------


def test_boundary_normalize_fixes_reference_triple():
    for lam in LAMBDAS:
        b = boundary_normalize(BoundaryPoint.infinity(lam), BoundaryPoint.zero(lam),
                               BoundaryPoint.one(lam))
        assert b.projectively_equal(Isometry.identity(lam))


def test_boundary_normalize_inverts_isometries(rng):
    for lam in LAMBDAS:
        a = random_isometry(rng, lam)
        trip = [BoundaryPoint.infinity(lam).moved(a), BoundaryPoint.zero(lam).moved(a),
                BoundaryPoint.one(lam).moved(a)]
        b = boundary_normalize(*trip)
        assert b.projectively_equal(a.inv(), 1e-8)
        for bp, ref in zip(trip, (BoundaryPoint.infinity(lam), BoundaryPoint.zero(lam),
                                  BoundaryPoint.one(lam))):
            assert bp.moved(b).isclose(ref)


def test_boundary_normalize_zero_divisor_rejection():
    y3 = boundary_value(-1, 1.0, 1.0)  # value 1 + l: a zero divisor away from 0
    with pytest.raises(NotSpacelikeConnected):
        boundary_normalize(BoundaryPoint.infinity(-1), BoundaryPoint.zero(-1), y3)
    assert not is_spacelike_connected(BoundaryPoint.zero(-1), y3)


def test_double_null_boundary_point_split_complex():
    v = BoundaryPoint(GC(2.0, 2.0, -1), GC(3.0, -3.0, -1))
    m = v.matrix()
    assert abs(m.a.re) < 1e-12 and abs(m.d.re) < 1e-12
    from dualtet import boundary_from_matrix

    assert boundary_from_matrix(m).isclose(v)


def test_cross_ratio_reference_configuration(rng):
    for lam in LAMBDAS:
        z = GC(-0.7, 0.9, lam)
        pts = (BoundaryPoint.infinity(lam), BoundaryPoint.zero(lam),
               BoundaryPoint.one(lam), BoundaryPoint.from_value(z))
        assert cross_ratio(*pts).isclose(z, 1e-12)


def test_cross_ratio_classical_determinant_oracle(rng):
    # cr = det(v3,v1) det(v4,v2) / (det(v3,v2) det(v4,v1)) on representatives.
    def det2(u, w):
        return u.v1 * w.v2 - u.v2 * w.v1

    for lam in LAMBDAS:
        for _ in range(25):
            a = random_isometry(rng, lam)
            z = GC(rng.uniform(-2, 2), rng.uniform(-2, 2), lam)
            pts = [BoundaryPoint.infinity(lam), BoundaryPoint.zero(lam),
                   BoundaryPoint.one(lam), BoundaryPoint.from_value(z)]
            pts = [p.moved(a) for p in pts]
            try:
                got = cross_ratio(*pts)
            except (NotSpacelikeConnected, Degenerate):
                continue
            num = det2(pts[2], pts[0]) * det2(pts[3], pts[1])
            den = det2(pts[2], pts[1]) * det2(pts[3], pts[0])
            assert got.isclose(num * den.inv(), 1e-9)


def test_cross_ratio_permutation_orbit(rng):
    for lam in LAMBDAS:
        z = GC(0.35, -1.1, lam)
        one = gc(1, 0, lam)
        pts = [BoundaryPoint.infinity(lam), BoundaryPoint.zero(lam), BoundaryPoint.one(lam)]
        fourth = BoundaryPoint.from_value(z)
        orbit = [z, (one - z).inv(), (z - one) * z.inv(), z.inv(), one - z,
                 z * (z - one).inv()]
        found = [cross_ratio(*trip, fourth) for trip in itertools.permutations(pts)]
        for val in found:
            assert any(val.isclose(o, 1e-10) for o in orbit)
        for o in orbit:
            assert any(val.isclose(o, 1e-10) for val in found)


def test_cross_ratio_isometry_invariance(rng):
    for lam in LAMBDAS:
        z = GC(1.4, 0.6, lam)
        pts = [BoundaryPoint.infinity(lam), BoundaryPoint.zero(lam),
               BoundaryPoint.one(lam), BoundaryPoint.from_value(z)]
        for _ in range(30):
            a = random_isometry(rng, lam)
            moved = [p.moved(a) for p in pts]
            assert cross_ratio(*moved).isclose(z, 1e-10)


# -- duality -----------------------------------------------------------------------


def test_dualize_is_involutive_on_points(rng):
    for lam in LAMBDAS:
        for space in ("X", "Y"):
            p = random_point(rng, space, lam)
            assert dualize(dualize(p)).isclose(p)


def test_dualize_boundary_gives_lightlike_plane(rng):
    for lam in LAMBDAS:
        bp = BoundaryPoint.infinity(lam)
        pl = dualize(bp)
        assert pl.space == "X" and pl.is_lightlike()
        # the dual plane of infinity passes through the origin with the first
        # standard normal direction
        n = pl._normal_rep_at_origin()
        n1 = standard_light_normals(lam)[0]
        assert abs((n @ n1.adj()).traceless().frob_sq()) < 1e-16
        assert dualize(pl).isclose(bp)


def test_dualize_incidence_exchange(rng):
    for lam in LAMBDAS:
        for _ in range(20):
            x = random_point(rng, "X", lam)
            y = random_point(rng, "Y", lam)
            assert dualize(x).contains(y, 1e-8) == dualize(y).contains(x, 1e-8)


def test_geodesic_dual_independent_of_sample_points(rng):
    from dualtet import mat_exp_traceless

    for lam in LAMBDAS:
        a = random_isometry(rng, lam)
        g = geodesic_from_tangent(act(a, random_tangent(rng, "X", lam, sigma=1)))
        shifted = Geodesic(g.space, g.base @ Isometry(
            mat_exp_traceless(g.direction * 0.41)), g.direction, 1)
        d1, d2 = dualize(g), dualize(shifted)
        for t in (-0.5, 0.2, 0.9):
            p = d2.eval(t)
            sig, dist = arc_length(d1.eval(0.0), p)
            hits = [d1.eval(s) for s in (dist, -dist)]
            if lam == -1:
                hits += [d1.eval(s) for s in (math.pi - dist, dist - math.pi)]
            assert any(h.isclose(p, 1e-7) for h in hits)


def test_dualize_spacelike_geodesics_seeded():
    """The dual of a spacelike geodesic is a spacelike geodesic of the other
    family, and the double dual runs along the original."""
    rng = np.random.default_rng(5)
    for lam in LAMBDAS:
        for space in ("X", "Y"):
            for _ in range(200):
                a = random_isometry(rng, lam)
                g = geodesic_from_tangent(act(a, random_tangent(rng, space, lam, sigma=1)))
                d = dualize(g)
                dd = dualize(d)
                assert d.space != space and d.sigma == 1
                span = np.array([g.eval(0.0).vector(), g.eval(1.0).vector()]).T
                for t in (-0.9, 0.4, 1.3):
                    v = dd.eval(t).vector()
                    coeff = np.linalg.lstsq(span, v, rcond=None)[0]
                    assert np.linalg.norm(span @ coeff - v) <= 1e-9 * np.linalg.norm(v)


# -- stabilizers -------------------------------------------------------------------


def test_stabilizer_pure_translation(rng):
    for lam in LAMBDAS:
        for space in ("X", "Y"):
            a = random_isometry(rng, lam)
            g = geodesic_from_tangent(act(a, random_tangent(rng, space, lam, sigma=1)))
            theta = 0.63
            trans = stabilizer_element(g, theta, 1.0, 0.0)
            for t in (-0.3, 0.5):
                assert act(trans, g.eval(t)).isclose(g.eval(t + theta), 1e-8)


def test_stabilizer_identity():
    for lam in LAMBDAS:
        g = geodesic_from_tangent(Tangent("X", SPACELIKE_DIAG[lam]))
        e = stabilizer_element(g, 0.0, 1.0, 0.0)
        assert e.projectively_equal(Isometry.identity(lam))


def test_stabilizer_fixes_geodesic_setwise(rng):
    for lam in LAMBDAS:
        g = geodesic_from_tangent(random_tangent(rng, "X", lam, sigma=1))
        iso = stabilizer_element(g, 0.8, 1.3, 0.4)
        p = act(iso, g.eval(0.25))
        sig, d = arc_length(g.eval(0.0), p)
        hits = [g.eval(s) for s in (d, -d)]
        if lam == 1:
            hits += [g.eval(math.pi - d), g.eval(d - math.pi)]
        assert any(h.isclose(p, 1e-8) for h in hits)


def test_stabilizer_angle_recovery():
    for lam in LAMBDAS:
        g = geodesic_from_tangent(Tangent("X", SPACELIKE_DIAG[lam]))
        phi = 0.9
        a, b = math.cosh(phi / 2), math.sinh(phi / 2)  # spacelike axis: boost pair
        assert stabilizer_angle(g, a, b) == pytest.approx(phi, abs=1e-12)


def test_stabilizer_inadmissible_pair():
    from dualtet import Inadmissible

    g = geodesic_from_tangent(Tangent("X", SPACELIKE_DIAG[0]))
    with pytest.raises(Inadmissible):
        stabilizer_element(g, 0.1, 1.0, 1.0)  # a^2 = sigma b^2


def test_parallel_lightlike_planes_flat_case():
    from dualtet import NoCommonPoint, NoIntersection, common_point_three_planes

    lam = 0
    one = Point.origin("X", lam)
    n1, n2, _n3 = standard_light_normals(lam)
    p1 = plane_from_normal(one, Tangent("X", n1))
    p2 = plane_from_normal(one, Tangent("X", n2))
    shift = Isometry(Mat2(gc(1, 0, lam), gc(0, 1.0, lam), gc(0, 0, lam), gc(1, 0, lam)))
    p1_shifted = p1.moved(shift)
    with pytest.raises(NoIntersection):
        intersect_lightlike_planes(p1, p1_shifted)
    with pytest.raises(NoCommonPoint):
        common_point_three_planes(p1, p1_shifted, p2)


def test_cross_ratio_coincident_points_rejected():
    for lam in LAMBDAS:
        with pytest.raises(NotSpacelikeConnected):
            cross_ratio(BoundaryPoint.infinity(lam), BoundaryPoint.zero(lam),
                        BoundaryPoint.one(lam), BoundaryPoint.zero(lam))


def test_spacelike_endpoints_form():
    # endpoints of the diagonal spacelike geodesic are the reference points
    for lam in LAMBDAS:
        y = Mat2(gc(1, 0, lam), gc(0, 0, lam), gc(0, 0, lam), gc(-1, 0, lam))
        g = geodesic_from_tangent(Tangent("Y", y))
        plus, minus = g.endpoints()
        assert plus.isclose(BoundaryPoint.infinity(lam))
        assert minus.isclose(BoundaryPoint.zero(lam))


def test_endpoints_fixed_by_translations(rng):
    for lam in LAMBDAS:
        a = random_isometry(rng, lam)
        g = geodesic_from_tangent(act(a, random_tangent(rng, "Y", lam, sigma=1)))
        trans = stabilizer_element(g, 0.83, 1.0, 0.0)
        e1, e2 = g.endpoints()
        assert act(trans, e1).isclose(e1, 1e-8)
        assert act(trans, e2).isclose(e2, 1e-8)


# -- the ideal boundary on four numbers against the GC-entry reference ---------------


@dataclass(frozen=True)
class _GCBoundaryPoint:
    """`BoundaryPoint` as it was written on two `GC` entries, the reference
    for the version on four numbers."""

    v1: GC
    v2: GC

    def __post_init__(self):
        v1, v2 = self.v1, self.v2
        if v1.lam != v2.lam:
            raise DomainError("boundary vector entries carry mixed curvature tags")
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
            b1, b2 = _ref_null_branch(v1), _ref_null_branch(v2)
            if b1 == 0 or b2 == 0 or b1 == b2:
                raise Degenerate("v v^dag = 0: not a boundary point")
            v1 = GC(1.0, float(b1), v1.lam)
            v2 = GC(1.0, -float(b1), v2.lam)
        object.__setattr__(self, "v1", v1)
        object.__setattr__(self, "v2", v2)

    @property
    def lam(self):
        return self.v1.lam

    def value(self):
        if not self.v2.is_unit():
            raise Degenerate("no affine coordinate: second entry is not a unit")
        return self.v1 * self.v2.inv()

    def matrix(self):
        v1, v2 = self.v1, self.v2
        return Mat2(v1 * v1.conj(), v1 * v2.conj(), v2 * v1.conj(), v2 * v2.conj())

    def vec4(self):
        return unembed(self.matrix(), "Y")

    def moved(self, b):
        w1 = b.rep.a * self.v1 + b.rep.b * self.v2
        w2 = b.rep.c * self.v1 + b.rep.d * self.v2
        return _GCBoundaryPoint(w1, w2)

    def isclose(self, other, tol=1e-9):
        if self.lam != other.lam:
            return False
        cross = self.v1 * other.v2 - self.v2 * other.v1
        norm = max(1.0, *(abs(u) for z in (self.v1, self.v2, other.v1, other.v2)
                          for u in (z.re, z.im)))
        return math.hypot(cross.re, cross.im) <= tol * norm * norm


def _ref_null_branch(z):
    if z.lam != -1:
        return 0
    scale = max(abs(z.re), abs(z.im), 1e-300)
    if abs(z.re - z.im) <= 1e-12 * scale:
        return 1
    if abs(z.re + z.im) <= 1e-12 * scale:
        return -1
    return 0


def _ref_boundary_from_matrix(m):
    lam = m.lam
    scale = math.sqrt(m.frob_sq())
    if scale == 0.0:
        raise Degenerate("zero matrix is not a boundary point")

    def snapped(z):
        return gc(0, 0, lam) if math.hypot(z.re, z.im) <= 1e-11 * scale else z

    a, b, c, d = (snapped(e) for e in m.entries)
    cols = []
    if a.is_unit():
        cols.append((abs(a.mod_sq()), (a, c)))
    if d.is_unit():
        cols.append((abs(d.mod_sq()), (b, d)))
    if cols:
        _best, (v1, v2) = max(cols, key=lambda item: item[0])
        return _GCBoundaryPoint(v1, v2)
    br = _ref_null_branch(b)
    if lam == -1 and br != 0 and math.hypot(b.re, b.im) > 1e-11 * scale:
        return _GCBoundaryPoint(GC(1.0, float(br), lam), GC(1.0, -float(br), lam))
    raise Degenerate("matrix is not a nonzero rank-1 hermitian class")


def _ref_det2(u, w):
    return u.v1 * w.v2 - u.v2 * w.v1


def _ref_boundary_normalize(y1, y2, y3):
    d12, d32, d13 = _ref_det2(y1, y2), _ref_det2(y3, y2), _ref_det2(y1, y3)
    for d in (d12, d32, d13):
        if not d.is_unit():
            raise NotSpacelikeConnected("a pair of the triple is not spacelike-connected")
    lam_inv = d12.inv()
    lmb, mu = d32 * lam_inv, d13 * lam_inv
    return Isometry(Mat2(lmb * y1.v1, mu * y2.v1, lmb * y1.v2, mu * y2.v2)).inv()


def _ref_cross_ratio(y1, y2, y3, y4):
    w = y4.moved(_ref_boundary_normalize(y1, y2, y3))
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


def _hexed(value):
    """Every number of a result as (type name, float.hex), so ints, signed
    zeros, NaNs and last bits all count."""
    if isinstance(value, (BoundaryPoint, _GCBoundaryPoint)):
        return ("boundary", _hexed([value.v1, value.v2]))
    if isinstance(value, GC):
        return [_hexed(value.re), _hexed(value.im), value.lam]
    if isinstance(value, Isometry):
        return _hexed(value.rep)
    if isinstance(value, Mat2):
        return [_hexed(x) for x in value.flat] + [value.lam]
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_hexed(v) for v in value]
    if isinstance(value, bool):
        return value
    return (type(value).__name__, float(value).hex())


def _hexed_or_error(fn, *args):
    try:
        return _hexed(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return type(exc)


def _draw_entry(rng):
    """An int, a signed zero, a NaN or an infinity now and then, or a float
    of either sign from 1e-8 to 1e8 (entries far below the others snap)."""
    kind = rng.integers(16)
    if kind == 0:
        return int(rng.integers(-3, 4))
    if kind == 1:
        return float(rng.choice([0.0, -0.0]))
    if kind == 2:
        return float(rng.choice([math.nan, math.inf, -math.inf]))
    return float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-8, 8))


def _boundary_entry_pairs(rng, lam):
    """(v1, v2) entry pairs: random draws, both null branches and zero
    divisors at lam = -1, nilpotents at lam = 0, entries at the 1e-11 snap
    cut, the zero vector and int entries."""
    pairs = []
    for _ in range(120):
        nums = [_draw_entry(rng) for _ in range(4)]
        pairs.append((GC(nums[0], nums[1], lam), GC(nums[2], nums[3], lam)))
    for _ in range(20):
        x, y = (float(v) for v in rng.uniform(0.5, 2.0, 2))
        e1, e2 = (float(v) for v in rng.choice([-1.0, 1.0], 2))
        pairs.append((GC(x, e1 * x, lam), GC(y, e2 * y, lam)))  # null branches at lam = -1
        pairs.append((GC(x, e1 * x, lam), GC(y, -e1 * y * (1.0 + 1e-13), lam)))
        pairs.append((GC(0.0, x, lam), GC(y, e2 * x, lam)))  # nilpotent first entry at lam = 0
        for f in (0.9e-11, 1.1e-11):
            pairs.append((GC(f * x, -f * y, lam), GC(y, e2 * x, lam)))
            pairs.append((GC(x, e1 * y, lam), GC(-f * y, f * x, lam)))
    pairs += [(GC(0, 0, lam), GC(0.0, -0.0, lam)), (GC(1, 0, lam), GC(0, 0, lam)),
              (GC(0, -0.0, lam), GC(2, 1, lam)), (GC(3, 1, lam), GC(-2, 5, lam))]
    # signed zeros and int zeros against each other, where only the sign of
    # a zero product tells two evaluation orders apart
    zeros = (0, 0.0, -0.0)
    for re1, im1, re2, im2 in itertools.product((-3.0, 2, 0.0), zeros, (-2, 1.5), zeros):
        pairs += [(GC(re1, im1, lam), GC(re2, im2, lam)), (GC(re2, im2, lam), GC(re1, im1, lam))]
    return pairs


def _boundary_test_matrices(rng, lam):
    """Matrices of small ints, where the two diagonal units tie often, and
    matrices whose entries spread over 16 decades, where an entry falls
    below the snap cut of the matrix but not of its column."""
    out = []
    for _ in range(60):
        out.append(Mat2.from_flat([int(x) for x in rng.integers(-2, 3, 8)], lam))
        spread = rng.normal(size=8) * 10.0 ** rng.uniform(-13, 3, 8)
        out.append(Mat2.from_flat([float(x) for x in spread], lam))
    return out


def test_flat_boundary_point_matches_gc_entry_reference():
    """At lam = 0 and 1, `BoundaryPoint` and every function of the ideal
    boundary, written on four numbers, match the `GC`-entry reference bit
    for bit and raise the same error classes.  (At lam = -1 a boundary point
    keeps both null components; see the null-component tests below.)"""
    rng = np.random.default_rng(1313)
    seen = {"built": 0, "raises": 0, "normalize": 0, "cross_ratio": 0}
    for lam in (0, 1):
        built = []
        for v1, v2 in _boundary_entry_pairs(rng, lam):
            got = _hexed_or_error(BoundaryPoint, v1, v2)
            assert got == _hexed_or_error(_GCBoundaryPoint, v1, v2), (lam, v1, v2)
            if isinstance(got, type):
                seen["raises"] += 1
                continue
            seen["built"] += 1
            built.append((BoundaryPoint(v1, v2), _GCBoundaryPoint(v1, v2)))
        a = random_isometry(rng, lam)
        built += [(bp.moved(a), ref.moved(a)) for bp, ref in (
            (BoundaryPoint.infinity(lam), _GCBoundaryPoint(gc(1, 0, lam), gc(0, 0, lam))),
            (BoundaryPoint.zero(lam), _GCBoundaryPoint(gc(0, 0, lam), gc(1, 0, lam))),
            (BoundaryPoint.one(lam), _GCBoundaryPoint(gc(1, 0, lam), gc(1, 0, lam))))]
        for bp, ref in built:
            for name in ("value", "matrix", "vec4"):
                assert (_hexed_or_error(getattr(bp, name))
                        == _hexed_or_error(getattr(ref, name))), (name, lam, ref)
            b = random_isometry(rng, lam)
            assert _hexed_or_error(bp.moved, b) == _hexed_or_error(ref.moved, b), (lam, ref)
            m = ref.matrix()
            for mat in (m, m + Mat2.from_flat([_draw_entry(rng) * 1e-9 for _ in range(8)], lam)):
                assert (_hexed_or_error(boundary_from_matrix, mat)
                        == _hexed_or_error(_ref_boundary_from_matrix, mat)), (lam, mat)
        for _ in range(200):
            picks = [built[k] for k in rng.integers(len(built), size=4)]
            new, ref = [p[0] for p in picks], [p[1] for p in picks]
            assert (_hexed_or_error(new[0].isclose, new[1])
                    == _hexed_or_error(ref[0].isclose, ref[1]))
            assert new[0].isclose(new[0]) == ref[0].isclose(ref[0])
            assert (_hexed_or_error(is_spacelike_connected, new[0], new[1])
                    == _hexed_or_error(lambda u, w: _ref_det2(u, w).is_unit(), ref[0], ref[1]))
            got = _hexed_or_error(boundary_normalize, *new[:3])
            assert got == _hexed_or_error(_ref_boundary_normalize, *ref[:3]), (lam, ref)
            seen["normalize"] += not isinstance(got, type)
            got = _hexed_or_error(cross_ratio, *new)
            assert got == _hexed_or_error(_ref_cross_ratio, *ref), (lam, ref)
            seen["cross_ratio"] += not isinstance(got, type)
        for m in _boundary_test_matrices(rng, lam) + [
                Mat2.from_flat([_draw_entry(rng) for _ in range(8)], lam) for _ in range(40)]:
            assert (_hexed_or_error(boundary_from_matrix, m)
                    == _hexed_or_error(_ref_boundary_from_matrix, m)), (lam, m)
    assert min(seen.values()) > 20, seen


def test_flat_boundary_point_keeps_equality_hash_repr_and_errors():
    """Equality, hash, repr, pickling and immutability act on the four
    numbers as on the pair of `GC`s (v1, v2): against the `GC`-entry
    reference at lam = 0 and 1, and against `v1` and `v2` at every lam."""
    rng = np.random.default_rng(1414)
    for lam in LAMBDAS:
        for v1, v2 in ((gc(0.3, -1.2, lam), gc(2, 0.5, lam)), (GC(1, 0, lam), GC(0, 0, lam)),
                       (GC(2.0, 2.0, lam), GC(3.0, -3.0, lam))):
            try:
                bp = BoundaryPoint(v1, v2)
            except Degenerate:
                continue
            if lam != -1:
                ref = _GCBoundaryPoint(v1, v2)
                assert repr(bp) == repr(ref).removeprefix("_GC")
                assert hash(bp) == hash(ref)
                assert (bp.v1, bp.v2, bp.lam) == (ref.v1, ref.v2, ref.lam)
                assert bp != ref
            assert repr(bp) == f"BoundaryPoint(v1={bp.v1!r}, v2={bp.v2!r})"
            assert hash(bp) == hash((bp.v1, bp.v2))
            assert bp.flat == (bp.v1.re, bp.v1.im, bp.v2.re, bp.v2.im)
            twin = BoundaryPoint(bp.v1, bp.v2)
            assert twin == bp and hash(twin) == hash(bp) and twin is not bp
            assert bp != BoundaryPoint(bp.v1, bp.v2 + 1.0)
            assert copy.deepcopy(bp) == bp and pickle.loads(pickle.dumps(bp)) == bp
            for name in ("v1", "flat", "lam"):
                with pytest.raises(AttributeError):
                    setattr(bp, name, 0)
    # signed zeros and ints compare and hash as numbers, as `GC`s do
    ints = BoundaryPoint(GC(0, 1, 1), GC(1, 0, 1))
    floats = BoundaryPoint(GC(0.0, 1.0, 1), GC(1.0, -0.0, 1))
    assert ints == floats and hash(ints) == hash(floats)
    with pytest.raises(DomainError):
        BoundaryPoint(gc(1, 0, 1), gc(1, 0, 0))
    with pytest.raises(DomainError):
        BoundaryPoint.infinity(2)
    far = [BoundaryPoint.infinity(0), BoundaryPoint.zero(0), BoundaryPoint.one(0)]
    near = BoundaryPoint.from_value(gc(0.5, 0.2, 1))
    for call in (lambda: near.moved(random_isometry(rng, 0)),
                 lambda: boundary_normalize(near, *far[1:]),
                 lambda: boundary_normalize(*far[:2], near),
                 lambda: cross_ratio(*far, near),
                 lambda: is_spacelike_connected(near, far[0])):
        with pytest.raises(LambdaMismatch):
            call()
    assert not near.isclose(far[0])


# -- null components at lam = -1 ---------------------------------------------------------

_EPS = 2.0 ** -52


def _exact_null_pairs(flat):
    """The null components [v1+ : v2+] and [v1- : v2-] of four numbers, as
    `BoundaryPoint` reads them (re +- im, rounded once), each scaled exactly
    by its entry of larger magnitude."""
    r1, i1, r2, i2 = flat
    out = []
    for p, q in ((r1 + i1, r2 + i2), (r1 - i1, r2 - i2)):
        s = Fraction(q if abs(q) > abs(p) else p)
        out.append((Fraction(p) / s, Fraction(q) / s))
    return out


def _stored_null_pairs(bp):
    r1, i1, r2, i2 = bp.flat
    return ((r1 + i1, r2 + i2), (r1 - i1, r2 - i2))


def _null_error(bp, exact) -> float:
    return max(abs(Fraction(g) - w) for got, want in zip(_stored_null_pairs(bp), exact)
               for g, w in zip(got, want))


def _null_entries(rng, decades=6.0):
    """Null components of either sign from 10^-decades to 10^decades, as
    (re, im) pairs: the two components of one entry can lie twice that many
    decades apart."""
    comps = rng.choice([-1.0, 1.0], 4) * 10.0 ** rng.uniform(-decades, decades, 4)
    (p1, p2, m1, m2) = comps.tolist()
    return GC(0.5 * (p1 + m1), 0.5 * (p1 - m1), -1), GC(0.5 * (p2 + m2), 0.5 * (p2 - m2), -1)


def test_null_boundary_points_keep_both_components():
    """At lam = -1 a boundary point is a pair of real projective points, its
    null components.  Its four numbers hold each pair scaled by its entry of
    larger magnitude, so re +- im gives each component within an ulp of 1
    of the exact ratio (`Fraction` arithmetic), however far apart the scales
    of the two components of one entry are.  `moved` moves each pair by the
    matching null component of the isometry, within 4 ulps of 1 times the
    condition of that real product (the largest row sum of |A| over the
    largest entry of A v); `boundary_from_matrix` reads both back
    from v v^dag; `boundary_normalize` sends a triple to (infinity, 0, 1);
    and the cross-ratio is the two real cross-ratios.  A null component that
    is zero is not a boundary point."""
    rng = np.random.default_rng(4444)
    points = []
    for _ in range(200):
        v1, v2 = _null_entries(rng)
        bp = BoundaryPoint(v1, v2)
        assert all(max(abs(x) for x in pair) == 1.0 for pair in _stored_null_pairs(bp))
        assert _null_error(bp, _exact_null_pairs((v1.re, v1.im, v2.re, v2.im))) <= _EPS
        points.append(bp)
        a = random_isometry(rng, -1)
        moved = bp.moved(a)
        f = a.rep.flat
        exact, cond = [], 0.0
        for sgn, (x, y) in zip((1, -1), _stored_null_pairs(bp)):
            ea, eb, ec, ed = (Fraction(f[2 * j]) + sgn * Fraction(f[2 * j + 1]) for j in range(4))
            x, y = Fraction(x), Fraction(y)
            u, w = ea * x + eb * y, ec * x + ed * y
            s = w if abs(w) > abs(u) else u
            exact.append((u / s, w / s))
            cond = max(cond, float(max(abs(ea) + abs(eb), abs(ec) + abs(ed)) / abs(s)))
        assert _null_error(moved, exact) <= 4 * _EPS * cond
        back = boundary_from_matrix(bp.matrix())
        assert back.isclose(bp, 1e-12) and _null_error(back, _exact_null_pairs(bp.flat)) <= 1e-12
    # The normalizer is stored as a `Mat2` on (re, im), whose null
    # components keep only an ulp of the larger one (ROADMAP item 1, step
    # 2), so it is checked on points whose components span 2 decades.
    normalized = 0
    moderate = [BoundaryPoint(*_null_entries(rng, 1.0)) for _ in range(60)]
    for _ in range(100):
        y1, y2, y3 = (moderate[k] for k in rng.choice(len(moderate), 3, replace=False))
        try:
            b = boundary_normalize(y1, y2, y3)
        except NormalizationFailure:
            # The triple runs in opposite orders in its two null
            # components: only a matrix with det+ det- < 0 normalizes it.
            continue
        normalized += 1
        for y, want in ((y1, BoundaryPoint.infinity(-1)), (y2, BoundaryPoint.zero(-1)),
                        (y3, BoundaryPoint.one(-1))):
            assert act(b, y).isclose(want, 1e-12)
    for _ in range(100):
        y1, y2, y3, y4 = (points[k] for k in rng.choice(len(points), 4, replace=False))
        z = cross_ratio(y1, y2, y3, y4)
        pairs = [[(Fraction(p), Fraction(q)) for p, q in _stored_null_pairs(y)]
                 for y in (y1, y2, y3, y4)]

        def minor(s, t):
            return s[0] * t[1] - s[1] * t[0]

        wants = [minor(v, w) * minor(x, u) / (minor(v, u) * minor(x, w))
                 for u, w, x, v in zip(*pairs)]
        for zk, want, zk_gc in zip(_null_cross_ratios(y1, y2, y3, y4), wants,
                                   (z.re + z.im, z.re - z.im)):
            assert abs(Fraction(zk) - want) <= 1e-9 * abs(want), (zk, float(want))
            # the GC holds (re, im): each component to an ulp of the larger
            assert abs(Fraction(zk_gc) - want) <= 1e-14 * max(map(abs, wants))
    assert normalized >= 30, normalized
    with pytest.raises(Degenerate):
        BoundaryPoint(GC(1.0, 1.0, -1), GC(2.0, 2.0, -1))  # [0 : 0] in the minus component
    with pytest.raises(Degenerate):
        BoundaryPoint(GC(0.0, 0.0, -1), GC(-0.0, 0.0, -1))
