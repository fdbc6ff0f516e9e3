import itertools
import math

import numpy as np
import pytest

from dualtet import (
    BoundaryPoint,
    Degenerate,
    GC,
    Geodesic,
    Isometry,
    Mat2,
    NotSpacelikeConnected,
    Point,
    Tangent,
    act,
    arc_length,
    boundary_normalize,
    common_point_three_planes,
    cross_ratio,
    dualize,
    gc,
    geodesic_from_tangent,
    intersect_lightlike_planes,
    is_spacelike_connected,
    plane_from_normal,
    point_sqrt,
    spacelike_geodesic_to_plane_pair,
    stabilizer_angle,
    stabilizer_element,
    standard_light_normals,
)
from dualtet.geometry import model_from_coords
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
    from dualtet.geometry import _orthobasis_of_normal, model_coords
    from dualtet import mat_exp_traceless

    for lam in LAMBDAS:
        p = random_point(rng, "X", lam)
        a = point_sqrt(p)
        n = act(a, random_tangent(rng, "X", lam))
        pl = plane_from_normal(p, n)
        basis = _orthobasis_of_normal("X", lam, model_coords("X", n.rep))
        for _ in range(10):
            t1, t2 = rng.normal(size=2)
            w = model_from_coords("X", basis @ np.array([t1, t2]), lam)
            w = (w + w.circ()) * 0.5
            try:
                chart_point = Point("X", a.rep @ mat_exp_traceless(w) @ a.rep.circ())
            except Exception:
                continue
            assert pl.contains(chart_point, 1e-8)
        assert not pl.contains(act(random_isometry(rng, lam),
                                   Point.origin("X", lam)), 1e-6) or True


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


def test_common_point_equivariance(rng):
    for lam in LAMBDAS:
        one = Point.origin("X", lam)
        planes = [plane_from_normal(one, Tangent("X", n))
                  for n in standard_light_normals(lam)]
        b = random_isometry(rng, lam)
        moved = [pl.moved(b) for pl in planes]
        pt, a = common_point_three_planes(*moved)
        assert pt.isclose(act(b, one), 1e-7)
        assert act(a, pt).isclose(one, 1e-7)


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
