import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from dualtet import (
    DomainError,
    GC,
    Isometry,
    Mat2,
    Point,
    Tangent,
    act,
    causal_type,
    embed,
    exp_ell,
    exp_point,
    gc,
    involution,
    mat_exp_traceless,
    normalize_tangent,
    point_sqrt,
    quadric_value,
    tangent_metric,
    unembed,
)
from dualtet.errors import BaseMismatch, NormalizationFailure
from dualtet.geometry import geodesic_from_tangent, stabilizer_element
from dualtet.matmodel import _model_inner
from conftest import LAMBDAS, random_isometry, random_point, random_tangent, taylor_exp


def rand_mat(rng, lam):
    return Mat2(*(GC(rng.normal(), rng.normal(), lam) for _ in range(4)))


def mat2s(lam):
    entry = st.floats(-10, 10, allow_nan=False)
    return st.builds(lambda *vals: Mat2(*(GC(vals[2 * k], vals[2 * k + 1], lam)
                                          for k in range(4))), *([entry] * 8))


mat2_pairs = st.sampled_from([-1, 0, 1]).flatmap(
    lambda lam: st.tuples(mat2s(lam), mat2s(lam)))


# -- involutions ----------------------------------------------------------------


def test_involutions_on_identity(rng):
    for lam in LAMBDAS:
        one = Mat2.identity(lam)
        assert involution(one, "X").isclose(one)
        assert involution(one, "Y").isclose(one)


def test_circ_explicit_form():
    m = Mat2(gc(1, 2, -1), gc(3, 4, -1), gc(5, 6, -1), gc(7, 8, -1))
    c = m.circ()
    assert c.a.isclose(m.d.conj())
    assert c.b.isclose(-m.b.conj())
    assert c.c.isclose(-m.c.conj())
    assert c.d.isclose(m.a.conj())


@settings(max_examples=150)
@given(mat2_pairs)
def test_involutions_are_involutive_and_antimultiplicative(pair):
    m, n = pair
    for space in ("X", "Y"):
        assert involution(involution(m, space), space).isclose(m)
        lhs = involution(m @ n, space)
        rhs = involution(n, space) @ involution(m, space)
        assert lhs.isclose(rhs, 1e-10)


@settings(max_examples=100)
@given(st.sampled_from([-1, 0, 1]),
       st.lists(st.floats(-5, 5, allow_nan=False), min_size=4, max_size=4))
def test_embed_hermitian_fixed_spaces(lam, v):
    mx = embed(v, "X", lam)
    my = embed(v, "Y", lam)
    assert mx.circ().isclose(mx)
    assert my.dag().isclose(my)


# -- embeddings -----------------------------------------------------------------


def test_embed_origin_is_identity():
    for lam in LAMBDAS:
        assert embed([1, 0, 0, 0], "Y", lam).isclose(Mat2.identity(lam))


def test_embed_dual_family_display():
    y1, y2, y3, y4 = 0.3, -1.2, 0.5, 0.8
    m = embed([y1, y2, y3, y4], "Y", -1)
    assert m.a.isclose(gc(y1 + y3, 0, -1))
    assert m.b.isclose(gc(y4, y2, -1))
    assert m.c.isclose(gc(y4, -y2, -1))
    assert m.d.isclose(gc(y1 - y3, 0, -1))


def test_embed_round_trip(rng):
    for lam in LAMBDAS:
        for space in ("X", "Y"):
            v = rng.normal(size=4)
            assert np.allclose(unembed(embed(v, space, lam), space), v, atol=1e-14)


def test_embed_determinant_is_minus_ambient_form(rng):
    for lam in LAMBDAS:
        v = rng.normal(size=4)
        det = embed(v, "Y", lam).det()
        ambient = -v[0] ** 2 + lam * v[1] ** 2 + v[2] ** 2 + v[3] ** 2
        assert det.re == pytest.approx(-ambient, abs=1e-12)
        assert det.im == pytest.approx(0.0, abs=1e-12)
        assert quadric_value(v, "Y", lam) == pytest.approx(-ambient, abs=1e-12)


def test_quadric_membership_iff_positive_det(rng):
    for lam in LAMBDAS:
        hits = 0
        for _ in range(200):
            v = rng.normal(size=4)
            q = quadric_value(v, "Y", lam)
            if q > 1e-9:
                hits += 1
                Point.from_vector(v, "Y", lam)
            elif q < -1e-9:
                with pytest.raises(NormalizationFailure):
                    Point.from_vector(v, "Y", lam)
        assert hits > 0


# -- group action ----------------------------------------------------------------


def test_act_identity_fixes_points(rng):
    for lam in LAMBDAS:
        p = random_point(rng, "X", lam)
        assert act(Isometry.identity(lam), p).isclose(p)


def test_hermitian_isometry_squares_to_its_point(rng):
    for lam in LAMBDAS:
        p = random_point(rng, "X", lam)
        a = point_sqrt(p)
        assert a.rep.circ().isclose(a.rep, 1e-9)
        # A > origin = A A^circ = A^2 up to scale
        sq = a.rep @ a.rep
        assert Point("X", sq).isclose(p)


def test_act_is_a_group_action(rng):
    for lam in LAMBDAS:
        for space in ("X", "Y"):
            a, b = random_isometry(rng, lam), random_isometry(rng, lam)
            p = random_point(rng, space, lam)
            assert act(a @ b, p).isclose(act(a, act(b, p)), 1e-8)


def test_act_preserves_hermitian_class_and_det_sign(rng):
    for lam in LAMBDAS:
        p = random_point(rng, "Y", lam)
        a = random_isometry(rng, lam)
        q = act(a, p)
        assert q.rep.dag().isclose(q.rep, 1e-8)
        assert q.rep.det().re > 0


# -- point square roots ------------------------------------------------------------


def test_point_sqrt_origin_is_identity():
    for lam in LAMBDAS:
        one = Point.origin("X", lam)
        assert point_sqrt(one).projectively_equal(Isometry.identity(lam))


def test_point_sqrt_diagonal_example():
    for lam in LAMBDAS:
        m = Mat2(exp_ell(lam, 0.8), gc(0, 0, lam), gc(0, 0, lam), exp_ell(lam, -0.8))
        p = Point("X", m)
        a = point_sqrt(p)
        want = Isometry(Mat2(exp_ell(lam, 0.4), gc(0, 0, lam), gc(0, 0, lam),
                             exp_ell(lam, -0.4)))
        assert a.projectively_equal(want, 1e-9)


def test_point_sqrt_round_trip(rng):
    for lam in LAMBDAS:
        for space in ("X", "Y"):
            p = random_point(rng, space, lam)
            assert act(point_sqrt(p), Point.origin(space, lam)).isclose(p)


# -- tangents, causal types, exponential ---------------------------------------------


def test_causal_type_examples():
    for lam in LAMBDAS:
        spacelike = Tangent("X", Mat2(gc(0, 1, lam), gc(0, 0, lam), gc(0, 0, lam),
                                      gc(0, -1, lam)))
        assert causal_type(spacelike) == 1
        assert spacelike.norm_sq() == pytest.approx(1.0)
        lightlike = Tangent("X", Mat2(gc(0, 0, lam), gc(0, 0, lam), gc(0, 1, lam),
                                      gc(0, 0, lam)))
        assert causal_type(lightlike) == 0
    # Riemannian dual family: every nonzero direction is spacelike.
    rng = np.random.default_rng(5)
    for _ in range(50):
        t = random_tangent(rng, "Y", 1)
        assert causal_type(t) == 1


def test_normalize_tangent(rng):
    for lam in LAMBDAS:
        t = random_tangent(rng, "X", lam)
        scaled = Tangent("X", t.rep * 3.7, t.base)
        n = normalize_tangent(scaled)
        assert abs(abs(n.norm_sq()) - 1.0) < 1e-12


def test_exp_point_zero_is_origin(rng):
    for lam in LAMBDAS:
        t = random_tangent(rng, "X", lam)
        assert exp_point(0.0, t).isclose(Point.origin("X", lam))


def test_exp_point_diagonal_spacelike():
    for lam in LAMBDAS:
        x = Mat2(gc(0, 1, lam), gc(0, 0, lam), gc(0, 0, lam), gc(0, -1, lam))
        p = exp_point(0.9, Tangent("X", x))
        want = Mat2(exp_ell(lam, 0.9), gc(0, 0, lam), gc(0, 0, lam), exp_ell(lam, -0.9))
        assert p.isclose(Point("X", want))


def test_exp_point_matches_taylor_series(rng):
    for lam in LAMBDAS:
        for space in ("X", "Y"):
            for _ in range(10):
                t = random_tangent(rng, space, lam)
                theta = rng.uniform(0.0, 2.0)
                if space == "X" and lam * 1 > 0 and theta >= 2 * math.pi:
                    continue
                p = exp_point(theta, t)
                half = taylor_exp(t.rep * (0.5 * theta))
                other = half.circ() if space == "X" else half.dag()
                assert p.isclose(Point(space, half @ other), 1e-10)


def test_exp_point_domain_errors(rng):
    t = random_tangent(np.random.default_rng(0), "X", 1)  # circular family
    with pytest.raises(DomainError):
        exp_point(-0.1, t)
    with pytest.raises(DomainError):
        exp_point(2 * math.pi, t)
    with pytest.raises(DomainError):
        exp_point(1.0, Tangent("X", t.rep * 2.0))  # not normalized


# -- tangent metric ------------------------------------------------------------------


def test_metric_of_standard_lightlike_pair():
    from dualtet import standard_light_normals

    for lam in LAMBDAS:
        n1, _n2, _n3 = standard_light_normals(lam)
        x = Mat2(gc(0, 1, lam), gc(0, 0, lam), gc(0, 0, lam), gc(0, -1, lam))
        t_n = Tangent("X", n1)
        t_x = Tangent("X", x)
        assert tangent_metric(t_n, t_x) == pytest.approx(0.0, abs=1e-12)
        assert tangent_metric(t_x, t_x) == pytest.approx(1.0)


def test_metric_invariance_under_transport(rng):
    for lam in LAMBDAS:
        for space in ("X", "Y"):
            a = random_isometry(rng, lam)
            t1 = random_tangent(rng, space, lam)
            t2 = random_tangent(rng, space, lam)
            moved1, moved2 = act(a, t1), act(a, t2)
            assert tangent_metric(moved1, moved2) == pytest.approx(
                tangent_metric(t1, t2), abs=1e-9)


def test_metric_base_mismatch(rng):
    lam = 0
    t1 = random_tangent(rng, "X", lam)
    a = random_isometry(rng, lam)
    t2 = act(a, random_tangent(rng, "X", lam))
    with pytest.raises(BaseMismatch):
        tangent_metric(t1, t2)


def test_metric_well_defined_across_frames(rng):
    # Same base point reached by two isometries differing by a stabilizer.
    for lam in LAMBDAS:
        a = random_isometry(rng, lam)
        u = Isometry(Mat2.from_real([[math.cos(0.4), -math.sin(0.4)],
                                     [math.sin(0.4), math.cos(0.4)]], lam))
        t1 = act(a, random_tangent(rng, "X", lam))
        rep2 = u.rep.inv() @ t1.rep @ u.rep
        rep2 = (rep2 + rep2.circ()) * 0.5
        t2 = Tangent("X", rep2.traceless(), a @ u)
        assert t2.base_point().isclose(t1.base_point(), 1e-8)
        assert tangent_metric(t1, t1) == pytest.approx(tangent_metric(t2, t2), abs=1e-8)


def test_metric_transports_between_frames_of_one_point(rng):
    # Bases a and a @ s reach the same point when s fixes the origin; the
    # second model vector, pulled back by s, is transported back before pairing.
    for lam in LAMBDAS:
        for space in ("X", "Y"):
            for _ in range(10):
                g = geodesic_from_tangent(random_tangent(rng, space, lam))
                s = stabilizer_element(g, 0.0, 0.8, 0.3)
                a = random_isometry(rng, lam)
                r1 = random_tangent(rng, space, lam).rep
                r2 = random_tangent(rng, space, lam).rep
                t1 = Tangent(space, r1, a)
                t2 = Tangent(space, s.rep.inv() @ r2 @ s.rep, a @ s)
                assert not t1.base.projectively_equal(t2.base)
                assert tangent_metric(t1, t2) == pytest.approx(
                    _model_inner(space, r1, r2), rel=1e-11, abs=1e-12)


def test_mat_exp_traceless_lightlike_is_affine():
    for lam in LAMBDAS:
        n = Mat2(gc(0, 0, lam), gc(0, 0, lam), gc(0, 1, lam), gc(0, 0, lam))
        e = mat_exp_traceless(n * 1.7)
        assert e.isclose(Mat2.identity(lam) + n * 1.7, 1e-12)
