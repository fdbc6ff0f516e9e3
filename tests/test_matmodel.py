import copy
import math
import pickle
from dataclasses import FrozenInstanceError, dataclass

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
from dualtet.errors import BaseMismatch, LambdaMismatch, NormalizationFailure, ZeroDivisor
from dualtet.geometry import geodesic_from_tangent, model_from_coords, stabilizer_element
from dualtet.matmodel import (
    _canonical,
    _det,
    _frob_sq,
    _is_hermitian,
    _model_inner,
    _neg,
    _point,
    _scaled,
    _unembed,
    is_hermitian,
    push,
)
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


@pytest.mark.parametrize("lam", LAMBDAS)
def test_isometry_failure_states_the_test_it_failed(lam):
    """|det|^2 = 1 is positive; diag(1e7, 1e-7) fails only the bound
    1e-24 max(1, frob^2)^2 = 1e4, and the message says so.  A singular
    matrix fails the compensated determinant's test (0, inf)."""
    from dualtet.matmodel import Mat2, _abs_det

    stretched = Mat2.from_flat((1e7, 0.0, 0.0, 0.0, 0.0, 0.0, 1e-7, 0.0), lam)
    with pytest.raises(NormalizationFailure,
                       match=r"\|det\|\^2 = 1\.0 is not above 1e-24 max\(1, \|A\|_F\^2\)\^2 "
                             r"= 9999\.99999999999\d*: not an isometry"):
        Isometry(stretched)
    with pytest.raises(NormalizationFailure, match=r"\|det\|\^2 = 0\.0 is not in \(0, inf\)"):
        _abs_det((1.0, 0.0, 2.0, 0.0, 1.0, 0.0, 2.0, 0.0), lam)


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


def test_exp_point_overflow_is_a_domain_error():
    """theta is unbounded along a spacelike direction of X at lam = -1, and
    cosh overflows past about 710."""
    t = Tangent("X", model_from_coords("X", (1.0, 0.0, 0.0), -1))
    assert causal_type(t) == 1 and t.norm_sq() == 1.0
    with pytest.raises(DomainError, match="overflows"):
        exp_point(800.0, t)
    with pytest.raises(DomainError, match="overflows"):
        mat_exp_traceless(t.rep * 711.0)
    # below the overflow the exponential is the plain cosh / sinh pair
    m = mat_exp_traceless(t.rep * 700.0)
    assert m.flat[0] == math.cosh(700.0) and m.flat[1] == 0.0 + 700.0 * (math.sinh(700.0) / 700.0)


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


# -- flat storage against GC entries ----------------------------------------------


@dataclass(frozen=True)
class _GCMat2:
    """Reference for `Mat2`: the matrix as four `GC` entries, each operation
    written with `GC` arithmetic.  The flat storage must match it bit for bit."""

    a: GC
    b: GC
    c: GC
    d: GC

    def __post_init__(self):
        if any(e.lam != self.a.lam for e in (self.b, self.c, self.d)):
            raise LambdaMismatch("matrix entries carry mixed curvature tags")

    @property
    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __add__(self, other):
        return _GCMat2(*(x + y for x, y in zip(self.entries, other.entries)))

    def __sub__(self, other):
        return _GCMat2(*(x - y for x, y in zip(self.entries, other.entries)))

    def __neg__(self):
        return _GCMat2(*(-x for x in self.entries))

    def __mul__(self, s):
        return _GCMat2(*(x * s for x in self.entries))

    __rmul__ = __mul__

    def __matmul__(self, other):
        return _GCMat2(self.a * other.a + self.b * other.c, self.a * other.b + self.b * other.d,
                       self.c * other.a + self.d * other.c, self.c * other.b + self.d * other.d)

    def det(self):
        return self.a * self.d - self.b * self.c

    def tr(self):
        return self.a + self.d

    def conj(self):
        return _GCMat2(*(x.conj() for x in self.entries))

    def circ(self):
        return _GCMat2(self.d.conj(), -self.b.conj(), -self.c.conj(), self.a.conj())

    def dag(self):
        return _GCMat2(self.a.conj(), self.c.conj(), self.b.conj(), self.d.conj())

    def adj(self):
        return _GCMat2(self.d, -self.b, -self.c, self.a)

    def inv(self):
        return self.adj() * self.det().inv()

    def traceless(self):
        h = self.tr() * 0.5
        return _GCMat2(self.a - h, self.b, self.c, self.d - h)

    def re_rows(self):
        return [[self.a.re, self.b.re], [self.c.re, self.d.re]]

    def im_rows(self):
        return [[self.a.im, self.b.im], [self.c.im, self.d.im]]

    def det_im(self):
        return self.a.im * self.d.im - self.b.im * self.c.im

    def frob_sq(self):
        return sum(e.re * e.re + e.im * e.im for e in self.entries)

    def isclose(self, other, tol=1e-12):
        scale = max(1.0, math.sqrt(self.frob_sq()), math.sqrt(other.frob_sq()))
        return all(abs(x.re - y.re) <= tol * scale and abs(x.im - y.im) <= tol * scale
                   for x, y in zip(self.entries, other.entries))


def _bits(value):
    """Every number in a result as (type name, float.hex), so ints, signed
    zeros and last bits all count."""
    if isinstance(value, (Mat2, _GCMat2)):
        return [_bits(e) for e in value.entries]
    if isinstance(value, GC):
        return [_bits(value.re), _bits(value.im), value.lam]
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if isinstance(value, bool):
        return value
    return (type(value).__name__, float(value).hex())


def _outcome(fn, *args):
    try:
        return _bits(fn(*args))
    except ZeroDivisor as exc:
        return ("raises", str(exc))


def _draw_number(rng):
    """An int, a signed zero, or a float of either sign from 1e-8 to 1e8."""
    kind = rng.integers(4)
    if kind == 0:
        return int(rng.integers(-3, 4))
    if kind == 1:
        return float(rng.choice([0.0, -0.0]))
    return float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-8, 8))


_MAT2_OPS = {
    "add": lambda m, n, s, z: m + n,
    "sub": lambda m, n, s, z: m - n,
    "neg": lambda m, n, s, z: -m,
    "mul_real": lambda m, n, s, z: m * s,
    "rmul_real": lambda m, n, s, z: s * m,
    "mul_gc": lambda m, n, s, z: m * z,
    "matmul": lambda m, n, s, z: m @ n,
    "det": lambda m, n, s, z: m.det(),
    "tr": lambda m, n, s, z: m.tr(),
    "conj": lambda m, n, s, z: m.conj(),
    "circ": lambda m, n, s, z: m.circ(),
    "dag": lambda m, n, s, z: m.dag(),
    "adj": lambda m, n, s, z: m.adj(),
    "inv": lambda m, n, s, z: m.inv(),
    "traceless": lambda m, n, s, z: m.traceless(),
    "frob_sq": lambda m, n, s, z: m.frob_sq(),
    "isclose": lambda m, n, s, z: m.isclose(n),
    "isclose_self": lambda m, n, s, z: m.isclose(m + n * 1e-14),
    "re_rows": lambda m, n, s, z: m.re_rows(),
    "im_rows": lambda m, n, s, z: m.im_rows(),
    "det_im": lambda m, n, s, z: m.det_im(),
}


def test_flat_mat2_matches_gc_entries_bit_for_bit():
    rng = np.random.default_rng(1111)
    for lam in LAMBDAS:
        for _ in range(300):
            nums = [_draw_number(rng) for _ in range(18)]
            m_gc = [GC(nums[2 * k], nums[2 * k + 1], lam) for k in range(4)]
            n_gc = [GC(nums[2 * k + 8], nums[2 * k + 9], lam) for k in range(4)]
            s, z = nums[16], GC(nums[17], _draw_number(rng), lam)
            flat = (Mat2(*m_gc), Mat2(*n_gc), s, z)
            ref = (_GCMat2(*m_gc), _GCMat2(*n_gc), s, z)
            for name, op in _MAT2_OPS.items():
                assert _outcome(op, *flat) == _outcome(op, *ref), (name, lam, nums)


def test_flat_mat2_keeps_tags_immutability_and_hashing():
    m = rand_mat(np.random.default_rng(5), 1)
    other = Mat2.identity(-1)
    for op in (lambda: m + other, lambda: m - other, lambda: m @ other,
               lambda: other @ m, lambda: m * gc(2, 1, 0)):
        with pytest.raises(LambdaMismatch):
            op()
    with pytest.raises(LambdaMismatch):
        Mat2(gc(1, 0, 1), gc(0, 0, 1), gc(0, 0, 0), gc(1, 0, 1))
    for name in ("flat", "lam", "a"):
        with pytest.raises(AttributeError):
            setattr(m, name, 0)
    twin = Mat2(*m.entries)
    assert twin == m and hash(twin) == hash(m) and twin is not m
    ints = Mat2(GC(0, 1, 0), GC(2, -0.0, 0), GC(0, 0, 0), GC(1, 0, 0))
    floats = Mat2.from_flat((0.0, 1.0, 2.0, 0.0, -0.0, 0.0, 1.0, 0.0), 0)
    assert ints == floats and hash(ints) == hash(floats)
    assert m != Mat2(*m.entries[:3], m.d + 1.0)
    assert Mat2.from_flat(m.flat, 1) == m
    assert copy.deepcopy(m) == m and pickle.loads(pickle.dumps(m)) == m


def test_gc_times_mat2_defers_to_mat2():
    rng = np.random.default_rng(17)
    assert gc(2, 0, 1) * Mat2.identity(1) == Mat2.identity(1) * gc(2, 0, 1)
    for lam in LAMBDAS:
        m, z = rand_mat(rng, lam), gc(0.5, -1.5, lam)
        assert z * m == m * z
    for left, right in ((gc(2, 0, 0), Mat2.identity(1)), (Mat2.identity(1), gc(2, 0, 0))):
        with pytest.raises(LambdaMismatch):
            left * right
    for op in (lambda z: z + "x", lambda z: "x" + z, lambda z: z - "x", lambda z: "x" - z,
               lambda z: z * "x", lambda z: z / "x", lambda z: z + Mat2.identity(1)):
        with pytest.raises(TypeError):
            op(gc(1, 0, 1))


def _ref_canonical_point_rep(m, space):
    """Canonical point representative written on `Mat2` operations, the
    reference for the version on the eight numbers."""
    if not involution(m, space).isclose(m, 1e-7):
        raise NormalizationFailure(f"representative is not hermitian for space {space!r}")
    d = m.det()
    scale = max(m.frob_sq(), 1e-300)
    if abs(d.im) > 1e-7 * scale:
        raise NormalizationFailure("determinant is not real")
    if d.re <= 1e-14 * scale:
        raise NormalizationFailure(f"representative has determinant {d.re}, not above "
                                   f"1e-14 |A|_F^2 = {1e-14 * scale}")
    m = m * (1.0 / math.sqrt(d.re))
    t = m.flat[0] + m.flat[6]
    if t < 0:
        m = -m
    elif abs(t) <= 1e-12:
        for comp in unembed(m, space):
            if abs(comp) > 1e-12:
                if comp < 0:
                    m = -m
                break
    return m


def _ref_mat_exp_traceless(m):
    q = m.det()
    if abs(q.im) > 1e-9 * max(1.0, m.frob_sq()):
        raise DomainError("matrix exponential needs a real determinant here")
    r = math.sqrt(abs(q.re))
    if q.re > 1e-12:
        cc, ss = math.cos(r), math.sin(r) / r
    elif q.re < -1e-12:
        cc, ss = math.cosh(r), math.sinh(r) / r
    else:
        cc, ss = 1.0 - q.re * 0.5 + q.re * q.re / 24.0, 1.0 - q.re / 6.0 + q.re * q.re / 120.0
    return Mat2.identity(m.lam) * cc + m * ss


def _bits_or_error(fn, *args):
    try:
        return _bits(fn(*args))
    except (DomainError, LambdaMismatch, NormalizationFailure) as exc:
        return (type(exc).__name__, str(exc))


def test_flat_push_canonical_and_exp_match_mat2_route():
    """`push`, point canonicalisation, `is_hermitian` and the exponential run
    on the eight numbers; each matches its `Mat2` composition bit for bit."""
    rng = np.random.default_rng(2222)
    num = lambda: _draw_number(rng)  # noqa: E731
    for lam in LAMBDAS:
        for _ in range(200):
            a = random_isometry(rng, lam)
            m = Mat2.from_flat([num() for _ in range(8)], lam)
            for space in ("X", "Y"):
                assert _bits(push(a, m, space)) == _bits(a.rep @ m @ involution(a.rep, space))
                p, q, r, s = num(), num(), num(), num()
                # hermitian for the space, ints and signed zeros kept, at times
                # pushed off by a relative 1e-6 or given a complex determinant
                herm = ((p, q, 0, r, 0, s, p, -q) if space == "X"
                        else (p, 0, r, s, r, -s, q, 0))
                kick = rng.integers(3)
                if kick == 1:
                    herm = tuple(x * (1.0 + 1e-6 * rng.normal()) for x in herm)
                elif kick == 2:
                    herm = herm[:1] + (num(),) + herm[2:]
                h = Mat2.from_flat(herm, lam)
                for tol in (1e-7, 1e-9):
                    assert is_hermitian(h, space, tol) == involution(h, space).isclose(h, tol)
                assert (_bits_or_error(lambda: Point(space, h).rep)
                        == _bits_or_error(_ref_canonical_point_rep, h, space))
                # an exponent small enough for cosh: ints, signed zeros, floats
                small = [x if abs(x) <= 4 else math.copysign(4.0 * rng.random(), x)
                         for x in (num(), num(), num())]
                t = model_from_coords(space, small, lam) * small[0]
                for x in (t, t + rand_mat(rng, lam).traceless() * (1e-3 * kick)):
                    assert _bits_or_error(mat_exp_traceless, x) == _bits_or_error(
                        _ref_mat_exp_traceless, x)
    with pytest.raises(LambdaMismatch):
        push(Isometry.identity(1), Mat2.identity(0), "X")


def _ref_canonical_two_pass(flat, lam, space):
    """The canonical point representative as written before the squared
    entry moduli were shared: the hermitian test sums them for the matrix
    and for its image under the involution, and the scale sums them again."""
    if not _is_hermitian(flat, space, 1e-7):
        raise NormalizationFailure(f"representative is not hermitian for space {space!r}")
    d_re, d_im = _det(flat, lam)
    scale = max(_frob_sq(flat), 1e-300)
    if abs(d_im) > 1e-7 * scale:
        raise NormalizationFailure("determinant is not real")
    if d_re <= 1e-14 * scale:
        raise NormalizationFailure(f"representative has determinant {d_re}, not above "
                                   f"1e-14 |A|_F^2 = {1e-14 * scale}")
    flat = _scaled(flat, 1.0 / math.sqrt(d_re))
    t = flat[0] + flat[6]
    if t < 0:
        flat = _neg(flat)
    elif abs(t) <= 1e-12:
        for comp in _unembed(flat, space):
            if abs(comp) > 1e-12:
                if comp < 0:
                    flat = _neg(flat)
                break
    return flat


def _kicked_between_the_bounds(rng, space):
    """A hermitian matrix with a zero diagonal (X) or off-diagonal (Y) entry
    kicked to k, where the Frobenius sums of the matrix and of its image
    under the involution round apart and k lies between the two 1e-7 bounds
    they give: only the order of each sum decides the hermitian test.  None
    when the sums of the draw round alike."""
    big = 10.0 ** rng.uniform(1, 6)
    u, v, w, x = (float(y) * big for y in rng.normal(size=4))

    def kicked(k):
        return (0.0, u, 0.0, v, 0.0, w, k, -u) if space == "X" else (x, 0.0, 0.0, v, k, -v, w, 0.0)

    k = 1e-7 * big
    for _ in range(4):  # the bounds hardly move with k: a step or two settles
        flat = kicked(k)
        sq = [re * re + im * im for re, im in zip(flat[::2], flat[1::2])]
        star = (sq[3], sq[1], sq[2], sq[0]) if space == "X" else (sq[0], sq[2], sq[1], sq[3])
        low, high = sorted(1e-7 * math.sqrt(sum(s)) for s in (sq, star))
        if low < k <= high:
            return flat
        k = math.nextafter(low, math.inf)
    return None


def test_fused_canonical_matches_two_pass_reference():
    """`_canonical` computes the four squared entry moduli once; over ints,
    signed zeros, NaNs, infinities and matrices just inside and just outside
    the 1e-7 hermitian bound it matches the two-pass version bit for bit."""
    rng = np.random.default_rng(3333)

    def num():
        if rng.integers(12) == 0:
            return float(rng.choice([math.nan, math.inf, -math.inf]))
        return _draw_number(rng)

    sides = {"inside": 0, "outside": 0}
    for lam in LAMBDAS:
        for space in ("X", "Y"):
            for _ in range(300):
                p, q, r, s = num(), num(), num(), num()
                herm = ((p, q, 0, r, 0, s, p, -q) if space == "X"
                        else (p, 0, r, s, r, -s, q, 0))
                cases = [herm, tuple(num() for _ in range(8))]
                # one entry pushed off the hermitian form by (1 -+ 1e-5) times
                # the bound: just inside and just outside it
                bound = 1e-7 * max(1.0, math.sqrt(_frob_sq(herm)))
                for f in (1.0 - 1e-5, 1.0 + 1e-5):
                    kicked = list(herm)
                    kicked[6 if space == "X" else 4] += f * bound
                    cases.append(tuple(kicked))
                for flat in cases:
                    got = _bits_or_error(_canonical, flat, lam, space)
                    assert got == _bits_or_error(_ref_canonical_two_pass, flat, lam, space), (
                        lam, space, flat)
                    if flat in cases[2:] and math.isfinite(bound):
                        hermitian = _is_hermitian(flat, space, 1e-7)
                        sides["inside" if hermitian else "outside"] += 1
            between = [_kicked_between_the_bounds(rng, space) for _ in range(1500)]
            between = [flat for flat in between if flat is not None]
            assert len(between) >= 30, (lam, space, len(between))
            for flat in between:
                assert (_bits_or_error(_canonical, flat, lam, space)
                        == _bits_or_error(_ref_canonical_two_pass, flat, lam, space)), flat
    assert min(sides.values()) > 100, sides


def test_trusted_point_matches_checked_point():
    """`_point` skips the dataclass init and the space check of `Point`,
    not its canonicalisation: on hermitian representatives (ints, signed
    zeros, NaNs and infinities among them), on ones kicked off the form and
    on pushed points, it gives `Point(...)`'s representative bit for bit,
    or the error `Point(...)` raises, and an equal, equally hashed, frozen
    point."""
    rng = np.random.default_rng(5555)

    def num():
        if rng.integers(12) == 0:
            return float(rng.choice([math.nan, math.inf, -math.inf]))
        return _draw_number(rng)

    built = 0
    for lam in LAMBDAS:
        for space in ("X", "Y"):
            for _ in range(150):
                p, q, r, s = num(), num(), num(), num()
                herm = ((p, q, 0, r, 0, s, p, -q) if space == "X"
                        else (p, 0, r, s, r, -s, q, 0))
                kicked = list(herm)
                kicked[int(rng.integers(8))] = num()
                pushed = push(random_isometry(rng, lam), random_point(rng, space, lam).rep, space)
                for flat in (herm, tuple(kicked), pushed.flat):
                    want = _bits_or_error(lambda: Point(space, Mat2.from_flat(flat, lam)).rep)
                    assert _bits_or_error(lambda: _point(space, flat, lam).rep) == want, flat
                    if isinstance(want, list):
                        got, ref = _point(space, flat, lam), Point(space, Mat2.from_flat(flat, lam))
                        assert (got.space, got.lam) == (space, lam)
                        if not any(math.isnan(x) for x in got.rep.flat):
                            assert got == ref and hash(got) == hash(ref)
                        with pytest.raises(FrozenInstanceError):
                            got.space = "Y"
                        built += 1
    assert built > 500, built
