import math

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from dualtet import (
    DomainError,
    GC,
    PoleAt,
    ZeroDivisor,
    analytic_continue,
    exp_ell,
    gacot,
    gatan,
    gc,
    gc_angle,
    gcos,
    gcot,
    gsin,
    gtan,
    polar,
)
from dualtet.errors import LambdaMismatch
from dualtet.gcnum import check_lambda

lambdas = st.sampled_from([-1, 0, 1])
reals = st.floats(-50, 50, allow_nan=False)
angles = st.floats(-3.0, 3.0, allow_nan=False)


def gcs(lam):
    return st.builds(lambda x, y: GC(x, y, lam), reals, reals)


# -- ring arithmetic ------------------------------------------------------------


def test_split_complex_zero_divisor_product():
    z = gc(1, 1, -1) * gc(1, -1, -1)
    assert z.re == 0 and z.im == 0


def test_ell_squared_is_minus_lambda():
    for lam in (-1, 0, 1):
        sq = gc(0, 1, lam) * gc(0, 1, lam)
        assert sq.re == -lam and sq.im == 0


def test_dual_number_inverse():
    w = gc(2, 3, 0).inv()
    assert w.re == 0.5 and w.im == -0.75


def test_modulus_examples():
    assert gc(1, 1, -1).mod_sq() == 0          # null line of 1 + l
    assert gc(3, 4, 1).mod_sq() == 25
    assert gc(1.7, -9.0, 0).mod_sq() == pytest.approx(1.7 ** 2)


def test_non_units_raise():
    with pytest.raises(ZeroDivisor):
        gc(0, 2.5, 0).inv()
    with pytest.raises(ZeroDivisor):
        gc(3, 3, -1).inv()
    with pytest.raises(ZeroDivisor):
        gc(0, 0, 1).inv()


def test_lambda_mixing_is_rejected():
    with pytest.raises(LambdaMismatch):
        gc(1, 0, 1) + gc(1, 0, 0)


def test_lambda_must_be_an_exact_int():
    for lam in (True, False, 1.0):
        with pytest.raises(DomainError):
            check_lambda(lam)
        with pytest.raises(DomainError):
            gc(1, 0, lam)


@settings(max_examples=200)
@given(lambdas.flatmap(lambda lam: st.tuples(gcs(lam), gcs(lam), gcs(lam))))
def test_ring_laws(triple):
    a, b, c = triple
    assert ((a * b) * c).isclose(a * (b * c), 1e-9)
    assert (a * (b + c)).isclose(a * b + a * c, 1e-9)
    assert (a * b).isclose(b * a)
    assert a.conj().conj().isclose(a)


@settings(max_examples=200)
@given(lambdas.flatmap(lambda lam: gcs(lam)))
def test_modulus_is_z_zbar_and_unit_iff_invertible(z):
    prod = z * z.conj()
    assert prod.im == pytest.approx(0.0, abs=1e-9)
    assert prod.re == pytest.approx(z.mod_sq(), rel=1e-12, abs=1e-12)
    if z.is_unit() and abs(z.mod_sq()) > 1e-100:  # keep clear of underflow
        w = z * z.inv()
        assert w.isclose(gc(1, 0, z.lam), 1e-9)
    elif not z.is_unit():
        with pytest.raises(ZeroDivisor):
            z.inv()


# -- trigonometric family ---------------------------------------------------------


def test_flat_sine_is_identity():
    assert gsin(0, 2.5) == 2.5
    assert gcos(0, 2.5) == 1.0


def test_circular_values():
    assert gsin(1, math.pi / 2) == pytest.approx(1.0)


def test_hyperbolic_sine_matches_exponential_oracle():
    e = math.e
    assert gsin(-1, 1.0) == pytest.approx((e - 1.0 / e) / 2, abs=1e-12)
    assert gsin(-1, 1.0) == pytest.approx(1.1752011936, abs=1e-10)


@settings(max_examples=300)
@given(lambdas, angles, angles)
def test_trig_identities(lam, th, ph):
    assert gcos(lam, th) ** 2 + lam * gsin(lam, th) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert gcos(lam, th) * gcos(lam, ph) - lam * gsin(lam, th) * gsin(lam, ph) == \
        pytest.approx(gcos(lam, th + ph), abs=1e-12)
    assert gcos(lam, th) * gsin(lam, ph) + gsin(lam, th) * gcos(lam, ph) == \
        pytest.approx(gsin(lam, th + ph), abs=1e-12)


@settings(max_examples=120)
@given(lambdas, st.floats(-2, 2, allow_nan=False))
def test_trig_derivatives_by_finite_differences(lam, th):
    h = 1e-5
    dc = (gcos(lam, th + h) - gcos(lam, th - h)) / (2 * h)
    ds = (gsin(lam, th + h) - gsin(lam, th - h)) / (2 * h)
    assert dc == pytest.approx(-lam * gsin(lam, th), abs=1e-6)
    assert ds == pytest.approx(gcos(lam, th), abs=1e-6)


def test_tangent_pole():
    with pytest.raises(PoleAt):
        gtan(1, math.pi / 2)
    with pytest.raises(PoleAt):
        gcot(1, 0.0)


def test_inverse_branches():
    assert gatan(1, 1.0) == pytest.approx(math.pi / 4)
    assert gacot(1, 0.0) == pytest.approx(math.pi / 2)
    assert gacot(-1, 2.0) == pytest.approx(0.5493061443, abs=1e-10)
    assert gacot(-1, 2.0) == pytest.approx(0.5 * math.log(3.0))
    with pytest.raises(DomainError):
        gatan(-1, 1.5)
    with pytest.raises(DomainError):
        gacot(-1, 0.5)
    with pytest.raises(DomainError):
        gacot(0, 0.0)


@settings(max_examples=150)
@given(lambdas, st.floats(-20, 20, allow_nan=False))
def test_inverse_round_trips(lam, r):
    if lam == -1 and abs(r) >= 1:
        return
    assert gtan(lam, gatan(lam, r)) == pytest.approx(r, rel=1e-9, abs=1e-9)
    if lam == -1 and abs(r) <= 1:
        return
    if lam == 0 and r == 0:
        return
    assert gcot(lam, gacot(lam, r)) == pytest.approx(r, rel=1e-9, abs=1e-9)


def test_ct_inverse_branch_range_circular():
    for r in (-15.0, -0.3, 0.0, 2.0, 40.0):
        assert 0.0 < gacot(1, r) < math.pi


def test_arcoth_branch_sign_matches_argument():
    assert gacot(-1, 3.0) > 0
    assert gacot(-1, -3.0) < 0


# -- exponential, polar, analytic continuation ------------------------------------


@settings(max_examples=100)
@given(lambdas, angles)
def test_exp_ell_components(lam, th):
    z = exp_ell(lam, th)
    assert z.re == gcos(lam, th) and z.im == gsin(lam, th)
    assert z.mod_sq() == pytest.approx(1.0, abs=1e-12)
    assert gc_angle(z) == pytest.approx(th if lam != 1 else math.remainder(th, 2 * math.pi),
                                        abs=1e-12)


def test_polar_round_trip():
    for lam, z in ((-1, gc(-0.8, 0.3, -1)), (0, gc(1.4, -2.0, 0)), (1, gc(-1.0, 2.0, 1))):
        r, th = polar(z)
        w = exp_ell(lam, th) * r
        assert w.isclose(z, 1e-12)


def test_analytic_continue_exponential_gives_trig_pair():
    for lam in (-1, 0, 1):
        import numpy as np

        w = analytic_continue(np.exp, gc(0, 0.7, lam), df=np.exp)
        assert w.re == pytest.approx(gcos(lam, 0.7), abs=1e-12)
        assert w.im == pytest.approx(gsin(lam, 0.7), abs=1e-12)


def test_analytic_continue_identity_and_square():
    z = gc(1.3, -0.4, -1)
    w = analytic_continue(lambda x: x, z)
    assert w.isclose(z, 1e-12)
    sq = analytic_continue(lambda x: x * x, gc(1, 1, 0), df=lambda x: 2 * x)
    assert sq.re == pytest.approx(1.0) and sq.im == pytest.approx(2.0)


@settings(max_examples=60)
@given(lambdas, st.floats(-1.2, 1.2), st.floats(-1.2, 1.2))
def test_analytic_continue_cauchy_riemann(lam, x, y):
    import numpy as np

    h = 1e-5

    def f_at(xx, yy):
        return analytic_continue(np.exp, GC(xx, yy, lam), df=np.exp)

    d_re_dx = (f_at(x + h, y).re - f_at(x - h, y).re) / (2 * h)
    d_im_dy = (f_at(x, y + h).im - f_at(x, y - h).im) / (2 * h)
    d_re_dy = (f_at(x, y + h).re - f_at(x, y - h).re) / (2 * h)
    d_im_dx = (f_at(x + h, y).im - f_at(x - h, y).im) / (2 * h)
    assert d_re_dx == pytest.approx(d_im_dy, abs=2e-6)
    assert d_re_dy == pytest.approx(-lam * d_im_dx, abs=2e-6)
