import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from dualtet import (
    ConvergenceWarning,
    DomainError,
    ToleranceNotReached,
    bernoulli,
    clausen,
    ideal_volume,
    lightlike_volume,
    lightlike_volume_series,
    volume_quadrature,
    volume_report,
)

LAMBDAS = (-1, 0, 1)

CATALAN = 0.9159655941772190


def clausen_defining_integral(lam: int, x: float) -> float:
    """Independent oracle: adaptive quadrature of the defining integral."""
    f = {1: lambda t: math.log(abs(2 * math.sin(t / 2))),
         0: lambda t: math.log(abs(t)),
         -1: lambda t: math.log(abs(2 * math.sinh(t / 2)))}[lam]
    val, _err = quad(f, 0, x, points=[0], limit=300)
    return -val


def clausen_fourier_oracle(x: float, n: int = 400000) -> float:
    """Independent oracle: plain partial sum of the defining sine series."""
    k = np.arange(1, n + 1, dtype=float)
    return float(np.sum(np.sin(k * x) / (k * k)))


def bernoulli_akiyama_tanigawa(n: int) -> Fraction:
    """Independent oracle for Bernoulli numbers (conventions agree at even n)."""
    a = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
    return a[0]


# -- clausen ----------------------------------------------------------------------


def test_clausen_zero():
    for lam in LAMBDAS:
        assert clausen(lam, 0.0) == 0.0


def test_clausen_catalan_value():
    assert clausen(1, math.pi / 2) == pytest.approx(CATALAN, abs=1e-10)
    assert clausen(1, math.pi / 2) == pytest.approx(
        clausen_fourier_oracle(math.pi / 2), abs=1e-9)


def test_clausen_flat_closed_form():
    assert clausen(0, 2.0) == pytest.approx(2 * (1 - math.log(2)), abs=1e-14)
    assert clausen(0, 2.0) == pytest.approx(0.6137056389, abs=1e-10)


def test_clausen_oddness(rng):
    for lam in LAMBDAS:
        for x in rng.uniform(0.001, 3.0, 40):
            assert clausen(lam, -x) == pytest.approx(-clausen(lam, x), abs=1e-12)


def test_clausen_matches_defining_integral(rng):
    for lam in LAMBDAS:
        xs = list(rng.uniform(0.02, 3.0, 8)) + [0.04, 0.5, 1.0, 2.99]
        for x in xs:
            if lam == 1 and x >= 2 * math.pi:
                continue
            assert clausen(lam, x) == pytest.approx(
                clausen_defining_integral(lam, x), abs=1e-9), (lam, x)


def test_clausen_circular_periodicity():
    for x in (0.3, 1.7):
        assert clausen(1, x + 2 * math.pi) == pytest.approx(clausen(1, x), abs=1e-10)


def test_clausen_fourier_agreement_on_grid():
    for x in (0.3, 1.0, 2.0, 3.0, 4.5):
        assert clausen(1, x) == pytest.approx(clausen_fourier_oracle(x), abs=2e-9)


# Points straddle the lam = -1 switch to the dilogarithm form at x = 3, the
# ends +-pi of the lam = 1 reduction, multiples of 2*pi, and tiny arguments.
_REFERENCE_XS = (1e-8, 1e-3, 0.5, 1.7, 2.999999, 3.0, 3.000001, 3.5,
                 math.pi - 1e-9, math.pi, math.pi + 1e-9, 5.0,
                 2 * math.pi - 1e-6, 2 * math.pi, 2 * math.pi + 1e-6,
                 4 * math.pi - 1e-3, 4 * math.pi, 11.0, 12.0)


def clausen_reference(lam: int, x: float):
    """30-digit reference: mpmath's Clausen function for lam = 1, the
    defining integral by tanh-sinh quadrature for lam = -1."""
    with mpmath.workdps(30):
        xm = mpmath.mpf(x)
        if lam == 1:
            return mpmath.clsin(2, xm)
        return -mpmath.quad(lambda t: mpmath.log(2 * mpmath.sinh(t / 2)), [0, xm])


@pytest.mark.parametrize("lam", [1, -1])
def test_clausen_matches_30_digit_reference(lam):
    for x in _REFERENCE_XS:
        want = clausen_reference(lam, x)
        assert clausen(lam, x) == pytest.approx(float(want), abs=1e-13), (lam, x)
        assert clausen(lam, -x) == pytest.approx(-float(want), abs=1e-13), (lam, -x)


# -- closed-form volumes -------------------------------------------------------------


def test_regular_circular_ideal_volume():
    v = ideal_volume(1, math.pi / 3, math.pi / 3)
    assert v == pytest.approx(1.0149416064, abs=1e-8)
    assert v == pytest.approx(1.5 * clausen(1, 2 * math.pi / 3), abs=1e-12)


def test_flat_ideal_volume_closed_form():
    # alpha log((a+b)/a) + beta log((a+b)/b) from the flat Clausen algebra
    assert ideal_volume(0, 1, 1) == pytest.approx(2 * math.log(2), abs=1e-12)
    a, b = 0.7, 0.25
    want = a * math.log((a + b) / a) + b * math.log((a + b) / b)
    assert ideal_volume(0, a, b) == pytest.approx(want, abs=1e-12)


def test_ideal_volume_degenerate_limit():
    vals = [ideal_volume(1, eps, 0.8) for eps in (1e-3, 1e-5, 1e-7)]
    assert abs(vals[-1]) < 1e-5
    assert abs(vals[0]) > abs(vals[-1])


def test_flat_lightlike_volume_formula(rng):
    assert lightlike_volume(0, 1, 1) == 2.0 / 3.0
    for _ in range(10):
        a, b = rng.uniform(0.1, 2.5, 2)
        assert lightlike_volume(0, a, b) == a * b * (a + b) / 3.0


def test_volume_symmetry(rng):
    for lam in LAMBDAS:
        a, b = rng.uniform(0.2, 1.0, 2)
        assert ideal_volume(lam, a, b) == pytest.approx(ideal_volume(lam, b, a), abs=1e-12)
        assert lightlike_volume(lam, a, b) == pytest.approx(
            lightlike_volume(lam, b, a), abs=1e-12)


def test_volume_positivity(rng):
    for lam in LAMBDAS:
        for _ in range(12):
            a, b = rng.uniform(0.05, 1.2, 2)
            assert ideal_volume(lam, a, b) > 0
            assert lightlike_volume(lam, a, b) > 0


# -- series ------------------------------------------------------------------------


def test_bernoulli_values():
    assert bernoulli(0) == 1.0
    assert bernoulli(2) == pytest.approx(1 / 6)
    assert bernoulli(4) == pytest.approx(-1 / 30)
    assert bernoulli(6) == pytest.approx(1 / 42)
    for n in range(2, 32, 2):
        assert bernoulli(n) == pytest.approx(float(bernoulli_akiyama_tanigawa(n)), rel=1e-12)
    with pytest.raises(DomainError):
        bernoulli(3)
    with pytest.raises(DomainError):
        bernoulli(62)


def test_series_first_order_is_flat_volume(rng):
    for lam in (-1.0, -0.3, 0.0, 0.7, 1.0):
        a, b = rng.uniform(0.1, 1.0, 2)
        assert lightlike_volume_series(lam, a, b, 1) == pytest.approx(
            a * b * (a + b) / 3.0, rel=1e-15)


def test_series_matches_closed_form_small_angles():
    for lam in (-1, 1):
        for ab in (0.1, 0.2, 0.3, 0.4):
            closed = lightlike_volume(lam, ab, ab)
            series = lightlike_volume_series(lam, ab, ab, 20)
            assert series == pytest.approx(closed, abs=1e-10), (lam, ab)


def test_series_continuity_at_zero_curvature():
    flat = lightlike_volume(0, 1, 1)
    assert lightlike_volume_series(1e-8, 1, 1, 8) == pytest.approx(flat, abs=1e-8)
    assert lightlike_volume_series(-1e-8, 1, 1, 8) == pytest.approx(flat, abs=1e-8)
    assert lightlike_volume_series(0.0, 1, 1, 8) == pytest.approx(flat, rel=1e-15)


def test_series_convergence_warning():
    with pytest.warns(ConvergenceWarning):
        lightlike_volume_series(1.0, 2.0, 2.0, 5)


def test_series_second_order_coefficients():
    # The quadratic-in-curvature correction is driven by B4 = -1/30.
    a, b = 0.3, 0.2
    k1 = lightlike_volume_series(1.0, a, b, 1)
    k2 = lightlike_volume_series(1.0, a, b, 2)
    g2 = (a + b) ** 5 - a ** 5 - b ** 5
    want = (16.0 * (-1.0 / 30.0) / math.factorial(5)) * (-1.0) * g2
    assert k2 - k1 == pytest.approx(want, rel=1e-12)


# -- quadrature oracle ----------------------------------------------------------------


def test_quadrature_flat_lightlike_example():
    val, err = volume_quadrature("lightlike", 0, 1.0, 1.0, tol=1e-8)
    assert val == pytest.approx(2.0 / 3.0, abs=1e-7)
    assert err <= 1e-8


def test_quadrature_regular_circular_ideal():
    val, _err = volume_quadrature("ideal", 1, math.pi / 3, math.pi / 3, tol=1e-7)
    assert val == pytest.approx(1.0149416, abs=1e-6)


def test_quadrature_flat_ideal():
    val, _err = volume_quadrature("ideal", 0, 1.0, 1.0, tol=1e-7)
    assert val == pytest.approx(1.3862944, abs=1e-6)


def test_quadrature_matches_closed_forms(rng):
    for lam in LAMBDAS:
        for kind, closed in (("ideal", ideal_volume), ("lightlike", lightlike_volume)):
            a, b = rng.uniform(0.3, 1.0, 2)
            cf = closed(lam, a, b)
            val, _err = volume_quadrature(kind, lam, a, b, tol=1e-8)
            assert val == pytest.approx(cf, rel=1e-6), (kind, lam, a, b)


def test_quadrature_is_deterministic():
    one = volume_quadrature("ideal", -1, 0.8, 0.5, tol=1e-8)
    two = volume_quadrature("ideal", -1, 0.8, 0.5, tol=1e-8)
    assert one == two


def test_quadrature_tolerance_guard():
    with pytest.raises(DomainError):
        volume_quadrature("ideal", 0, 0.5, 0.5, tol=1e-12)


def test_quadrature_budget_exhaustion_carries_estimate():
    from dualtet.cubature import adaptive_quad_2d

    def nasty(x, y):
        return 1.0 / np.sqrt(np.abs(x - 0.123456) + 1e-14)

    with pytest.raises(ToleranceNotReached) as exc:
        adaptive_quad_2d(nasty, (0, 1), (0, 1), tol=1e-14, max_panels=40)
    assert exc.value.value == pytest.approx(2.0 * (math.sqrt(0.876544) + math.sqrt(0.123456)),
                                            rel=5e-2)
    assert exc.value.err_est > 0


# -- reports ----------------------------------------------------------------------


def test_volume_report_fields():
    rep = volume_report("lightlike", 0, 1.0, 1.0, with_oracle=True, tol=1e-8,
                        series_order=4)
    assert rep.closed_form == pytest.approx(2 / 3)
    assert rep.rel_discrepancy < 1e-8
    assert rep.series == pytest.approx(2 / 3, rel=1e-12)
    d = rep.as_dict()
    assert d["lambda"] == 0 and d["kind"] == "lightlike"


def test_volume_report_series_requires_lightlike():
    with pytest.raises(DomainError):
        volume_report("ideal", 0, 1.0, 1.0, with_oracle=False, series_order=3)
