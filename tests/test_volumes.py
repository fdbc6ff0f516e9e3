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
    ideal_from_angles,
    ideal_volume,
    lightlike_from_angles,
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


@pytest.mark.parametrize("x", [5e-324, 1e-320, 1e-300, -5e-324, -1e-320, -1e-300])
@pytest.mark.parametrize("lam", [1, -1])
def test_clausen_is_flat_at_subnormal_arguments(lam, x):
    # x/2 underflows to 0 at the least subnormal; the flat form holds there.
    got = clausen(lam, x)
    assert math.isfinite(got)
    assert got == pytest.approx(clausen(0, x), rel=1e-12)


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


def test_series_order_limited_by_coefficient_table():
    a, b = 0.2, 0.3
    assert lightlike_volume_series(1.0, a, b, 30) == pytest.approx(
        lightlike_volume(1, a, b), rel=1e-14)
    with pytest.raises(DomainError):
        lightlike_volume_series(1.0, a, b, 31)


def test_series_second_order_coefficients():
    # The quadratic-in-curvature correction is driven by B4 = -1/30.
    a, b = 0.3, 0.2
    k1 = lightlike_volume_series(1.0, a, b, 1)
    k2 = lightlike_volume_series(1.0, a, b, 2)
    g2 = (a + b) ** 5 - a ** 5 - b ** 5
    want = (16.0 * (-1.0 / 30.0) / math.factorial(5)) * (-1.0) * g2
    assert k2 - k1 == pytest.approx(want, rel=1e-12)


# -- quadrature oracle ----------------------------------------------------------------


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_parameters_raise_domain_error(bad):
    for fn in (ideal_volume, lightlike_volume, lightlike_from_angles, ideal_from_angles,
               lambda lam, a, b: volume_quadrature("lightlike", lam, a, b),
               lambda lam, a, b: volume_report("ideal", lam, a, b, with_oracle=False),
               lambda lam, a, b: lightlike_volume_series(lam, a, b, 5)):
        for lam in LAMBDAS:
            for a, b in ((bad, 1.0), (1.0, bad)):
                with pytest.raises(DomainError):
                    fn(lam, a, b)
    for lam in (bad, -bad):
        with pytest.raises(DomainError):
            lightlike_volume_series(lam, 0.3, 0.4, 5)


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
    for tol in (1e-12, math.nan):  # NaN would pass `tol < 1e-10` and stop the cubature
        with pytest.raises(DomainError):
            volume_quadrature("ideal", 0, 0.5, 0.5, tol=tol)


def test_quadrature_budget_exhaustion_carries_estimate():
    from dualtet.cubature import adaptive_quad_2d

    def nasty(x, y):
        return 1.0 / np.sqrt(np.abs(x - 0.123456) + 1e-14)

    with pytest.raises(ToleranceNotReached) as exc:
        adaptive_quad_2d(nasty, (0, 1), (0, 1), tol=1e-14, max_panels=40)
    assert exc.value.value == pytest.approx(2.0 * (math.sqrt(0.876544) + math.sqrt(0.123456)),
                                            rel=5e-2)
    assert exc.value.err_est > 0
    assert exc.value.panels >= 40
    assert f"{exc.value.panels} panels" in str(exc.value)


def test_quadrature_1d_budget_exhaustion_raises_with_estimate():
    from dualtet.cubature import adaptive_quad

    def nasty(x):
        return 1.0 / np.sqrt(np.abs(x - 0.123456))

    with pytest.raises(ToleranceNotReached) as exc:
        adaptive_quad(nasty, 0.0, 1.0, tol=1e-12, limit=8)
    assert exc.value.value == pytest.approx(2.0 * (math.sqrt(0.876544) + math.sqrt(0.123456)),
                                            rel=5e-2)
    assert exc.value.err_est > 1e-12
    assert exc.value.panels == 8


def test_quadrature_2d_infinite_integrand_raises():
    from dualtet.cubature import adaptive_quad_2d

    def pole(x, y):  # infinite on the line x = 0.5, a node of the first panel
        with np.errstate(divide="ignore"):
            return 1.0 / np.abs(x - 0.5) ** 0.5 + 0.0 * y

    with pytest.raises(ToleranceNotReached) as exc:
        adaptive_quad_2d(pole, (0, 1), (0, 1))
    assert not math.isfinite(exc.value.err_est)
    assert exc.value.panels == 1


def test_quadrature_1d_infinite_integrand_raises():
    from dualtet.cubature import adaptive_quad

    def pole(x):
        with np.errstate(divide="ignore"):
            return 1.0 / np.abs(x - 0.5) ** 0.5

    with pytest.raises(ToleranceNotReached) as exc:
        adaptive_quad(pole, 0.0, 1.0)
    assert not math.isfinite(exc.value.err_est)
    assert exc.value.panels == 1


def test_quadrature_1d_splits_share_one_call():
    from dualtet.cubature import adaptive_quad

    shapes = []

    def f(x):
        shapes.append(x.shape)
        return np.log(x)

    a = 1e-12
    val, err = adaptive_quad(f, a, 2.0, tol=1e-12)
    assert val == pytest.approx(2.0 * math.log(2.0) - 2.0 - a * math.log(a) + a, abs=1e-12)
    assert err <= 1e-12
    assert shapes[0] == (1, 15) and set(shapes[1:]) == {(2, 15)}


def _per_panel_quad_2d(f, xspan, yspan, tol, max_panels):
    """Reference route: the same adaptive (G7, K15) cubature, with one
    panel per integrand call on a 15x15 meshgrid."""
    import heapq

    from dualtet.cubature import _GAUSS_WEIGHTS, _KRONROD_NODES, _KRONROD_WEIGHTS

    gauss_idx = np.arange(1, 15, 2)

    def panel(rect):
        x0, x1, y0, y1 = rect
        hx, hy = 0.5 * (x1 - x0), 0.5 * (y1 - y0)
        xs = 0.5 * (x0 + x1) + hx * _KRONROD_NODES
        ys = 0.5 * (y0 + y1) + hy * _KRONROD_NODES
        xg, yg = np.meshgrid(xs, ys, indexing="ij")
        vals = np.asarray(f(xg, yg), dtype=float)
        kron = hx * hy * float(_KRONROD_WEIGHTS @ vals @ _KRONROD_WEIGHTS)
        sub = vals[np.ix_(gauss_idx, gauss_idx)]
        gauss = hx * hy * float(_GAUSS_WEIGHTS @ sub @ _GAUSS_WEIGHTS)
        return kron, abs(kron - gauss)

    rect = (float(xspan[0]), float(xspan[1]), float(yspan[0]), float(yspan[1]))
    val, err = panel(rect)
    heap = [(-err, 0, rect, val, err)]
    counter = 1
    total_val, total_err = val, err
    while total_err > tol:
        if len(heap) >= max_panels:
            raise ToleranceNotReached(total_val, total_err)
        _, _, (x0, x1, y0, y1), pval, perr = heapq.heappop(heap)
        total_val -= pval
        total_err -= perr
        xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        for sub in ((x0, xm, y0, ym), (xm, x1, y0, ym), (x0, xm, ym, y1), (xm, x1, ym, y1)):
            v, e = panel(sub)
            heapq.heappush(heap, (-e, counter, sub, v, e))
            counter += 1
            total_val += v
            total_err += e
    return total_val, total_err


def _oracle_setup(kind, lam, alpha, beta):
    from dualtet.volumes import _ideal_integrand, _lightlike_integrand

    if kind == "ideal":
        return _ideal_integrand(lam, alpha, beta), (0.0, alpha)
    return _lightlike_integrand(lam, alpha, beta), (-0.25 * math.pi, 0.25 * math.pi)


def _run_counting_panels(quad, f, xspan, max_panels):
    """(value, panels evaluated, raised) of quad; a call on nodes of shape
    (n, 15, 1) or (n, 15) evaluates n panels, a meshgrid call one."""
    panels = [0]

    def counted(x, y):
        panels[0] += x.shape[0] if x.ndim == 3 else 1
        return f(x, y)

    try:
        val, _err = quad(counted, xspan, (0.0, 1.0), 1e-8, max_panels)
        return val, panels[0], False
    except ToleranceNotReached as exc:
        return exc.value, panels[0], True


_REFERENCE_CELLS = [(kind, lam, a, b)
                    for kind in ("ideal", "lightlike")
                    for lam in LAMBDAS
                    for a, b in ((0.3, 0.9), (0.2, 1.5), (0.8, 0.25))]
_REFERENCE_CELLS += [("lightlike", -1, 0.3, 3.0), ("lightlike", 1, 0.3, 2.5), ("ideal", 1, 0.1, 2.8)]


@pytest.mark.parametrize("max_panels", [20000, 40])
def test_batched_cubature_matches_per_panel_reference(max_panels):
    from dualtet.cubature import adaptive_quad_2d

    raised = 0
    for kind, lam, a, b in _REFERENCE_CELLS:
        f, xspan = _oracle_setup(kind, lam, a, b)
        want = _run_counting_panels(_per_panel_quad_2d, f, xspan, max_panels)
        got = _run_counting_panels(adaptive_quad_2d, f, xspan, max_panels)
        cell = (kind, lam, a, b)
        assert got[1] == want[1], cell
        assert got[2] == want[2], cell
        assert got[0] == pytest.approx(want[0], rel=1e-15), cell
        raised += got[2]
    assert (raised > 0) == (max_panels == 40)


@pytest.mark.parametrize("f, want", [
    (lambda x, y: x ** 3, 12.0),          # shape (n, 15, 1)
    (lambda x, y: y ** 2, 42.0),          # shape (n, 1, 15)
    (lambda x, y: 2.5, 15.0),             # a scalar
])
def test_cubature_broadcasts_partial_integrands(f, want):
    from dualtet.cubature import adaptive_quad_2d

    val, err = adaptive_quad_2d(f, (0.0, 2.0), (1.0, 4.0), tol=1e-8)
    assert val == pytest.approx(want, rel=1e-13)
    assert err <= 1e-8


# -- reports ----------------------------------------------------------------------


def test_volume_report_fields():
    rep = volume_report("lightlike", 0, 1.0, 1.0, with_oracle=True, tol=1e-8,
                        series_order=4)
    assert rep.closed_form == pytest.approx(2 / 3)
    assert rep.rel_discrepancy < 1e-8
    assert rep.series == pytest.approx(2 / 3, rel=1e-12)
    d = rep.as_dict()
    assert d["lambda"] == 0 and d["kind"] == "lightlike"
    # The CSV and text outputs of `dualtet volume` list the keys in this order.
    assert list(d) == ["kind", "lambda", "alpha", "beta", "closed_form", "oracle",
                       "oracle_err", "series", "series_order", "rel_discrepancy"]


def test_volume_report_series_requires_lightlike():
    with pytest.raises(DomainError):
        volume_report("ideal", 0, 1.0, 1.0, with_oracle=False, series_order=3)
