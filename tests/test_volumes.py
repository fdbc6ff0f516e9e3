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
from dualtet.gcnum import gcos, gsin

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



@pytest.mark.parametrize("x", [math.inf, -math.inf])
def test_circular_clausen_at_infinity_raises_domain_error(x):
    # cl(1, x) is periodic and not constant, so it has no limit at infinity.
    with pytest.raises(DomainError):
        clausen(1, x)


@pytest.mark.parametrize("lam", [-1, 0])
def test_clausen_at_infinity_is_its_limit(lam):
    # cl(lam, x) ~ -x^2/4 (lam = -1) or -x log x (lam = 0), and it is odd.
    assert clausen(lam, math.inf) == -math.inf
    assert clausen(lam, -math.inf) == math.inf


@pytest.mark.parametrize("lam", LAMBDAS)
def test_clausen_of_nan_is_nan(lam):
    assert math.isnan(clausen(lam, math.nan))

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


def test_tangent_number_tables_match_fractions():
    """B_2k and the series coefficients 4^k B_2k (-1)^k / (2k+1)!, formed from
    integer tangent numbers, are bit for bit the correctly rounded values of
    the Fractions."""
    from dualtet.volumes import _COT_COEFFS

    exact = [bernoulli_akiyama_tanigawa(2 * k) for k in range(31)]
    want = [float(Fraction(4 ** k * (-1) ** k) * b / math.factorial(2 * k + 1))
            for k, b in enumerate(exact)]
    assert [c.hex() for c in _COT_COEFFS] == [c.hex() for c in want]
    assert [bernoulli(2 * k).hex() for k in range(31)] == [float(b).hex() for b in exact]


@pytest.mark.parametrize("n", [4.0, False, True, np.int64(4)])
def test_bernoulli_index_must_be_an_int(n):
    # 4.0 would reach range() and raise TypeError; False would return B_0.
    with pytest.raises(DomainError):
        bernoulli(n)


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


@pytest.mark.parametrize("order", [2.5, 2.0, True, np.int64(2)])
def test_series_order_must_be_an_int(order):
    # range() would raise TypeError on 2.5, and True would count as order 1.
    with pytest.raises(DomainError):
        lightlike_volume_series(1, 0.1, 0.1, order)


def test_volume_report_series_order_must_be_an_int():
    with pytest.raises(DomainError):
        volume_report("lightlike", 1, 0.1, 0.1, with_oracle=False, series_order=2.5)


def test_volume_report_checks_series_order_before_computing(monkeypatch):
    """A bad series order is refused before the closed form or the oracle runs."""
    from dualtet import volumes

    def fail(*args, **kwargs):
        raise AssertionError("computed before the series order was checked")

    for name in ("lightlike_volume", "volume_quadrature"):
        monkeypatch.setattr(volumes, name, fail)
    for order in (2.5, 0, 31):
        with pytest.raises(DomainError, match="series order"):
            volume_report("lightlike", -1, 2.0, 3.0, with_oracle=True, series_order=order)


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


@pytest.mark.parametrize("errstate", [
    {}, {"over": "raise", "divide": "raise", "invalid": "raise"}], ids=["default", "oracle"])
@pytest.mark.parametrize("quad, args", [
    ("adaptive_quad", (lambda x: 1e307 + 0 * x, 0.0, 100.0)),
    ("adaptive_quad_2d", (lambda x, y: 1e307 + 0 * x, (0.0, 100.0), (0.0, 1.0))),
], ids=["1d", "2d"])
def test_quadrature_rule_sums_that_overflow_raise(quad, args, errstate):
    """Finite integrand values whose rule sums overflow leave no estimate:
    ToleranceNotReached, with no warning (the test settings make one an
    error), by default and under `volume_quadrature`'s errstate alike."""
    from dualtet import cubature

    with np.errstate(**errstate), pytest.raises(ToleranceNotReached) as exc:
        getattr(cubature, quad)(*args)
    assert math.isnan(exc.value.value) and exc.value.err_est == math.inf
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
    assert shapes[0] == (7, 15) and set(shapes[1:]) == {(6, 15)}


def test_quadrature_1d_splits_the_root():
    from dualtet.cubature import adaptive_quad

    calls = []

    def f(x):
        calls.append(x.shape)
        return 1.0 + 0 * x

    assert adaptive_quad(f, 0, 1)[0] == pytest.approx(1.0, rel=1e-14)
    assert calls == [(7, 15)]


def _per_panel_quad_2d(f, xspan, yspan, tol, max_panels):
    """Reference route: the same adaptive (G7, K15) cubature, with one
    panel per integrand call on a 15x15 meshgrid, and the same check of a
    split's children against their parent."""
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
        gauss = hx * hy * float(_GAUSS_WEIGHTS @ vals[np.ix_(gauss_idx, gauss_idx)]
                                @ _GAUSS_WEIGHTS)
        # Kronrod in one axis, Gauss in the other.
        kg = hx * hy * float(_KRONROD_WEIGHTS @ vals[:, gauss_idx] @ _GAUSS_WEIGHTS)
        gk = hx * hy * float(_GAUSS_WEIGHTS @ vals[gauss_idx, :] @ _KRONROD_WEIGHTS)
        return kron, max(abs(kron - gauss), abs(kron - kg) + abs(kron - gk))

    rect = (float(xspan[0]), float(xspan[1]), float(yspan[0]), float(yspan[1]))
    val, err = panel(rect)
    heap = [(-err, 0, rect, val, err)]
    counter = 1
    total_val, total_err = val, err
    while total_err > tol or counter == 1:  # the root is always split
        if len(heap) >= max_panels:
            raise ToleranceNotReached(total_val, total_err)
        _, _, (x0, x1, y0, y1), pval, perr = heapq.heappop(heap)
        total_val -= pval
        total_err -= perr
        xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        subs = ((x0, xm, y0, ym), (xm, x1, y0, ym), (x0, xm, ym, y1), (xm, x1, ym, y1))
        vals, errs = zip(*(panel(sub) for sub in subs))
        # Children that miss their parent by more than their estimates share the excess.
        excess = max(0.0, (abs(pval - sum(vals)) - sum(errs)) / 4)
        for sub, v, e in zip(subs, vals, errs):
            e += excess
            heapq.heappush(heap, (-e, counter, sub, v, e))
            counter += 1
            total_val += v
            total_err += e
    return total_val, total_err


def _oracle_setup(kind, lam, alpha, beta):
    if kind == "ideal":
        return (lambda theta, u: _old_ideal_density(lam, alpha, beta, theta, u)), (0.0, alpha)
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


def _one_call_per_split_quad(f, a, b, tol, limit=2000, panels=None):
    """Reference route: the 1-D refinement loop with one integrand call per
    split (the root with its halves in the first) and no lookahead; the
    panel arithmetic is the library's, which a batch does not change, or
    that of `panels`."""
    import heapq

    from dualtet.cubature import _halves, _panels_1d

    _panels_1d = panels or _panels_1d

    root = (float(a), float(b))
    subs = _halves(root)
    (pval, *vals), (perr, *errs) = _panels_1d(f, [root, *subs], 1)
    if limit <= 1:
        raise ToleranceNotReached(pval, perr, panels=1)
    heap = []
    counter = 1
    total_val = total_err = 0.0
    while True:
        excess = max(0.0, (abs(pval - sum(vals)) - sum(errs)) / 2)
        for sub, v, e in zip(subs, vals, errs):
            e += excess
            heapq.heappush(heap, (-e, counter, sub, v, e))
            counter += 1
            total_val += v
            total_err += e
        if not total_err > tol:
            return total_val, total_err
        if len(heap) >= limit:
            raise ToleranceNotReached(total_val, total_err, panels=len(heap))
        _, _, seg, pval, perr = heapq.heappop(heap)
        total_val -= pval
        total_err -= perr
        subs = _halves(seg)
        vals, errs = _panels_1d(f, list(subs), len(heap) + 2)


def _counting(f):
    calls = [0]

    def counted(x):
        calls[0] += 1
        return f(x)

    return counted, calls


def _oracle_integrand(kind, lam, a, b):
    from dualtet.volumes import _ideal_oracle, _lightlike_oracle

    return (_ideal_oracle if kind == "ideal" else _lightlike_oracle)(lam, a, b)


def _outcome(quad, f, *args):
    """(value, estimate, panels or None) of a quadrature that may raise."""
    try:
        return (*quad(f, *args), None)
    except ToleranceNotReached as exc:
        return exc.value, exc.err_est, exc.panels


def _clear_node_caches():
    from dualtet.cubature import _segment_nodes
    from dualtet.volumes import _sin2_ends, _sin2_twice

    for node_map in (_segment_nodes, _sin2_twice, _sin2_ends):
        node_map.cache_clear()


@pytest.mark.parametrize("kind", ["ideal", "lightlike"])
@pytest.mark.parametrize("lam", LAMBDAS)
def test_oracle_panels_do_not_depend_on_their_batch(kind, lam):
    """A panel's (value, estimate) is bit-identical whether it is evaluated
    alone or with others, at any place in the batch: the integrand's series
    and the rule sums are formed row by row.  The integrand's values on a
    node set are the same bits from cleared caches as from warm ones, after
    other cells, kinds and curvatures have used them."""
    from dualtet.cubature import _nodes, _panels_1d
    from dualtet.volumes import _horner, _x_over_s_series

    if lam != 0:
        x = np.random.default_rng(3).uniform(0.0, 0.0625, 60)
        series = _x_over_s_series(lam, 0.25, 0.01)
        assert [_horner(series, x[k:k + 1])[0] for k in range(60)] == _horner(series, x).tolist()
    # A dyadic partition of [0, 1]: the batches vary the number of nodes
    # that fall below u = 1/8, where Sidi's map is summed as a series.
    segs = [(0.0, 1 / 64), *((2.0 ** -k, 2.0 ** (1 - k)) for k in range(6, 1, -1)),
            (0.5, 0.75), (0.75, 1.0)]
    for a, b in ((0.3, 0.9), (0.05, 0.08), (0.09, 1.45)):
        f = _oracle_integrand(kind, lam, a, b)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            _clear_node_caches()
            nodes = _nodes(np.array(segs))[1]
            cold = f(nodes).tobytes()
            alone = [tuple(x[0] for x in _panels_1d(f, [seg], 1)) for seg in segs]
            for n in (2, 3, 6, 7):
                for start in range(len(segs) - n + 1):
                    vals, errs = _panels_1d(f, segs[start:start + n], n)
                    assert list(zip(vals, errs)) == alone[start:start + n], (a, b, n, start)
            for other in ("ideal", "lightlike"):
                for other_lam in LAMBDAS:
                    _oracle_integrand(other, other_lam, b, a)(nodes)
            assert f(nodes).tobytes() == cold, (a, b)


# Cells skewed about 16 times both ways, next to the reference cells.
_LOOKAHEAD_CELLS = _REFERENCE_CELLS + [(kind, lam, a, b)
                                       for kind in ("ideal", "lightlike")
                                       for lam in LAMBDAS
                                       for a, b in ((0.1, 1.6), (1.6, 0.1))]


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
def test_lookahead_matches_one_call_per_split(tol):
    """The lookahead changes which panels share a call, not the result, and
    saves at least two in five of the reference's integrand calls."""
    from dualtet.cubature import adaptive_quad

    calls = {"got": 0, "want": 0}
    for cell in _LOOKAHEAD_CELLS:
        f = _oracle_integrand(*cell)
        got_f, got_calls = _counting(f)
        want_f, want_calls = _counting(f)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            got = _outcome(adaptive_quad, got_f, 0.0, 1.0, tol)
            want = _outcome(_one_call_per_split_quad, want_f, 0.0, 1.0, tol)
        assert got == want, cell
        calls["got"] += got_calls[0]
        calls["want"] += want_calls[0]
    assert calls["got"] <= 0.6 * calls["want"], calls


@pytest.mark.parametrize("limit", [1, 5, 40])
def test_lookahead_budget_exhaustion_matches_reference(limit):
    from dualtet.cubature import adaptive_quad

    def nasty(x):
        return 1.0 / np.sqrt(np.abs(x - 0.123456))

    with pytest.raises(ToleranceNotReached) as got:
        adaptive_quad(nasty, 0.0, 1.0, tol=1e-12, limit=limit)
    with pytest.raises(ToleranceNotReached) as want:
        _one_call_per_split_quad(nasty, 0.0, 1.0, 1e-12, limit)
    assert (got.value.value, got.value.err_est, got.value.panels) == (
        want.value.value, want.value.err_est, want.value.panels)
    assert got.value.panels == limit


def _kronrod_nodes_of(lo, hi):
    from dualtet.cubature import _nodes

    return _nodes(np.array([lo, hi]))[1]


def _bad_at(nodes, bad, base):
    """base(x), times bad ** 2 at the given nodes: nan, or an overflow."""
    def f(x):
        return base(x) * np.where(np.isin(x, nodes), bad, 1.0) ** 2

    return f


@pytest.mark.parametrize("bad, errstate", [(np.nan, {}), (1e200, {"over": "raise"})])
def test_lookahead_skips_a_half_the_loop_never_needs(bad, errstate):
    """The first call also evaluates the quarters; a quarter where the
    integrand is not finite, or overflows, is dropped, and the integral
    goes on as one call per split would, which never needs it."""
    from dualtet.cubature import adaptive_quad

    f = _bad_at(_kronrod_nodes_of(0.5, 0.75), bad, lambda x: np.ones_like(x))
    got_f, got_calls = _counting(f)
    with np.errstate(**errstate):
        got = adaptive_quad(got_f, 0.0, 1.0, tol=1e-10)
        want = _one_call_per_split_quad(f, 0.0, 1.0, 1e-10)
    assert got == want and got[0] == pytest.approx(1.0, rel=1e-14)
    assert got_calls[0] == 2  # the batch that failed, then the root and its halves


@pytest.mark.parametrize("bad, errstate, raised", [
    (np.nan, {}, ToleranceNotReached), (1e200, {"over": "raise"}, FloatingPointError)])
def test_lookahead_raises_where_one_call_per_split_does(bad, errstate, raised):
    from dualtet.cubature import adaptive_quad

    def peaked(x):
        return 1.0 / np.sqrt(np.abs(x - 0.123456) + 1e-6)

    # The reference refines down to [0.0625, 0.125] before it needs this segment.
    f = _bad_at(_kronrod_nodes_of(0.0625, 0.125), bad, peaked)
    with np.errstate(**errstate):
        with pytest.raises(raised) as got:
            adaptive_quad(f, 0.0, 1.0, tol=1e-10)
        with pytest.raises(raised) as want:
            _one_call_per_split_quad(f, 0.0, 1.0, 1e-10)
    if raised is ToleranceNotReached:
        assert want.value.panels > 1
        assert got.value.panels == want.value.panels
        assert math.isnan(got.value.value) and got.value.err_est == math.inf


def volume_reference(kind: str, lam: int, alpha: float, beta: float):
    """30-digit closed form: mpmath's Clausen function at lam = 1 and the
    dilogarithm form pi^2/6 - x^2/4 - Li2(e^-x) at lam = -1.  On small and
    skewed cells its terms cancel to about min(alpha, beta)^2 of their size,
    so it carries two more digits per decade of min(alpha, beta) below 1."""
    def cl(x):
        if lam == 0:
            return x * (1 - mpmath.log(abs(x)))
        if lam == 1:
            return mpmath.clsin(2, x)
        return mpmath.sign(x) * (mpmath.pi ** 2 / 6 - x ** 2 / 4
                                 - mpmath.polylog(2, mpmath.exp(-abs(x))))

    def log_s(x):
        return mpmath.log({1: mpmath.sin, -1: mpmath.sinh}.get(lam, lambda y: y)(x))

    with mpmath.workdps(30 + 2 * max(0, math.ceil(-math.log10(min(alpha, beta))))):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        ideal = (cl(2 * a) + cl(2 * b) - cl(2 * (a + b))) / 2
        if kind == "ideal":
            return ideal
        if lam == 0:
            return a * b * (a + b) / 3
        return (ideal + a * log_s(a) + b * log_s(b) - (a + b) * log_s(a + b)) / lam


def _log_uniform_cells(n_per_cell: int, lo: float, hi: float, seed: int):
    rng = np.random.default_rng(seed)
    cells = []
    for lam in LAMBDAS:
        for kind in ("ideal", "lightlike"):
            drawn = 0
            while drawn < n_per_cell:
                a, b = np.exp(rng.uniform(math.log(lo), math.log(hi), 2))
                if lam == 1 and a + b >= math.pi:
                    continue
                cells.append((kind, lam, float(a), float(b)))
                drawn += 1
    return cells


# Cells where the oracle used to exhaust its budget or under-estimate its error.
_HARD_CELLS = [("lightlike", -1, 0.5, 5.0), ("lightlike", -1, 1.0, 6.0),
               ("ideal", -1, 0.1, 3.0), ("ideal", -1, 1.0, 5.0),
               ("lightlike", -1, 0.12245, 5.8172), ("ideal", -1, 0.328, 2.732)]


@pytest.mark.parametrize("tol", [1e-6, 1e-8])
def test_quadrature_error_estimate_bounds_true_error(tol):
    raised = []
    for cell in _log_uniform_cells(16, 1e-4, 6.0, seed=9) + _HARD_CELLS:
        try:
            val, err = volume_quadrature(*cell, tol=tol)
        except ToleranceNotReached:
            raised.append(cell)
            continue
        with mpmath.workdps(30):
            true = float(abs(mpmath.mpf(val) - volume_reference(*cell)))
        assert true <= err <= tol, (cell, true, err)
    assert not set(raised) & set(_HARD_CELLS), raised


def _true_error(cell, val):
    with mpmath.workdps(30):
        return float(abs(mpmath.mpf(val) - volume_reference(*cell)))


# Strongly skewed cells where the 2-D lightlike oracle, and the ideal one
# before a split was checked against its parent, under-estimated the error;
# tiny lightlike cells where the v integral lost its digits to its flat part
# (u = 1/x) before that part was subtracted; and lightlike cells where the
# v-integral oracle raised or under-estimated: past alpha + beta ~ 354 and
# at beta / alpha ~ 1e-9 at lam = -1, at alpha = 1e-300, and near
# alpha + beta = pi at lam = 1 at tol 1e-10.
@pytest.mark.parametrize("cell, tol", [
    (("lightlike", 1, 1.1591715644396432, 0.00016472969492084435), 1e-6),
    (("lightlike", 0, 3.032501430317681, 0.0004955534301150293), 1e-8),
    (("lightlike", 1, 5.519352334847836e-08, 8.625716396835074e-09), 1e-8),
    (("lightlike", -1, 2.0756556769871715e-05, 2.0749666831495352e-08), 1e-8),
    (("ideal", 0, 0.08905398898501914, 4.058052440944872e-07), 1e-6),
    (("ideal", 0, 0.08905398898501914, 4.058052440944872e-07), 1e-8),
    (("ideal", 0, 2.1673985899866873e-05, 2.5174406658309835e-09), 1e-8),
    (("lightlike", -1, 355.0, 1.0), 1e-8),
    (("lightlike", -1, 178.0, 178.0), 1e-8),
    (("lightlike", -1, 0.2810389125420838, 1.5979366581482044e-09), 1e-8),
    (("lightlike", -1, 1e-300, 100.0), 1e-8),
    (("lightlike", 1, 0.6283183307179586, 2.5132733228718345), 1e-10),
    (("lightlike", 1, 0.6283185107179587, 2.513274042871835), 1e-10),
])
def test_skewed_cells_bound_their_error(cell, tol):
    val, err = volume_quadrature(*cell, tol=tol)
    true = _true_error(cell, val)
    assert true <= err <= tol, (true, err)


# Large equal AdS cells: the 2-D oracle exhausted its budget here, and at
# (20, 20) the estimate its ToleranceNotReached carried was 16x too small.
@pytest.mark.parametrize("a", [12.0, 15.0, 20.0, 25.0])
def test_large_ads_lightlike_cells_bound_their_error(a):
    cell = ("lightlike", -1, a, a)
    try:
        val, err = volume_quadrature(*cell, tol=1e-8)
    except ToleranceNotReached as exc:
        val, err = exc.value, exc.err_est
    true = _true_error(cell, val)
    assert true <= err, (true, err)


def test_sin2_map_keeps_its_digits_near_zero():
    # The ideal chart puts theta = (alpha / 2) phi(phi(xi)); a phi that rounds
    # to 0 would put a node on the density's pole.
    from dualtet.volumes import _sin2, _sin2_twice

    u = np.array([1e-30, 1e-12, 1e-6, 1e-3, 0.05, 0.1249, 0.125, 0.3, 0.5, 0.8, 0.99])
    phi, dphi = _sin2(u[:, None])
    with mpmath.workdps(80):
        for k, x in enumerate(u):
            z = 2 * mpmath.pi * mpmath.mpf(x)
            assert phi[k, 0] == pytest.approx(float((z - mpmath.sin(z)) / (2 * mpmath.pi)),
                                              rel=1e-15)
            assert dphi[k, 0] == pytest.approx(float(1 - mpmath.cos(z)), rel=1e-14)
    assert np.all(_sin2_twice(np.array([1e-3, 1e-2]))[0] > 0)


# Cells with a skew of about 16 (beta / alpha, both ways) next to plain ones.
_CACHE_CELLS = [(0.3, 0.4), (0.09, 1.45), (1.45, 0.09), (0.02, 0.33)]


def test_node_map_cache_keeps_oracle_values():
    from dualtet.cubature import _nodes, _segment_nodes
    from dualtet.volumes import _sin2_ends, _sin2_twice

    def quadratures(cold):
        got = []
        for kind in ("ideal", "lightlike"):
            for lam in LAMBDAS:
                for a, b in _CACHE_CELLS:
                    if cold:
                        _clear_node_caches()
                    got.append(volume_quadrature(kind, lam, a, b))
        return got

    cold = quadratures(cold=True)
    assert quadratures(cold=False) == cold
    # The maps hand the same arrays to every integral, so none may be
    # written.  They come back in the caller's shape, leading axes
    # included, and the same bytes in another shape are an entry of their own.
    u = np.linspace(0.0, 0.75, 15)
    for node_map in (_sin2_twice, _sin2_ends):
        seen = []
        for shape in ((15,), (1, 15), (3, 5)):
            out = node_map(u.reshape(shape))
            assert node_map(u.reshape(shape)) is out
            assert all(out is not other for other in seen)
            seen.append(out)
            for arr in out:
                assert arr.shape[arr.ndim - len(shape):] == shape
                with pytest.raises(ValueError):
                    arr[(0,) * arr.ndim] = 1.0
    # The cubature's segment nodes are those of `_nodes`, shared read-only.
    segs = ((0.0, 0.25), (0.25, 0.5), (0.5, 1.0))
    half, x = _segment_nodes(segs)
    want_half, want_x = _nodes(np.array(segs))
    assert half.tobytes() == want_half.tobytes() and x.tobytes() == want_x.tobytes()
    assert _segment_nodes(segs)[1] is x
    for arr in (half, x):
        with pytest.raises(ValueError):
            arr[0] = 1.0


# Cells whose nodes leave the float range: theta underflows to 0 in the
# ideal chart, and p or 1/p passes ~1e154 in the lightlike one.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["ideal", "lightlike"])
@pytest.mark.parametrize("cell", [(1, 3.7e-229, 1.5e-58), (1, 1e-300, 1e-10),
                                  (-1, 1e-200, 1.0)])
def test_extreme_cells_raise_no_runtime_warning(kind, cell):
    closed = (ideal_volume if kind == "ideal" else lightlike_volume)(*cell)
    try:
        val, err = volume_quadrature(kind, *cell)
    except ToleranceNotReached:
        return
    assert math.isfinite(val) and abs(val - closed) <= err


def _old_ideal_density(lam, alpha, beta, theta, u):
    """The ideal chart density as written before: r_edge / (2 (r0 - u r_edge))."""
    s_a, s_ab, s_b = (_gsin(lam, x) for x in (alpha, alpha + beta, beta))
    r_edge = s_b * s_ab / (s_a * _gsin(lam, theta + beta))
    r0 = _gsin(lam, alpha + beta - theta) / s_a
    return r_edge / (2.0 * (r0 - u * r_edge))


def _lightlike_integrand(lam, alpha, beta):
    """The lightlike chart density in (t, v), t in [-pi/4, pi/4], v in
    [0, 1], as the 2-D lightlike oracle integrated it.  It is
    g(r) width / cos(s)^2 with s = |t| + v width, width = pi/2 - 2|t|, r the
    inverse cotangent of arg = (a sin t + b cos t + c sin s) / (d cos s) and
    g(r) = (s(2r) - 2r) / (-4 lam), or r^3 / 3.

    At lam = -1, r = log1p(2 / y) / 2 blows up as y = arg - 1 goes to 0, so
    y is formed directly as a sum of terms that are >= 0 on the chart,
    with sigma = alpha + beta, p = s(alpha) / s(beta), h = (s + t) / 2 and
    d = (s - t) / 2 = ((|t| - t) + v width) / 2:

        y = [p (sin t + sin s) / 2 + cos h sin d / p + e^-sigma (cos t + cos s) / 2
             + e^sigma sin h sin d] / (sinh sigma cos s),

    and g = (2 (1 + y) / (y (y + 2)) - log1p(2 / y)) / 4."""
    s_a, s_b = gsin(lam, alpha), gsin(lam, beta)
    p = s_a / s_b
    sigma = alpha + beta
    a_c, c_c = 0.5 * (p - 1.0 / p), 0.5 * (p + 1.0 / p)
    b_c, d_c = gcos(lam, sigma), gsin(lam, sigma)
    if lam == -1:
        e_lo, e_hi = math.exp(-sigma), math.exp(sigma)

    def f(t, v):
        att = np.abs(t)
        width = 0.5 * math.pi - 2.0 * att
        s = att + v * width
        cos_s = np.cos(s)
        if lam == -1:
            h = 0.5 * (s + t)
            sin_d = np.sin(0.5 * ((att - t) + v * width))
            y = (0.5 * p * (np.sin(t) + np.sin(s)) + sin_d * (np.cos(h) / p + e_hi * np.sin(h))
                 + 0.5 * e_lo * (np.cos(t) + cos_s)) / (d_c * cos_s)
            g = 0.25 * (2.0 * (1.0 + y) / (y * (y + 2.0)) - np.log1p(2.0 / y))
        else:
            x = (a_c * np.sin(t) + b_c * np.cos(t) + c_c * np.sin(s)) / (d_c * cos_s)
            r = 0.5 * math.pi - np.arctan(x) if lam == 1 else 1.0 / x
            g = r ** 3 / 3.0 if lam == 0 else 0.25 * (2.0 * r - np.sin(2.0 * r))
        return g * width / cos_s ** 2

    return f


def _old_lightlike_density(lam, alpha, beta, t, v):
    """The lightlike chart density as written before, with arccoth(x) as
    log((x + 1) / (x - 1)) / 2 at lam = -1."""
    s_a, s_b = _gsin(lam, alpha), _gsin(lam, beta)
    a_c, c_c = 0.5 * (s_a / s_b - s_b / s_a), 0.5 * (s_a / s_b + s_b / s_a)
    b_c = {1: math.cos, -1: math.cosh}.get(lam, lambda x: 1.0)(alpha + beta)
    d_c = _gsin(lam, alpha + beta)
    width = 0.5 * math.pi - 2.0 * np.abs(t)
    s = np.abs(t) + v * width
    arg = (a_c * np.sin(t) + b_c * np.cos(t) + c_c * np.sin(s)) / (d_c * np.cos(s))
    if lam == 0:
        g = (1.0 / arg) ** 3 / 3.0
    else:
        if lam == -1:
            r = 0.5 * np.log((arg + 1.0) / (arg - 1.0))
        else:
            r = 0.5 * math.pi - np.arctan(arg)
        g = (_gsin(lam, 2.0 * r) - 2.0 * r) / (-4.0 * lam)
    return g * width / np.cos(s) ** 2


def _gsin(lam, x):
    return {1: np.sin, -1: np.sinh}.get(lam, lambda y: y)(x)


@pytest.mark.parametrize("lam", LAMBDAS)
def test_rewritten_densities_match_old_formulas(lam):
    from dualtet.volumes import _ideal_oracle, _sin2_twice

    frac = np.linspace(0.05, 0.95, 13)
    for alpha, beta in ((0.7, 0.9), (0.3, 1.2), (1.1, 0.4)):
        # The 1-D ideal integrand is the old chart density integrated over u,
        # at theta = (alpha / 2) phi(phi(xi)), times the Jacobian alpha phi'.
        # Below xi = 0.25 theta < 0.003 alpha, where the old density loses
        # more digits to cancellation at u = 1 than the bound allows.
        xi = np.linspace(0.25, 0.95, 13)
        p, dp = _sin2_twice(xi)
        old = [alpha * d * quad(lambda u: _old_ideal_density(lam, alpha, beta, 0.5 * alpha * th, u),
                                0.0, 1.0, epsabs=0.0, epsrel=1e-13)[0] for th, d in zip(p, dp)]
        np.testing.assert_allclose(_ideal_oracle(lam, alpha, beta)(xi), old, rtol=1e-11, atol=0)
        # The 2-D density kept here as a fixture is the old formula.
        t = (0.25 * math.pi) * np.linspace(-0.95, 0.95, 13)[:, None]
        new = _lightlike_integrand(lam, alpha, beta)(t, frac[None, :])
        old = _old_lightlike_density(lam, alpha, beta, t, frac[None, :])
        np.testing.assert_allclose(new, old, rtol=1e-11, atol=0)
def _old_panels_1d(f, segs, held):
    """_panels_1d as it was, its rule sums formed in numpy under errstate."""
    from dualtet.cubature import _RULES, _nodes

    half, x = _nodes(np.array(segs, dtype=float))
    vals = np.broadcast_to(np.asarray(f(x), dtype=float), x.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = half[:, None] * np.einsum("nk,rk->nr", vals, _RULES)
        err = np.abs(sums[:, 0] - sums[:, 1])
    if not np.isfinite(err).all():
        raise ToleranceNotReached(math.nan, math.inf, panels=held)
    return sums[:, 0].tolist(), err.tolist()


@pytest.mark.parametrize("kind, lam", [("ideal", -1), ("ideal", 0), ("ideal", 1)])
def test_ideal_and_flat_lightlike_oracle_keep_their_bits(kind, lam):
    """Ideal values and estimates are the bits of the route before the
    cubature's bookkeeping was reworked: the ideal integrand (unchanged)
    through one call per split, with the old rule sums.  The lam = 0
    lightlike oracle is the Schlafli integrand now, a new route."""
    from dualtet.volumes import _ideal_oracle

    for a, b in _CACHE_CELLS:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            want = _one_call_per_split_quad(_ideal_oracle(lam, a, b), 0.0, 1.0, 1e-8,
                                            panels=_old_panels_1d)
        got = volume_quadrature(kind, lam, a, b)
        assert [x.hex() for x in got] == [x.hex() for x in want], (a, b)


# Per lam: a plain cell, a skewed one, and a large one (at lam = 1 one with
# alpha + beta > pi/2, where c(alpha + beta) < 0).
_CHART_CELLS = {-1: ((0.4, 0.7), (0.05, 0.9), (1.5, 2.5)),
                0: ((0.4, 0.7), (0.05, 0.9), (1.5, 0.3)),
                1: ((0.4, 0.7), (0.05, 0.9), (1.2, 1.5))}


@pytest.mark.parametrize("lam", LAMBDAS)
def test_schlafli_oracle_integrates_the_chart_density(lam):
    """The tie of the Schlafli route to the geometry: scipy's integral of
    the lightlike chart density over (t, v), the volume form itself, is
    the lightlike oracle's integral of dV/dalpha, to 1e-10 relative."""
    for alpha, beta in _CHART_CELLS[lam]:
        def v_integral(t):
            return quad(lambda v: _old_lightlike_density(lam, alpha, beta, t, v), 0.0, 1.0,
                        epsabs=0.0, epsrel=1e-12, limit=200)[0]

        # The density has a kink at t = 0.
        chart = sum(quad(v_integral, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]
                    for lo, hi in ((-0.25 * math.pi, 0.0), (0.0, 0.25 * math.pi)))
        got, _err = volume_quadrature("lightlike", lam, alpha, beta, tol=1e-10)
        assert got == pytest.approx(chart, rel=1e-10, abs=0.0), (alpha, beta)


def test_x_over_s_series_regenerates_from_mpmath():
    """The series coefficients of x / s(x) - 1 are mpmath's Taylor
    coefficients rounded to floats, and the series, cut where it has
    converged, is within 4e-16 of 50-digit x / s(x) - 1 on (0, 1]."""
    from dualtet.volumes import _X_OVER_S_LAM, _horner, _x_over_s_series

    x = np.concatenate((np.geomspace(1e-8, 1.0, 300), np.linspace(0.2, 1.0, 300)))
    with mpmath.workdps(50):
        for lam, fn in ((1, mpmath.sin), (-1, mpmath.sinh)):
            taylor = mpmath.taylor(lambda v: v / fn(v) if v else mpmath.mpf(1), 0, 36)
            assert _X_OVER_S_LAM[lam] == tuple(float(c) for c in taylor[2::2])
            for xi in x:
                got = _horner(_x_over_s_series(lam, xi), xi * xi)
                want = mpmath.mpf(xi) / fn(xi) - 1
                assert abs((got - want) / want) < 4e-16, (lam, xi)


_ROOT_SEGMENTS = ((0.0, 1.0), (0.0, 0.5), (0.5, 1.0), (0.0, 0.25), (0.25, 0.5), (0.5, 0.75),
                  (0.75, 1.0))
# Per lam: tiny cells, skewed ones both ways, cells past the series' reach,
# and at lam = 1 cells near alpha + beta = pi, at lam = -1 large ones.
_SCHLAFLI_CELLS = {
    1: ((1e-6, 2e-6), (3e-9, 5e-9), (0.2810389125420838, 1.5979366581482044e-09),
        (1.5979366581482044e-09, 0.2810389125420838), (1.2, 1e-7), (0.3, 0.6), (1.0, 0.2),
        (0.6283185107179587, 2.513274042871835), (3.1, 0.04), (0.02, 3.12)),
    -1: ((1e-6, 2e-6), (3e-9, 5e-9), (0.2810389125420838, 1.5979366581482044e-09),
         (1.5979366581482044e-09, 0.2810389125420838), (2.0, 1e-7), (0.3, 0.6), (1.0, 0.2),
         (355.0, 1.0), (178.0, 178.0), (20.0, 0.3), (0.3, 20.0)),
}


@pytest.mark.parametrize("lam", [1, -1])
def test_schlafli_integrand_matches_50_digits(lam):
    """The lightlike integrand is dV/dalpha = (x / t(x) - y / t(y)) / lam,
    y = x + beta, times the Jacobian alpha phi'(u) at x = alpha phi(u): on
    the nodes of the root call it is within 1e-14 of 50-digit mpmath, with
    x formed there from the same u."""
    from dualtet.cubature import _segment_nodes
    from dualtet.volumes import _lightlike_oracle

    u = _segment_nodes(_ROOT_SEGMENTS)[1].ravel()
    t = mpmath.tan if lam == 1 else mpmath.tanh
    for alpha, beta in _SCHLAFLI_CELLS[lam]:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            got = _lightlike_oracle(lam, alpha, beta)(u)
        with mpmath.workdps(50):
            a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
            for ui, gi in zip(u, got):
                z = 2 * mpmath.pi * mpmath.mpf(ui)
                x = a * (z - mpmath.sin(z)) / (2 * mpmath.pi)
                want = (x / t(x) - (x + b) / t(x + b)) / lam * a * (1 - mpmath.cos(z))
                assert abs((gi - want) / want) < 1e-14, (alpha, beta, ui)


# Cells past the float range of the oracle's set-up or nodes: sinh(beta), and
# sinh(alpha + beta), overflow.
@pytest.mark.parametrize("kind, cell", [("lightlike", (-1, 1e-6, 800.0)),
                                        ("lightlike", (-1, 400.0, 400.0)),
                                        ("ideal", (-1, 400.0, 400.0))])
def test_oracle_set_up_out_of_float_range_raises_typed(kind, cell):
    with pytest.raises(ToleranceNotReached, match="left the float range") as exc:
        volume_quadrature(kind, *cell)
    assert math.isnan(exc.value.value) and exc.value.err_est == math.inf


@pytest.mark.parametrize("cell", [(400.0, 400.0), (300.0, 500.0), (20.0, 20.0),
                                  (0.3, 20.0), (19.9, 0.3)])
def test_lightlike_volume_past_sinh_overflow(cell):
    """At lam = -1, log|sinh x| is formed from its logarithm for |x| >= 20,
    so the volume stays finite where sinh(alpha + beta) overflows."""
    got = lightlike_volume(-1, *cell)
    assert math.isfinite(got)
    assert got == pytest.approx(float(volume_reference("lightlike", -1, *cell)), rel=1e-14)


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
