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
    assert shapes[0] == (3, 15) and set(shapes[1:]) == {(2, 15)}


def test_quadrature_1d_splits_the_root():
    from dualtet.cubature import adaptive_quad

    calls = []

    def f(x):
        calls.append(x.shape)
        return 1.0 + 0 * x

    assert adaptive_quad(f, 0, 1)[0] == pytest.approx(1.0, rel=1e-14)
    assert calls == [(3, 15)]


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


def volume_reference(kind: str, lam: int, alpha: float, beta: float):
    """30-digit closed form: mpmath's Clausen function at lam = 1 and the
    dilogarithm form pi^2/6 - x^2/4 - Li2(e^-x) at lam = -1."""
    def cl(x):
        if lam == 0:
            return x * (1 - mpmath.log(abs(x)))
        if lam == 1:
            return mpmath.clsin(2, x)
        return mpmath.sign(x) * (mpmath.pi ** 2 / 6 - x ** 2 / 4
                                 - mpmath.polylog(2, mpmath.exp(-abs(x))))

    def log_s(x):
        return mpmath.log({1: mpmath.sin, -1: mpmath.sinh}.get(lam, lambda y: y)(x))

    with mpmath.workdps(30):
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
# and tiny lightlike cells where the v integral lost its digits to its flat
# part (u = 1/x) before that part was subtracted.
@pytest.mark.parametrize("cell, tol", [
    (("lightlike", 1, 1.1591715644396432, 0.00016472969492084435), 1e-6),
    (("lightlike", 0, 3.032501430317681, 0.0004955534301150293), 1e-8),
    (("lightlike", 1, 5.519352334847836e-08, 8.625716396835074e-09), 1e-8),
    (("lightlike", -1, 2.0756556769871715e-05, 2.0749666831495352e-08), 1e-8),
    (("ideal", 0, 0.08905398898501914, 4.058052440944872e-07), 1e-6),
    (("ideal", 0, 0.08905398898501914, 4.058052440944872e-07), 1e-8),
    (("ideal", 0, 2.1673985899866873e-05, 2.5174406658309835e-09), 1e-8),
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
    from dualtet.volumes import _sin2, _sin2_twice

    def quadratures(cold):
        got = []
        for kind in ("ideal", "lightlike"):
            for lam in LAMBDAS:
                for a, b in _CACHE_CELLS:
                    if cold:
                        _sin2.cache_clear()
                        _sin2_twice.cache_clear()
                    got.append(volume_quadrature(kind, lam, a, b))
        return got

    cold = quadratures(cold=True)
    assert quadratures(cold=False) == cold
    # The maps hand the same arrays to every integral, so none may be written.
    for node_map in (_sin2, _sin2_twice):
        for arr in node_map(np.linspace(0.0, 1.0, 15)[None, :]):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0


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


def _v_integral_reference(lam, alpha, beta, t):
    """The lightlike chart density integrated over v by scipy quad."""
    f = _lightlike_integrand(lam, alpha, beta)
    return quad(lambda v: f(t, v), 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)[0]


# Per lam: cells with alpha = beta (so h = 0 at t = 0), cells where
# t = atan(a / b), the zero of h, lies in [-pi/4, pi/4], at lam = 1
# cells with alpha + beta > pi/2, where b < 0, and at lam = +-1 a small
# cell, where u = 1/x < 1/2 at every t and the flat part is subtracted.
_V_INTEGRAL_CELLS = {
    -1: ((0.7, 0.9), (0.3, 1.2), (1.1, 0.4), (0.8, 0.8), (1.0, 4.0), (0.1, 0.15)),
    0: ((0.7, 0.9), (0.3, 1.2), (1.1, 0.4), (0.8, 0.8)),
    1: ((0.7, 0.9), (0.3, 1.2), (1.1, 0.4), (0.8, 0.8), (0.3, 0.4), (1.2, 1.5), (1.4, 1.4),
        (0.1, 0.15)),
}


@pytest.mark.parametrize("lam", LAMBDAS)
def test_rewritten_densities_match_old_formulas(lam):
    from dualtet.volumes import _ideal_oracle, _lightlike_v_integral, _sin2_twice

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
    # The 1-D lightlike integrand is that density integrated over v.
    zeros_of_h = 0
    for alpha, beta in _V_INTEGRAL_CELLS[lam]:
        s_a, s_b = (gsin(lam, x) for x in (alpha, beta))
        t_e = math.atan(0.5 * (s_a / s_b - s_b / s_a) / gcos(lam, alpha + beta))
        ts = list((0.25 * math.pi) * np.linspace(-0.98, 0.98, 15)) + [0.0, 1e-9, -1e-9]
        if abs(t_e) < 0.25 * math.pi:
            ts += [t_e, math.nextafter(t_e, 1.0), t_e + 1e-9]
            zeros_of_h += 1
        got = _lightlike_v_integral(lam, alpha, beta)(np.array(ts))
        want = [_v_integral_reference(lam, alpha, beta, t) for t in ts]
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=0, err_msg=str((alpha, beta)))
    assert zeros_of_h >= 2


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
