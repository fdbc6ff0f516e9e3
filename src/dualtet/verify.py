"""Seeded invariant suites behind the `verify` command.

Each suite returns (name, passed, detail) rows; the CLI prints one line per
row and fails when any row fails.  The checks mirror the library's core
contracts: trigonometric and ring identities, isometry invariance of the
metric and constructors, duality exchange, tetrahedron round trips and the
agreement of closed-form volumes with the quadrature oracle.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .cubature import adaptive_quad
from .errors import DualtetError, NormalizationFailure
from .gcnum import GC, gcos, gsin
from .geometry import (
    BoundaryPoint,
    arc_length,
    cross_ratio,
    dualize,
    geodesic_through,
    intersect_lightlike_planes,
    stabilizer_element,
)
from .matmodel import (
    Isometry,
    Mat2,
    Point,
    Tangent,
    act,
    embed,
    exp_point,
    involution,
    point_sqrt,
    push,
    tangent_metric,
)
from .tetrahedra import (
    _cross_ratio_orbit,
    dualize_tet,
    edge_data,
    lightlike_from_angles,
    ideal_from_angles,
    opposite_edge_distance,
    recover_parameters,
)
from .volumes import (
    _gsin_np,
    clausen,
    ideal_volume,
    lightlike_volume,
    lightlike_volume_series,
    volume_quadrature,
)

LAMBDAS = (-1, 0, 1)


def random_isometry(rng: np.random.Generator, lam: int, scale: float = 0.5) -> Isometry:
    while True:
        entries = [GC(rng.normal(0.0, scale) + (1.0 if k in (0, 3) else 0.0),
                      rng.normal(0.0, scale), lam) for k in range(4)]
        try:
            return Isometry(Mat2(*entries))
        except NormalizationFailure:  # rejection sampling
            continue


def random_spacelike_tangent(rng: np.random.Generator, space: str, lam: int) -> Tangent:
    from .geometry import model_from_coords, model_gram

    g = model_gram(space, lam)
    while True:
        coords = rng.normal(size=3)
        q = coords @ g @ coords
        if q > 0.1:
            rep = model_from_coords(space, coords / math.sqrt(q), lam)
            return Tangent(space, rep)


def _row(name, ok, detail=""):
    return (name, bool(ok), detail)


def suite_gcnum(rng: np.random.Generator):
    rows = []
    worst_pyth = worst_add = 0.0
    for _ in range(2000):
        lam = int(rng.integers(-1, 2))
        th, ph = rng.uniform(-3, 3, 2)
        worst_pyth = max(worst_pyth, abs(gcos(lam, th) ** 2 + lam * gsin(lam, th) ** 2 - 1))
        worst_add = max(
            worst_add,
            abs(gcos(lam, th) * gcos(lam, ph) - lam * gsin(lam, th) * gsin(lam, ph)
                - gcos(lam, th + ph)),
            abs(gcos(lam, th) * gsin(lam, ph) + gsin(lam, th) * gcos(lam, ph)
                - gsin(lam, th + ph)),
        )
    rows.append(_row("trig pythagorean identity", worst_pyth <= 1e-12, f"worst {worst_pyth:.2e}"))
    rows.append(_row("trig addition formulas", worst_add <= 1e-12, f"worst {worst_add:.2e}"))
    h, worst_d = 1e-5, 0.0
    for _ in range(300):
        lam = int(rng.integers(-1, 2))
        th = rng.uniform(-2, 2)
        dc = (gcos(lam, th + h) - gcos(lam, th - h)) / (2 * h)
        ds = (gsin(lam, th + h) - gsin(lam, th - h)) / (2 * h)
        worst_d = max(worst_d, abs(dc + lam * gsin(lam, th)), abs(ds - gcos(lam, th)))
    rows.append(_row("trig derivatives (finite differences)", worst_d <= 1e-6, f"worst {worst_d:.2e}"))
    worst_ring = 0.0
    for _ in range(500):
        lam = int(rng.integers(-1, 2))
        a, b, c = (GC(*rng.uniform(-2, 2, 2), lam) for _ in range(3))
        lhs, rhs = (a * b) * c, a * (b * c)
        worst_ring = max(worst_ring, abs(lhs.re - rhs.re), abs(lhs.im - rhs.im))
        lhs, rhs = a * (b + c), a * b + a * c
        worst_ring = max(worst_ring, abs(lhs.re - rhs.re), abs(lhs.im - rhs.im))
        if a.is_unit():
            w = a * a.inv()
            worst_ring = max(worst_ring, abs(w.re - 1), abs(w.im))
    rows.append(_row("ring laws and unit inverses", worst_ring <= 1e-11, f"worst {worst_ring:.2e}"))
    return rows


def suite_matmodel(rng: np.random.Generator):
    rows = []
    ok_quad = True
    for _ in range(300):
        lam = int(rng.integers(-1, 2))
        v = rng.normal(size=4)
        m = embed(v, "Y", lam)
        det = m.det()
        ambient = -v[0] ** 2 + lam * v[1] ** 2 + v[2] ** 2 + v[3] ** 2
        ok_quad &= abs(det.re + ambient) < 1e-10 and abs(det.im) < 1e-12
    rows.append(_row("dual-family embedding: det = -<v,v>", ok_quad))
    ok_sqrt = ok_metric = True
    for _ in range(120):
        lam = int(rng.integers(-1, 2))
        space = "X" if rng.random() < 0.5 else "Y"
        a = random_isometry(rng, lam)
        p = act(a, Point.origin(space, lam))
        sq = point_sqrt(p)
        ok_sqrt &= act(sq, Point.origin(space, lam)).isclose(p)
        t = random_spacelike_tangent(rng, space, lam)
        moved = act(a, t)
        ok_metric &= abs(tangent_metric(moved, moved) - tangent_metric(t, t)) < 1e-9
    rows.append(_row("hermitian square roots reach their points", ok_sqrt))
    rows.append(_row("tangent metric invariance", ok_metric))
    ok_flat = True
    for _ in range(80):
        a = random_isometry(rng, 0)
        t = random_spacelike_tangent(rng, "X", 0)
        pushed = push(a, t.rep, "X")
        re_a = Mat2.from_real(a.rep.re_rows(), 0)
        conj = re_a @ t.rep @ re_a.inv()
        cross_ok = False
        for s in (1.0, -1.0):
            diff = pushed - conj * (s * math.sqrt(pushed.frob_sq() / conj.frob_sq()))
            cross_ok |= diff.frob_sq() < 1e-18 * pushed.frob_sq()
        ok_flat &= cross_ok
    rows.append(_row("flat case: pushforward is real-part conjugation", ok_flat))
    ok_exp = True
    for _ in range(60):
        lam = int(rng.integers(-1, 2))
        space = "X" if rng.random() < 0.5 else "Y"
        t = random_spacelike_tangent(rng, space, lam)
        theta = rng.uniform(0.0, 1.5)
        p = exp_point(theta, t)
        series = _taylor_exp(t.rep * (0.5 * theta))
        q = Point(space, series @ involution(series, space))
        ok_exp &= p.isclose(q, 1e-10)
    rows.append(_row("exponential matches its Taylor series", ok_exp))
    return rows


def _taylor_exp(m: Mat2, terms: int = 40) -> Mat2:
    acc = Mat2.identity(m.lam)
    term = Mat2.identity(m.lam)
    for k in range(1, terms):
        term = term @ m * (1.0 / k)
        acc = acc + term
    return acc


def suite_geometry(rng: np.random.Generator):
    rows = []
    ok_equi = ok_orbit = ok_inc = ok_ends = True
    for _ in range(60):
        lam = int(rng.integers(-1, 2))
        a = random_isometry(rng, lam)
        t = lightlike_from_angles(lam, *rng.uniform(0.2, 1.0, 2))
        f1, f2, f3, _f4 = t.faces()
        g = intersect_lightlike_planes(f1, f2)
        g_moved = intersect_lightlike_planes(f1.moved(a), f2.moved(a))
        p_moved = act(a, g.eval(0.37))
        _sig, dist = arc_length(g_moved.base_point(), p_moved)
        params = (dist, -dist) + ((math.pi - dist, dist - math.pi) if lam == 1 else ())
        ok_equi &= any(p_moved.isclose(g_moved.eval(s), 1e-7) for s in params)
        z = GC(*rng.uniform(-1.5, 1.5, 2), lam)
        pts = [BoundaryPoint.infinity(lam), BoundaryPoint.zero(lam), BoundaryPoint.one(lam)]
        try:
            fourth = BoundaryPoint.from_value(z)
            base = cross_ratio(*pts, fourth)
        except DualtetError:  # resample degenerate draws
            continue
        moved = [bp.moved(a) for bp in pts + [fourth]]
        z2 = cross_ratio(*moved)
        ok_equi &= base.isclose(z2, 1e-9)
        try:
            orbit = _cross_ratio_orbit(base)
        except DualtetError:
            continue
        found = [cross_ratio(*trip, fourth) for trip in itertools.permutations(pts)]
        for v in found:
            ok_orbit &= any(v.isclose(e, 1e-9) for e in orbit)
        for e in orbit:
            ok_orbit &= any(v.isclose(e, 1e-9) for v in found)
        x = act(a, Point.origin("X", lam))
        y = act(random_isometry(rng, lam), Point.origin("Y", lam))
        ok_inc &= dualize(x).contains(y, 1e-8) == dualize(y).contains(x, 1e-8)
        g2 = geodesic_through(act(a, Point.origin("Y", lam)),
                              act(a, exp_point(0.8, random_spacelike_tangent(rng, "Y", lam))))
        if g2.sigma == 1:
            trans = stabilizer_element(g2, rng.uniform(0.2, 1.0), 1.0, 0.0)
            e1, e2 = g2.endpoints()
            ok_ends &= act(trans, e1).isclose(e1) and act(trans, e2).isclose(e2)
    rows.append(_row("constructors commute with isometries", ok_equi))
    rows.append(_row("cross-ratio orbit under vertex permutations", ok_orbit))
    rows.append(_row("duality exchanges incidence", ok_inc))
    rows.append(_row("geodesic translations fix ideal endpoints", ok_ends))
    return rows


def suite_tetrahedra(rng: np.random.Generator):
    rows = []
    ok_round = True
    grid = [0.1, 0.4, 0.8, 1.1, 1.5]
    for lam in LAMBDAS:
        for a in grid:
            for b in grid:
                if lam == 1 and a + b >= math.pi - 0.1:
                    continue
                t = lightlike_from_angles(lam, a, b)
                _pose, ra, rb = recover_parameters(t.vertices, "lightlike", lam)
                ok_round &= abs(ra - a) < 1e-9 and abs(rb - b) < 1e-9
                ti = ideal_from_angles(lam, a, b)
                _pose, ra, rb = recover_parameters(ti.vertices, "ideal", lam)
                ok_round &= abs(ra - a) < 1e-9 and abs(rb - b) < 1e-9
    rows.append(_row("constructor/recovery round trip on the grid", ok_round))
    ok_edges = ok_time = ok_dual = ok_cr = True
    for _ in range(25):
        lam = int(rng.integers(-1, 2))
        a, b = rng.uniform(0.2, 1.2, 2)
        if lam == 1 and a + b >= math.pi - 0.1:
            continue
        t = lightlike_from_angles(lam, a, b)
        for (i, j), expect in (((4, 1), a), ((4, 2), b), ((4, 3), a + b),
                               ((1, 2), a + b), ((1, 3), b), ((2, 3), a)):
            sig, d = arc_length(t.vertex(i), t.vertex(j))
            hit = abs(d - expect) < 1e-9 or (lam == 1 and abs((math.pi - d) - expect) < 1e-9)
            ok_edges &= sig == 1 and hit
        sig, _d = opposite_edge_distance(t, 3, 0.0, 0.0)
        ok_time &= sig == -1
        for i in (1, 2):
            off = 0.45 * abs({1: a, 2: b}[i])
            sig, _d = opposite_edge_distance(t, i, rng.uniform(-off, off), rng.uniform(-off, off))
            ok_time &= sig == 1
        d = dualize_tet(t)
        ok_dual &= d.kind == "ideal" and abs(d.alpha - a) < 1e-8 and abs(d.beta - b) < 1e-8
        dd = dualize_tet(d)
        ok_dual &= all(v.isclose(w, 1e-6) for v, w in zip(t.vertices, dd.vertices))
        # dd is written down from d's parameters and pose; check it against
        # d's vertices: vertex i of dd lies on the planes dual to the others.
        planes = [dualize(w) for w in d.vertices]
        ok_dual &= all(plane.contains(v, 4e-11) for i, v in enumerate(dd.vertices)
                       for j, plane in enumerate(planes) if j != i)
        ti = ideal_from_angles(lam, a, b)
        z = cross_ratio(*ti.vertices)
        ok_cr &= z.isclose(edge_data(ti)[0].z, 1e-10)
    rows.append(_row("edge lengths are (alpha, beta, alpha+beta)", ok_edges))
    rows.append(_row("timelike separation only across the longest pair", ok_time))
    rows.append(_row("duality swaps kinds and preserves parameters", ok_dual))
    rows.append(_row("vertex cross-ratio equals the edge shape parameter", ok_cr))
    return rows


def suite_volumes(rng: np.random.Generator):
    rows = []
    worst_odd = 0.0
    for _ in range(200):
        lam = int(rng.integers(-1, 2))
        x = rng.uniform(0.01, 3.0)
        worst_odd = max(worst_odd, abs(clausen(lam, x) + clausen(lam, -x)))
    rows.append(_row("clausen oddness", worst_odd <= 1e-12, f"worst {worst_odd:.2e}"))
    worst_int = 0.0
    for lam in LAMBDAS:
        for x in (0.4, 1.1, 2.3, 3.0):
            def integrand(th, _lam=lam):
                return np.log(np.abs(2.0 * _gsin_np(_lam, 0.5 * th)))
            ref, _e = adaptive_quad(integrand, 1e-12, x, tol=1e-12)
            worst_int = max(worst_int, abs(clausen(lam, x) + ref))
    rows.append(_row("clausen matches its defining integral", worst_int <= 1e-9,
                     f"worst {worst_int:.2e}"))
    worst_ratio, worst_pos, worst_sym = 0.0, 1.0, 0.0
    for lam in LAMBDAS:
        for a in (0.2, 0.5, 0.9):
            for b in (0.2, 0.5, 0.9):
                if lam == 1 and a + b >= math.pi:
                    continue
                for kind, closed in (("ideal", ideal_volume), ("lightlike", lightlike_volume)):
                    cf = closed(lam, a, b)
                    val, err = volume_quadrature(kind, lam, a, b, tol=1e-8)
                    # An estimate of 0 counts as the least positive float.
                    worst_ratio = max(worst_ratio, abs(cf - val) / max(err, math.ulp(0.0)))
                    worst_pos = min(worst_pos, cf)
                    worst_sym = max(worst_sym, abs(cf - closed(lam, b, a)))
    rows.append(_row("closed forms match the quadrature oracle", worst_ratio <= 1.0,
                     f"worst |closed - oracle| / err_est {worst_ratio:.2e}"))
    rows.append(_row("volumes positive on the grid", worst_pos > 0.0, f"min {worst_pos:.2e}"))
    rows.append(_row("volumes symmetric in (alpha, beta)", worst_sym <= 1e-11,
                     f"worst {worst_sym:.2e}"))
    worst_series = 0.0
    for lam in (-1, 1):
        for ab in (0.1, 0.25, 0.4):
            worst_series = max(worst_series, abs(
                lightlike_volume(lam, ab, ab) - lightlike_volume_series(lam, ab, ab, 20)))
    rows.append(_row("curvature series agrees with the closed form", worst_series <= 1e-10,
                     f"worst {worst_series:.2e}"))
    return rows


SUITES = {
    "gcnum": suite_gcnum,
    "matmodel": suite_matmodel,
    "geometry": suite_geometry,
    "tetrahedra": suite_tetrahedra,
    "volumes": suite_volumes,
}


def run_suites(seed: int, names=None):
    rng = np.random.default_rng(seed)
    results = []
    for name, suite in SUITES.items():
        if names and name not in names:
            continue
        for row in suite(rng):
            results.append((name,) + row)
    return results
