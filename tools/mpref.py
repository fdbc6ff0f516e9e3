"""A 50-digit reference for the matrix model, and the accuracy of `sample`
and of `contains`' coefficients against it: SWEEP_chart_action.json.

    python tools/mpref.py PARENT CHANGE --out SWEEP_chart_action.json

The reference uses mpmath, in a context of its own at DPS digits, and
`dualtet` only for the inputs it is given.  Every double it takes is
converted exactly, so the results below are exact for those doubles to far
beyond double precision:

* `push`: the twisted push A m A^* of double inputs, A^* = A^circ on X and
  A^dag on Y;
* `det` and `abs_det_sq`: det of a matrix of the algebra, and |det|^2;
* `chart_point`: the chart point of either kind at double chart
  coordinates, pushed by a double pose and normalized exactly to det 1,
  with the sign tr >= 0;
* `pull_back`: the hermitian part of a point's representative, pulled back
  by the pose and normalized to det 1;
* `face_rows` and `coefficients`: what `contains` computes, exactly: a
  point's coordinates in the basis of the exact posed vertex vectors, each
  vector scaled and signed as the library's double one, and each
  coordinate signed so that the chart's centre reads positive; `inside`
  is `contains`' test on them;
* `ideal_null_vertices`: the vertices of a posed ideal tetrahedron at
  lam = -1 as null components, each real projective point scaled by its
  entry of larger magnitude, as `BoundaryPoint` scales them.

The sweep draws cells (alpha, beta) log-uniform in [LO, HI], with
CELLS_PER_BIN cells in every bin of kind, lam and alpha + beta below or
from SPLIT on (at lam = 1 only alpha + beta < pi is drawn), each at a pose
drawn by `dualtet.verify.random_isometry`.  Per cell it runs
`sample(t, SAMPLES, seed)`, replays its draws to get each point's chart
coordinates, and measures each point against `chart_point`.  It then
reads, with the checkout's own `_coefficients`, the coordinates of the
points `Point(...)` makes of the reference points rounded to doubles (so
both checkouts read the same bits), and measures them against
`coefficients`.  A sample error is the largest entry error over the
reference's Frobenius norm, on the eight numbers of the representative,
for the nearer of its two signs; a coefficient error is the largest
coordinate error over the sum of the reference's magnitudes.  Each
checkout runs in a child process with its own `src` first on the path,
and needs `_coefficients` (the barycentric `contains`); the first checkout
given is the parent, and with two the record gets a verdict per bin.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath

DPS = 50
mp = mpmath.MPContext()
mp.dps = DPS

KINDS = ("lightlike", "ideal")
LAMBDAS = (-1, 0, 1)
SEED = 35
CELLS_PER_BIN = 60
SAMPLES = 20
LO, HI = 0.02, 6.0
SPLIT = 4.0
EPS = 2.0 ** -52
QUANTILES = (("median", 0.5), ("p90", 0.9), ("p99", 0.99), ("max", 1.0))


# -- the algebra and its matrices, exactly ------------------------------------------


def exact(flat) -> tuple:
    """The numbers of `flat` as mpfs: a double exactly, an mpf as it is."""
    return tuple(x if isinstance(x, mp.mpf) else mp.mpf(float(x)) for x in flat)


def _mul(x0, x1, y0, y1, lam: int) -> tuple:
    # (x0 + l x1)(y0 + l y1) with l^2 = -lam
    return x0 * y0 - lam * x1 * y1, x0 * y1 + x1 * y0


def matmul(p: tuple, q: tuple, lam: int) -> tuple:
    a0, a1, b0, b1, c0, c1, d0, d1 = p
    e0, e1, f0, f1, g0, g1, h0, h1 = q
    out = []
    for r0, r1, s0, s1 in ((a0, a1, b0, b1), (c0, c1, d0, d1)):
        for u0, u1, v0, v1 in ((e0, e1, g0, g1), (f0, f1, h0, h1)):
            x = _mul(r0, r1, u0, u1, lam)
            y = _mul(s0, s1, v0, v1, lam)
            out += (x[0] + y[0], x[1] + y[1])
    return tuple(out)


def star(a: tuple, space: str) -> tuple:
    """A^circ = [[conj d, -conj b], [-conj c, conj a]] on X, A^dag on Y."""
    a0, a1, b0, b1, c0, c1, d0, d1 = a
    if space == "X":
        return (d0, -d1, -b0, b1, -c0, c1, a0, -a1)
    return (a0, -a1, c0, -c1, b0, -b1, d0, -d1)


def push(a, m, lam: int, space: str) -> tuple:
    """A m A^* on the eight numbers of A and m."""
    a, m = exact(a), exact(m)
    return matmul(matmul(a, m, lam), star(a, space), lam)


def det(flat, lam: int) -> tuple:
    """(re, im) of a d - b c."""
    a0, a1, b0, b1, c0, c1, d0, d1 = exact(flat)
    ad, bc = _mul(a0, a1, d0, d1, lam), _mul(b0, b1, c0, c1, lam)
    return ad[0] - bc[0], ad[1] - bc[1]


def abs_det_sq(flat, lam: int):
    re, im = det(flat, lam)
    return re * re + lam * im * im


def hermitian_part(flat, space: str) -> tuple:
    """(m + m^*) / 2 for the involution of `space`."""
    m = exact(flat)
    return tuple((x + y) / 2 for x, y in zip(m, star(m, space)))


def normalized(m: tuple, lam: int) -> tuple:
    """m scaled to det 1, with the sign tr >= 0."""
    d_re, _ = det(m, lam)
    if not d_re > 0:
        raise ValueError(f"the determinant {mp.nstr(d_re, 5)} is not positive")
    s = 1 / mp.sqrt(d_re)
    if m[0] + m[6] < 0:
        s = -s
    return tuple(x * s for x in m)


# -- chart points and pull-backs ---------------------------------------------------


def _gcos_gsin(lam: int, x) -> tuple:
    if lam == 1:
        return mp.cos(x), mp.sin(x)
    if lam == -1:
        return mp.cosh(x), mp.sinh(x)
    return mp.mpf(1), x


def chart_point(kind: str, lam: int, alpha: float, beta: float, pose, coords) -> tuple:
    """The pose applied to the chart point at double chart coordinates,
    normalized to det 1: (r, a, b) of the lightlike chart, exp(r xhat)
    with xhat = model_from_coords(X, (1, -2a, 2b)) / sqrt(1 - 4ab), whose
    square is -lam; (theta, r, t) of the ideal chart,
    [[(t^2 + |z|^2) / t, z / t], [conj(z) / t, 1 / t]] with
    z = exp_ell(theta - beta) r - exp_ell(gamma) s(beta) / s(alpha)."""
    if kind == "lightlike":
        r, a, b = (mp.mpf(float(x)) for x in coords)
        c, s = _gcos_gsin(lam, r)
        s = s / mp.sqrt(1 - 4 * a * b)
        std = (c, s, 0, -2 * a * s, 0, 2 * b * s, c, -s)
        space = "X"
    else:
        theta, r, t = (mp.mpf(float(x)) for x in coords)
        al, be = mp.mpf(alpha), mp.mpf(beta)
        k = _gcos_gsin(lam, be)[1] / _gcos_gsin(lam, al)[1]
        cg, sg = _gcos_gsin(lam, -(al + be))
        ct, st = _gcos_gsin(lam, theta - be)
        z_re, z_im = ct * r - cg * k, st * r - sg * k
        std = ((t * t + z_re * z_re + lam * z_im * z_im) / t, 0,
               z_re / t, z_im / t, z_re / t, -z_im / t, 1 / t, 0)
        space = "Y"
    pose = exact(pose)
    return normalized(matmul(matmul(pose, std, lam), star(pose, space), lam), lam)


def pull_back(pose, lam: int, space: str, p_flat) -> tuple:
    """The hermitian part of a point's representative, pulled back by the
    pose (pushed by its adjugate) and normalized to det 1."""
    a0, a1, b0, b1, c0, c1, d0, d1 = exact(pose)
    adj = (d0, d1, -b0, -b1, -c0, -c1, a0, a1)
    h = hermitian_part(p_flat, space)
    return normalized(matmul(matmul(adj, h, lam), star(adj, space), lam), lam)


def _light_standard(lam: int, alpha, beta) -> list[tuple]:
    """The standard lightlike vertices: exp(r x) = gcos(r) + gsin(r) x for
    the unit directions x of `_X4_COORDS` (vertex 3 as r = alpha + beta
    along -x), and the identity for vertex 4."""
    out = []
    for r, a, b in ((alpha, 1, 0), (beta, 0, 1), (alpha + beta, 0, 0)):
        c, s = _gcos_gsin(lam, r)
        out.append((c, s, 0, -2 * a * s, 0, 2 * b * s, c, -s))
    return out + [(1, 0, 0, 0, 0, 0, 1, 0)]


def vertex_vectors(kind: str, lam: int, alpha: float, beta: float, pose) -> list[tuple]:
    """The vertex vectors of `Tetrahedron(kind, lam, alpha, beta, pose)`
    from the standard vertices at DPS digits, pushed by the double pose:
    `Point.vector()` of A x A^circ (lightlike) and `BoundaryPoint.vec4()`
    of A v (A v)^dag (ideal), unnormalized."""
    al, be = mp.mpf(alpha), mp.mpf(beta)
    flat = exact(pose)
    if kind == "lightlike":
        return [vector(push(flat, std, lam, "X"), "X") for std in _light_standard(lam, al, be)]
    k = _gcos_gsin(lam, be)[1] / _gcos_gsin(lam, al)[1]
    c, s = _gcos_gsin(lam, -(al + be))
    a, b, cc, d = ((flat[2 * j], flat[2 * j + 1]) for j in range(4))
    out = []
    for v1, v2 in (((1, 0), (0, 0)), ((0, 0), (1, 0)), ((1, 0), (1, 0)), ((-k * c, -k * s), (1, 0))):
        w = [tuple(x + y for x, y in zip(_mul(*p, *v1, lam), _mul(*q, *v2, lam)))
             for p, q in ((a, b), (cc, d))]
        m = [x for wi in w for wj in w for x in _mul(*wi, wj[0], -wj[1], lam)]
        out.append(vector(m, "Y"))
    return out


def vector(flat, space: str) -> tuple:
    """`unembed` of the eight numbers of a hermitian matrix."""
    a0, a1, b0, b1, c0, c1, d0, d1 = exact(flat)
    if space == "X":
        return ((c1 - b1) / 2, (a0 + d0) / 2, (b1 + c1) / 2, (a1 - d1) / 2)
    return ((a0 + d0) / 2, (b1 - c1) / 2, (a0 - d0) / 2, (b0 + c0) / 2)


def face_rows(t) -> list[tuple]:
    """The rows of E^-1, E the matrix whose columns are `vertex_vectors`,
    each column scaled to the library's vertex vector (its projection on
    it), and each row signed so that the library's chart centre reads
    positive: `Tetrahedron._face_rows` at DPS digits."""
    from dualtet import tetrahedra

    lib = [v.vector() if t.kind == "lightlike" else v.vec4() for v in t.vertices]
    cols = []
    for e, v in zip(vertex_vectors(t.kind, t.lam, t.alpha, t.beta, t.pose.rep.flat), lib):
        v = exact(v)
        s = mp.fsum(x * y for x, y in zip(e, v)) / mp.fsum(x * x for x in e)
        cols.append([x * s for x in e])
    rows = _inverse(cols)
    centre = vector(tetrahedra._centre(t).rep.flat, t.space)
    return [tuple(x if _pair(row, centre) > 0 else -x for x in row) for row in rows]


def _inverse(cols) -> list[list]:
    """The rows of the inverse of the matrix with columns `cols`, by
    Gauss-Jordan elimination on the exact rationals of its mpfs, each entry
    rounded once to DPS digits: no pivot is refused as small."""
    n = len(cols)
    a = [[Fraction(*_ratio(col[i])) for col in cols] + [Fraction(int(i == k)) for k in range(n)]
         for i in range(n)]
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            raise ZeroDivisionError("the vertex vectors are linearly dependent")
        a[c], a[piv] = a[piv], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                a[r] = [x - a[r][c] * y for x, y in zip(a[r], a[c])]
    return [[mp.mpf(x.numerator) / x.denominator for x in row[n:]] for row in a]


def _ratio(x) -> tuple[int, int]:
    sign, man, exp, _bits = mp.mpf(x)._mpf_
    man = -man if sign else man
    return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)


def _pair(row, x):
    return mp.fsum(r * y for r, y in zip(row, x))


def coefficients(t, p, rows=None) -> list:
    """p's coordinates in the basis of the exact posed vertex vectors: those
    of `tetrahedra._coefficients(t, p)`, at DPS digits (`rows` are
    `face_rows(t)`, computed when not given)."""
    x = vector(p.rep.flat, p.space)
    return [_pair(row, x) for row in rows or face_rows(t)]


def inside(c, tol: float = 1e-9) -> bool:
    """`contains`' test on coordinates c: they share a sign, each up to tol
    times the sum of their magnitudes."""
    if mp.fsum(c) < 0:
        c = [-x for x in c]
    return min(c) >= -tol * mp.fsum(abs(x) for x in c)


def ideal_null_vertices(alpha: float, beta: float, pose) -> list[tuple]:
    """The four vertices of `Tetrahedron("ideal", -1, alpha, beta, pose)`:
    the standard ones infinity, 0, 1 and [z : 1], with
    z+- = -(sinh beta / sinh alpha) e^(-+(alpha + beta)), moved by the
    pose's null components A+- = re +- im.  Each vertex is
    ((v1+, v2+, c+), (v1-, v2-, c-)), each pair scaled by its entry of
    larger magnitude, and c the condition of its push: the largest row sum
    of |A| over max |A v|, for the standard pair v scaled to largest entry
    1.  An error of an ulp of 1 in v or in A moves the pushed pair by about
    eps times c."""
    al, be = mp.mpf(alpha), mp.mpf(beta)
    k = mp.sinh(be) / mp.sinh(al)
    z = (-k * mp.exp(-(al + be)), -k * mp.exp(al + be))
    flat = exact(pose)
    out = []
    for std in (((1, 0), (1, 0)), ((0, 1), (0, 1)), ((1, 1), (1, 1)), ((z[0], 1), (z[1], 1))):
        pairs = []
        for sgn, (x, y) in zip((1, -1), std):
            x, y = x / max(abs(x), abs(y)), y / max(abs(x), abs(y))
            a, b, c, d = (flat[2 * j] + sgn * flat[2 * j + 1] for j in range(4))
            u, w = a * x + b * y, c * x + d * y
            s = w if abs(w) > abs(u) else u
            pairs.append((u / s, w / s, max(abs(a) + abs(b), abs(c) + abs(d)) / abs(s)))
        out.append(tuple(pairs))
    return out


def rel_error(got, ref: tuple) -> float:
    """The largest entry error of `got` over the Frobenius norm of `ref`,
    for the nearer of the two signs of `got`."""
    got = exact(got)
    frob = mp.sqrt(mp.fsum(x * x for x in ref))
    err = min(max(abs(g - s * r) for g, r in zip(got, ref)) for s in (1, -1))
    return float(err / frob)


# -- the sweep ---------------------------------------------------------------------


def chart_coords(t, n: int, seed: int) -> list[tuple]:
    """The chart coordinates of the points of `sample(t, n, seed)`, replayed
    from its draws with the checkout's own chart functions."""
    import numpy as np

    from dualtet import tetrahedra

    draws = iter(np.random.default_rng(seed).random(3 * n).tolist())
    out = []
    if t.kind == "lightlike":
        for a, b, u in zip(draws, draws, draws):
            if a + b > 1.0:
                a, b = 1.0 - a, 1.0 - b
            out.append((u * tetrahedra._light_chart_r(t, a, b), a, b))
        return out
    for v, w, u in zip(draws, draws, draws):
        theta = -t.alpha * v
        r = w * tetrahedra._ideal_chart_limits(t, theta)
        out.append((theta, r, (tetrahedra._ideal_chart_tmin(t, r, theta) + 1e-9) / max(u, 1e-9)))
    return out


def coefficient_error(got, ref) -> float:
    """The largest error of the coordinates `got` over the sum of the
    magnitudes of `ref`."""
    return float(max(abs(g - r) for g, r in zip(exact(got), ref)) / mp.fsum(abs(r) for r in ref))


def bin_name(kind: str, lam: int, size: float) -> str:
    return f"{kind} {lam} {'<' if size < SPLIT else '>='}{SPLIT:g}"


def _quantiles(errors: list[float]) -> dict:
    errors = sorted(errors)
    n = len(errors)
    return {name: errors[max(0, math.ceil(q * n) - 1)] if n else None for name, q in QUANTILES}


def sweep(cells_per_bin: int = CELLS_PER_BIN, samples: int = SAMPLES) -> dict:
    """Per bin: cells, points measured, errors raised, and the quantiles of
    the sample and coefficient errors of the dualtet on the path."""
    import numpy as np

    import dualtet
    from dualtet.tetrahedra import _coefficients
    from dualtet.verify import random_isometry

    out = {}
    for k, kind in enumerate(KINDS):
        for lam in LAMBDAS:
            rng = np.random.default_rng([SEED, k, lam + 1])
            sides = (0,) if lam == 1 else (0, 1)
            wanted = {side: cells_per_bin for side in sides}
            while any(wanted.values()):
                alpha, beta = (math.exp(x) for x in rng.uniform(math.log(LO), math.log(HI), 2))
                side = int(alpha + beta >= SPLIT)
                pose = random_isometry(rng, lam)
                seed = int(rng.integers(2**31 - 1))
                if (lam == 1 and alpha + beta >= math.pi) or not wanted.get(side):
                    continue
                wanted[side] -= 1
                tally = out.setdefault(bin_name(kind, lam, alpha + beta), {
                    "cells": 0, "points": 0, "raised": {}, "sample": [], "coefficients": []})
                tally["cells"] += 1
                try:
                    t = dualtet.Tetrahedron(kind, lam, alpha, beta, pose)
                    points = dualtet.sample(t, samples, seed)
                    rows = face_rows(t)
                except dualtet.DualtetError as exc:
                    name = type(exc).__name__
                    tally["raised"][name] = tally["raised"].get(name, 0) + 1
                    continue
                flat = pose.rep.flat
                for p, coords in zip(points, chart_coords(t, samples, seed)):
                    ref = chart_point(kind, lam, alpha, beta, flat, coords)
                    tally["points"] += 1
                    tally["sample"].append(rel_error(p.rep.flat, ref))
                    probe = dualtet.Point(t.space, dualtet.Mat2.from_flat(
                        [float(x) for x in ref], lam))
                    tally["coefficients"].append(coefficient_error(
                        _coefficients(t, probe), coefficients(t, probe, rows)))
    for tally in out.values():
        for what in ("sample", "coefficients"):
            tally[what] = _quantiles(tally[what])
    return out


def verdicts(parent: dict, change: dict) -> dict:
    """Per bin: whether the change's sample errors are no worse than the
    parent's (median and p99 at most the parent's or 4 eps, max at most the
    parent's or 16 eps), whether its coefficient errors are (median and p90
    at most the parent's or 4 eps), and which coefficient p99 or max rose."""
    def within(side, what, q, floor):
        got, was = change[side][what][q], parent[side][what][q]
        return got <= max(was, floor)

    out = {}
    for name in change:
        out[name] = {
            "sample_ok": all(within(name, "sample", q, f) for q, f in
                             (("median", 4 * EPS), ("p99", 4 * EPS), ("max", 16 * EPS))),
            "coefficients_ok": all(within(name, "coefficients", q, 4 * EPS)
                                   for q in ("median", "p90")),
            "coefficients_higher": [q for q in ("p99", "max") if change[name]["coefficients"][q]
                                    > parent[name]["coefficients"][q]],
        }
    return out


def sweep_snippet(cells_per_bin: int, samples: int) -> str:
    """Python source that prints the sweep of the checkout it runs in as
    JSON; run it from a checkout's root."""
    return f"""
import json, sys, time
sys.path[:0] = ["src", {str(Path(__file__).resolve().parent)!r}]
import mpref
t = time.perf_counter()
got = mpref.sweep({cells_per_bin}, {samples})
print(json.dumps({{"seconds": round(time.perf_counter() - t, 1), "bins": got}}))
"""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkouts", type=Path, nargs="+",
                    help="source checkouts to sweep, the parent first")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    roots = [p.resolve() for p in args.checkouts]
    record = {
        "host": f"{platform.machine()}, Python {platform.python_version()}",
        "dps": DPS, "seed": SEED, "cells_per_bin": CELLS_PER_BIN, "samples": SAMPLES,
        "range": [LO, HI], "split": SPLIT,
        "error": "largest entry error over the reference's Frobenius norm",
    }
    snippet = sweep_snippet(CELLS_PER_BIN, SAMPLES)
    start = time.perf_counter()
    names = []
    for root in roots:
        out = subprocess.run([sys.executable, "-c", snippet], cwd=root, check=True,
                             capture_output=True, text=True).stdout
        record[root.name] = json.loads(out.strip().splitlines()[-1])
        names.append(root.name)
    if len(names) == 2:
        record["verdicts"] = verdicts(*(record[name]["bins"] for name in names))
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"swept {len(roots)} checkout(s) in {time.perf_counter() - start:.1f} s",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
