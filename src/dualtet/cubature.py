"""Deterministic adaptive Gauss-Kronrod quadrature in one and two dimensions.

Both volume oracles are 1-D integrals on `adaptive_quad`.  The 2-D
integrator `adaptive_quad_2d` has no caller in the library; its tests and
the benchmark's tracer still use it.

Both integrators apply a (G7, K15) rule per panel, split the panel with the
largest error estimate, and stop when the summed error estimate drops below
the tolerance.  In 1d a panel's estimate is |K - G|.  In 2d the same 225
values give four tensor rules, KK, KG, GK and GG (the first letter names
the rule in x), and the estimate is max(|KK - GG|, |KK - GK| + |KK - KG|):
the per-axis differences catch an axis that is under-resolved while the
other hides it in GG, as DCUHRE's per-axis differences do (Berntsen,
Espelid & Genz, ACM TOMS 17, 1991).  Both run one refinement loop, and
both always split the root panel once, since its rules can agree by chance
on an integrand they do not resolve; the root is therefore evaluated
together with its first split, in one integrand call.  For the same reason
a split checks its children against their parent, as step halving does in
adaptive Simpson rules: when the parent's value and the sum of theirs
differ by more than the sum of their estimates, the children share the
excess as error.  When the panel budget runs out first they raise
ToleranceNotReached carrying the best estimate; when the integrand is not
finite at a node they raise it at once, with value nan and error inf.
Subdivision order is a deterministic function of the inputs, so results
are bit-reproducible.

Integrands are vectorized and evaluated on a batch of panels per call: the
root and its children share the first call (three panels in 1d, five in
2d), and the children of each later split (two in 1d, four in 2d) share
one call.  In 1d, f gets nodes of shape (n, 15) and returns values
broadcastable to (n, 15).  In 2d,
f(x, y) gets broadcastable node arrays of shapes (n, 15, 1) and (n, 1, 15)
and returns values broadcastable to (n, 15, 15); a part that depends on x
alone is thus computed on 15 nodes per panel, not 225.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .errors import ToleranceNotReached

# 15-point Kronrod nodes (ascending) with embedded 7-point Gauss subset.
_KRONROD_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_KRONROD_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_GAUSS_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])
# Row 0: Kronrod weights; row 1: Gauss weights on the odd Kronrod nodes.
_RULES = np.zeros((2, 15))
_RULES[0] = _KRONROD_WEIGHTS
_RULES[1, 1::2] = _GAUSS_WEIGHTS


def _nodes(spans: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half-widths (...) and Kronrod nodes (..., 15) of intervals (..., 2)."""
    half = 0.5 * (spans[..., 1] - spans[..., 0])
    mid = 0.5 * (spans[..., 0] + spans[..., 1])
    return half, mid[..., None] + half[..., None] * _KRONROD_NODES


def _finite(vals: np.ndarray, held: int) -> np.ndarray:
    """Integrand values, checked before any rule sum is formed: a value that
    is not finite leaves no estimate, and ToleranceNotReached is raised."""
    if not np.isfinite(vals).all():
        raise ToleranceNotReached(math.nan, math.inf, "integrand is not finite at a node "
                                  f"({held} panels held)", panels=held)
    return vals


def _panels_1d(f, segs, held: int) -> tuple[list[float], list[float]]:
    """Values and error estimates of the rule on n segments [(a, b), ...],
    with one call f(x) on nodes of shape (n, 15); `held` counts the panels
    held with these."""
    half, x = _nodes(np.array(segs, dtype=float))
    vals = _finite(np.asarray(f(x), dtype=float), held)
    if vals.shape != x.shape:  # broadcast_to costs a few us even when it is a no-op
        vals = np.broadcast_to(vals, x.shape)
    sums = half[:, None] * (vals @ _RULES.T)
    kron = sums[:, 0]
    return kron.tolist(), np.abs(kron - sums[:, 1]).tolist()


def _refine(panels, f, root, split, tol: float, limit: int) -> tuple[float, float]:
    """The refinement loop of both integrators: `panels(f, cells, held)`
    gives the values and error estimates of a list of cells, and
    `split(cell)` a cell's children.  The root is always split once, and is
    evaluated with its children in the first call, which counts as one
    panel held (see above)."""
    subs = split(root)
    (pval, *vals), (perr, *errs) = panels(f, [root, *subs], 1)
    if limit <= 1:
        raise ToleranceNotReached(pval, perr, panels=1)
    heap = []
    counter = 1
    total_val = total_err = 0.0
    while True:
        # Children whose values miss their parent's by more than their
        # estimates add up to share the excess (see above).
        excess = max(0.0, (abs(pval - sum(vals)) - sum(errs)) / len(subs))
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
        _, _, cell, pval, perr = heapq.heappop(heap)
        total_val -= pval
        total_err -= perr
        subs = split(cell)
        vals, errs = panels(f, subs, len(heap) + len(subs))


def _halves(seg) -> tuple:
    lo, hi = seg
    mid = 0.5 * (lo + hi)
    return (lo, mid), (mid, hi)


def adaptive_quad(f, a: float, b: float, tol: float = 1e-12,
                  limit: int = 2000) -> tuple[float, float]:
    """Integrate a vectorized scalar function over [a, b] to absolute
    tolerance `tol`; see the module docstring for the integrand contract.

    Raises ToleranceNotReached (carrying the best value, error bound and
    panel count) when `limit` panels are held first, and when the
    integrand is not finite at a node.
    """
    if a == b:
        return 0.0, 0.0
    return _refine(_panels_1d, f, (float(a), float(b)), _halves, tol, limit)


def _panels_2d(f, rects, held: int) -> tuple[list[float], list[float]]:
    """Values and error estimates of the tensor rule on n rectangles
    [(x0, x1, y0, y1), ...], with one call f(x, y) on nodes of shapes
    (n, 15, 1) and (n, 1, 15); `held` counts the panels held with these."""
    n = len(rects)
    half, nodes = _nodes(np.array(rects, dtype=float).reshape(n, 2, 2))
    vals = _finite(np.asarray(f(nodes[:, 0, :, None], nodes[:, 1, None, :]), dtype=float), held)
    if vals.shape != (n, 15, 15):  # broadcast_to costs a few us even when it is a no-op
        vals = np.broadcast_to(vals, (n, 15, 15))
    # R V R^T holds the four tensor rules of each panel: [[KK, KG], [GK, GG]],
    # the first letter naming the rule in x.
    sums = (half[:, 0] * half[:, 1])[:, None, None] * (_RULES @ vals @ _RULES.T)
    kron = sums[:, 0, 0]
    err = np.maximum(np.abs(kron - sums[:, 1, 1]),
                     np.abs(kron - sums[:, 0, 1]) + np.abs(kron - sums[:, 1, 0]))
    return kron.tolist(), err.tolist()


def _quarters(rect) -> tuple:
    x0, x1, y0, y1 = rect
    xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    return (x0, xm, y0, ym), (xm, x1, y0, ym), (x0, xm, ym, y1), (xm, x1, ym, y1)


def adaptive_quad_2d(f, xspan, yspan, tol: float = 1e-8,
                     max_panels: int = 20000) -> tuple[float, float]:
    """Integrate a vectorized f(x, y) over a rectangle to absolute
    tolerance `tol`.

    f is called with broadcastable node arrays of shapes (n, 15, 1) and
    (n, 1, 15) and must return an array broadcastable to (n, 15, 15); the
    four children of a split are evaluated in one call (n = 4), and the
    root with its four children in the first (n = 5).

    Raises ToleranceNotReached (carrying the best value, error bound and
    panel count) when the panel budget is exhausted first, and when the
    integrand is not finite at a node.
    """
    rect = (float(xspan[0]), float(xspan[1]), float(yspan[0]), float(yspan[1]))
    return _refine(_panels_2d, f, rect, _quarters, tol, max_panels)
