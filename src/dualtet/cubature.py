"""Deterministic adaptive Gauss-Kronrod quadrature in one and two dimensions.

Both integrators apply a (G7, K15) rule per panel, split the panel with the
largest error estimate, and stop when the summed error estimate drops below
the tolerance.  When the panel budget runs out first they raise
ToleranceNotReached carrying the best estimate; when the integrand is not
finite at a node they raise it at once, with value nan and error inf.
Subdivision order is a deterministic function of the inputs, so results
are bit-reproducible.

Integrands are vectorized and evaluated on a batch of panels per call: the
children of a split (two in 1d, four in 2d) share one call.  In 1d, f gets
nodes of shape (n, 15) and returns values broadcastable to (n, 15).  In 2d,
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
    vals = np.broadcast_to(_finite(np.asarray(f(x), dtype=float), held), x.shape)
    sums = half[:, None] * (vals @ _RULES.T)
    kron = sums[:, 0]
    return kron.tolist(), np.abs(kron - sums[:, 1]).tolist()


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
    seg = (float(a), float(b))
    (val,), (err,) = _panels_1d(f, [seg], 1)
    heap = [(-err, 0, seg, val, err)]
    counter = 1
    total_val, total_err = val, err
    while total_err > tol:
        if len(heap) >= limit:
            raise ToleranceNotReached(total_val, total_err, panels=len(heap))
        _, _, (lo, hi), pval, perr = heapq.heappop(heap)
        total_val -= pval
        total_err -= perr
        mid = 0.5 * (lo + hi)
        subs = ((lo, mid), (mid, hi))
        for sub, v, e in zip(subs, *_panels_1d(f, subs, len(heap) + 2)):
            heapq.heappush(heap, (-e, counter, sub, v, e))
            counter += 1
            total_val += v
            total_err += e
    return total_val, total_err


def _panels_2d(f, rects, held: int) -> tuple[list[float], list[float]]:
    """Values and error estimates of the tensor rule on n rectangles
    [(x0, x1, y0, y1), ...], with one call f(x, y) on nodes of shapes
    (n, 15, 1) and (n, 1, 15); `held` counts the panels held with these."""
    n = len(rects)
    half, nodes = _nodes(np.array(rects, dtype=float).reshape(n, 2, 2))
    vals = _finite(np.asarray(f(nodes[:, 0, :, None], nodes[:, 1, None, :]), dtype=float), held)
    if vals.shape != (n, 15, 15):  # broadcast_to costs a few us even when it is a no-op
        vals = np.broadcast_to(vals, (n, 15, 15))
    # Diagonal of R V R^T: the Kronrod and the Gauss tensor sums of each panel.
    sums = (half[:, 0] * half[:, 1])[:, None] * np.diagonal(_RULES @ vals @ _RULES.T,
                                                            axis1=1, axis2=2)
    kron = sums[:, 0]
    return kron.tolist(), np.abs(kron - sums[:, 1]).tolist()


def adaptive_quad_2d(f, xspan, yspan, tol: float = 1e-8,
                     max_panels: int = 20000) -> tuple[float, float]:
    """Integrate a vectorized f(x, y) over a rectangle to absolute
    tolerance `tol`.

    f is called with broadcastable node arrays of shapes (n, 15, 1) and
    (n, 1, 15) and must return an array broadcastable to (n, 15, 15); the
    four children of a split are evaluated in one call (n = 4).

    Raises ToleranceNotReached (carrying the best value, error bound and
    panel count) when the panel budget is exhausted first, and when the
    integrand is not finite at a node.
    """
    rect = (float(xspan[0]), float(xspan[1]), float(yspan[0]), float(yspan[1]))
    (val,), (err,) = _panels_2d(f, [rect], 1)
    heap = [(-err, 0, rect, val, err)]
    counter = 1
    total_val, total_err = val, err
    while total_err > tol:
        if len(heap) >= max_panels or not heap:
            raise ToleranceNotReached(total_val, total_err, panels=len(heap))
        _, _, (x0, x1, y0, y1), pval, perr = heapq.heappop(heap)
        total_val -= pval
        total_err -= perr
        xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        subs = ((x0, xm, y0, ym), (xm, x1, y0, ym), (x0, xm, ym, y1), (xm, x1, ym, y1))
        for sub, v, e in zip(subs, *_panels_2d(f, subs, len(heap) + 4)):
            heapq.heappush(heap, (-e, counter, sub, v, e))
            counter += 1
            total_val += v
            total_err += e
    return total_val, total_err
