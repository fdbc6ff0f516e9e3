"""Deterministic adaptive Gauss-Kronrod quadrature in one and two dimensions.

Both volume oracles are 1-D integrals on `adaptive_quad`.  The 2-D
integrator `adaptive_quad_2d` has no caller in the library; its tests and
the benchmark's tracer still use it.

Both integrators apply a (G7, K15) rule per panel, split the panel with the
largest error estimate, and stop when the summed error estimate drops below
the tolerance.  In 1d a panel's estimate is |K - G|, but never below
50 eps |K|: QUADPACK's roundoff floor (qk15) is 50 eps times the rule on
|f|, which is |K| where f keeps its sign on the panel, as both volume
oracles' integrands do, and costs a pass over the values.  In 2d the same 225
values give four tensor rules, KK, KG, GK and GG (the first letter names
the rule in x), and the estimate is max(|KK - GG|, |KK - GK| + |KK - KG|):
the per-axis differences catch an axis that is under-resolved while the
other hides it in GG, as DCUHRE's per-axis differences do (Berntsen,
Espelid & Genz, ACM TOMS 17, 1991).  Both run one refinement loop (the
globally adaptive scheme of QUADPACK, Piessens et al., 1983), and both
always split the root panel once, since its rules can agree by chance on
an integrand they do not resolve.  For the same reason a split checks its
children against their parent, as step halving does in adaptive Simpson
rules: when the parent's value and the sum of theirs differ by more than
the sum of their estimates, the children share the excess as error.  When
the panel budget runs out first they raise ToleranceNotReached carrying
the best estimate; when a panel's values or rule sums are not finite they
raise it at once, with value nan and error inf.  Subdivision order is a
deterministic function of the inputs, so results are bit-reproducible.

Integrands are vectorized and evaluated on a batch of panels per call.  A
call costs about the same for seven panels as for three, so in 1d each call
evaluates the segments the loop asks for together with the halves of two
segments, kept until the integral ends: the first call holds the root, its
halves and its quarters, a split whose halves are known makes no call, and
any other evaluates its two halves, the halves of the first, and the halves
of the held segment of largest estimate (the likeliest next split), or of
the second when that segment's are known.  A panel's rule sums are
formed row by row, in a fixed order, so the result is that of one call per
split; where a half is not finite, or its arithmetic raises
FloatingPointError, the segments asked for are evaluated alone.  The 1-D
rule sums raise no floating-point error under any errstate (an einsum, then
Python floats), so no errstate is set per call.  In 1d, f gets read-only
nodes of shape (n, 15), cached by the batch's segments (an integrand may
cache its own terms by them), and returns values broadcastable to (n, 15).
In 2d the root and its four children share the first call, and the four
children of each later split share one: f(x, y) gets node arrays of shapes
(n, 15, 1) and (n, 1, 15) and returns values broadcastable to (n, 15, 15).
"""

from __future__ import annotations

import heapq
import math
import sys
from functools import lru_cache

import numpy as np

from .errors import ToleranceNotReached

# 15-point Kronrod nodes (ascending) with embedded 7-point Gauss subset.
_KRONROD_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769, -0.741531185599394,
    -0.586087235467691, -0.405845151377397, -0.207784955007898, 0.0, 0.207784955007898,
    0.405845151377397, 0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813])
_KRONROD_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250, 0.140653259715525,
    0.169004726639267, 0.190350578064785, 0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529])
_GAUSS_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870])
# Row 0: Kronrod weights; row 1: Gauss weights on the odd Kronrod nodes.
_RULES = np.zeros((2, 15))
_RULES[0] = _KRONROD_WEIGHTS
_RULES[1, 1::2] = _GAUSS_WEIGHTS
_ROUNDOFF = 50.0 * sys.float_info.epsilon  # times |K|: a 1-D estimate's floor


def _nodes(spans: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half-widths (...) and Kronrod nodes (..., 15) of intervals (..., 2)."""
    half = 0.5 * (spans[..., 1] - spans[..., 0])
    mid = 0.5 * (spans[..., 0] + spans[..., 1])
    return half, mid[..., None] + half[..., None] * _KRONROD_NODES


@lru_cache(maxsize=64)
def _segment_nodes(segs: tuple) -> tuple[np.ndarray, np.ndarray]:
    """_nodes of segments ((a, b), ...), read-only: the arrays are shared by
    every integral whose batch has these segments (see above)."""
    half, x = _nodes(np.array(segs, dtype=float))
    half.flags.writeable = x.flags.writeable = False
    return half, x


def _checked(kron: list[float], errs: list[float], held: int) -> tuple[list[float], list[float]]:
    """Values and estimates; an estimate that is not finite (from a value or
    a rule sum that is not) raises ToleranceNotReached."""
    if not all(map(math.isfinite, errs)):
        raise ToleranceNotReached(math.nan, math.inf, "integrand or rule sums not finite "
                                  f"({held} panels held)", panels=held)
    return kron, errs


def _panels_1d(f, segs, held: int) -> tuple[list[float], list[float]]:
    """Values and error estimates of the rule on n segments [(a, b), ...],
    with one call f(x) on read-only nodes of shape (n, 15); `held` counts
    the panels held with these."""
    half, x = _segment_nodes(tuple(segs))
    vals = np.asarray(f(x), dtype=float)
    if vals.shape != x.shape:  # broadcast_to costs a few us even when it is a no-op
        vals = np.broadcast_to(vals, x.shape)
    # einsum sums each row on its own, in a fixed order (a matmul would round a
    # row differently with the number of rows in the call), and raises no
    # floating-point error; Python floats overflow to inf without raising.
    half, sums = half.tolist(), np.einsum("nk,rk->nr", vals, _RULES).tolist()
    kron = [h * k for h, (k, _) in zip(half, sums)]
    # The larger of |K - G| and the floor; a nan |K - G| stays nan.
    return _checked(kron, [fl if (fl := _ROUNDOFF * abs(k)) > (e := abs(k - h * g)) else e
                           for k, h, (_, g) in zip(kron, half, sums)], held)


def _refine(panels, f, root, split, tol: float, limit: int,
            heap: list | None = None) -> tuple[float, float]:
    """The refinement loop of both integrators: `panels(f, cells, held)`
    gives the values and error estimates of a list of cells, and
    `split(cell)` a cell's children.  The root is always split once, and is
    asked for with its children in one `panels` request, which counts as
    one panel held (see above); how many integrand calls a request makes is
    up to `panels`, which may read the held panels in `heap`, a heap of
    (-estimate, counter, cell, value, estimate)."""
    heap = [] if heap is None else heap
    subs = split(root)
    (pval, *vals), (perr, *errs) = panels(f, [root, *subs], 1)
    if limit <= 1:
        raise ToleranceNotReached(pval, perr, panels=1)
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


def _lookahead_1d(heap: list):
    """A `panels` for `_refine` in 1d, which holds its panels in `heap`,
    that evaluates the segments asked for with the halves of two more (see
    above), and keeps each pair of halves for the rest of one integral,
    keyed by the first, so that a later split of their segment needs no
    call."""
    known = {}

    def panels(f, segs, held: int) -> tuple[list[float], list[float]]:
        halves = known.pop(segs[0], None)
        if halves is not None:
            return halves
        top = heap[0][2] if heap else None
        ahead = segs[-2:] if top is None or _halves(top)[0] in known else (top, segs[-2])
        batch = (*segs, *_halves(ahead[0]), *_halves(ahead[1]))
        try:
            vals, errs = _panels_1d(f, batch, held)
        except (ToleranceNotReached, FloatingPointError):
            # A half may fail where the segments asked for do not: evaluate
            # those alone, which raises exactly where one call per split does.
            return _panels_1d(f, segs, held)
        n = len(segs)
        known[batch[n]] = vals[n:n + 2], errs[n:n + 2]
        known[batch[n + 2]] = vals[n + 2:], errs[n + 2:]
        return vals[:n], errs[:n]

    return panels


def adaptive_quad(f, a: float, b: float, tol: float = 1e-12,
                  limit: int = 2000) -> tuple[float, float]:
    """Integrate a vectorized scalar function over [a, b] to absolute
    tolerance `tol`, with the lookahead and integrand contract of the
    module docstring.

    Raises ToleranceNotReached (carrying the best value, error bound and
    panel count) when `limit` panels are held first, and when the
    integrand or a rule sum is not finite on a panel.
    """
    if a == b:
        return 0.0, 0.0
    heap = []
    return _refine(_lookahead_1d(heap), f, (float(a), float(b)), _halves, tol, limit, heap)


def _panels_2d(f, rects, held: int) -> tuple[list[float], list[float]]:
    """Values and error estimates of the tensor rule on n rectangles
    [(x0, x1, y0, y1), ...], with one call f(x, y) on nodes of shapes
    (n, 15, 1) and (n, 1, 15); `held` counts the panels held with these."""
    n = len(rects)
    half, nodes = _nodes(np.array(rects, dtype=float).reshape(n, 2, 2))
    vals = np.asarray(f(nodes[:, 0, :, None], nodes[:, 1, None, :]), dtype=float)
    if vals.shape != (n, 15, 15):  # broadcast_to costs a few us even when it is a no-op
        vals = np.broadcast_to(vals, (n, 15, 15))
    # R V R^T holds the four tensor rules of each panel: [[KK, KG], [GK, GG]],
    # the first letter naming the rule in x.
    with np.errstate(over="ignore", invalid="ignore"):
        sums = (half[:, 0] * half[:, 1])[:, None, None] * (_RULES @ vals @ _RULES.T)
        kron = sums[:, 0, 0]
        err = np.maximum(np.abs(kron - sums[:, 1, 1]),
                         np.abs(kron - sums[:, 0, 1]) + np.abs(kron - sums[:, 1, 0]))
    return _checked(kron.tolist(), err.tolist(), held)


def _quarters(rect) -> tuple:
    x0, x1, y0, y1 = rect
    xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    return (x0, xm, y0, ym), (xm, x1, y0, ym), (x0, xm, ym, y1), (xm, x1, ym, y1)


def adaptive_quad_2d(f, xspan, yspan, tol: float = 1e-8,
                     max_panels: int = 20000) -> tuple[float, float]:
    """Integrate a vectorized f(x, y) over a rectangle to absolute
    tolerance `tol`, with the integrand contract of the module docstring.

    Raises ToleranceNotReached (carrying the best value, error bound and
    panel count) when the panel budget is exhausted first, and when the
    integrand or a rule sum is not finite on a panel.
    """
    rect = (float(xspan[0]), float(xspan[1]), float(yspan[0]), float(yspan[1]))
    return _refine(_panels_2d, f, rect, _quarters, tol, max_panels)
