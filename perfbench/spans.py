"""In-memory span tracer that wraps dualtet's public functions from outside.

`Tracer.install()` replaces each traced function at every name a caller
looks it up by: module globals of the `dualtet` package and its submodules
(`from .x import f` makes one binding per importing module), class
attributes, and the `verify.SUITES` table.  `Tracer.uninstall()` puts the
original objects back.  No package source changes.

A span is (id, parent id, name, start, end, op id).  Spans live in flat
arrays while the run goes and are written out once at the end.  Self time
of a span is its duration minus the durations of its direct children;
calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter

# (metric name, module, attribute); metric names follow the package layout.
TIMED = (
    ("volumes.closed_form", "dualtet.volumes", "ideal_volume"),
    ("volumes.closed_form", "dualtet.volumes", "lightlike_volume"),
    ("volumes.lightlike_volume_series", "dualtet.volumes", "lightlike_volume_series"),
    ("volumes.volume_quadrature", "dualtet.volumes", "volume_quadrature"),
    ("cubature.adaptive_quad", "dualtet.cubature", "adaptive_quad"),
    ("tetrahedra.construct", "dualtet.tetrahedra", "lightlike_from_angles"),
    ("tetrahedra.construct", "dualtet.tetrahedra", "ideal_from_angles"),
    ("tetrahedra.edge_data", "dualtet.tetrahedra", "edge_data"),
    ("tetrahedra.dualize_tet", "dualtet.tetrahedra", "dualize_tet"),
    ("tetrahedra.recover_parameters", "dualtet.tetrahedra", "recover_parameters"),
    ("tetrahedra.sample", "dualtet.tetrahedra", "sample"),
    ("tetrahedra.contains", "dualtet.tetrahedra", "contains"),
    ("geometry.plane_through_points", "dualtet.geometry", "plane_through_points"),
    ("geometry.common_point_three_planes", "dualtet.geometry", "common_point_three_planes"),
    ("geometry.plane_from_normal", "dualtet.geometry", "plane_from_normal"),
    ("geometry.cross_ratio", "dualtet.geometry", "cross_ratio"),
    ("geometry.boundary_normalize", "dualtet.geometry", "boundary_normalize"),
    ("geometry.boundary_from_matrix", "dualtet.geometry", "boundary_from_matrix"),
    ("matmodel.act", "dualtet.matmodel", "act"),
    ("matmodel.mat_exp_traceless", "dualtet.matmodel", "mat_exp_traceless"),
)
CLAUSEN_NAMES = {1: "volumes.clausen.lam_p1", -1: "volumes.clausen.lam_m1",
                 0: "volumes.clausen.lam_0"}
QUAD_2D = "cubature.adaptive_quad_2d"
INTEGRAND = "cubature.integrand"
FACES = "tetrahedra.faces"
SUITE_PREFIX = "verify.suite_"

SPAN_NAMES = tuple(dict.fromkeys(
    [name for name, _m, _a in TIMED] + list(CLAUSEN_NAMES.values())
    + [QUAD_2D, INTEGRAND, FACES]))
SUITE_NAMES = ("gcnum", "matmodel", "geometry", "tetrahedra", "volumes")
COUNT_NAMES = ("cubature.evals", "cubature.tolerance_not_reached",
               "matmodel.Mat2.matmul.calls", "gcnum.GC.created")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.name_id = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.current_op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []
        self._plan: list[tuple[object, str, object, bool]] | None = None

    # -- recording -------------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name_id.append(self._nid(name))
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.start.append(self.clock())
        self._stack.append(sid)
        return sid

    def finish(self, sid: int):
        self.end[sid] = self.clock()
        self._stack.pop()

    def wrap(self, fn, name):
        """Span around `fn`; `name` is a string or a function of the call's
        arguments returning one."""
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer.begin(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.finish(sid)

        traced.__wrapped__ = fn
        return traced

    def counting(self, fn, key):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _quad_2d(self, fn):
        """adaptive_quad_2d with its integrand wrapped: one integrand span per
        panel, points counted, unreached tolerances counted."""
        from dualtet.errors import ToleranceNotReached

        tracer = self

        def traced(f, *args, **kwargs):
            def integrand(x, y):
                tracer.counts["cubature.evals"] += x.size
                sid = tracer.begin(INTEGRAND)
                try:
                    return f(x, y)
                finally:
                    tracer.finish(sid)

            sid = tracer.begin(QUAD_2D)
            try:
                return fn(integrand, *args, **kwargs)
            except ToleranceNotReached:
                tracer.counts["cubature.tolerance_not_reached"] += 1
                raise
            finally:
                tracer.finish(sid)

        traced.__wrapped__ = fn
        return traced

    # -- patching --------------------------------------------------------------

    def _plan_everywhere(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname != "dualtet" and not modname.startswith("dualtet."):
                continue
            for attr, value in vars(mod).items():
                if value is original:
                    self._plan.append((mod, attr, wrapper, False))

    def _make_plan(self):
        import dualtet  # noqa: F401 - loads every submodule
        from dualtet import cubature, gcnum, matmodel, tetrahedra, verify, volumes

        self._plan = []
        for name, modname, attr in TIMED:
            original = getattr(sys.modules[modname], attr)
            self._plan_everywhere(original, self.wrap(original, name))
        self._plan_everywhere(volumes.clausen,
                              self.wrap(volumes.clausen, lambda lam, x: CLAUSEN_NAMES[lam]))
        self._plan_everywhere(cubature.adaptive_quad_2d, self._quad_2d(cubature.adaptive_quad_2d))
        self._plan += [
            (tetrahedra.Tetrahedron, "faces", self.wrap(tetrahedra.Tetrahedron.faces, FACES), False),
            (matmodel.Mat2, "__matmul__",
             self.counting(matmodel.Mat2.__matmul__, "matmodel.Mat2.matmul.calls"), False),
            (gcnum.GC, "__post_init__",
             self.counting(gcnum.GC.__post_init__, "gcnum.GC.created"), False),
        ]
        self._plan += [(verify.SUITES, suite, self.wrap(verify.SUITES[suite], SUITE_PREFIX + suite),
                        True) for suite in SUITE_NAMES]

    def install(self):
        """Put every wrapper in place; the plan of where is made on first use."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        if self._plan is None:
            self._make_plan()
        for owner, attr, wrapper, is_item in self._plan:
            if is_item:
                self._patches.append((owner, attr, owner[attr], True))
                owner[attr] = wrapper
            else:
                self._patches.append((owner, attr, getattr(owner, attr), False))
                setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original, is_item = self._patches.pop()
            if is_item:
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def self_times(self) -> tuple[Counter, Counter, Counter]:
        """(calls, inclusive seconds, self seconds) per span name."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls, total, own = Counter(), Counter(), Counter()
        for i in range(n):
            name = self.names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            total[name] += dur
            own[name] += dur - child[i]
        return calls, total, own

    def write(self, path):
        """Gzipped CSV, one span a line: id,parent,name,op,start_s,end_s
        (times relative to the first span)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,parent,name,op,start_s,end_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.parent[i]},{self.names[self.name_id[i]]},{self.op[i]},"
                         f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n")
