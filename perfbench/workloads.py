"""Seeded workloads of the dualtet benchmark.

Each workload turns (seed, seconds) into a fixed list of inputs, runs one
input per op through the public `dualtet` API (`run_op(inp, idle)`, where
`idle` is called now and then while the op waits for a child process), and
checks each op's output against an independent route.  `check` returns
(units, failure labels): an op is one unit, except on `verify`, where each
check row is one.

Failures are counted, never re-drawn or skipped.  `known_defect` names the
input classes that already fail at the commit that introduced the
benchmark; a failure outside them makes the run incorrect, and so do more
known-class failures than `known_ceiling` allows.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import select
import subprocess
import sys

import numpy as np

import dualtet
from dualtet import cli
from dualtet.tetrahedra import validate_angles

LAMBDAS = (-1, 0, 1)


def run_child(argv: list[str], idle) -> tuple[int, str]:
    """Run `argv` to its end and return (exit code, stdout and stderr in one
    text), calling `idle()` every 0.25 s meanwhile.  A pidfd wakes the wait
    as the child exits; the polling waits of `subprocess` would find the exit
    up to 50 ms late.  The commands run here print a few KB, which the pipe
    holds until the end."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    fd = os.pidfd_open(proc.pid)
    try:
        while not select.select([fd], [], [], 0.25)[0]:
            idle()
        out, _err = proc.communicate()
    finally:
        os.close(fd)
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, out


def _unit_square(rng: np.random.Generator):
    """Endless points of the unit square: the R2 (plastic-number Kronecker)
    sequence with a random shift.  Each point is uniform on its own, and any
    run of them covers the square far more evenly than independent draws,
    so a pass holds nearly the same input mix whatever the seed."""
    g = 1.32471795724474602596
    step = np.array([1.0 / g, 1.0 / (g * g)])
    shift = rng.random(2)
    i = 0
    while True:
        yield (shift + i * step) % 1.0
        i += 1


def _log_scale(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _admissible(lam: int, alpha: float, beta: float) -> bool:
    try:
        validate_angles(lam, alpha, beta)
    except dualtet.DualtetError:
        return False
    return True


def _ops_per_pass(seconds: float, ops_per_second: float, cells: int) -> int:
    """Ops per cell for a pass sized to `seconds` at the calibrated rate; the
    size depends on `seconds` only, so every commit does the same work."""
    return max(1, round(seconds * ops_per_second / cells))


class Workload:
    TIMED_PASSES = 1
    # (most known-class failures seen in one pass over seeds 201-210 unless
    # noted, ops in that pass) at the commit that introduced the benchmark
    KNOWN_SEEN = (0, 1)

    def known_ceiling(self) -> int:
        """Twice the most known-class failures seen in one pass, scaled to
        this pass's size and rounded up."""
        most, ops = self.KNOWN_SEEN
        return -(-2 * most * len(self.inputs) // ops)


class OracleCheck(Workload):
    """`volume_report(..., with_oracle=True)`: closed form against the
    Gauss-Kronrod oracle and, for small lightlike cells, the series."""

    name = "oracle-check"
    OPS_PER_SECOND = 14.0  # a pass takes about --seconds where the benchmark was added
    KNOWN_SEEN = (1, 282)
    CELLS = tuple((lam, kind) for lam in LAMBDAS for kind in ("ideal", "lightlike"))
    TOL = 1e-8
    SERIES_ORDER = 20

    def __init__(self, seed: int, seconds: float):
        rng = np.random.default_rng([seed, 1])
        per_cell = _ops_per_pass(seconds, self.OPS_PER_SECOND, len(self.CELLS))
        inputs = []
        # Every (lam, kind) cell gets the same number of ops, spread evenly
        # over (log alpha, log rho): oracle cost grows steeply with rho, so
        # independent draws would make a pass's cost depend more on the seed
        # than on the code.  Points outside the domain are re-drawn by moving
        # on to the next point.
        for lam, kind in self.CELLS:
            points = _unit_square(rng)
            for _ in range(per_cell):
                while True:
                    u, v = next(points)
                    alpha, rho = _log_scale(u, 0.02, 1.5), _log_scale(v, 1.0 / 16.0, 16.0)
                    beta = alpha * rho
                    if not 0.02 <= beta <= 3.0:
                        continue
                    if lam == 1 and alpha + beta >= math.pi - 0.05:
                        continue
                    if _admissible(lam, alpha, beta):
                        break
                small = kind == "lightlike" and (alpha + beta) * math.sqrt(abs(lam)) < 1.0
                inputs.append((kind, lam, alpha, beta, self.SERIES_ORDER if small else None))
        self.inputs = [inputs[k] for k in rng.permutation(len(inputs))]

    def warm_up(self):
        for lam, kind in self.CELLS:
            dualtet.volume_report(kind, lam, 0.3, 0.4, with_oracle=True, tol=self.TOL,
                                  series_order=self.SERIES_ORDER if kind == "lightlike" else None)

    def run_op(self, inp, idle=None):
        kind, lam, alpha, beta, order = inp
        return dualtet.volume_report(kind, lam, alpha, beta, with_oracle=True, tol=self.TOL,
                                     series_order=order)

    def check(self, inp, rep) -> tuple[int, list[str]]:
        closed = rep.closed_form
        if not abs(closed - rep.oracle) <= max(1e-6 * abs(closed), self.TOL):
            return 1, ["oracle_mismatch"]
        if rep.series is not None:
            diff = abs(closed - rep.series)
            if not (diff <= 1e-10 and diff <= 1e-6 * abs(rep.series)):
                return 1, ["series_mismatch"]
        return 1, []

    @staticmethod
    def fingerprint(rep) -> str:
        return repr((rep.closed_form, rep.oracle, rep.oracle_err, rep.series))

    @staticmethod
    def known_defect(inp, label: str) -> bool:
        # Ideal AdS cells with a long beta edge exhaust the oracle's panel
        # budget.  On a grid of beta in [1.9, 3] by beta**3/alpha in [40, 70],
        # the smallest failing point had beta**3/alpha = 55 (at beta = 3).
        kind, lam, alpha, beta, _order = inp
        return (label == "ToleranceNotReached" and kind == "ideal" and lam == -1
                and beta**3 / alpha >= 55.0)


class TetPipeline(Workload):
    """Round trip of a posed lightlike tetrahedron through its ideal dual,
    parameter recovery and chart membership."""

    name = "tet-pipeline"
    # Each op is timed in three passes and its least time kept.  With one
    # pass, op_ms_p90 jumped between about 26 and 34 ms from run to run (a
    # spread of 0.26 over ten seeds): stalls of the shared host lengthen a
    # tenth or more of these 25 ms ops in some runs and none in others.  The
    # median of three still read 27.5-29.7 ms on one seed, the least 25.3-26.5.
    TIMED_PASSES = 3
    OPS_PER_SECOND = 8.0
    SAMPLES = 20
    KNOWN_SEEN = (7, 159)  # seeds 501-520
    # AdS and flat round trips fail at the commit that introduced the
    # benchmark: over 3000+ draws per lam, about 5% of AdS ops, mostly
    # `recover_ideal` once max(alpha, beta) passes 3.2 (cosh/sinh growth
    # swamps unnormalised representatives), and about 0.3% of flat ones, with
    # scattered labels.  These are the labels seen; de Sitter ones never fail.
    KNOWN_LABELS = frozenset({"recover_ideal", "recover_lightlike", "dual_parameters",
                              "NotATetrahedron", "ChartInversionFailure",
                              "NormalizationFailure"})

    def __init__(self, seed: int, seconds: float):
        rng = np.random.default_rng([seed, 2])
        per_lam = _ops_per_pass(seconds, self.OPS_PER_SECOND, len(LAMBDAS))
        inputs = []
        # Spread evenly over (log alpha, log beta) per lam, as on oracle-check;
        # AdS round trips fail mostly above 3.2, so even coverage also keeps
        # the failure count steady.
        for lam in LAMBDAS:
            points = _unit_square(rng)
            for _ in range(per_lam):
                while True:
                    u, v = next(points)
                    alpha, beta = _log_scale(u, 0.02, 6.0), _log_scale(v, 0.02, 6.0)
                    if lam == 1 and alpha + beta >= math.pi - 0.05:
                        continue
                    if _admissible(lam, alpha, beta):
                        break
                seeds = tuple(int(s) for s in rng.integers(0, 2**31 - 1, 2))
                inputs.append((lam, alpha, beta, self._pose(rng, lam), seeds))
        self.inputs = [inputs[k] for k in rng.permutation(len(inputs))]

    @staticmethod
    def _pose(rng: np.random.Generator, lam: int, scale: float = 0.5):
        """Near-identity isometry, drawn as `dualtet.verify.random_isometry`
        draws one."""
        while True:
            entries = [dualtet.GC(rng.normal(0.0, scale) + (1.0 if k in (0, 3) else 0.0),
                                  rng.normal(0.0, scale), lam) for k in range(4)]
            try:
                return dualtet.Isometry(dualtet.Mat2(*entries))
            except dualtet.DualtetError:
                continue

    def warm_up(self):
        for lam in LAMBDAS:
            self.run_op((lam, 0.3, 0.4, dualtet.Isometry.identity(lam), (1, 2)))

    def run_op(self, inp, idle=None):
        lam, alpha, beta, pose, (seed_l, seed_i) = inp
        tet = dualtet.lightlike_from_angles(lam, alpha, beta, pose)
        dualtet.edge_data(tet)
        faces = tet.faces()
        dual = dualtet.dualize_tet(tet)
        rec_l = dualtet.recover_parameters(tet.vertices, "lightlike", lam)
        rec_i = dualtet.recover_parameters(dual.vertices, "ideal", lam)
        back = dualtet.dualize_tet(dual)
        inside = [dualtet.contains(t, p)
                  for t, s in ((tet, seed_l), (dual, seed_i))
                  for p in dualtet.sample(t, self.SAMPLES, s)]
        return tet, faces, dual, rec_l[1:], rec_i[1:], back, inside

    def check(self, inp, out) -> tuple[int, list[str]]:
        lam, alpha, beta, _pose, _seeds = inp
        tet, faces, dual, rec_l, rec_i, back, inside = out
        if not all(f.is_lightlike() for f in faces):
            return 1, ["face_not_lightlike"]
        if not (dual.kind == "ideal" and abs(dual.alpha - alpha) <= 1e-8
                and abs(dual.beta - beta) <= 1e-8):
            return 1, ["dual_parameters"]
        for label, (ra, rb) in (("recover_lightlike", rec_l), ("recover_ideal", rec_i)):
            if not (abs(ra - alpha) <= 1e-9 and abs(rb - beta) <= 1e-9):
                return 1, [label]
        if not all(v.isclose(w, 1e-6) for v, w in zip(tet.vertices, back.vertices)):
            return 1, ["double_dual"]
        if not all(inside):
            return 1, ["sample_not_contained"]
        return 1, []

    @staticmethod
    def fingerprint(out) -> str:
        _tet, _faces, dual, rec_l, rec_i, back, inside = out
        return repr((dual.alpha, dual.beta, rec_l, rec_i, back.alpha, back.beta, inside))

    def known_defect(self, inp, label: str) -> bool:
        return inp[0] in (-1, 0) and label in self.KNOWN_LABELS


class Verify(Workload):
    """`dualtet verify --seed <s>`, one child process per op; traced runs call
    `dualtet.cli.main` in-process instead."""

    name = "verify"
    SECONDS_PER_OP = 6.5
    ROWS = 24  # check rows of one `dualtet verify` where the benchmark was added
    # Some seeds make the geometry suite raise, and `dualtet verify` exits 2
    # with one error line and no rows.  2 of 350 seeds run through the
    # gcnum..tetrahedra suites did, with these two errors (from `Isometry`
    # in `stabilizer_element` and from a degenerate plane normal).
    KNOWN_ERRORS = frozenset({"NormalizationFailure", "DegenerateNormal"})

    def __init__(self, seed: int, seconds: float):
        rng = np.random.default_rng([seed, 3])
        ops = max(1, round(seconds / self.SECONDS_PER_OP))
        self.inputs = [int(s) for s in rng.integers(0, 2**31 - 1, ops)]
        self.in_process = False

    def warm_up(self):
        pass

    def run_op(self, seed: int, idle=None):
        argv = ["verify", "--seed", str(seed)]
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = cli.main(argv)
            return code, buf.getvalue()
        return run_child([sys.executable, "-m", "dualtet.cli", *argv], idle or (lambda: None))

    @staticmethod
    def rows(text: str) -> list[str]:
        return [line for line in text.splitlines() if line.startswith(("PASS [", "FAIL ["))]

    @staticmethod
    def error_name(text: str) -> str:
        """The exception named by the last line, as in `NormalizationFailure: ...`
        or a traceback's `dualtet.errors.DegenerateNormal: ...`; else ''."""
        lines = text.strip().splitlines()
        head = lines[-1].split(":", 1)[0] if lines else ""
        return head.rsplit(".", 1)[-1] if head.replace(".", "").isidentifier() else ""

    def check(self, seed, out) -> tuple[int, list[str]]:
        code, text = out
        rows = self.rows(text)
        if not rows:  # counts as every row failed
            label = f"exit_{code}_without_rows"
            name = self.error_name(text)
            return self.ROWS, [f"{label}_{name}" if name else label] * self.ROWS
        failed = [row.split("] ", 1)[-1] for row in rows if row.startswith("FAIL")]
        if (code == 0) != (not failed):
            failed.append(f"exit_{code}")
        return len(rows), failed

    @staticmethod
    def fingerprint(out) -> str:
        return repr(Verify.rows(out[1]))

    def known_defect(self, seed, label: str) -> bool:
        return label in {f"exit_2_without_rows_{name}" for name in self.KNOWN_ERRORS}

    def known_ceiling(self) -> int:
        """One child's rows: at 1% a child, two of three crash once in ~3000 passes."""
        return self.ROWS


WORKLOADS = {w.name: w for w in (OracleCheck, TetPipeline, Verify)}
