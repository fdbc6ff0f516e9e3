"""dualtet benchmark: one seeded workload per run, outputs checked per op.

    python3 perfbench/run.py --workload oracle-check --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  Load is a closed loop with one caller: one process, no threads,
one op at a time.  With `--trace 0` the run times one pass over the
inputs and prints the end-to-end metrics; with `--trace 1` it runs one
untraced and one traced pass over the same inputs and prints the
per-layer metrics, the tracing overhead, and where the span file went.
The last line of stdout is a JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# One caller, one thread: keep numpy's BLAS from starting threads of its own,
# here and in every child.  Set before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
# A child that starts the interpreter and imports numpy, and what it takes on
# the host the benchmark was tuned on at SpeedGauge's nominal speed.
REFERENCE_CHILD = ("-c", "import numpy")
REFERENCE_S = 0.12
clock = time.perf_counter


def _reference_loop(n: int = 10_000) -> float:
    s, d = 0.0, {}
    for i in range(n):
        d[i % 97] = s
        s += (i * 0.5) ** 0.5
    return s


class SpeedGauge:
    """How fast the machine runs right now, against a fixed pure-Python loop.

    The shared host this benchmark was tuned on changes speed by up to 2.2x
    within two minutes, in spells of about a minute, and both of its CPUs
    change together.  So every time is reported in seconds scaled to the
    loop's nominal speed: raw seconds * NOMINAL_S / (the loop's time), with
    the loop timed from just before to just after what is measured.  The
    loop touches no `dualtet` code, so a change to the package moves the
    scaled times as it moves the raw ones.
    """

    NOMINAL_S = 1.5e-3  # the loop's typical time on that host (2 CPUs, Python 3.11)
    STALE_S = 0.25

    def __init__(self):
        self.taken = -float("inf")
        self.readings: list[float] = []

    def speed(self) -> float:
        """NOMINAL_S over the loop's time: the median of three fresh timings,
        retaken when the last ones are older than STALE_S."""
        if clock() - self.taken >= self.STALE_S:
            times = []
            for _ in range(3):
                t = clock()
                _reference_loop()
                times.append(clock() - t)
            self.readings.append(self.NOMINAL_S / statistics.median(times))
            self.taken = clock()
        return self.readings[-1]

    def mark(self) -> int:
        """Call before what is measured; pass the result to `mean_since`."""
        self.speed()
        return len(self.readings) - 1

    def mean_since(self, mark: int) -> float:
        """Mean speed from the reading at `mark` to one after the measurement."""
        self.speed()
        return statistics.fmean(self.readings[mark:])


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("oracle-check", "tet-pipeline", "verify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import, generate the inputs, warm up and exit (timed by the parent)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def setup_seconds(args) -> list[float]:
    """Scaled wall time of fresh set-ups: interpreter start, `import dualtet`,
    input generation and warm-up; for `verify`, a `dualtet --version` child.

    Starting a process slows down more than SpeedGauge's loop when the host
    is busy, so each set-up is scaled by reference children run just before
    and just after it: REFERENCE_S * set-up time / their mean time.
    """
    from workloads import run_child

    if args.workload == "verify":
        argv = [sys.executable, "-m", "dualtet.cli", "--version"]
    else:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]

    def seconds(argv) -> float:
        t = clock()
        code, _out = run_child(argv, lambda: None)
        if code:
            raise subprocess.CalledProcessError(code, argv)
        return clock() - t

    reference = [sys.executable, *REFERENCE_CHILD]
    before, times = seconds(reference), []
    for _ in range(SETUP_REPEATS):
        raw = seconds(argv)
        after = seconds(reference)
        times.append(REFERENCE_S * raw / ((before + after) / 2))
        before = after
    return times


class Pass:
    """Outcome of one pass over the workload's inputs."""

    def __init__(self):
        self.raw: list[float] = []  # seconds as the clock read them
        self.latencies: list[float] = []  # the same, scaled by SpeedGauge
        self.fingerprints: list[str] = []
        self.units = 0
        self.failures: Counter = Counter()
        self.unexpected: Counter = Counter()

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def run_pass(wl, tracer=None) -> Pass:
    """Time each op alone; the gauge and the checks run outside the stopwatch,
    and on a traced pass with the tracer's wrappers removed."""
    out, gauge = Pass(), SpeedGauge()
    for i, inp in enumerate(wl.inputs):
        mark = gauge.mark()
        if tracer is not None:
            tracer.current_op = i
            tracer.install()
        result, error = None, None
        t = clock()
        try:
            result = wl.run_op(inp, gauge.speed)
        except Exception as exc:  # noqa: BLE001 - a failing op is counted, not fatal
            error = type(exc).__name__
        finally:
            raw = clock() - t
            if tracer is not None:
                tracer.uninstall()
        out.raw.append(raw)
        out.latencies.append(raw * gauge.mean_since(mark))
        if error is None:
            units, labels = wl.check(inp, result)
            out.fingerprints.append(wl.fingerprint(result))
        else:
            units, labels = 1, [error]
            out.fingerprints.append(error)
        out.units += units
        for label in labels[:units]:
            out.failures[label] += 1
            if not wl.known_defect(inp, label):
                out.unexpected[label] += 1
    return out


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "verify" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def report(lines, correct: bool, attempted: int, failed: int, metrics: dict):
    for line in lines:
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def known_failures(p: Pass) -> int:
    return sum(p.failures.values()) - sum(p.unexpected.values())


def failures_expected(wl, p: Pass) -> bool:
    """Every failure lies in a known class, and there are no more of them
    than the workload's ceiling for a pass of its size."""
    return not p.unexpected and known_failures(p) <= wl.known_ceiling()


def failure_lines(wl, p: Pass) -> list[str]:
    lines = [f"failure: {label} x{n}"
             + (f" (unexpected x{p.unexpected[label]})" if p.unexpected[label] else " (known)")
             for label, n in sorted(p.failures.items())] or ["failures: none"]
    if known_failures(p) > wl.known_ceiling():
        lines.append(f"{known_failures(p)} known-class failures, above the ceiling of "
                     f"{wl.known_ceiling()} for {len(wl.inputs)} ops")
    return lines


def end_to_end(args, wl) -> int:
    setups = setup_seconds(args)
    wl.warm_up()
    # Each op's time is the least of its times in the workload's timed
    # passes, which run one after the other over the whole op list; the
    # outputs and the failures are those of the first pass, and every pass
    # must repeat them.
    passes = [run_pass(wl) for _ in range(wl.TIMED_PASSES)]
    timed = passes[0]
    latencies = [min(ts) for ts in zip(*(p.latencies for p in passes))]
    raw = [min(ts) for ts in zip(*(p.raw for p in passes))]
    same = all(p.fingerprints == timed.fingerprints and p.failures == timed.failures
               for p in passes)
    latencies_ms = [1000.0 * t for t in latencies]
    failed = sum(timed.failures.values())
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(sum(latencies), "s"),
        "op_ms_p50": metric(quantile(latencies_ms, 0.5), "ms"),
        "op_ms_p90": metric(quantile(latencies_ms, 0.9), "ms"),
        "peak_rss_mb": metric(peak_rss_mb(args.workload), "MB"),
    }
    lines = [f"workload {args.workload} seed {args.seed}: {len(wl.inputs)} ops timed "
             f"in {len(passes)} passes, {SETUP_REPEATS} set-ups"]
    lines += [f"  {name:<12} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"  times are scaled by SpeedGauge; unscaled wall_s {sum(raw):.6g} s")
    lines.append(f"  {'fail_ratio':<12} {failed / timed.units:.6g} 1 ({failed}/{timed.units})")
    lines += failure_lines(wl, timed)
    if not same:
        lines.append("the timed passes saw different outputs")
    report(lines, same and failures_expected(wl, timed), timed.units, failed, metrics)
    return 0


def per_layer(args, wl) -> int:
    from spans import COUNT_NAMES, SPAN_NAMES, SUITE_NAMES, SUITE_PREFIX, Tracer

    if args.workload == "verify":
        wl.in_process = True
    wl.warm_up()
    plain = run_pass(wl)
    tracer = Tracer()
    traced = run_pass(wl, tracer)
    calls, total, own = tracer.self_times()
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = metric(calls[name], "count")
        metrics[f"{name}.self_s"] = metric(own[name], "s")
    for suite in SUITE_NAMES:
        metrics[f"{SUITE_PREFIX}{suite}.s"] = metric(total[SUITE_PREFIX + suite], "s")
    for name in COUNT_NAMES:
        metrics[name] = metric(tracer.counts[name], "count")
    quad_calls = calls["cubature.adaptive_quad_2d"]
    converged = quad_calls - tracer.counts["cubature.tolerance_not_reached"]
    metrics["cubature.converged_ratio"] = metric(converged / quad_calls if quad_calls else 1.0, "1")
    metrics["trace.overhead_ratio"] = metric(traced.wall / plain.wall, "1")

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-{args.seed}.csv.gz"
    tracer.write(path)
    same = plain.fingerprints == traced.fingerprints and plain.failures == traced.failures
    lines = [f"workload {args.workload} seed {args.seed}: traced pass of {len(wl.inputs)} ops, "
             f"{len(tracer.start)} spans written to {path.relative_to(ROOT)}",
             f"  untraced wall_s {plain.wall:.6g} s, traced wall_s {traced.wall:.6g} s"]
    lines += [f"  {name:<48} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"  cubature.converged_ratio base: {quad_calls} adaptive_quad_2d calls")
    lines += failure_lines(wl, traced)
    if not same:
        lines.append("traced and untraced passes saw different outputs")
    failed = sum(traced.failures.values())
    report(lines, same and failures_expected(wl, traced), traced.units, failed, metrics)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dualtet" / "__init__.py").is_file():
        sys.stderr.write(f"no dualtet sources under {SRC}; run from a source checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(  # for every child
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.seconds)
    if args.setup_only:
        wl.warm_up()
        return 0
    return per_layer(args, wl) if args.trace else end_to_end(args, wl)


if __name__ == "__main__":
    sys.exit(main())
