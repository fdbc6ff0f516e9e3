"""Before/after record of a perfbench workload: BENCH_*.json.

    python tools/bench_oracle.py PARENT CHANGE --out BENCH_oracle_nodes.json
    python tools/bench_oracle.py PARENT CHANGE --workload tet-pipeline \
        --out BENCH_tet_pipeline.json

PARENT and CHANGE are two source checkouts made the same way (e.g. both
with `git archive` into sibling directories): where a checkout lives can
move its `setup_s` and `peak_rss_mb` by itself.  Each measurement
alternates which checkout runs first:

* per call, on `oracle-check` only: `volume_quadrature(kind, ...)` at tol
  1e-8 over the inputs of `oracle-check` (seed 7, --seconds 20), each input
  timed as the least of REPEATS calls, in one child process per round,
  ROUNDS rounds; the ideal and lightlike inputs are reported separately;
* end to end: `perfbench/run.py --workload WORKLOAD --seconds 20 --trace 0`
  on each seed of SEEDS, its metrics as printed (gauge-scaled times) and
  its failed ops per seed.

Each side is reported as median and quartiles over its runs, with the
number of pairs the change won.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

KINDS = ("ideal", "lightlike")
REPEATS = 5
ROUNDS = 10
SEEDS = range(911, 921)


def per_call_snippet(repeats: int) -> str:
    """Python source that prints, as JSON keyed by kind, the least of
    `repeats` timed calls for each oracle-check input; run it from a
    checkout's root."""
    return f"""
import json, sys, time
sys.path[:0] = ["src", "perfbench"]
import dualtet
from workloads import OracleCheck
for kind in {KINDS!r}:
    dualtet.volume_quadrature(kind, 0, 0.3, 0.4, tol=1e-8)
best = {{kind: [] for kind in {KINDS!r}}}
for kind, lam, alpha, beta, _order in OracleCheck(7, 20.0).inputs:
    times = []
    for _ in range({repeats}):
        t = time.perf_counter()
        dualtet.volume_quadrature(kind, lam, alpha, beta, tol=1e-8)
        times.append(time.perf_counter() - t)
    best[kind].append(min(times))
print(json.dumps(best))
"""


def quartiles(xs: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    return {"median": statistics.median(xs), "q1": q1, "q3": q3, "runs": len(xs)}


def run(root: Path, argv: list[str]) -> str:
    out = subprocess.run([sys.executable, *argv], cwd=root, check=True,
                         capture_output=True, text=True).stdout
    return out.strip().splitlines()[-1]


def paired(sides: dict[str, Path], rounds, measure) -> dict[str, list]:
    """measure(root, r) on both sides per round, the first side alternating."""
    got = {name: [] for name in sides}
    for r in rounds:
        order = list(sides) if r % 2 == 0 else list(sides)[::-1]
        for name in order:
            got[name].append(measure(sides[name], r))
    return got


def compare(parent: list[float], change: list[float]) -> dict:
    wins = sum(c < p for p, c in zip(parent, change))
    return {"parent": quartiles(parent), "change": quartiles(change),
            "change_lower_in": f"{wins}/{len(parent)} pairs"}


def per_call(sides: dict[str, Path]) -> dict:
    snippet = per_call_snippet(REPEATS)
    calls = paired(sides, range(ROUNDS), lambda root, r: json.loads(run(root, ["-c", snippet])))
    return {
        kind: {
            "what": f"volume_quadrature({kind!r}, ..., tol=1e-8), least of "
                    f"{REPEATS} calls per input, one child process per round",
            "inputs": f"the {len(calls['parent'][0][kind])} {kind} inputs of "
                      "oracle-check seed 7, --seconds 20",
            "median_ms": compare(*([1e3 * statistics.median(c[kind]) for c in calls[k]]
                                   for k in sides)),
            "total_s": compare(*([sum(c[kind]) for c in calls[k]] for k in sides)),
        }
        for kind in KINDS
    }


def end_to_end(workload: str, runs: dict[str, list]) -> dict:
    """Summary of `perfbench/run.py` results, one per seed of SEEDS and side."""
    names = list(runs["parent"][0]["metrics"])
    return {
        "command": f"python3 perfbench/run.py --workload {workload} --seed SEED "
                   "--seconds 20 --trace 0",
        "seeds": f"{SEEDS[0]}-{SEEDS[-1]}",
        "correct": {k: all(x["correct"] for x in side) for k, side in runs.items()},
        "failed_ops": {k: [x["failed"] for x in side] for k, side in runs.items()},
        "metrics": {m: compare(*([x["metrics"][m]["value"] for x in runs[k]] for k in runs))
                    for m in names},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", default="oracle-check",
                    choices=("oracle-check", "tet-pipeline", "verify"))
    ap.add_argument("--out", type=Path, default=Path("BENCH_oracle_nodes.json"))
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    record = {"host": f"{platform.machine()}, Python {platform.python_version()}"}
    if args.workload == "oracle-check":
        record["per_call"] = per_call(sides)
    runs = paired(sides, SEEDS, lambda root, seed: json.loads(run(
        root, ["perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
               "--seconds", "20", "--trace", "0"])))
    record[args.workload.replace("-", "_")] = summary = end_to_end(args.workload, runs)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(summary["metrics"]["wall_s"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
