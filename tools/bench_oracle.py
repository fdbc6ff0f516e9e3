"""Before/after record of the quadrature oracle: BENCH_oracle_nodes.json.

    python tools/bench_oracle.py PARENT CHANGE --out BENCH_oracle_nodes.json

PARENT and CHANGE are two source checkouts (e.g. made with `git archive`).
Two measurements, each alternating which checkout runs first:

* per call: `volume_quadrature(kind, ...)` at tol 1e-8 over the inputs of
  `oracle-check` (seed 7, --seconds 20), each input timed as the least of
  REPEATS calls, in one child process per round, ROUNDS rounds; the ideal
  and lightlike inputs are reported separately;
* end to end: `perfbench/run.py --workload oracle-check --seconds 20
  --trace 0` on each seed of SEEDS, its metrics as printed (gauge-scaled
  times).

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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--out", type=Path, default=Path("BENCH_oracle_nodes.json"))
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    snippet = per_call_snippet(REPEATS)
    calls = paired(sides, range(ROUNDS), lambda root, r: json.loads(run(root, ["-c", snippet])))
    per_call = {
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

    runs = paired(sides, SEEDS, lambda root, seed: json.loads(run(
        root, ["perfbench/run.py", "--workload", "oracle-check", "--seed", str(seed),
               "--seconds", "20", "--trace", "0"])))
    names = list(runs["parent"][0]["metrics"])
    end_to_end = {
        "command": "python3 perfbench/run.py --workload oracle-check --seed SEED "
                   "--seconds 20 --trace 0",
        "seeds": f"{SEEDS[0]}-{SEEDS[-1]}",
        "correct": {k: all(x["correct"] for x in runs[k]) for k in sides},
        "failed_ops": {k: sum(x["failed"] for x in runs[k]) for k in sides},
        "metrics": {m: compare(*([x["metrics"][m]["value"] for x in runs[k]] for k in sides))
                    for m in names},
    }
    record = {"host": f"{platform.machine()}, Python {platform.python_version()}",
              "per_call": per_call, "oracle_check": end_to_end}
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(end_to_end["metrics"]["wall_s"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
