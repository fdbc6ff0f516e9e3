"""Before/after record of a perfbench workload: BENCH_*.json.

    python tools/bench_oracle.py PARENT CHANGE --seeds 931-940 \
        --out BENCH_oracle_lookahead.json
    python tools/bench_oracle.py PARENT CHANGE --workload tet-pipeline \
        --out BENCH_tet_pipeline.json

PARENT and CHANGE are two source checkouts made the same way (e.g. both
with `git archive` into sibling directories): where a checkout lives can
move its `setup_s` and `peak_rss_mb` by itself.  Each measurement
alternates which checkout runs first:

* per call, on `oracle-check` only: `volume_quadrature(kind, ...)` at tol
  1e-8 over the inputs of `oracle-check` (seed 7, --seconds 20), each input
  timed as the least of REPEATS calls, in one child process per round,
  ROUNDS rounds; the ideal inputs, the lightlike ones at lam = 0 (where
  the lightlike integrand is a polynomial) and those at lam = +-1 are
  reported separately, with the integrand calls and panels evaluated over
  one pass of them, the distinct node sets those calls were made on, and
  the calls made on the root set (the nodes of each integral's first call,
  the same for every input), counted from outside the package by wrapping
  each kind's oracle;
* end to end: `perfbench/run.py --workload WORKLOAD --seconds 20 --trace 0`
  on each seed of --seeds (911-920 by default), its metrics as printed
  (gauge-scaled times) and its failed ops per seed.

Each side is reported as median and quartiles over its runs, with the
number of pairs the change won; the pair summary of every end-to-end
metric is printed as well.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ORACLES = {"ideal": "_ideal_oracle", "lightlike": "_lightlike_oracle"}
GROUPS = ("ideal", "lightlike lam=0", "lightlike lam=+-1")
# The per-call group of each (kind, lam).
GROUP_OF = {(kind, lam): "ideal" if kind == "ideal" else GROUPS[1] if lam == 0 else GROUPS[2]
            for kind in ORACLES for lam in (-1, 0, 1)}
REPEATS = 5
ROUNDS = 10


def seed_block(text: str) -> range:
    """The seeds FIRST-LAST, both included."""
    first, last = map(int, text.split("-"))
    if last < first:
        raise argparse.ArgumentTypeError(f"empty seed block {text!r}")
    return range(first, last + 1)


def per_call_snippet(repeats: int) -> str:
    """Python source that prints, as JSON, the least of `repeats` timed
    calls for each oracle-check input ("best", keyed by group), and per
    group over one untimed pass, in which each kind's oracle is wrapped:
    the integrand calls, the panels evaluated, the distinct node sets and
    the calls on the root set; run it from a checkout's root."""
    return f"""
import json, sys, time
sys.path[:0] = ["src", "perfbench"]
import dualtet
from dualtet import volumes
from workloads import OracleCheck
inputs = OracleCheck(7, 20.0).inputs
group_of = {GROUP_OF!r}
calls = {{group: 0 for group in {GROUPS!r}}}
panels = dict(calls)
node_sets = {{group: {{}} for group in {GROUPS!r}}}
roots = {{group: set() for group in {GROUPS!r}}}
def counting(kind, oracle):
    def wrapped(lam, *args):
        group = group_of[kind, lam]
        f = oracle(lam, *args)
        first = True
        def counted(x):
            nonlocal first
            key = (x.shape, x.tobytes())
            if first:
                roots[group].add(key)
                first = False
            calls[group] += 1
            panels[group] += x.shape[0]
            node_sets[group][key] = node_sets[group].get(key, 0) + 1
            return f(x)
        return counted
    return wrapped
oracles = {{kind: getattr(volumes, name) for kind, name in {ORACLES!r}.items()}}
for kind, name in {ORACLES!r}.items():
    setattr(volumes, name, counting(kind, oracles[kind]))
for kind, lam, alpha, beta, _order in inputs:
    dualtet.volume_quadrature(kind, lam, alpha, beta, tol=1e-8)
for kind, name in {ORACLES!r}.items():
    setattr(volumes, name, oracles[kind])
best = {{group: [] for group in {GROUPS!r}}}
for kind, lam, alpha, beta, _order in inputs:
    times = []
    for _ in range({repeats}):
        t = time.perf_counter()
        dualtet.volume_quadrature(kind, lam, alpha, beta, tol=1e-8)
        times.append(time.perf_counter() - t)
    best[group_of[kind, lam]].append(min(times))
print(json.dumps({{"best": best, "calls": calls, "panels": panels,
                  "node_sets": {{group: len(sets) for group, sets in node_sets.items()}},
                  "root_set_calls": {{group: sum(node_sets[group][key] for key in roots[group])
                                     for group in {GROUPS!r}}}}}))
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


def count(rounds: list[dict], what: str, group: str) -> int:
    """A count of one pass, which every round must repeat exactly."""
    counts = {r[what][group] for r in rounds}
    if len(counts) != 1:
        raise RuntimeError(f"{group} {what} differ between rounds: {sorted(counts)}")
    return counts.pop()


def per_call(sides: dict[str, Path]) -> dict:
    snippet = per_call_snippet(REPEATS)
    rounds = paired(sides, range(ROUNDS), lambda root, r: json.loads(run(root, ["-c", snippet])))
    return {
        group: {
            "what": f"volume_quadrature(kind, lam, ..., tol=1e-8), least of "
                    f"{REPEATS} calls per input, one child process per round",
            "inputs": f"the {len(rounds['parent'][0]['best'][group])} {group} inputs of "
                      "oracle-check seed 7, --seconds 20",
            "median_ms": compare(*([1e3 * statistics.median(r["best"][group]) for r in rounds[k]]
                                   for k in sides)),
            "total_s": compare(*([sum(r["best"][group]) for r in rounds[k]] for k in sides)),
            "integrand_calls": {k: count(rounds[k], "calls", group) for k in sides},
            "panels_evaluated": {k: count(rounds[k], "panels", group) for k in sides},
            "node_sets": {k: count(rounds[k], "node_sets", group) for k in sides},
            "root_set_calls": {k: count(rounds[k], "root_set_calls", group) for k in sides},
        }
        for group in GROUPS
    }


def end_to_end(workload: str, seeds: range, runs: dict[str, list]) -> dict:
    """Summary of `perfbench/run.py` results, one per seed and side."""
    names = list(runs["parent"][0]["metrics"])
    return {
        "command": f"python3 perfbench/run.py --workload {workload} --seed SEED "
                   "--seconds 20 --trace 0",
        "seeds": f"{seeds[0]}-{seeds[-1]}",
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
    ap.add_argument("--seeds", type=seed_block, default=seed_block("911-920"),
                    help="end-to-end seeds FIRST-LAST (default 911-920)")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    record = {"host": f"{platform.machine()}, Python {platform.python_version()}"}
    if args.workload == "oracle-check":
        record["per_call"] = per_call(sides)
    runs = paired(sides, args.seeds, lambda root, seed: json.loads(run(
        root, ["perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
               "--seconds", "20", "--trace", "0"])))
    record[args.workload.replace("-", "_")] = summary = end_to_end(args.workload, args.seeds,
                                                                   runs)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    for name, pair in summary["metrics"].items():
        parent, change = pair["parent"], pair["change"]
        print(f"{name}: {parent['median']:.4g} [{parent['q1']:.4g}, {parent['q3']:.4g}] -> "
              f"{change['median']:.4g} [{change['q1']:.4g}, {change['q3']:.4g}], "
              f"change lower in {pair['change_lower_in']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
