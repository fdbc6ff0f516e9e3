"""In-process A/B of two source checkouts on the ops of a perfbench workload.

    python tools/bench_ab.py PARENT CHANGE
    python tools/bench_ab.py PARENT CHANGE --workload oracle-check
    python tools/bench_ab.py PARENT CHANGE --workload verify

Each checkout's `src/dualtet` is imported under a name of its own, and its
`perfbench/workloads.py` beside it with that copy as `dualtet`, so both
sides build the same inputs (WORKLOAD at each seed of SEEDS, --seconds
SECONDS) from their own classes.  Every op runs on both sides in each of
ROUNDS rounds, the side that goes first alternating from round to round,
and keeps its least time.  Per seed, one line gives the op-time ratio (the
sum of the change's least times over the parent's), how many ops have the
same fingerprint (the workload's `fingerprint`, or the class of the error
raised) on both sides, and each side's failed ops as the workload's
`check` counts them.  The exit status is 1 when some fingerprint differs.
On `verify` each op is `cli.main(["verify", "--seed", ...])` in-process,
not a child process, and its fingerprint is the check rows it prints.

This complements the benchmark and does not replace it.  The two sides
share one process, one interpreter and one stretch of host time, so an A/A
run (one checkout on both sides) read 0.987 to 1.003 per seed on a shared
2-CPU x86_64 host, where `perfbench` end-to-end metrics spread by 10-25%
from run to run.  But it measures op time only, not setup, wall time or
memory, and not the gauge-scaled percentiles the benchmark gates on.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import time
from pathlib import Path

SEEDS = (7, 8, 9, 10)
ROUNDS = 5
SECONDS = 20.0


def _exec(name: str, path: Path, package_dir: Path | None = None):
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=None if package_dir is None else [str(package_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _is_dualtet(key: str, name: str = "dualtet") -> bool:
    return key == name or key.startswith(name + ".")


def load_side(root: Path, name: str):
    """The `workloads` module of checkout `root`, running on that checkout's
    `src/dualtet` imported as package `name`.  Every module of the package
    is imported first, so whatever `workloads.py` imports from `dualtet.*`
    comes from this checkout even where the package loads its modules on
    first use.  While `workloads.py` is executed, the package and its
    modules stand in for `dualtet` and `dualtet.*` in `sys.modules`;
    afterwards those keys are as they were before."""
    src = root / "src" / "dualtet"
    _exec(name, src / "__init__.py", src)
    for path in sorted(src.glob("*.py")):
        if path.stem != "__init__":
            importlib.import_module(f"{name}.{path.stem}")
    aliases = {"dualtet" + key[len(name):]: mod for key, mod in list(sys.modules.items())
               if _is_dualtet(key, name)}
    saved = {key: mod for key, mod in sys.modules.items() if _is_dualtet(key)}
    sys.modules.update(aliases)
    try:
        return _exec(f"{name}_workloads", root / "perfbench" / "workloads.py")
    finally:
        for key in [key for key in sys.modules if _is_dualtet(key)]:
            del sys.modules[key]
        sys.modules.update(saved)


def _run(workload, inp):
    """(seconds, output or raised error) of one op."""
    start = time.perf_counter()
    try:
        out = workload.run_op(inp)
    except Exception as exc:  # noqa: BLE001 - a failed op is compared by its class
        out = exc
    return time.perf_counter() - start, out


def _fingerprint(workload, out) -> str:
    return type(out).__name__ if isinstance(out, Exception) else workload.fingerprint(out)


def _failed(workload, inp, out) -> bool:
    return isinstance(out, Exception) or bool(workload.check(inp, out)[1])


def compare_seed(sides: dict, workload_name: str, seed: int) -> dict:
    """Least op times, fingerprints and failed ops of both sides at `seed`."""
    loads = {name: wl.WORKLOADS[workload_name](seed, SECONDS) for name, wl in sides.items()}
    for workload in loads.values():
        workload.in_process = True  # read by `verify` alone
        workload.warm_up()
    n = len(next(iter(loads.values())).inputs)
    best = {name: [float("inf")] * n for name in sides}
    outs = {name: [None] * n for name in sides}
    for r in range(ROUNDS):
        order = list(sides) if r % 2 == 0 else list(sides)[::-1]
        for i in range(n):
            for name in order:
                workload = loads[name]
                dt, out = _run(workload, workload.inputs[i])
                best[name][i] = min(best[name][i], dt)
                outs[name][i] = out
    parent, change = sides
    prints = {name: [_fingerprint(loads[name], out) for out in outs[name]] for name in sides}
    return {
        "seed": seed,
        "ops": n,
        "ratio": sum(best[change]) / sum(best[parent]),
        "same_fingerprint": sum(p == c for p, c in zip(prints[parent], prints[change])),
        "failed": {name: sum(_failed(loads[name], inp, out)
                             for inp, out in zip(loads[name].inputs, outs[name]))
                   for name in sides},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", default="tet-pipeline",
                    choices=("tet-pipeline", "oracle-check", "verify"))
    args = ap.parse_args(argv)
    sides = {"parent": load_side(args.parent.resolve(), "dualtet_parent"),
             "change": load_side(args.change.resolve(), "dualtet_change")}
    same = True
    for seed in SEEDS:
        got = compare_seed(sides, args.workload, seed)
        same &= got["same_fingerprint"] == got["ops"]
        print(f"seed {seed}: op-time ratio {got['ratio']:.3f}, fingerprints identical on "
              f"{got['same_fingerprint']}/{got['ops']} ops, failed ops "
              f"{got['failed']['parent']} -> {got['failed']['change']}")
    print("every fingerprint matches" if same else "fingerprints differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
