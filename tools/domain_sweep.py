"""Parameter recovery over the domain, by kind, curvature and size:
SWEEP_recovery.json.

    python tools/domain_sweep.py                  # this checkout
    python tools/domain_sweep.py PARENT CHANGE > SWEEP_recovery.json

For each kind and lam, cells (alpha, beta) are drawn log-uniform in
[LO, HI] (at lam = 1 only alpha + beta < pi is drawn), and
`recover_parameters` is run on

* "posed": the vertices of the tetrahedron at a pose drawn by
  `dualtet.verify.random_isometry`, in label order, over POSED_CELLS cells;
* "orders": all 24 orders of the vertices at the identity pose, over
  ORDER_CELLS cells.

Both are tallied per bin of alpha + beta of width BIN: the recoveries run,
those within TOL of the cell in both parameters, the worst error of a
returned result, each `DualtetError` class raised and any other exception.
At lam = 1 the vertex set of (alpha, beta) is also that of the cyclic
rotations of (alpha, beta, pi - alpha - beta), so a result is measured
against the nearest of them.  A tetrahedron that cannot be built is counted
as "not_built" and not recovered.  Each stream of cells has a seed of its
own under SEED, so a smaller run recovers the first cells of a larger one.

Each checkout is swept in a child process with its own `src` first on the
path, and one JSON object is printed, keyed by checkout directory name.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import platform
import subprocess
import sys
import time
from pathlib import Path

KINDS = ("lightlike", "ideal")
LAMBDAS = (-1, 0, 1)
SEED = 24
POSED_CELLS = 1000
ORDER_CELLS = 100
LO, HI = 0.02, 10.0
BIN = 2.0
TOL = 1e-9


def draw_cells(rng, lam: int, n: int) -> list[tuple[float, float]]:
    cells = []
    while len(cells) < n:
        alpha, beta = (math.exp(x) for x in rng.uniform(math.log(LO), math.log(HI), 2).tolist())
        if lam != 1 or alpha + beta < math.pi:
            cells.append((alpha, beta))
    return cells


def error(lam: int, alpha: float, beta: float, got_alpha: float, got_beta: float) -> float:
    wants = [(alpha, beta)]
    if lam == 1:
        gamma = math.pi - alpha - beta
        wants += [(gamma, alpha), (beta, gamma)]
    err = min(max(abs(got_alpha - a), abs(got_beta - b)) for a, b in wants)
    return err if math.isfinite(err) else math.inf


def new_tally() -> dict:
    return {"runs": 0, "within_tol": 0, "worst_error": 0.0, "not_built": 0,
            "errors": {}, "other": {}}


def recover_into(tally: dict, dualtet, vertices, kind: str, lam: int, alpha: float,
                 beta: float) -> None:
    tally["runs"] += 1
    try:
        _pose, got_alpha, got_beta = dualtet.recover_parameters(vertices, kind, lam)
    except dualtet.DualtetError as exc:
        name, where = type(exc).__name__, tally["errors"]
    except Exception as exc:  # noqa: BLE001 - counted, not fatal
        name, where = type(exc).__name__, tally["other"]
    else:
        err = error(lam, alpha, beta, got_alpha, got_beta)
        tally["within_tol"] += err <= TOL
        tally["worst_error"] = max(tally["worst_error"], err)
        return
    where[name] = where.get(name, 0) + 1


def sweep(posed_cells: int = POSED_CELLS, order_cells: int = ORDER_CELLS) -> dict:
    """The tallies of the dualtet on the path, keyed kind -> lam -> bin of
    alpha + beta -> "posed" / "orders"."""
    import numpy as np

    import dualtet
    from dualtet.verify import random_isometry

    out = {}
    for k, kind in enumerate(KINDS):
        for lam in LAMBDAS:
            bins = out.setdefault(kind, {}).setdefault(str(lam), {})

            def tally(alpha, beta, what):
                lo = BIN * math.floor((alpha + beta) / BIN)
                cell = bins.setdefault(f"{lo:g}-{lo + BIN:g}",
                                       {"posed": new_tally(), "orders": new_tally()})
                return cell[what]

            rng, poses = (np.random.default_rng([SEED, k, lam + 1, s]) for s in (0, 1))
            for alpha, beta in draw_cells(rng, lam, posed_cells):
                t = tally(alpha, beta, "posed")
                try:
                    tet = dualtet.Tetrahedron(kind, lam, alpha, beta, random_isometry(poses, lam))
                    vertices = tet.vertices
                except dualtet.DualtetError:
                    t["not_built"] += 1
                    continue
                recover_into(t, dualtet, vertices, kind, lam, alpha, beta)
            rng = np.random.default_rng([SEED, k, lam + 1, 2])
            for alpha, beta in draw_cells(rng, lam, order_cells):
                t = tally(alpha, beta, "orders")
                try:
                    vertices = dualtet.Tetrahedron(kind, lam, alpha, beta).vertices
                except dualtet.DualtetError:
                    t["not_built"] += 1
                    continue
                for order in itertools.permutations(vertices):
                    recover_into(t, dualtet, order, kind, lam, alpha, beta)
            out[kind][str(lam)] = dict(sorted(bins.items(), key=lambda b: float(b[0].split("-")[0])))
    return out


def sweep_snippet(posed_cells: int, order_cells: int) -> str:
    """Python source that prints the sweep of the checkout it runs in as
    JSON; run it from a checkout's root."""
    return f"""
import json, sys, time
sys.path[:0] = ["src", {str(Path(__file__).resolve().parent)!r}]
import domain_sweep
t = time.perf_counter()
got = domain_sweep.sweep({posed_cells}, {order_cells})
print(json.dumps({{"seconds": round(time.perf_counter() - t, 1), "tallies": got}}))
"""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkouts", type=Path, nargs="*",
                    help="source checkouts to sweep (default: this one)")
    args = ap.parse_args(argv)
    roots = [p.resolve() for p in args.checkouts] or [Path(__file__).resolve().parents[1]]
    record = {
        "host": f"{platform.machine()}, Python {platform.python_version()}",
        "seed": SEED, "posed_cells": POSED_CELLS, "order_cells": ORDER_CELLS,
        "range": [LO, HI], "bin": BIN, "tol": TOL,
    }
    snippet = sweep_snippet(POSED_CELLS, ORDER_CELLS)
    start = time.perf_counter()
    for root in roots:
        out = subprocess.run([sys.executable, "-c", snippet], cwd=root, check=True,
                             capture_output=True, text=True).stdout
        record[root.name] = json.loads(out.strip().splitlines()[-1])
    print(json.dumps(record, indent=1))
    print(f"swept {len(roots)} checkout(s) in {time.perf_counter() - start:.1f} s",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
