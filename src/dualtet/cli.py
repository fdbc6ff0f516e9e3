"""Command-line surface: build, inspect, dualize and measure tetrahedra.

Subcommands:
    build    construct a tetrahedron and write its JSON descriptor
    info     recover parameters and print the edge table of a descriptor
    volume   closed-form volume with optional quadrature oracle and series
    dual     projectively dual tetrahedron of a descriptor
    mesh     affine-chart triangle mesh ("v x y z" / "f i j k" lines)
    plot     CSV sweep of volume over an (alpha, beta) grid
    verify   run the seeded invariant suites

Exit codes: 0 success, 1 |closed form - oracle| above --tol, 2 invalid input or
domain error, 3 verification failure or unreachable tolerance, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .errors import DomainError, DualtetError, ToleranceNotReached

# Each subcommand imports the modules it uses when it runs, so `--version`,
# `--help` and `volume` without --in load neither the geometry stack nor,
# for the first two, numpy.

# The names of `verify.SUITES`, in its order, for --suites and its help.
SUITE_NAMES = ("gcnum", "matmodel", "geometry", "tetrahedra", "volumes")

EXIT_OK = 0
EXIT_DISCREPANCY = 1
EXIT_INPUT = 2
EXIT_VERIFY = 3
EXIT_IO = 4


def _write_text(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _IOFailure(str(exc)) from exc


class _IOFailure(Exception):
    pass


def _descriptor_json(tet) -> str:
    from .tetrahedra import to_descriptor

    return json.dumps(to_descriptor(tet), indent=2, sort_keys=True) + "\n"


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _IOFailure(str(exc)) from exc
    except ValueError as exc:  # not JSON, or not UTF-8 text
        raise DomainError(f"{path} does not hold JSON: {exc}") from exc


def _flag_params(args) -> tuple[str, int, float, float]:
    if args.lam is None or args.alpha is None or args.beta is None:
        raise DualtetError("need --in FILE or all of --lambda/--kind/--alpha/--beta")
    return args.kind, args.lam, args.alpha, args.beta


def _load_tet(args):
    from .tetrahedra import Tetrahedron, from_descriptor

    if getattr(args, "infile", None):
        return from_descriptor(_read_json(args.infile))
    return Tetrahedron(*_flag_params(args))


def _summary(tet) -> str:
    import numpy as np

    from .tetrahedra import edge_data

    lines = [
        f"kind={tet.kind} lambda={tet.lam} alpha={tet.alpha!r} beta={tet.beta!r} "
        f"gamma={tet.gamma!r}",
        "vertices:",
    ]
    for i, v in enumerate(tet.vertices, start=1):
        if tet.kind == "lightlike":
            vec = np.array2string(v.vector(), precision=6, suppress_small=True)
        else:
            vec = f"[{v.v1.re:.6g}{v.v1.im:+.6g}l : {v.v2.re:.6g}{v.v2.im:+.6g}l]"
        lines.append(f"  x{i}: {vec}")
    label = "length" if tet.kind == "lightlike" else "angle"
    lines.append(f"edges ({label}, shape parameter z, |z|, phi, sign):")
    for e in edge_data(tet):
        lines.append(
            f"  e{e.edge[0]}{e.edge[1]} (opp e{e.opposite[0]}{e.opposite[1]}): "
            f"{label}={e.value:.12g}  z={e.z.re:.12g}{e.z.im:+.12g}l  "
            f"|z|={e.mod_z:.12g}  phi={e.phi:.12g}  sigma={e.sigma:+d}"
        )
    return "\n".join(lines) + "\n"


def cmd_build(args) -> int:
    from .tetrahedra import Tetrahedron, pose_from_rows

    pose = pose_from_rows(_read_json(args.pose), args.lam) if args.pose else None
    tet = Tetrahedron(args.kind, args.lam, args.alpha, args.beta, pose)
    if args.out:
        _write_text(args.out, _descriptor_json(tet))
        sys.stdout.write(_summary(tet))
    elif args.fmt == "text":
        sys.stdout.write(_summary(tet))
    else:
        sys.stdout.write(_descriptor_json(tet))
    return EXIT_OK


def cmd_info(args) -> int:
    from .tetrahedra import recover_parameters

    tet = _load_tet(args)
    pose, alpha, beta = recover_parameters(tet.vertices, tet.kind, tet.lam)
    out = _summary(tet)
    out += f"recovered: alpha={alpha!r} beta={beta!r}\n"
    _write_text(args.out, out)
    return EXIT_OK


def cmd_volume(args) -> int:
    from .volumes import volume_report

    # Flags give the parameters directly: a volume needs no vertices.
    if args.infile:
        tet = _load_tet(args)
        params = tet.kind, tet.lam, tet.alpha, tet.beta
    else:
        params = _flag_params(args)
    report = volume_report(*params, with_oracle=(args.oracle == "on"), tol=args.tol,
                           series_order=args.series or None)
    payload = report.as_dict()
    if args.fmt == "csv":
        keys = list(payload)
        rows = [",".join(keys), ",".join("" if payload[k] is None else repr(payload[k])
                                         for k in keys)]
        _write_text(args.out, "\n".join(rows) + "\n")
    elif args.fmt == "text":
        _write_text(args.out, "".join(f"{k} = {v!r}\n" for k, v in payload.items()))
    else:
        _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    # --tol is the oracle's absolute tolerance, so the discrepancy is absolute too.
    if report.oracle is not None and abs(report.closed_form - report.oracle) > args.tol:
        return EXIT_DISCREPANCY
    return EXIT_OK


def cmd_dual(args) -> int:
    from .tetrahedra import dualize_tet

    tet = _load_tet(args)
    dual = dualize_tet(tet)
    _write_text(args.out, _descriptor_json(dual))
    return EXIT_OK


def _chart_coords(tet) -> list:
    import numpy as np

    coords = []
    for v in tet.vertices:
        vec = v.vector() if tet.kind == "lightlike" else v.vec4()
        w = vec[1] if tet.kind == "lightlike" else vec[0]
        if abs(w) < 1e-12:
            raise DualtetError("a vertex lies on the chart hyperplane; no affine picture")
        rest = [vec[i] for i in range(4) if i != (1 if tet.kind == "lightlike" else 0)]
        coords.append(np.array(rest) / w)
    return coords


def cmd_mesh(args) -> int:
    tet = _load_tet(args)
    corners = _chart_coords(tet)
    n = args.density
    lines = [f"# dualtet mesh lambda={tet.lam} kind={tet.kind} "
             f"alpha={tet.alpha!r} beta={tet.beta!r}"]
    vertices: list[str] = []
    faces: list[str] = []
    for face_idx in range(4):
        tri = [corners[i] for i in range(4) if i != face_idx]
        index = {}
        for i in range(n + 1):
            for j in range(n + 1 - i):
                lam1, lam2 = i / n, j / n
                p = (1 - lam1 - lam2) * tri[0] + lam1 * tri[1] + lam2 * tri[2]
                index[(i, j)] = len(vertices)
                vertices.append("v " + " ".join(repr(float(c)) for c in p))
        for i in range(n):
            for j in range(n - i):
                a = index[(i, j)]
                b = index[(i + 1, j)]
                c = index[(i, j + 1)]
                faces.append(f"f {a + 1} {b + 1} {c + 1}")
                if j < n - i - 1:
                    d = index[(i + 1, j + 1)]
                    faces.append(f"f {b + 1} {d + 1} {c + 1}")
    _write_text(args.out, "\n".join(lines + vertices + faces) + "\n")
    return EXIT_OK


def cmd_plot(args) -> int:
    from .volumes import volume_report

    n = args.grid
    lo, hi = args.amin, args.amax
    rows = ["lambda,kind,alpha,beta,volume"]
    kinds = ("lightlike", "ideal") if args.kind == "both" else (args.kind,)
    for kind in kinds:
        for i in range(n):
            for j in range(n):
                a = lo + (hi - lo) * i / max(n - 1, 1)
                b = lo + (hi - lo) * j / max(n - 1, 1)
                if args.lam == 1 and a + b >= math.pi - 1e-9:
                    continue
                vol = volume_report(kind, args.lam, a, b, with_oracle=False).closed_form
                rows.append(f"{args.lam},{kind},{a!r},{b!r},{vol!r}")
    _write_text(args.out, "\n".join(rows) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    names = set(args.suites.split(",")) if args.suites else None
    if names:
        unknown = names - set(SUITE_NAMES)
        if unknown:
            raise DualtetError(f"unknown suites: {sorted(unknown)}")
    from .verify import run_suites

    results = run_suites(args.seed, names)
    failed = 0
    for suite, name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        tail = f"  ({detail})" if detail else ""
        sys.stdout.write(f"{status} [{suite}] {name}{tail}\n")
        failed += 0 if ok else 1
    sys.stdout.write(f"{len(results) - failed}/{len(results)} checks passed\n")
    return EXIT_OK if failed == 0 else EXIT_VERIFY


def _int_at_least(low: int):
    """argparse type: an integer no smaller than `low`; anything else is a
    usage error (exit 2)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid int value" error
    return parse


def _add_tet_args(p: argparse.ArgumentParser, with_in: bool = True):
    if with_in:
        p.add_argument("--in", dest="infile", help="descriptor JSON file")
    p.add_argument("--lambda", dest="lam", type=int, choices=(-1, 0, 1))
    p.add_argument("--kind", choices=("lightlike", "ideal"), default="lightlike")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dualtet",
                                 description="lightlike and ideal tetrahedra: "
                                             "construction, duality and volumes")
    ap.add_argument("--version", action="version", version=f"dualtet {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a tetrahedron")
    _add_tet_args(p, with_in=False)
    p.add_argument("--pose", help="JSON file with a 2x2 array of [re, im] pairs")
    p.add_argument("--out", help="descriptor output path")
    p.add_argument("--format", dest="fmt", choices=("json", "text"), default="json")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("info", help="recover parameters and edge data")
    _add_tet_args(p)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("volume", help="closed-form and oracle volumes")
    _add_tet_args(p)
    p.add_argument("--oracle", choices=("on", "off"), default="on")
    p.add_argument("--series", type=int, default=0, help="series order K (lightlike)")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="absolute tolerance of the oracle and of its discrepancy")
    p.add_argument("--format", dest="fmt", choices=("json", "csv", "text"), default="json")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_volume)

    p = sub.add_parser("dual", help="projectively dual tetrahedron")
    _add_tet_args(p)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_dual)

    p = sub.add_parser("mesh", help="affine-chart triangle mesh")
    _add_tet_args(p)
    p.add_argument("--density", type=_int_at_least(1), default=8)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_mesh)

    p = sub.add_parser("plot", help="CSV sweep of volumes over a parameter grid")
    p.add_argument("--lambda", dest="lam", type=int, choices=(-1, 0, 1), required=True)
    p.add_argument("--kind", choices=("lightlike", "ideal", "both"), default="lightlike")
    p.add_argument("--grid", type=_int_at_least(1), default=20)
    p.add_argument("--amin", type=float, default=0.1)
    p.add_argument("--amax", type=float, default=1.2)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_plot)

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--suites", help="comma-separated subset of "
                                    + ",".join(SUITE_NAMES))
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ToleranceNotReached as exc:
        sys.stderr.write(f"ToleranceNotReached: {exc}\n")
        return EXIT_VERIFY
    except DualtetError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return EXIT_INPUT
    except _IOFailure as exc:
        sys.stderr.write(f"IOError: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
