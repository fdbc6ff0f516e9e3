import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_bench_oracle_per_call_snippet_runs():
    """Times per input, and integrand calls, panels, node sets and calls
    on the root set per group (ideal, lightlike at lam = 0, lightlike at
    lam = +-1), counted from outside the package: every oracle-check input
    in the group of its kind and lam, at least one call per input, at
    least the root with its halves in each integral's calls, and every
    integral's first call on the one root set."""
    bench = _tool("bench_oracle")
    got = json.loads(bench.run(ROOT, ["-c", bench.per_call_snippet(1)]))
    fields = ("best", "calls", "panels", "node_sets", "root_set_calls")
    assert bench.GROUPS == ("ideal", "lightlike lam=0", "lightlike lam=+-1")
    assert all(list(got[field]) == list(bench.GROUPS) for field in fields)
    # oracle-check draws as many inputs for each (kind, lam).
    per_cell = len(got["best"]["lightlike lam=0"])
    assert per_cell > 0
    assert [len(got["best"][group]) for group in bench.GROUPS] == [3 * per_cell, per_cell,
                                                                    2 * per_cell]
    for group, times in got["best"].items():
        assert all(0.0 < t < math.inf for t in times)
        assert got["calls"][group] >= len(times)
        assert got["panels"][group] >= 3 * len(times)
        assert 1 <= got["node_sets"][group] <= got["calls"][group]
        assert len(times) <= got["root_set_calls"][group] <= got["calls"][group]


def _fake_run(calls):
    """A stand-in for `run`: perfbench results where the change is 0.5 s
    faster in wall_s and 1 MB larger in peak_rss_mb."""
    def fake_run(root, argv):
        calls.append((root.name, argv))
        seed = int(argv[argv.index("--seed") + 1])
        wall = (1.0 if root.name == "parent" else 0.5) + seed % 3
        rss = 50.0 if root.name == "parent" else 51.0
        return json.dumps({"correct": True, "attempted": 9, "failed": seed % 2,
                           "metrics": {"wall_s": {"value": wall, "unit": "s"},
                                       "peak_rss_mb": {"value": rss, "unit": "MB"}}})

    return fake_run


def test_bench_oracle_pairs_the_named_workload(tmp_path, monkeypatch, capsys):
    """Another workload is paired end to end only, seed by seed over the
    default block, and its record keeps each side's failed ops per seed;
    every metric's pair summary is printed."""
    bench = _tool("bench_oracle")
    calls = []
    monkeypatch.setattr(bench, "run", _fake_run(calls))
    sides = [tmp_path / "parent", tmp_path / "change"]
    out = tmp_path / "bench.json"
    assert bench.main([*map(str, sides), "--workload", "tet-pipeline", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert set(record) == {"host", "tet_pipeline"}
    runs = record["tet_pipeline"]
    seeds = range(911, 921)
    assert len(calls) == 2 * len(seeds)
    assert all(argv[:3] == ["perfbench/run.py", "--workload", "tet-pipeline"] for _r, argv in calls)
    assert [int(argv[argv.index("--seed") + 1]) for _r, argv in calls[::2]] == list(seeds)
    assert runs["seeds"] == "911-920"
    # the side that runs first alternates from seed to seed
    firsts = [root for root, _argv in calls[::2]]
    assert firsts == [("parent", "change")[seed % 2] for seed in seeds]
    failed = [seed % 2 for seed in seeds]
    assert runs["failed_ops"] == {"parent": failed, "change": failed}
    assert runs["correct"] == {"parent": True, "change": True}
    assert "--workload tet-pipeline" in runs["command"]
    wall = runs["metrics"]["wall_s"]
    assert wall["change_lower_in"] == f"{len(seeds)}/{len(seeds)} pairs"
    assert wall["parent"]["median"] - wall["change"]["median"] == 0.5
    printed = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in printed] == ["wall_s", "peak_rss_mb"]
    assert printed[1] == "peak_rss_mb: 50 [50, 50] -> 51 [51, 51], change lower in 0/10 pairs"


def test_bench_oracle_takes_a_seed_block_and_needs_an_out_path(tmp_path, monkeypatch):
    """--seeds FIRST-LAST picks the end-to-end seeds; without --out the
    tool refuses to run, so a bare run overwrites no committed record."""
    bench = _tool("bench_oracle")
    calls = []
    monkeypatch.setattr(bench, "run", _fake_run(calls))
    sides = [str(tmp_path / "parent"), str(tmp_path / "change")]
    with pytest.raises(SystemExit):
        bench.main([*sides, "--workload", "verify"])
    assert not calls
    out = tmp_path / "bench.json"
    assert bench.main([*sides, "--workload", "verify", "--seeds", "931-933",
                       "--out", str(out)]) == 0
    assert [int(argv[argv.index("--seed") + 1]) for _r, argv in calls] == [931, 931, 932, 932,
                                                                            933, 933]
    assert json.loads(out.read_text())["verify"]["seeds"] == "931-933"
    with pytest.raises(SystemExit):
        bench.main([*sides, "--seeds", "940-931", "--out", str(out)])


def test_domain_sweep_tallies_every_cell():
    """A small sweep: every drawn cell lands in one bin of alpha + beta, as
    a recovery or as a tetrahedron not built, and every recovery is either
    within the tolerance, further off, or a counted exception."""
    tool = _tool("domain_sweep")
    got = tool.sweep(posed_cells=8, order_cells=1)
    assert list(got) == list(tool.KINDS)
    for kind, by_lam in got.items():
        assert list(by_lam) == [str(lam) for lam in tool.LAMBDAS]
        for lam, bins in by_lam.items():
            lows = [float(name.split("-")[0]) for name in bins]
            assert lows == sorted(lows) and all(lo % tool.BIN == 0 for lo in lows)
            if lam == "1":
                assert max(lows) < math.pi
            posed = [b["posed"] for b in bins.values()]
            orders = [b["orders"] for b in bins.values()]
            assert sum(t["runs"] + t["not_built"] for t in posed) == 8
            assert sum(t["runs"] + 24 * t["not_built"] for t in orders) == 24
            for t in posed + orders:
                raised = sum(t["errors"].values()) + sum(t["other"].values())
                assert t["within_tol"] + raised <= t["runs"]
                assert (t["worst_error"] <= tool.TOL) == (t["within_tol"] + raised == t["runs"])


def test_domain_sweep_prints_one_object_per_checkout(monkeypatch, capsys):
    """The checkout is swept in a child process, with the cell counts the
    tool's constants hold when it runs."""
    tool = _tool("domain_sweep")
    monkeypatch.setattr(tool, "POSED_CELLS", 2)
    monkeypatch.setattr(tool, "ORDER_CELLS", 0)
    assert tool.main([str(ROOT)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert (record["posed_cells"], record["order_cells"], record["tol"]) == (2, 0, tool.TOL)
    tallies = record[ROOT.name]["tallies"]
    for kind in tool.KINDS:
        posed = [b["posed"] for bins in tallies[kind].values() for b in bins.values()]
        assert sum(t["runs"] + t["not_built"] for t in posed) == 2 * len(tool.LAMBDAS)


def test_bench_ab_compares_a_checkout_with_itself(monkeypatch, capsys):
    """A tiny A/A run: both sides import this checkout under names of their
    own, build the same inputs, and agree on every op's fingerprint and
    failure; `dualtet` in `sys.modules` is left as it was.  A `verify` op
    runs in-process, so no child process is started."""
    tool = _tool("bench_ab")
    monkeypatch.setattr(tool, "SEEDS", (7,))
    monkeypatch.setattr(tool, "ROUNDS", 2)
    monkeypatch.setattr(tool, "SECONDS", 0.3)
    monkeypatch.setattr("subprocess.Popen", None)
    before = sys.modules.get("dualtet")
    for workload, ops in (("tet-pipeline", 3), ("verify", 1)):
        assert tool.main([str(ROOT), str(ROOT), "--workload", workload]) == 0
        assert sys.modules.get("dualtet") is before
        seed_line, verdict = capsys.readouterr().out.splitlines()
        assert seed_line.startswith("seed 7: op-time ratio ")
        assert f"fingerprints identical on {ops}/{ops} ops" in seed_line
        failed = seed_line.rsplit("failed ops ", 1)[1].split(" -> ")
        assert failed[0] == failed[1]
        if workload == "verify":  # a child process would have failed without `Popen`
            assert failed == ["0", "0"]
        assert verdict == "every fingerprint matches"


def test_bench_ab_sides_run_their_own_modules(tmp_path):
    """Each side's workloads reach that side's own `validate_angles` and
    `volume_report`, however its package loads its modules, and loading a
    side changes no `dualtet.*` key of `sys.modules`."""
    import shutil

    tool = _tool("bench_ab")
    other = tmp_path / "other"
    shutil.copytree(ROOT / "src" / "dualtet", other / "src" / "dualtet")
    shutil.copytree(ROOT / "perfbench", other / "perfbench")
    before = {key: mod for key, mod in sys.modules.items() if tool._is_dualtet(key)}
    try:
        for root, name in ((other, "dualtet_other"), (ROOT, "dualtet_root")):
            side = tool.load_side(root, name)
            src = root / "src" / "dualtet"
            assert Path(side.validate_angles.__code__.co_filename) == src / "gcnum.py"
            assert Path(side.dualtet.volume_report.__code__.co_filename) == src / "volumes.py"
            assert {key: mod for key, mod in sys.modules.items()
                    if tool._is_dualtet(key)} == before
    finally:
        for key in [key for key in sys.modules if key.startswith(("dualtet_other",
                                                                   "dualtet_root"))]:
            del sys.modules[key]


def test_mpref_push_and_determinants_are_exact():
    """The 50-digit push of double inputs multiplies det by |det A|^2 to far
    below double precision, and agrees with the library's push and
    compensated |det A| to double precision."""
    import numpy as np

    from dualtet.matmodel import _abs_det, _push
    from dualtet.verify import random_isometry

    mpref = _tool("mpref")
    rng = np.random.default_rng(5)
    for lam in (-1, 0, 1):
        for space in ("X", "Y"):
            a = random_isometry(rng, lam, 2.0).rep.flat
            m = tuple(rng.normal(size=8).tolist())
            pushed = mpref.push(a, m, lam, space)
            d_push, d_m = mpref.det(pushed, lam), mpref.det(m, lam)
            sq = mpref.abs_det_sq(a, lam)
            for got, want in zip(d_push, (sq * d_m[0], sq * d_m[1])):
                assert abs(got - want) <= mpref.mp.mpf(10) ** -40 * (1 + abs(want))
            lib = _push(a, m, lam, space)
            scale = max(abs(float(x)) for x in pushed)
            assert all(abs(x - float(y)) <= 1e-14 * scale for x, y in zip(lib, pushed))
            assert _abs_det(a, lam) == pytest.approx(float(mpref.mp.sqrt(sq)), rel=1e-15)


def test_mpref_pull_back_inverts_chart_point():
    """The pull-back of a posed chart point is the unposed one, and the
    library's sample points are within 1e-12 of the reference."""
    import numpy as np

    import dualtet
    from dualtet.verify import random_isometry

    mpref = _tool("mpref")
    rng = np.random.default_rng(6)
    identity = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0)
    for lam in (-1, 0, 1):
        for kind in mpref.KINDS:
            t = dualtet.Tetrahedron(kind, lam, 0.7, 1.1, random_isometry(rng, lam))
            points = dualtet.sample(t, 3, 9)
            for p, coords in zip(points, mpref.chart_coords(t, 3, 9)):
                ref = mpref.chart_point(kind, lam, t.alpha, t.beta, t.pose.rep.flat, coords)
                assert abs(mpref.det(ref, lam)[0] - 1) < mpref.mp.mpf(10) ** -40
                assert mpref.rel_error(p.rep.flat, ref) <= 1e-12
                std = mpref.chart_point(kind, lam, t.alpha, t.beta, identity, coords)
                back = mpref.pull_back(t.pose.rep.flat, lam, t.space, ref)
                assert mpref.rel_error([float(x) for x in back], std) <= 1e-15


def test_mpref_coefficients_match_the_library():
    """The exact face rows pair to the identity with the exact vertex
    vectors, the chart's centre reads positive on each, and the library's
    coordinates of its samples, of points beyond them and of its vertices
    are within 1e-12 of the 50-digit ones, relative to their magnitudes,
    with the same verdict of `contains`' test wherever the reference's
    margin exceeds that."""
    import numpy as np

    import dualtet
    from dualtet.tetrahedra import _centre, _coefficients
    from dualtet.verify import random_isometry

    mpref = _tool("mpref")
    rng = np.random.default_rng(7)
    for lam in (-1, 0, 1):
        for kind in mpref.KINDS:
            t = dualtet.Tetrahedron(kind, lam, 0.4, 0.9, random_isometry(rng, lam))
            rows = mpref.face_rows(t)
            cols = mpref.vertex_vectors(kind, lam, t.alpha, t.beta, t.pose.rep.flat)
            for j, col in enumerate(cols):
                pairs = [abs(mpref._pair(row, col)) for row in rows]
                assert all(x <= mpref.mp.mpf(10) ** -40 * pairs[j] for x in pairs[:j] + pairs[j + 1:])
            assert all(x > 0 for x in mpref.coefficients(t, _centre(t), rows))
            points = dualtet.sample(t, 4, 2)
            points += [dualtet.act(random_isometry(rng, lam, 0.3), p) for p in points]
            if kind == "lightlike":
                points += list(t.vertices)
            for p in points:
                ref = mpref.coefficients(t, p, rows)
                got = _coefficients(t, p)
                assert mpref.coefficient_error(got, ref) <= 1e-12, (lam, kind)
                margin = min(abs(x) for x in ref) / mpref.mp.fsum(abs(x) for x in ref)
                if margin > 1e-12:
                    assert dualtet.contains(t, p) == mpref.inside(ref), (lam, kind)


def test_mpref_sweep_bins_and_verdicts():
    """A tiny sweep fills every bin of kind, lam and size (no lam = 1 cell
    reaches SPLIT), and compared with itself meets every verdict."""
    mpref = _tool("mpref")
    got = mpref.sweep(cells_per_bin=1, samples=2)
    want = {mpref.bin_name(kind, lam, size) for kind in mpref.KINDS for lam in mpref.LAMBDAS
            for size in (0.0, mpref.SPLIT) if lam != 1 or size < mpref.SPLIT}
    assert set(got) == want
    for tally in got.values():
        assert tally["cells"] == 1
        assert tally["points"] + 2 * sum(tally["raised"].values()) == 2
        for what in ("sample", "coefficients"):
            assert list(tally[what]) == [name for name, _q in mpref.QUANTILES]
    verdicts = mpref.verdicts(got, got)
    assert all(v["sample_ok"] and v["coefficients_ok"] and not v["coefficients_higher"]
               for v in verdicts.values())
