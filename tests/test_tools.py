import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _bench_oracle():
    spec = importlib.util.spec_from_file_location("bench_oracle", ROOT / "tools" / "bench_oracle.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_bench_oracle_per_call_snippet_runs():
    """Times per input, and integrand calls and panels per kind, counted
    from outside the package: at least one call per input, and at least the
    root with its halves in each integral's calls."""
    bench = _bench_oracle()
    got = json.loads(bench.run(ROOT, ["-c", bench.per_call_snippet(1)]))
    assert set(got["best"]) == set(got["calls"]) == set(got["panels"]) == set(bench.KINDS)
    for kind, times in got["best"].items():
        assert times and all(0.0 < t < math.inf for t in times)
        assert got["calls"][kind] >= len(times)
        assert got["panels"][kind] >= 3 * len(times)


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
    bench = _bench_oracle()
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
    bench = _bench_oracle()
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
