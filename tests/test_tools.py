import importlib.util
import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _bench_oracle():
    spec = importlib.util.spec_from_file_location("bench_oracle", ROOT / "tools" / "bench_oracle.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_bench_oracle_per_call_snippet_runs():
    bench = _bench_oracle()
    best = json.loads(bench.run(ROOT, ["-c", bench.per_call_snippet(1)]))
    assert set(best) == set(bench.KINDS)
    for times in best.values():
        assert times and all(0.0 < t < math.inf for t in times)


def test_bench_oracle_pairs_the_named_workload(tmp_path, monkeypatch):
    """Another workload is paired end to end only, seed by seed, and its
    record keeps each side's failed ops per seed."""
    bench = _bench_oracle()
    calls = []

    def fake_run(root, argv):
        calls.append((root.name, argv))
        seed = int(argv[argv.index("--seed") + 1])
        wall = (1.0 if root.name == "parent" else 0.5) + seed % 3
        return json.dumps({"correct": True, "attempted": 9, "failed": seed % 2,
                           "metrics": {"wall_s": {"value": wall, "unit": "s"}}})

    monkeypatch.setattr(bench, "run", fake_run)
    sides = [tmp_path / "parent", tmp_path / "change"]
    out = tmp_path / "bench.json"
    assert bench.main([*map(str, sides), "--workload", "tet-pipeline", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert set(record) == {"host", "tet_pipeline"}
    runs = record["tet_pipeline"]
    assert len(calls) == 2 * len(bench.SEEDS)
    assert all(argv[:3] == ["perfbench/run.py", "--workload", "tet-pipeline"] for _r, argv in calls)
    # the side that runs first alternates from seed to seed
    firsts = [root for root, _argv in calls[::2]]
    assert firsts == [("parent", "change")[seed % 2] for seed in bench.SEEDS]
    failed = [seed % 2 for seed in bench.SEEDS]
    assert runs["failed_ops"] == {"parent": failed, "change": failed}
    assert runs["correct"] == {"parent": True, "change": True}
    assert "--workload tet-pipeline" in runs["command"]
    wall = runs["metrics"]["wall_s"]
    assert wall["change_lower_in"] == f"{len(bench.SEEDS)}/{len(bench.SEEDS)} pairs"
    assert wall["parent"]["median"] - wall["change"]["median"] == 0.5
