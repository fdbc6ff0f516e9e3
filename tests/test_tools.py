import importlib.util
import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_oracle_per_call_snippet_runs():
    spec = importlib.util.spec_from_file_location("bench_oracle", ROOT / "tools" / "bench_oracle.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    best = json.loads(bench.run(ROOT, ["-c", bench.per_call_snippet(1)]))
    assert set(best) == set(bench.KINDS)
    for times in best.values():
        assert times and all(0.0 < t < math.inf for t in times)
