"""Tests of the benchmark itself:  python -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import dualtet  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import OracleCheck, TetPipeline, Verify, run_child  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _inputs(wl) -> str:
    def plain(x):
        if isinstance(x, dualtet.Isometry):
            return [(e.re, e.im) for e in x.rep.entries]
        return x

    return repr([tuple(plain(x) for x in inp) if isinstance(inp, tuple) else inp
                 for inp in wl.inputs])


@pytest.mark.parametrize("cls", [OracleCheck, TetPipeline, Verify])
def test_seed_fixes_inputs(cls):
    assert _inputs(cls(7, 2.0)) == _inputs(cls(7, 2.0))
    assert _inputs(cls(7, 2.0)) != _inputs(cls(8, 2.0))


def test_oracle_cells_are_balanced_and_in_domain():
    wl = OracleCheck(3, 6.0)
    cells = {}
    for kind, lam, alpha, beta, order in wl.inputs:
        cells[(lam, kind)] = cells.get((lam, kind), 0) + 1
        assert 0.02 <= alpha <= 1.5 and 0.02 <= beta <= 3.0
        assert 1 / 16 <= beta / alpha <= 16
        assert (order is not None) == (kind == "lightlike" and (alpha + beta) * abs(lam) ** 0.5 < 1)
    assert len(cells) == 6 and len(set(cells.values())) == 1


def test_known_failure_classes():
    tet, oracle, verify = TetPipeline(1, 20.0), OracleCheck(1, 20.0), Verify(1, 20.0)
    assert (tet.known_ceiling(), oracle.known_ceiling(), verify.known_ceiling()) == (14, 2, 24)
    assert tet.known_defect((-1, 4.0, 0.1, None, None), "recover_ideal")
    assert tet.known_defect((0, 0.2, 0.1, None, None), "NotATetrahedron")
    assert not tet.known_defect((-1, 4.0, 0.1, None, None), "TypeError")
    assert not tet.known_defect((-1, 4.0, 0.1, None, None), "sample_not_contained")
    assert not tet.known_defect((1, 1.0, 0.1, None, None), "recover_ideal")
    assert oracle.known_defect(("ideal", -1, 0.2, 3.0, None), "ToleranceNotReached")
    assert not oracle.known_defect(("ideal", -1, 0.6, 3.0, None), "ToleranceNotReached")
    assert not oracle.known_defect(("lightlike", -1, 0.2, 3.0, None), "ToleranceNotReached")
    assert not oracle.known_defect(("ideal", -1, 0.2, 3.0, None), "oracle_mismatch")
    assert verify.known_defect(1, "exit_2_without_rows_NormalizationFailure")
    assert not verify.known_defect(1, "exit_1_without_rows_TypeError")
    assert not verify.known_defect(1, "exit_2_without_rows")


def test_verify_child_without_rows_fails_every_row():
    wl = Verify(1, 1.0)
    assert wl.check(1, (1, "Traceback ...\n")) == (24, ["exit_1_without_rows"] * 24)
    trace = "Traceback ...\ndualtet.errors.DegenerateNormal: zero normal\n"
    assert wl.check(1, (1, trace)) == (24, ["exit_1_without_rows_DegenerateNormal"] * 24)


def test_verify_seed_that_crashes_is_a_known_failure():
    # `dualtet verify --seed 1230409167` raises NormalizationFailure in the
    # geometry suite, before any row is printed.
    wl = Verify(1, 1.0)
    wl.in_process = True
    units, labels = wl.check(1230409167, wl.run_op(1230409167))
    assert units == 24 and labels == ["exit_2_without_rows_NormalizationFailure"] * 24
    assert wl.known_defect(1230409167, labels[0])


def test_too_many_known_failures_make_a_run_incorrect():
    wl = TetPipeline(1, 20.0)
    p = run.Pass()
    p.failures["recover_ideal"] = 14
    assert run.failures_expected(wl, p)
    p.failures["recover_ideal"] = 15
    assert not run.failures_expected(wl, p)


def test_speed_gauge_scales_op_times():
    gauge = run.SpeedGauge()
    mark = gauge.mark()
    assert gauge.mean_since(mark) > 0
    wl = TetPipeline(1, 0.2)
    p = run.run_pass(wl)
    assert len(p.latencies) == len(p.raw) == len(wl.inputs) and p.latencies != p.raw


def test_run_child_calls_idle_while_waiting():
    ticks = []
    code, out = run_child([sys.executable, "-c", "import time; time.sleep(0.6); print('done')"],
                          lambda: ticks.append(1))
    assert (code, out) == (0, "done\n") and len(ticks) >= 2


def test_self_time_on_hand_built_tree():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tr = Tracer(clock=lambda: next(ticks))
    root = tr.begin("root")          # [0, 10]
    a = tr.begin("a")                # [1, 4]
    tr.finish(tr.begin("leaf"))      # [2, 3]
    tr.finish(a)
    tr.finish(tr.begin("b"))         # [5, 9]
    tr.finish(root)
    calls, total, own = tr.self_times()
    assert list(tr.parent) == [-1, 0, 1, 0]
    assert dict(total) == {"root": 10.0, "a": 3.0, "leaf": 1.0, "b": 4.0}
    assert dict(own) == {"root": 3.0, "a": 2.0, "leaf": 1.0, "b": 4.0}
    assert dict(calls) == {"root": 1, "a": 1, "leaf": 1, "b": 1}


def _bindings():
    from dualtet import gcnum, matmodel, tetrahedra, verify

    snap = {(name, attr): value for name, mod in sys.modules.items()
            if name == "dualtet" or name.startswith("dualtet.")
            for attr, value in vars(mod).items()}
    for cls in (gcnum.GC, matmodel.Mat2, tetrahedra.Tetrahedron):
        snap.update({(cls.__name__, attr): value for attr, value in vars(cls).items()})
    snap.update({("SUITES", k): v for k, v in verify.SUITES.items()})
    return snap


def test_traced_pass_restores_every_binding():
    before = _bindings()
    tr = Tracer()
    tr.install()
    assert dualtet.volumes.clausen is not before[("dualtet.volumes", "clausen")]
    assert dualtet.clausen is dualtet.volumes.clausen
    tr.uninstall()
    run.run_pass(TetPipeline(1, 0.2), Tracer())
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def _counts(wl):
    tr = Tracer()
    run.run_pass(wl, tr)
    calls, _total, _own = tr.self_times()
    return dict(calls), dict(tr.counts)


def test_counts_repeat_for_one_seed():
    for wl in (OracleCheck(5, 0.5), TetPipeline(5, 0.2)):
        first = _counts(wl)
        assert first == _counts(wl)
    calls, counts = first
    assert counts["gcnum.GC.created"] > 0 and calls["tetrahedra.contains"] > 0


def _bench(workload, trace, cwd=ROOT, seconds="1"):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", seconds, "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("tet-pipeline", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
