import json
import re
import subprocess
import sys

import pytest

from dualtet import lightlike_volume
from dualtet.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_text_summary(capsys):
    code, out, _ = run_cli(capsys, "build", "--lambda", "0", "--kind", "lightlike",
                           "--alpha", "1", "--beta", "1", "--format", "text")
    assert code == 0
    assert "length=1" in out and "length=2" in out
    assert "kind=lightlike lambda=0" in out


def test_build_json_descriptor(capsys):
    code, out, _ = run_cli(capsys, "build", "--lambda", "-1", "--kind", "ideal",
                           "--alpha", "0.4", "--beta", "0.3")
    assert code == 0
    desc = json.loads(out)
    assert desc["kind"] == "ideal" and desc["lambda"] == -1
    assert desc["schema_version"] == "1"


def test_build_domain_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "build", "--lambda", "1", "--alpha", "2",
                           "--beta", "2", "--kind", "ideal")
    assert code == 2
    assert "DomainError" in err


def test_descriptor_round_trip_is_byte_identical(tmp_path, capsys):
    p1 = tmp_path / "t1.json"
    p2 = tmp_path / "t2.json"
    code, _, _ = run_cli(capsys, "build", "--lambda", "0", "--kind", "lightlike",
                         "--alpha", "0.8", "--beta", "0.6", "--out", str(p1))
    assert code == 0
    code, out, _ = run_cli(capsys, "info", "--in", str(p1))
    assert code == 0
    assert "recovered: alpha=0.8" in out and "beta=0.6" in out
    code, out, _ = run_cli(capsys, "volume", "--in", str(p1), "--oracle", "off")
    assert code == 0 and json.loads(out)["closed_form"] == lightlike_volume(0, 0.8, 0.6)
    # write -> read -> write
    from dualtet import from_descriptor, to_descriptor

    desc = json.loads(p1.read_text())
    p2.write_text(json.dumps(to_descriptor(from_descriptor(desc)), indent=2,
                             sort_keys=True) + "\n")
    assert p1.read_text() == p2.read_text()


def test_volume_json_and_exit(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "volume", "--lambda", "0", "--kind", "lightlike",
                           "--alpha", "1", "--beta", "1", "--oracle", "on",
                           "--tol", "1e-6")
    assert code == 0
    payload = json.loads(out)
    assert payload["closed_form"] == pytest.approx(2 / 3, rel=1e-12)
    assert payload["rel_discrepancy"] < 1e-6


def test_volume_csv_and_series(capsys):
    code, out, _ = run_cli(capsys, "volume", "--lambda", "-1", "--kind", "lightlike",
                           "--alpha", "0.3", "--beta", "0.3", "--oracle", "off",
                           "--series", "20", "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert abs(float(cols["series"]) - float(cols["closed_form"])) < 1e-10


def test_volume_from_flags_builds_no_tetrahedron(capsys):
    # Building these vertices fails on cosh/sinh growth; the volume needs none.
    code, out, _ = run_cli(capsys, "volume", "--lambda", "-1", "--kind", "lightlike",
                           "--alpha", "10", "--beta", "10", "--oracle", "off")
    assert code == 0
    assert json.loads(out)["closed_form"] == pytest.approx(99.17753300986013, rel=1e-14)


@pytest.mark.parametrize("argv", [
    ("--lambda", "1", "--kind", "ideal", "--alpha", "0.5", "--beta", "0.7", "--series", "5"),
    ("--lambda", "1", "--kind", "ideal", "--alpha", "0.5", "--beta", "0.7", "--tol", "nan",
     "--oracle", "on"),
    ("--lambda", "0", "--alpha", "inf", "--beta", "1"),
])
def test_volume_domain_errors_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, "volume", *argv)
    assert code == 2 and out == ""
    assert "DomainError" in err


def test_dual_swaps_kind_preserves_parameters(tmp_path, capsys):
    src = tmp_path / "t.json"
    run_cli(capsys, "build", "--lambda", "1", "--kind", "lightlike",
            "--alpha", "0.7", "--beta", "0.5", "--out", str(src))
    dst = tmp_path / "d.json"
    code, _, _ = run_cli(capsys, "dual", "--in", str(src), "--out", str(dst))
    assert code == 0
    desc = json.loads(dst.read_text())
    assert desc["kind"] == "ideal"
    assert desc["alpha"] == pytest.approx(0.7, abs=1e-9)
    assert desc["beta"] == pytest.approx(0.5, abs=1e-9)


def test_mesh_output_shape(capsys):
    code, out, _ = run_cli(capsys, "mesh", "--lambda", "0", "--kind", "lightlike",
                           "--alpha", "1", "--beta", "1", "--density", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# dualtet mesh lambda=0")
    vs = [l for l in lines if l.startswith("v ")]
    fs = [l for l in lines if l.startswith("f ")]
    assert len(vs) == 4 * 15  # (d+1)(d+2)/2 samples per face at d=4
    assert len(fs) == 4 * 16  # d^2 triangles per face
    for line in vs:
        assert len(line.split()) == 4
    for line in fs:
        idx = [int(tok) for tok in line.split()[1:]]
        assert all(1 <= i <= len(vs) for i in idx)


def test_mesh_ideal_chart(capsys):
    code, out, _ = run_cli(capsys, "mesh", "--lambda", "1", "--kind", "ideal",
                           "--alpha", "0.7", "--beta", "0.5", "--density", "2")
    assert code == 0
    assert "kind=ideal" in out.splitlines()[0]


def test_plot_row_count(capsys):
    code, out, _ = run_cli(capsys, "plot", "--lambda", "-1", "--grid", "20")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "lambda,kind,alpha,beta,volume"
    assert len(rows) == 401  # header + 400 grid rows
    # spot-check monotonicity in alpha at fixed beta
    import collections

    by_beta = collections.defaultdict(list)
    for line in rows[1:]:
        lam, kind, a, b, v = line.split(",")
        by_beta[b].append((float(a), float(v)))
    for vals in by_beta.values():
        seq = [v for _, v in sorted(vals)]
        assert all(x < y for x, y in zip(seq, seq[1:]))


def test_missing_file_exit_4(capsys):
    code, _, err = run_cli(capsys, "info", "--in", "/nonexistent/path.json")
    assert code == 4


@pytest.mark.parametrize("text", [
    json.dumps({"schema_version": "1", "lambda": 0, "kind": "lightlike", "alpha": 0.8,
                "beta": 0.6, "pose": [[1, 0]]}),
    json.dumps({"schema_version": "1", "lambda": 0, "kind": "lightlike", "beta": 0.6}),
    json.dumps({"schema_version": "1", "lambda": 0.7, "kind": "lightlike", "alpha": 0.8,
                "beta": 0.6}),
    "{not json",
], ids=["pose_shape", "missing_alpha", "fractional_lambda", "not_json"])
def test_info_malformed_descriptor_exit_2(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, _, err = run_cli(capsys, "info", "--in", str(path))
    assert code == 2
    assert "DomainError" in err


def test_build_malformed_pose_exit_2(tmp_path, capsys):
    path = tmp_path / "pose.json"
    path.write_text(json.dumps([[1, 0]]))
    code, _, err = run_cli(capsys, "build", "--lambda", "0", "--alpha", "0.6",
                           "--beta", "0.4", "--pose", str(path))
    assert code == 2
    assert "DomainError" in err


def test_verify_subset(capsys):
    code, out, _ = run_cli(capsys, "verify", "--seed", "42", "--suites",
                           "gcnum,matmodel")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_entry_point_subprocess():
    proc = subprocess.run([sys.executable, "-m", "dualtet.cli", "build", "--lambda", "0",
                           "--kind", "lightlike", "--alpha", "1", "--beta", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["alpha"] == 1.0


def test_build_with_pose_file(tmp_path, capsys):
    pose = [[[1.0, 0.0], [0.3, 0.1]], [[0.0, 0.0], [1.0, 0.0]]]
    pf = tmp_path / "pose.json"
    pf.write_text(json.dumps(pose))
    code, out, _ = run_cli(capsys, "build", "--lambda", "-1", "--kind", "lightlike",
                           "--alpha", "0.6", "--beta", "0.4", "--pose", str(pf))
    assert code == 0
    desc = json.loads(out)
    assert desc["pose"][0][1] != [0.0, 0.0]
    # descriptor reconstructs the posed tetrahedron
    from dualtet import from_descriptor, recover_parameters

    t = from_descriptor(desc)
    _pose, a, b = recover_parameters(t.vertices, "lightlike", -1)
    assert a == pytest.approx(0.6, abs=1e-9) and b == pytest.approx(0.4, abs=1e-9)


def test_verify_full_run_exits_clean(capsys):
    code, out, _ = run_cli(capsys, "verify", "--seed", "42")
    assert code == 0
    assert "24/24 checks passed" in out


def test_volume_unreachable_tolerance_exit_3(capsys):
    code, _, err = run_cli(capsys, "volume", "--lambda", "-1", "--kind", "ideal",
                           "--alpha", "0.01", "--beta", "1.3", "--oracle", "on",
                           "--tol", "1e-10")
    assert code == 3
    assert "ToleranceNotReached" in err
    held = re.search(r"with (\d+) panels", err)
    assert held and int(held.group(1)) >= 20000
