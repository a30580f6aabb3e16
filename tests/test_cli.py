"""End-to-end tests for the command-line front end."""

import json
import os
import pstats
import shutil

import pytest

from equiops import qseries
from equiops.cli import main
from equiops.properties import SUITES, suite_checks
from equiops.report import _run_check, config_dir as packaged_config_dir, load_config


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_verify_klein_suite(capsys):
    code, out = run(capsys, "verify", "klein")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln]
    assert lines[-1].startswith("suite klein: pass")
    assert all(" pass " in ln or ln.startswith("suite") for ln in lines)


def test_verify_all_runs_every_suite(capsys):
    code, out = run(capsys, "verify", "all")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].startswith("suite all: pass (194 checks")
    printed = sorted(line.split()[0] for line in lines[:-1])
    listed = sorted(check_id for suite in SUITES[:-1]
                    for check_id, _ in suite_checks(suite, load_config))
    assert printed == listed


def test_verify_qseries_suite(capsys):
    code, out = run(capsys, "verify", "qseries", "--order", "8")
    assert code == 0
    assert "suite qseries: pass" in out


def test_nonzero_rogers_ramanujan_residual_fails_the_check(capsys, monkeypatch):
    residual = qseries.QSeries.q_power(1, 6)
    monkeypatch.setattr(qseries, "rr_equals_j5", lambda trunc: residual)
    code, out = run(capsys, "verify", "qseries", "--order", "8")
    assert code == 1
    line = next(ln for ln in out.splitlines() if ln.startswith("qseries.rogers_ramanujan"))
    assert line.split()[1] == "FAIL"


def test_a_verdict_that_is_not_a_bool_fails_the_check():
    record = _run_check("x", lambda: (qseries.QSeries.zero(6), "residual"))
    assert not record.status
    assert record.detail == "error: verdict is QSeries, not bool"
    assert _run_check("x", lambda: (True, "ok")).status


def test_verify_seed_determinism(capsys):
    code1, out1 = run(capsys, "verify", "dynamics", "--seed", "7")
    code2, out2 = run(capsys, "verify", "dynamics", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2


def test_klein_command(capsys):
    code, out = run(capsys, "klein", "--group", "A5")
    assert code == 0
    assert "group A5" in out
    assert "equivariant on all generators: True" in out


def test_klein_all_groups(capsys):
    for group in ("A4", "S4"):
        code, out = run(capsys, "klein", "--group", group)
        assert code == 0
        assert "group %s" % group in out


def test_cycles_klein(capsys):
    code, out = run(capsys, "cycles", "--map", "klein")
    assert code == 0
    assert "cycle report: period=2" in out
    assert "PASS" in out
    assert out.count("class=superattracting") == 20


def test_cycles_newton(capsys):
    code, out = run(capsys, "cycles", "--map", "newton")
    assert code == 0
    assert "period=1" in out


def test_qseries_eta(capsys):
    code, out = run(capsys, "qseries", "--name", "eta", "--terms", "5")
    assert code == 0
    lines = out.splitlines()
    # eta = q^{1/24} (1 - q - q^2 + ...)
    assert lines[0] == "1/24 1"
    assert lines[1] == "25/24 -1"


def test_qseries_j4(capsys):
    code, out = run(capsys, "qseries", "--name", "j4", "--terms", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1/4 2"
    assert lines[1] == "5/4 -4"


def test_j_relation_all_levels(capsys):
    for n in (2, 3, 4, 5):
        code, out = run(capsys, "j-relation", "--n", str(n), "--order", "6")
        assert code == 0, out
        assert "exact to order 6" in out


def test_nc_s_poly(capsys):
    code, out = run(capsys, "nc", "s-poly", "--n", "2")
    assert code == 0
    assert out.strip() == "S2 = p3 + 4 p2 p1 + 4 p1 p2 + 12 p1^3"


def test_report_emission(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out = run(capsys, "report", "--out", str(out_path),
                    "--suite", "klein")
    assert code == 0
    assert "wrote" in out
    data = json.loads(out_path.read_text())
    assert data["suite"] == "klein"
    assert data["status"] == "pass"
    assert data["version"]
    assert data["config_hash"]
    assert all(c["status"] == "pass" for c in data["checks"])
    ids = [c["id"] for c in data["checks"]]
    assert ids == sorted(ids)


@pytest.mark.parametrize("command", ["verify", "report"])
def test_profile_writes_loadable_stats(tmp_path, capsys, command):
    stats_path = tmp_path / "suite.prof"
    argv = (["verify", "qseries"] if command == "verify"
            else ["report", "--out", str(tmp_path / "r.json"), "--suite", "qseries"])
    code, out = run(capsys, *argv, "--order", "8", "--profile", str(stats_path))
    assert code == 0
    assert ("suite qseries: pass" if command == "verify" else "wrote") in out
    stats = pstats.Stats(str(stats_path))
    # the suite ran under the profiler: run_suite and the q-series checks
    # are among the recorded functions
    names = {name for _, _, name in stats.stats}
    assert "run_suite" in names and "verify_j_relation" in names


def test_config_dir_flag(tmp_path, capsys):
    src = packaged_config_dir(None)
    for name in os.listdir(src):
        if name.endswith(".config"):
            shutil.copy(os.path.join(src, name), tmp_path / name)
    code, out = run(capsys, "klein", "--group", "A4",
                    "--config-dir", str(tmp_path))
    assert code == 0


def test_config_dir_env(tmp_path, capsys, monkeypatch):
    src = packaged_config_dir(None)
    for name in os.listdir(src):
        if name.endswith(".config"):
            shutil.copy(os.path.join(src, name), tmp_path / name)
    monkeypatch.setenv("EQUIOPS_CONFIG_DIR", str(tmp_path))
    code, out = run(capsys, "klein", "--group", "S4")
    assert code == 0


def test_bad_arguments_exit():
    with pytest.raises(SystemExit):
        main(["verify", "nonsense"])
    with pytest.raises(SystemExit):
        main(["qseries", "--name", "unknown"])
