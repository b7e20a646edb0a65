import csv
import importlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from photonstat.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- criteria

def test_criteria_fock_subtracted(capsys):
    code, out, _ = run_cli(capsys, "criteria", "--family", "fock",
                           "--param", "2", "--subtract", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["Q"] == -1.0
    assert doc["modification"] == {"kind": "subtract", "count": 1}


def test_criteria_annihilated_state_exits_2(capsys):
    code, _, err = run_cli(capsys, "criteria", "--family", "fock",
                           "--param", "2", "--subtract", "3")
    assert code == 2
    assert "state annihilated" in err


def test_criteria_thermal_added(capsys):
    code, out, _ = run_cli(capsys, "criteria", "--family", "thermal",
                           "--param", "1", "--add", "1")
    assert code == 0
    doc = json.loads(out)
    assert math.isclose(doc["Q"], 1.0 / 3.0, abs_tol=1e-9)


def test_criteria_csv_format(capsys):
    code, out, _ = run_cli(capsys, "criteria", "--family", "coherent",
                           "--param", "1", "--format", "csv",
                           "--criteria", "Q,A3", "--ell-max", "2")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["param", "mean", "Q", "A3", "flags"]
    assert len(rows) == 2
    assert abs(float(rows[1][2])) <= 1e-9


def test_criteria_a3_degenerate_detail(capsys):
    code, out, _ = run_cli(capsys, "criteria", "--family", "fock",
                           "--param", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["A3"] == "DEGENERATE"
    assert doc["A3_detail"] == {"det_m": 0.0, "det_mu": 0.0}
    assert "a3_degenerate" in doc["flags"]


def test_criteria_accuracy_failure_exits_3(capsys):
    code, _, err = run_cli(capsys, "criteria", "--family", "thermal",
                           "--param", "3", "--max-cutoff", "32")
    assert code == 3
    assert "accuracy" in err


def test_ladder_overflow_exits_3_without_traceback():
    # N_200 of Fock(4000) is about 4000**200, beyond float64
    cmd = [sys.executable, "-m", "photonstat", "criteria", "--family",
           "fock", "--param", "4000", "--ell-max", "100"]
    result = subprocess.run(cmd, capture_output=True, text=True)
    assert result.returncode == 3
    assert "Traceback" not in result.stderr
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("error: accuracy failure: ")
    assert "exceeds the float64 range" in result.stderr


@pytest.mark.parametrize("argv,message", [
    # tanh(r)**2 rounds to 1.0 above r of about 19; cosh(r) overflows
    # above about 710
    (("squeezed", "25"), "squeezed(25.0) needs cutoff > 4096"),
    (("squeezed", "800"), "squeezed(800.0) needs cutoff > 4096"),
    # exp(-800) underflows, so every probability is 0.0
    (("coherent", "800"), "coherent(800.0) has no nonzero probability"),
], ids=["squeezed-25", "squeezed-800", "coherent-800"])
def test_unrepresentable_state_exits_3_with_one_line(argv, message):
    family, param, *rest = argv
    cmd = [sys.executable, "-m", "photonstat", "criteria", "--family",
           family, "--param", param, *rest]
    result = subprocess.run(cmd, capture_output=True, text=True)
    assert result.returncode == 3
    assert "Traceback" not in result.stderr
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("error: accuracy failure: ")
    assert message in result.stderr


@pytest.mark.parametrize("argv", [
    ("criteria",),                                          # missing family
    ("criteria", "--family", "cat", "--param", "1"),        # unknown family
    ("criteria", "--family", "fock", "--param", "2.5"),     # non-integer fock
    ("criteria", "--family", "thermal", "--param", "-1"),   # negative param
    ("criteria", "--family", "thermal", "--param", "1",
     "--subtract", "1", "--add", "1"),                      # both mods
    ("criteria", "--family", "thermal", "--param", "1",
     "--criteria", "bogus"),                                # unknown criterion
    ("sweep", "--family", "thermal"),                       # no grid
    ("sweep", "--family", "thermal", "--param-range", "1:0:1"),
    ("nonsense",),                                          # unknown command
])
def test_usage_errors_exit_1(capsys, argv):
    code, _, _ = run_cli(capsys, *argv)
    assert code == 1


@pytest.mark.parametrize("argv", [
    ("criteria", "--family", "thermal", "--param", "nan"),
    ("criteria", "--family", "coherent", "--param", "inf"),
    ("sweep", "--family", "squeezed", "--param-range", "0:inf:0.5"),
    ("criteria", "--family", "thermal", "--param", "1", "--max-cutoff", "0"),
    ("criteria", "--family", "thermal", "--param", "1", "--eps-tail", "-1"),
    ("sweep", "--family", "thermal", "--param", "1", "--ell-max", "0"),
])
def test_usage_errors_print_one_line_without_traceback(argv):
    cmd = [sys.executable, "-m", "photonstat", *argv]
    result = subprocess.run(cmd, capture_output=True, text=True)
    assert result.returncode == 1
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("photonstat: error: ")


def test_help_exits_0(capsys):
    assert run_cli(capsys, "--help")[0] == 0


def test_console_script_target_runs(monkeypatch, capsys):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text(encoding="utf-8"))[
        "project"]["scripts"]["photonstat"]
    module, _, name = target.partition(":")
    entry = getattr(importlib.import_module(module), name)
    monkeypatch.setattr(sys, "argv",
                        ["photonstat", "selfcheck", "--families", "fock"])
    with pytest.raises(SystemExit) as exc:
        entry()
    assert exc.value.code == 0
    assert "selfcheck PASS" in capsys.readouterr().out


# ------------------------------------------------------------------- sweep

def test_sweep_thermal_q_column(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--family", "thermal",
                           "--param-range", "0.1:1.0:0.1",
                           "--criteria", "Q")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 10
    for row in rows:
        assert math.isclose(float(row["Q"]), float(row["param"]),
                            abs_tol=1e-9)


def test_sweep_coherent_subtracted_all_zero(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--family", "coherent",
                           "--param", "0.5", "--param", "1", "--param", "2",
                           "--subtract", "2", "--ell-max", "2")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3
    for row in rows:
        for column, cell in row.items():
            if column in ("param", "mean", "flags"):
                continue
            assert abs(float(cell)) <= 1e-9, (column, cell)


def test_sweep_fock_a3_tokens(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--family", "fock",
                           "--param", "1", "--param", "2", "--param", "3",
                           "--criteria", "A3")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["A3"] == "DEGENERATE"
    assert float(rows[1]["A3"]) == -1.0


def test_sweep_undefined_rows_keep_table_alive(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--family", "fock",
                           "--param", "1", "--param", "3",
                           "--subtract", "2", "--criteria", "Q")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["Q"] == "UNDEF"
    assert "undefined_state" in rows[0]["flags"]
    assert float(rows[1]["Q"]) == -1.0


def test_sweep_all_rows_failing_is_nonzero(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--family", "thermal",
                           "--param", "5", "--param", "6",
                           "--max-cutoff", "8", "--criteria", "Q")
    assert code == 3
    rows = list(csv.DictReader(io.StringIO(out)))
    assert all(row["flags"] == "accuracy_failure" for row in rows)


def test_sweep_json_mirrors_csv(capsys):
    args = ("sweep", "--family", "thermal", "--param", "0.5",
            "--param", "1.0", "--criteria", "Q,A3", "--ell-max", "2")
    code, out_csv, _ = run_cli(capsys, *args)
    assert code == 0
    code, out_json, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    doc = json.loads(out_json)
    assert doc["tool"] == "photonstat"
    assert doc["sweep"]["family"] == "thermal"
    assert doc["sweep"]["policy"]["eps_tail"] == 1e-12
    csv_rows = list(csv.DictReader(io.StringIO(out_csv)))
    assert len(doc["rows"]) == len(csv_rows)
    for json_row, csv_row in zip(doc["rows"], csv_rows):
        assert set(json_row) == set(csv_rows[0])
        assert math.isclose(json_row["Q"], float(csv_row["Q"]),
                            rel_tol=1e-15)


CRITERIA_AT_ELL_MAX_2 = ["Q", "Q1_normal", "Q2_normal", "Q1_central",
                         "Q2_central", "dh1", "dh2", "A3"]


def test_one_column_order_everywhere(capsys):
    state = ("--family", "thermal", "--param", "1", "--ell-max", "2")
    header = ["param", "mean", *CRITERIA_AT_ELL_MAX_2, "flags"]
    _, out, _ = run_cli(capsys, "sweep", *state)
    assert next(csv.reader(io.StringIO(out))) == header
    _, out, _ = run_cli(capsys, "criteria", *state, "--format", "csv")
    assert next(csv.reader(io.StringIO(out))) == header
    _, out, _ = run_cli(capsys, "criteria", *state)
    keys = list(json.loads(out))
    assert keys[keys.index("mean") + 1:keys.index("flags")] \
        == CRITERIA_AT_ELL_MAX_2


def test_failed_rows_keep_the_columns(capsys):
    # coherent 1 is ok, 0 (vacuum) does not survive a subtraction, and 500
    # needs far more than 64 photons
    args = ("sweep", "--family", "coherent", "--param", "1", "--param", "0",
            "--param", "500", "--subtract", "1", "--max-cutoff", "64",
            "--ell-max", "2")
    header = ["param", "mean", *CRITERIA_AT_ELL_MAX_2, "flags"]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == header
    assert [len(row) for row in rows[1:]] == [len(header)] * 3
    assert [row[-1] for row in rows[1:]] == [
        "", "undefined_state", "accuracy_failure"]
    code, out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    assert [list(row) for row in json.loads(out)["rows"]] == [header] * 3


def test_sweep_deterministic_output(capsys):
    args = ("sweep", "--family", "squeezed",
            "--param-range", "0.1:0.9:0.2", "--add", "1")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_sweep_byte_identical_across_processes():
    cmd = [sys.executable, "-m", "photonstat", "sweep", "--family",
           "thermal", "--param-range", "0.2:1.0:0.2", "--subtract", "1"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.decode().startswith("param,mean,Q")


def test_sweep_out_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, "sweep", "--family", "thermal",
                           "--param", "1", "--out", str(target))
    assert code == 0
    assert out == ""
    content = target.read_text(encoding="utf-8")
    assert content.startswith("param,mean,Q")


# --------------------------------------------------------------- selfcheck

def test_selfcheck_fock_exact(capsys):
    code, out, _ = run_cli(capsys, "selfcheck", "--families", "fock")
    assert code == 0
    assert "selfcheck PASS" in out
    assert "worst rel dev 0.000e+00" in out


def test_selfcheck_below_noise_floor_fails(capsys):
    code, out, _ = run_cli(capsys, "selfcheck", "--tol", "1e-15")
    assert code == 4
    assert "selfcheck FAIL" in out


def test_selfcheck_unknown_family_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "selfcheck", "--families", "cat")
    assert code == 1


def test_selfcheck_report_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, _, _ = run_cli(capsys, "selfcheck", "--families", "fock",
                         "--out", str(target))
    assert code == 0
    text = target.read_text(encoding="utf-8")
    assert text.startswith("photonstat equivalence report")
    assert "result=PASS" in text


# ------------------------------------------------------------------ config

def test_config_file_sets_defaults(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"ell_max": 1, "format": "csv",
                                  "criteria": "Q"}), encoding="utf-8")
    code, out, _ = run_cli(capsys, "criteria", "--family", "thermal",
                           "--param", "1", "--config", str(config))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["param", "mean", "Q", "flags"]


def test_cli_flag_overrides_config(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"format": "csv"}), encoding="utf-8")
    code, out, _ = run_cli(capsys, "criteria", "--family", "thermal",
                           "--param", "1", "--config", str(config),
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["family"] == "thermal"


def test_config_file_must_be_json_object(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("[1, 2]", encoding="utf-8")
    code, _, _ = run_cli(capsys, "criteria", "--family", "thermal",
                         "--param", "1", "--config", str(config))
    assert code == 1
