import atexit
import contextlib
import csv
import gc
import importlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from photonstat import cli
from photonstat.cli import (
    MAX_GRID_POINTS,
    _parse_param_range,
    main,
)
from photonstat import AccuracyError, __version__
from photonstat.criteria import (
    CRITERIA_TOKENS,
    MAX_ELL_MAX,
    CriteriaReport,
    DegenerateA3,
    column_names,
    evaluate_all,
    moment_order,
)
from photonstat.states import DEFAULT_POLICY, FAMILIES, build_state

from helpers import limit_address_space


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
    # only a state of finite support, such as a Fock state or a vacuum
    for family, param, count in (("fock", "2", "3"), ("coherent", "0", "1"),
                                 ("thermal", "0", "1"),
                                 ("squeezed", "0", "2")):
        code, _, err = run_cli(capsys, "criteria", "--family", family,
                               "--param", param, "--subtract", count)
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
    # the first orders whose exact Poisson reference moment exceeds
    # DBL_MAX: O_198(5.0) and O_193(7.0) still fit
    (("fock", "5", "--ell-max", "100"),
     "Poisson reference moment O_199(5.0) exceeds the float64 range"),
    (("fock", "7", "--ell-max", "100"),
     "Poisson reference moment O_194(7.0) exceeds the float64 range"),
    # the cutoff check's order-K factorial moment overflows before any
    # cutoff passes, so no cutoff can
    (("thermal", "5", "--ell-max", "80"),
     "thermal(5.0): the order-160 factorial moment at cutoff"),
    (("thermal", "3", "--subtract", "2", "--ell-max", "74"),
     "thermal(3.0): the order-150 factorial moment at cutoff"),
    # the Stirling sum for <n^145> overflows, its terms do not
    (("thermal", "2", "--ell-max", "75"),
     "raw moment <n^145> exceeds the float64 range"),
    # the moments of |202> fit; its order-120 central moment does not
    (("fock", "200", "--add", "2", "--ell-max", "60"),
     "central moment of order 120 exceeds the float64 range"),
    # N_2 underflows to 0, but only finite support can be annihilated
    (("coherent", "1e-300", "--subtract", "2"), "N_2 underflows float64"),
    (("thermal", "1e-300", "--subtract", "2"), "N_2 underflows float64"),
    (("squeezed", "1e-200", "--subtract", "2"), "N_2 underflows float64"),
    # N_4 and N_2 hold the mean and Q: Q = -1e-100 would claim a
    # sub-Poissonian coherent state, and mean 0 an undefined mean
    (("coherent", "1e-100", "--subtract", "2"), "N_4 underflows float64"),
    (("coherent", "1e-300", "--subtract", "1"), "N_2 underflows float64"),
    (("coherent", "1e-300"), "N_2 underflows float64"),
    # --max-cutoff caps Fock states too
    (("fock", "200", "--max-cutoff", "100"),
     "fock index 200 exceeds max_cutoff 100"),
], ids=["squeezed-25", "squeezed-800", "coherent-800", "fock-5-ell100",
        "fock-7-ell100", "thermal-5-ell80", "thermal-3-sub2-ell74",
        "thermal-2-ell75", "fock-200-add2-ell60", "coherent-1e-300-sub2",
        "thermal-1e-300-sub2", "squeezed-1e-200-sub2",
        "coherent-1e-100-sub2", "coherent-1e-300-sub1", "coherent-1e-300",
        "fock-200-max-cutoff-100"])
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


def test_fock_4_at_ell_max_100_prints_exact_values(capsys):
    # O_2l(4.0) stays below DBL_MAX up to O_200(4.0) = 2.3e305
    code, out, err = run_cli(capsys, "criteria", "--family", "fock",
                             "--param", "4", "--ell-max", "100")
    assert code == 0 and err == ""
    doc = json.loads(out)
    n, orders = 4, 200
    # exact Poisson raw moments by the Touchard recurrence
    # T_{z+1} = n sum_k C(z,k) T_k, then the exact binomial central-moment
    # sums; the factorial moments of Fock(n) are n!/(n-k)!
    raw = [1]
    for z in range(orders):
        raw.append(n * sum(math.comb(z, k) * t for k, t in enumerate(raw)))
    for ell in range(1, 101):
        r = 2 * ell
        o2l = sum(math.comb(r, j) * raw[j] * (-n) ** (r - j)
                  for j in range(r + 1))
        num = sum(math.comb(r, j) * (-n) ** (r - j) * math.perm(n, j)
                  for j in range(min(n, r) + 1))
        exact = Fraction(num, o2l)
        got = doc[f"Q{ell}_normal"]
        assert abs(Fraction(got) - exact) <= Fraction(1e-15) * abs(exact), ell
        # a Fock state has no number fluctuation at all
        assert doc[f"Q{ell}_central"] == -1.0, ell


def test_provable_antinormal_overflow_fails_fast():
    # <(n+m)_m> >= m! * N_0 proves the norm of the 100000-photon-added state
    # overflows, so the CLI must say so before building any ladder (the
    # exact fallback ran for more than a minute)
    cmd = [sys.executable, "-m", "photonstat", "criteria", "--family",
           "coherent", "--param", "1", "--add", "100000"]
    result = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    assert result.returncode == 3
    assert "Traceback" not in result.stderr
    assert result.stderr.splitlines() == [
        "error: accuracy failure: <(n+100000)_100000> of the base state "
        "exceeds the float64 range"]


@pytest.mark.parametrize("argv,code,message", [
    # the pmf is 0 past n = 177, so N_count underflowed
    (("coherent", "1", "--subtract", str(10 ** 18)), 3,
     "error: accuracy failure: N_1000000000000000000 underflows float64 "
     "to 0, but no N_k of a state without finite support vanishes"),
    # the search's check order is capped at n_last = 1073
    (("thermal", "1", "--add", str(10 ** 18)), 3,
     "error: accuracy failure: thermal(1.0): the order-1073 factorial "
     "moment at cutoff 1074 exceeds the float64 range"),
    (("fock", "3", "--subtract", str(10 ** 18)), 2,
     "error: state annihilated: fock(3) does not survive subtract "
     "1000000000000000000"),
    # the pmf never reaches 0 (its step ratio is above 1/2), so the check
    # order stays K, and only that moment fails: the tail bound is met
    (("squeezed", "1", "--subtract", str(10 ** 18)), 3,
     "error: accuracy failure: squeezed(1.0) needs cutoff > 4096: the "
     "order-1000000000000000006 factorial moment did not converge to "
     "rel_tol 1.0e-10"),
], ids=["coherent-subtract", "thermal-add", "fock-subtract",
        "squeezed-subtract"])
def test_huge_counts_exit_at_once_with_one_line(argv, code, message):
    # no list of count entries is built: the search stops at the occupied
    # pmf and a subtraction past it is settled before any ladder
    family, param, *rest = argv
    cmd = [sys.executable, "-m", "photonstat", "criteria", "--family",
           family, "--param", param, *rest]
    result = subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                            preexec_fn=limit_address_space)
    assert result.returncode == code
    assert "Traceback" not in result.stderr
    assert result.stderr.splitlines() == [message]


def _beyond_memory(*argv):
    # argv with no cap on the cutoff, in a child limited to 1 GiB
    cmd = [sys.executable, "-m", "photonstat", *argv, "--max-cutoff",
           str(sys.maxsize)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                          preexec_fn=limit_address_space)


_FAILED_THERMAL_ROW = ("1000000.0" + ",UNDEF" * 12 + ",accuracy_failure")


@pytest.mark.parametrize("argv,out,err", [
    # the tail cutoff alone is about 3.4e9, and the search asks for
    # about twice that many pmf entries
    (("criteria", "--family", "squeezed", "--param", "10"), [],
     ["error: accuracy failure: out of memory"]),
    # the tail cutoff of a mean of 1e6 is too long a pmf for 1 GiB
    (("criteria", "--family", "thermal", "--param", "1e6"), [],
     ["error: accuracy failure: out of memory"]),
    # a sweep flags the row, and exits 3 as every row failed
    (("sweep", "--family", "thermal", "--param", "1e6"),
     [",".join(["param", "mean", *column_names(3), "flags"]),
      _FAILED_THERMAL_ROW], []),
], ids=["squeezed", "thermal", "thermal-sweep"])
def test_a_pmf_beyond_memory_exits_3_with_one_line(argv, out, err):
    result = _beyond_memory(*argv)
    assert result.returncode == 3
    assert result.stdout.splitlines() == out
    assert result.stderr.splitlines() == err


def test_a_sweep_keeps_its_rows_beside_one_beyond_memory(capsys):
    result = _beyond_memory("sweep", "--family", "thermal", "--param", "1",
                            "--param", "1e6")
    assert result.returncode == 0 and result.stderr == ""
    _, alone, _ = run_cli(capsys, "sweep", "--family", "thermal", "--param",
                          "1", "--max-cutoff", str(sys.maxsize))
    assert result.stdout == alone + _FAILED_THERMAL_ROW + "\n"


def test_huge_param_range_exits_at_once_with_one_line():
    # 10**12 + 1 points: the count is refused before any point is built
    cmd = [sys.executable, "-m", "photonstat", "sweep", "--family", "fock",
           "--param-range", "0:1e12:1"]
    result = subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                            preexec_fn=limit_address_space)
    assert result.returncode == 1
    assert result.stderr.splitlines() == [
        f"photonstat: error: --param-range has more than {MAX_GRID_POINTS} "
        "points"]


def test_param_range_point_limit_is_inclusive():
    grid = _parse_param_range(f"0:{MAX_GRID_POINTS - 1}:1")
    assert len(grid) == MAX_GRID_POINTS and grid[-1] == MAX_GRID_POINTS - 1
    with pytest.raises(ValueError, match=f"^--param-range has more than "
                       f"{MAX_GRID_POINTS} points$"):
        _parse_param_range(f"0:{MAX_GRID_POINTS}:1")


@pytest.mark.parametrize("ell_max", [MAX_ELL_MAX + 1, 10 ** 17],
                         ids=["cap-plus-one", "huge"])
def test_huge_ell_max_exits_at_once_with_one_line(ell_max):
    # refused before any state is built: the Stirling rows up to
    # 2 * ell_max would otherwise fill the address space
    cmd = [sys.executable, "-m", "photonstat", "criteria", "--family",
           "coherent", "--param", "1", "--ell-max", str(ell_max)]
    result = subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                            preexec_fn=limit_address_space)
    assert result.returncode == 1
    assert result.stderr.splitlines() == [
        f"photonstat: error: ell_max must be at most {MAX_ELL_MAX}"]


def test_ell_max_limit_is_inclusive(tmp_path, monkeypatch, capsys):
    assert moment_order(MAX_ELL_MAX) == 2 * MAX_ELL_MAX
    with pytest.raises(ValueError,
                       match=f"^ell_max must be at most {MAX_ELL_MAX}$"):
        moment_order(MAX_ELL_MAX + 1)
    # main hands the cap on, as a flag or a config value, and refuses one
    # more; the report itself is not built
    reached = []

    def report(family, param, mod, ell_max, *rest):
        reached.append(ell_max)
        return 0
    monkeypatch.setattr(cli, "cmd_criteria", report)
    config = tmp_path / "config.json"
    for ell_max, want in ((MAX_ELL_MAX, 0), (MAX_ELL_MAX + 1, 1)):
        config.write_text(json.dumps({"ell_max": ell_max}), encoding="utf-8")
        for extra in (("--ell-max", str(ell_max)), ("--config", str(config))):
            code, out, err = run_cli(capsys, "criteria", "--family", "fock",
                                     "--param", "0", *extra)
            assert code == want and out == ""
            assert err == ("" if want == 0 else "photonstat: error: ell_max "
                           f"must be at most {MAX_ELL_MAX}\n")
    assert reached == [MAX_ELL_MAX, MAX_ELL_MAX]
    # and the report at the cap runs in 1 GiB of address space
    cmd = [sys.executable, "-m", "photonstat", "criteria", "--family",
           "fock", "--param", "0", "--ell-max", str(MAX_ELL_MAX)]
    result = subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                            preexec_fn=limit_address_space)
    assert (result.returncode, result.stderr) == (0, "")
    assert f'"Q{MAX_ELL_MAX}_central"' in result.stdout


@pytest.mark.parametrize("argv,message", [
    (("criteria", "--family", "fock", "--param", "-1"),
     "fock parameter must be a nonnegative integer"),
    # the second point is refused before the first is built
    (("sweep", "--family", "fock", "--param", "1", "--param", "2.5"),
     "fock parameter must be a nonnegative integer"),
    (("sweep", "--family", "fock", "--param-range", "0:1:0.5"),
     "fock parameter must be a nonnegative integer"),
    (("criteria", "--family", "thermal", "--param", "-1"),
     "thermal parameter must be nonnegative"),
    (("criteria", "--family", "squeezed", "--param", "nan"),
     "squeezed parameter must be finite"),
    (("criteria", "--family", "thermal", "--param", "1", "--ell-max", "0"),
     "ell_max must be at least 1"),
    (("criteria", "--family", "fock", "--param", "1", "--subtract", "-1"),
     "count must be a nonnegative integer"),
    (("sweep", "--family", "fock", "--param", "1", "--add", "-2"),
     "count must be a nonnegative integer"),
], ids=["fock-negative", "sweep-fock-fraction", "fock-range-fraction",
        "thermal-negative", "squeezed-nan", "ell-max-zero",
        "subtract-negative", "add-negative"])
def test_library_input_errors_exit_1_with_its_line(monkeypatch, capsys, argv,
                                                   message):
    def refuse(*args):
        raise AssertionError("a state was built")
    monkeypatch.setattr(cli, "build_state", refuse)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"photonstat: error: {message}\n"


def test_a_count_must_be_an_int(capsys):
    code, out, err = run_cli(capsys, "criteria", "--family", "fock",
                             "--param", "1", "--subtract", "1e5")
    assert code == 1 and out == ""
    assert err == ("photonstat: error: argument --subtract: "
                   "invalid int value: '1e5'\n")


def test_format_flag_and_config_value_share_one_check(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"format": "xml"}', encoding="utf-8")
    for command in ("criteria", "sweep"):
        for extra in (("--format", "xml"), ("--config", str(config))):
            assert run_cli(capsys, command, "--family", "fock", "--param",
                           "1", *extra) == (
                1, "", "photonstat: error: invalid format 'xml' (choose "
                "from 'csv', 'json')\n")


def test_a_value_error_while_computing_is_no_usage_error(monkeypatch):
    # only resolving the request maps ValueError to exit 1: a fault in the
    # computation must surface, not pose as a refused input
    def broken(*args):
        raise ValueError("internal")
    monkeypatch.setattr(cli, "evaluate_all", broken)
    with pytest.raises(ValueError, match="^internal$"):
        main(["criteria", "--family", "fock", "--param", "1"])


@pytest.mark.parametrize("argv", [
    ("criteria", "--family", "coherent", "--param", "1"),
    ("sweep", "--family", "coherent", "--param", "1"),
    ("selfcheck", "--families", "fock"),
], ids=["criteria", "sweep", "selfcheck"])
def test_unwritable_out_exits_1_with_one_line(tmp_path, capsys, argv):
    for target, reason in ((tmp_path, "Is a directory"),
                           (tmp_path / "missing" / "x",
                            "No such file or directory")):
        code, _, err = run_cli(capsys, *argv, "--out", str(target))
        assert code == 1
        assert err == f"photonstat: error: cannot write {target}: {reason}\n"


def test_unwritable_out_fails_before_any_work(tmp_path, monkeypatch, capsys):
    # --out is opened first while resolving: a 10**5-point sweep builds no
    # grid point, and selfcheck prints no summary before the error
    def refuse(*args):
        raise AssertionError("a state was built")
    monkeypatch.setattr(cli, "build_state", refuse)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "sweep", "--family", "fock",
                             "--param-range", f"0:{MAX_GRID_POINTS - 1}:1",
                             "--out", str(tmp_path))
    assert time.perf_counter() - start < 0.2
    assert (code, out) == (1, "")
    assert err == f"photonstat: error: cannot write {tmp_path}: " \
                  "Is a directory\n"
    target = tmp_path / "missing" / "x"
    assert run_cli(capsys, "selfcheck", "--families", "fock", "--out",
                   str(target)) == (1, "", f"photonstat: error: cannot "
                                    f"write {target}: No such file or "
                                    "directory\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ("criteria", "--family", "fock", "--param", "2"),
    ("sweep", "--family", "fock", "--param", "2"),
    ("selfcheck", "--families", "fock"),
], ids=["criteria", "sweep", "selfcheck"])
def test_out_that_fails_while_written_exits_1_with_one_line(capsys, argv):
    # /dev/full opens, and every write to it fails: the run has done its
    # work, and only what it prints to stdout besides the document stays
    _, full_out, _ = run_cli(capsys, *argv)
    code, out, err = run_cli(capsys, *argv, "--out", "/dev/full")
    assert code == 1
    assert err == "photonstat: error: cannot write /dev/full: No space " \
                  "left on device\n"
    if argv[0] == "selfcheck":
        assert full_out.endswith("\nselfcheck PASS\n")
        assert out == full_out[:-len("selfcheck PASS\n")]
    else:
        assert out == ""


@pytest.mark.parametrize("mode,reason", [
    ("buffered", "Broken pipe"), ("unbuffered", "Broken pipe"),
    ("closed-fd", "Bad file descriptor"),
], ids=["buffered", "unbuffered", "closed-fd"])
@pytest.mark.parametrize("argv,reader", [
    (("--help",), None), (("--version",), None), (("selfcheck",), None),
    (("sweep", "--family", "fock", "--param", "3"), None),
    # 217 kB, more than the pipe holds, so head closes it midway
    (("sweep", "--family", "thermal", "--param-range", "0:10:0.01"),
     ("head", "-c", "10")),
], ids=["help", "version", "selfcheck", "sweep", "head"])
def test_closed_stdout_exits_1_with_one_line(argv, reader, mode, reason):
    # stdout is a pipe whose reader has gone, before the run or (head)
    # during the write: buffered, the flush fails, and unbuffered, the
    # write; either way no traceback, no exit 0 with the document cut
    # short, and no exit 120 from a second failure in the interpreter's
    # exit flush.  Started with fd 1 closed (">&-"), the process has no
    # sys.stdout at all
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if mode == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    cmd = [sys.executable, "-m", "photonstat", *argv]
    if mode == "closed-fd":
        cmd = ["sh", "-c", 'exec "$@" >&-', "sh", *cmd]
    read, write = os.pipe()
    try:
        if reader:
            reader = subprocess.Popen(reader, stdin=read,
                                      stdout=subprocess.DEVNULL)
    finally:
        os.close(read)
    try:
        result = subprocess.run(cmd, stdout=write, stderr=subprocess.PIPE,
                                env=env, timeout=120)
    finally:
        os.close(write)
        if reader:
            reader.wait(timeout=60)
    assert (result.returncode, result.stderr.decode()) == (
        1, f"photonstat: error: cannot write stdout: {reason}\n")


@pytest.mark.parametrize("mode,reason", [
    ("buffered", "write could not complete without blocking"),
    ("unbuffered", "Resource temporarily unavailable"),
], ids=["buffered", "unbuffered"])
def test_full_nonblocking_stdout_exits_1_with_one_line(mode, reason):
    # nobody reads the nonblocking pipe: once it is full, a write takes no
    # byte, and the run must not end 0 with the document cut short
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if mode == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    try:
        os.set_blocking(write, False)
        result = subprocess.run(
            [sys.executable, "-m", "photonstat", "sweep", "--family",
             "thermal", "--param-range", "0:10:0.01"],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
        os.close(read)
    assert (result.returncode, result.stderr.decode()) == (
        1, f"photonstat: error: cannot write stdout: {reason}\n")


@pytest.mark.parametrize("argv,status", [
    (("criteria", "--family", "fock", "--param", "1", "--ell-max", "0"), 1),
    (("criteria", "--family", "fock", "--param", "0", "--subtract", "1"), 2),
    (("criteria", "--family", "coherent", "--param", "1e-300",
      "--subtract", "2"), 3),
], ids=["usage", "annihilated", "underflow"])
def test_a_failed_run_leaves_out_as_it_was(tmp_path, capsys, argv, status):
    # an existing file keeps its bytes, and a file the run created is
    # removed again
    existing = tmp_path / "existing"
    existing.write_bytes(b"kept\x00bytes\n")
    assert run_cli(capsys, *argv, "--out", str(existing))[0] == status
    assert existing.read_bytes() == b"kept\x00bytes\n"
    fresh = tmp_path / "fresh"
    assert run_cli(capsys, *argv, "--out", str(fresh))[0] == status
    assert not fresh.exists()


def test_out_replaces_a_longer_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    target.write_text("x" * 100000, encoding="utf-8")
    argv = ("sweep", "--family", "thermal", "--param", "1")
    assert run_cli(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert target.read_text(encoding="utf-8") == run_cli(capsys, *argv)[1]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_out_may_be_a_named_pipe(tmp_path, capsys):
    # the reader gets the whole document: resolving does not open and
    # close the pipe, which would end the reader's input long before the
    # rows, here about 0.1 s of work, are written
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    argv = ("sweep", "--family", "fock", "--param-range", "0:200:1",
            "--add", "6", "--ell-max", "6")
    proc = subprocess.Popen([sys.executable, "-m", "photonstat", *argv,
                             "--out", str(pipe)])
    try:
        with open(pipe, encoding="utf-8") as reader:
            got = reader.read()
        assert proc.wait(timeout=30) == 0
    finally:
        proc.kill()
        proc.wait()
    assert got == run_cli(capsys, *argv)[1]


# runs `python -m photonstat <argv>` with every import of numpy failing
_WITHOUT_NUMPY = (
    "import runpy, sys\n"
    "sys.modules['numpy'] = None\n"
    "sys.argv = ['photonstat', *sys.argv[1:]]\n"
    "runpy.run_module('photonstat', run_name='__main__', alter_sys=True)\n")


@pytest.mark.parametrize("argv", [
    ("selfcheck",),
    ("sweep", "--family", "thermal", "--param-range", "0.1:2.0:0.3",
     "--add", "2", "--ell-max", "4"),
], ids=["selfcheck", "sweep"])
def test_runtime_needs_no_numpy(argv):
    blocked = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY, *argv],
                             capture_output=True, text=True, timeout=120)
    normal = subprocess.run([sys.executable, "-m", "photonstat", *argv],
                            capture_output=True, text=True, timeout=120)
    assert blocked.returncode == 0, blocked.stderr
    assert normal.returncode == 0
    assert blocked.stdout == normal.stdout
    assert blocked.stderr == normal.stderr == ""


def test_cli_import_loads_only_what_commands_use():
    # numpy is no runtime dependency; dataclasses (with inspect), fractions
    # (with decimal), json and the oracle are loaded only by the calls
    # that use them: none by a criteria or sweep call printing CSV.  The
    # command line is read from cli's own flag table, with no argument
    # parsing module (argparse, with gettext and locale)
    code = ("import sys; before = set(sys.modules); import photonstat.cli; "
            "print(*sorted(set(sys.modules) - before))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True, timeout=60)
    loaded = set(result.stdout.split())
    assert "photonstat.criteria" in loaded
    assert not loaded & {"numpy", "dataclasses", "inspect", "fractions",
                         "decimal", "json", "csv", "photonstat.oracle",
                         "argparse", "gettext", "locale"}
    selfcheck = subprocess.run([sys.executable, "-m", "photonstat",
                                "selfcheck"], capture_output=True, text=True,
                               timeout=120)
    assert selfcheck.returncode == 0, selfcheck.stderr
    assert selfcheck.stdout.endswith("selfcheck PASS\n")


def test_sweep_flags_an_overflowing_row():
    # Fock(4000) overflows its order-200 ladder; the sweep keeps the fock 1
    # row exactly as a one-point sweep prints it
    cmd = [sys.executable, "-m", "photonstat", "sweep", "--family", "fock",
           "--param", "1", "--ell-max", "100"]
    both = subprocess.run(cmd + ["--param", "4000"], capture_output=True,
                          text=True)
    alone = subprocess.run(cmd, capture_output=True, text=True)
    assert both.returncode == 0 and alone.returncode == 0
    assert both.stderr == ""
    header, fock1, fock4000 = both.stdout.splitlines()
    assert alone.stdout.splitlines() == [header, fock1]
    cells = fock4000.split(",")
    assert cells[0] == "4000" and cells[-1] == "accuracy_failure"
    assert set(cells[1:-1]) == {"UNDEF"}


def test_sweep_flags_an_underflowed_row(capsys):
    code, out, err = run_cli(capsys, "sweep", "--family", "coherent",
                             "--param", "1", "--param", "1e-300",
                             "--subtract", "2")
    assert code == 0 and err == ""
    flags = [row["flags"] for row in csv.DictReader(io.StringIO(out))]
    assert flags == ["", "accuracy_failure"]


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


@pytest.mark.parametrize("argv,line", [
    ((), "the following arguments are required: command"),
    (("nonsense",), "argument command: invalid choice: 'nonsense' (choose "
     "from 'criteria', 'sweep', 'selfcheck')"),
    (("criteria",), "the following arguments are required: --family, "
     "--param"),
    (("sweep", "--family", "cat", "--param", "1"), "argument --family: "
     "invalid choice: 'cat' (choose from 'coherent', 'thermal', 'fock', "
     "'squeezed')"),
    (("sweep", "--family", "fock", "--param"),
     "argument --param: expected one argument"),
    (("sweep", "--family", "fock", "--param", "--ell-max", "2"),
     "argument --param: expected one argument"),
    (("criteria", "--family", "fock", "--param", "x"),
     "argument --param: invalid float value: 'x'"),
    (("sweep", "--family", "fock", "--param", "1", "--bogus", "3", "x"),
     "unrecognized arguments: --bogus 3 x"),
    (("sweep", "--bogus", "3"),  # the required check comes first
     "the following arguments are required: --family"),
    (("sweep", "--family", "fock", "--par", "1"),
     "ambiguous option: --par could match --param, --param-range"),
    (("sweep", "--family", "fock", "--param", "-1"),  # a value, refused
     "fock parameter must be a nonnegative integer"),
    (("--version=3",), "argument --version: ignored explicit argument '3'"),
    # negative numbers are values, refused by the family's rule
    (("criteria", "--family", "thermal", "--param=-.5"),
     "thermal parameter must be nonnegative"),
    (("sweep", "--family", "fock", "--param", "-0.5"),
     "fock parameter must be a nonnegative integer"),
    # "--" ends the flags, and the ambiguity pre-scan stops at it
    (("sweep", "--family", "fock", "--param", "1", "--", "2"),
     "unrecognized arguments: -- 2"),
    (("sweep", "--family", "fock", "--param", "1", "--", "--par"),
     "unrecognized arguments: -- --par"),
    (("--",), "the following arguments are required: command"),
    # the rules a flag's value must meet past its type
    (("sweep", "--family", "fock", "--param-range", "1:2"),
     "--param-range must look like start:stop:step"),
    (("sweep", "--family", "fock", "--param-range", "a:b:c"),
     "--param-range values must be numeric"),
    (("sweep", "--family", "squeezed", "--param-range", "0:inf:0.5"),
     "--param-range values must be finite"),
    (("criteria", "--family", "fock", "--param", "1", "--criteria", ","),
     "--criteria must select at least one criterion"),
], ids=["no-command", "unknown-command", "required", "choice", "no-value",
        "flag-for-value", "float", "unrecognized", "required-first",
        "ambiguous", "negative", "explicit", "negative-fraction-equals",
        "negative-fraction", "after-dash-dash", "prescan-stops-at-dash-dash",
        "lone-dash-dash", "range-shape", "range-numeric", "range-finite",
        "criteria-empty"])
def test_each_usage_error_prints_its_line(capsys, argv, line):
    assert run_cli(capsys, *argv) == (1, "", f"photonstat: error: {line}\n")


def test_flags_may_be_abbreviated_given_with_equals_and_repeated():
    args = cli.parse_args(["criteria", "--fam", "thermal", "--param=-1",
                           "--param", "2", "--eps=1e-9", "--format=csv"])
    assert (args.family, args.param, args.eps_tail) == (
        "thermal", 2.0, 1e-9)
    assert cli.parse_args(["sweep", "--family", "fock", "--param", "-1",
                           "--param=3"]).param == [-1.0, 3.0]


@pytest.mark.parametrize("argv", [
    ("--help",), ("-h",), ("criteria", "--he"), ("sweep", "-h"),
    ("selfcheck", "--help"), ("-hh",), ("sweep", "-h", "-h"),
], ids=["program", "short", "criteria", "sweep", "selfcheck", "hh",
        "sweep-h-h"])
def test_help_lists_every_command_flag_and_metavar(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == "" and out.startswith("usage: photonstat")
    if len(argv) == 1:
        want = [name for name in cli._COMMANDS] + [
            about for about, *_ in cli._COMMANDS.values()] + ["--version"]
    else:
        want = [part for row in cli._COMMANDS[argv[0]][1]
                for part in (row[0], row[3], row[4])]
    assert [part for part in want if part not in out] == []


def test_version_prints_the_version(capsys):
    assert run_cli(capsys, "--version") == (0, f"photonstat {__version__}\n",
                                            "")


def test_param_flags_are_read_in_linear_time():
    # argparse took 0.94 s for 4,000 --param flags, growing quadratically
    params = [str(k) for k in range(20000)]
    argv = ["sweep", "--family", "fock"]
    for param in params:
        argv += ["--param", param]
    start = time.perf_counter()
    args = cli.parse_args(argv)
    elapsed = time.perf_counter() - start
    assert args.param == [float(p) for p in params]
    assert elapsed < 2, elapsed


def test_console_script_target_runs(monkeypatch, capsys):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text(encoding="utf-8"))[
        "project"]["scripts"]["photonstat"]
    module, _, name = target.partition(":")
    entry = getattr(importlib.import_module(module), name)
    monkeypatch.setattr(sys, "argv",
                        ["photonstat", "selfcheck", "--families", "fock"])
    try:
        with pytest.raises(SystemExit) as exc:
            entry()
    finally:
        atexit.unregister(gc.freeze)  # leave this process's exit as it was
    assert exc.value.code == 0
    assert "selfcheck PASS" in capsys.readouterr().out


# registered before the package loads, so it runs after every handler the
# call registers (atexit runs handlers last in, first out); it counts the
# gc.freeze calls and reads the permanent generation's size
_SENTINEL = """
import atexit, gc, sys
freezes = []
def counting_freeze(freeze=gc.freeze):
    freezes.append(1)
    freeze()
gc.freeze = counting_freeze
atexit.register(lambda: print(
    f"{len(freezes)} freezes, freeze count {gc.get_freeze_count()}",
    file=sys.stderr))
"""
_ARGV = ["criteria", "--family", "fock", "--param", "1"]
_ENTRY = (f"sys.argv = ['photonstat', *{_ARGV!r}]\n"
          "from photonstat.cli import entry\n")


@pytest.mark.parametrize("call,freezes", [
    # the console script's target, and python -m photonstat
    (_ENTRY + "entry()", 1),
    (_ENTRY + "try:\n    entry()\nexcept SystemExit:\n    pass\nentry()",
     1),
    (f"sys.argv = ['photonstat', *{_ARGV!r}]\nimport runpy\n"
     "runpy.run_module('photonstat', run_name='__main__', alter_sys=True)",
     1),
    # a library caller keeps an ordinary collector to the end
    (f"import photonstat.cli\nphotonstat.cli.main({_ARGV!r})", 0),
], ids=["entry", "entry-twice", "python-m", "main"])
def test_only_the_entry_point_freezes_the_heap_at_exit(call, freezes):
    result = subprocess.run([sys.executable, "-c", _SENTINEL + call],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert '"Q": -1.0' in result.stdout
    *_, last = result.stderr.splitlines()
    count, _, frozen = last.partition(" freezes, freeze count ")
    assert int(count) == freezes, result.stderr
    assert (int(frozen) > 0) is (freezes == 1), result.stderr


class _ExitHandlers(list):
    """atexit's register and unregister, on a list."""

    register = list.append

    def unregister(self, func):
        self[:] = [f for f in self if f != func]


def test_entry_registers_one_exit_handler(monkeypatch):
    # a stand-in for atexit leaves this process's exit as it is
    handlers = _ExitHandlers()
    monkeypatch.setattr(cli, "atexit", handlers)
    monkeypatch.setattr(sys, "argv", ["photonstat", *_ARGV])
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 0
    assert handlers == [gc.freeze]
    assert gc.get_freeze_count() == 0  # the freeze waits for exit


# |n+3> for n = 0..12: no warning and no flag, every value exact
ADDED_FOCK_SWEEP = ("sweep", "--family", "fock", "--param-range", "0:12:1",
                    "--add", "3", "--ell-max", "5")


@pytest.mark.parametrize("argv,code", [
    (("sweep", "--family", "coherent", "--param", "0.5", "--param", "2",
      "--subtract", "2"), 0),
    (("sweep", "--family", "coherent", "--param", "0.5", "--param", "2",
      "--subtract", "2", "--format", "json"), 0),
    (("criteria", "--family", "fock", "--param", "1", "--subtract", "1e5"),
     1),
    (("criteria", "--family", "fock", "--param", "1", "--subtract", "2"), 2),
    (("criteria", "--family", "coherent", "--param", "1e-100",
      "--subtract", "2"), 3),
    (("selfcheck", "--tol", "0"), 4),
    (ADDED_FOCK_SWEEP, 0),
], ids=["sweep-csv", "sweep-json", "usage", "undefined", "accuracy",
        "selfcheck-fail", "sweep-added-fock"])
def test_the_console_path_prints_what_main_prints(argv, code, capsys):
    # under -W error, a warning on any path is a traceback and exit 1
    result = subprocess.run([sys.executable, "-W", "error", "-m",
                             "photonstat", *argv],
                            capture_output=True, timeout=60)
    assert main(list(argv)) == code
    captured = capsys.readouterr()
    assert result.returncode == code
    assert result.stdout == captured.out.encode()
    assert result.stderr == captured.err.encode()


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


def test_sweep_of_added_fock_states_is_exact(capsys):
    # |k> with k = n + 3 has mean k, Q = -1, every Q^(l)_central = -1 and
    # d_h = (k)_(h+1) - k^(h+1)
    code, out, err = run_cli(capsys, *ADDED_FOCK_SWEEP)
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 13
    for row in rows:
        k = int(row["param"]) + 3
        assert float(row["mean"]) == k and float(row["Q"]) == -1.0, row
        for h in range(1, 6):
            assert float(row[f"dh{h}"]) == math.perm(k, h + 1) - k ** (h + 1)
            assert float(row[f"Q{h}_central"]) == -1.0, (h, row)
        assert row["flags"] == "", row


def test_sweep_all_rows_failing_is_nonzero(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--family", "thermal",
                           "--param", "5", "--param", "6",
                           "--max-cutoff", "8", "--criteria", "Q")
    assert code == 3
    rows = list(csv.DictReader(io.StringIO(out)))
    assert all(row["flags"] == "accuracy_failure" for row in rows)


@pytest.mark.parametrize("params,status", [
    (("0", "1e-300"), 3),  # undefined, then an accuracy failure
    (("0",), 2),           # every row undefined
    (("0", "1"), 0),
    (("1e-300",), 3),
    (("1", "1e-300"), 0),
], ids=["undefined-inaccurate", "undefined", "undefined-defined",
        "inaccurate", "defined-inaccurate"])
def test_sweep_exit_status_needs_one_defined_row(capsys, params, status):
    # 0 if any row is defined, else 3 if any row failed, else 2
    argv = ["sweep", "--family", "coherent", "--subtract", "2",
            "--criteria", "Q"]
    for param in params:
        argv += ["--param", param]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (status, "")
    assert len(out.splitlines()) == 1 + len(params)


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


# Test-local copies of the cell naming and rendering that the cached
# column plan and the float-first checks replaced; every sweep must print
# the same bytes through them.

def _old_cells(report, ell_max, selection):
    ells = range(1, ell_max + 1)
    columns = {
        "Q": ["Q"],
        "Q_ell_normal": [f"Q{ell}_normal" for ell in ells],
        "Q_ell_central": [f"Q{ell}_central" for ell in ells],
        "d_h": [f"dh{h}" for h in ells],
        "A3": ["A3"],
    }
    return {name: report.cells.get(name, math.nan)
            for token in CRITERIA_TOKENS if token in selection
            for name in columns[token]}


def _old_json_cell(value):
    if isinstance(value, DegenerateA3):
        return cli.DEGENERATE
    if isinstance(value, int):
        return value
    value = float(value)
    if math.isnan(value):
        return cli.UNDEF
    return value


def _old_render(value):
    if isinstance(value, str):
        return value
    cell = _old_json_cell(value)
    return cell if isinstance(cell, str) else repr(cell)


def _old_row(param, report, selection, ell_max):
    return {"param": param, "mean": report.mean,
            **_old_cells(report, ell_max, selection),
            "flags": ";".join(report.flags)}


def _old_sweep_document(family, grid, mod, ell_max, selection, fmt, policy,
                        out_path):
    rows = []
    for param in grid:
        try:
            report = evaluate_all(build_state(family, param, policy), mod,
                                  ell_max)
        except AccuracyError:
            report = CriteriaReport(math.nan, {}, ("accuracy_failure",))
        rows.append(_old_row(param, report, selection, ell_max))
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rows[0])
        for row in rows:
            writer.writerow([_old_render(value) for value in row.values()])
        return buf.getvalue()
    doc = {"tool": "photonstat", "version": __version__, "command": "sweep",
           "sweep": {"family": family, "params": list(grid),
                     "modification": {"kind": mod.kind.value,
                                      "count": mod.count},
                     "ell_max": ell_max, "criteria": list(selection),
                     "format": fmt, "policy": policy._asdict()},
           "rows": [{k: v if k == "flags" else _old_json_cell(v)
                     for k, v in row.items()} for row in rows]}
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("sweep,token", [
    # a3_degenerate rows (fock 0 and 1 plus one photon)
    (("--family", "fock", "--param-range", "0:8:1", "--add", "1",
      "--ell-max", "4"), "DEGENERATE"),
    # an undefined row (fock 0 less one photon) among defined ones
    (("--family", "fock", "--param", "0", "--param", "1", "--param", "5",
      "--subtract", "1"), "UNDEF"),
    # an accuracy_failure row (N_2 underflows)
    (("--family", "coherent", "--param", "1", "--param", "1e-300",
      "--subtract", "2", "--ell-max", "2"), "UNDEF"),
    (("--family", "thermal", "--param-range", "0.1:1.3:0.4", "--add", "2"),
     ""),
    (ADDED_FOCK_SWEEP[1:], ""),
], ids=["fock-add", "fock-undefined", "coherent-underflow", "thermal",
        "added-fock"])
def test_sweep_bytes_match_the_per_row_rendering(capsys, sweep, token):
    assert token in run_cli(capsys, "sweep", *sweep)[1]
    for criteria in (None, "Q", "A3,Q", "Q_ell_central,d_h",
                     "d_h,Q_ell_normal"):
        for fmt in ("csv", "json"):
            argv = ["sweep", *sweep, "--format", fmt]
            if criteria:
                argv += ["--criteria", criteria]
            _, request = cli._request(cli.parse_args(argv))
            code, out, err = run_cli(capsys, *argv)
            assert code == 0 and err == ""
            assert out == _old_sweep_document(*request), argv


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


_BAD_TOL = "tol must be a finite nonnegative number"
_NO_FAMILY = "--families must name at least one family"


@pytest.mark.parametrize("argv,config,message", [
    # NaN and negative tolerances failed every cell; inf passed even an
    # undefined-versus-defined mismatch, whose deviation is inf
    (("--tol", "nan"), None, _BAD_TOL),
    (("--tol", "-1"), None, _BAD_TOL),
    (("--tol", "inf"), None, _BAD_TOL),
    ((), '{"tol": -1}', _BAD_TOL),
    (("--families", ","), None, _NO_FAMILY),
    (("--families", " "), None, _NO_FAMILY),
], ids=["tol-nan", "tol-negative", "tol-inf", "config-tol-negative",
        "families-comma", "families-blank"])
def test_selfcheck_bad_tolerance_or_empty_families_exit_1(
        tmp_path, capsys, argv, config, message):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(config, encoding="utf-8")
        argv = (*argv, "--config", str(path))
    code, out, err = run_cli(capsys, "selfcheck", *argv)
    assert code == 1 and out == ""
    assert err == f"photonstat: error: {message}\n"


def test_selfcheck_zero_tolerance_is_valid(capsys):
    code, out, _ = run_cli(capsys, "selfcheck", "--families", "fock",
                           "--tol", "0")
    assert code == 0
    assert out.endswith("selfcheck PASS\n")


def test_selfcheck_loads_no_exact_arithmetic():
    # every sum of the default suite fits float64, so neither the shortcut
    # nor the oracle reaches an exact-rational branch or imports fractions
    code = ("import contextlib, io, sys, photonstat.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = photonstat.cli.main(['selfcheck'])\n"
            "print(status, *sorted({'fractions', 'decimal'} "
            "& set(sys.modules)))\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, timeout=120)
    assert result.stderr == ""
    assert result.stdout == "0\n"


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


@pytest.mark.parametrize("argv,config,key", [
    (("criteria", "--family", "thermal", "--param", "1"), {"ell_maxx": 5},
     "ell_maxx"),
    (("criteria", "--family", "thermal", "--param", "1"),
     {"ell_max": 1, "family": "fock"}, "family"),
    (("sweep", "--family", "thermal", "--param", "1"),
     {"param_range": "0:1:0.5"}, "param_range"),
    (("selfcheck",), {"tol": 1e-9, "families": "fock"}, "families"),
], ids=["typo", "criteria-family", "sweep-param-range",
        "selfcheck-families"])
def test_config_key_no_command_reads_is_refused(tmp_path, capsys, argv,
                                                config, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, err = run_cli(capsys, *argv, "--config", str(path))
    assert (code, out) == (1, "")
    assert err == f"photonstat: error: config file {path}: unknown key " \
                  f"{key!r}\n"


def test_one_config_file_serves_every_command(tmp_path, capsys):
    # a key that only another command reads is no error
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"ell_max": 1, "criteria": "Q",
                                "format": "csv", "tol": 1e-9,
                                **DEFAULT_POLICY._asdict()}),
                    encoding="utf-8")
    for argv in (("criteria", "--family", "thermal", "--param", "1"),
                 ("sweep", "--family", "thermal", "--param", "1"),
                 ("selfcheck", "--families", "fock")):
        code, _, err = run_cli(capsys, *argv, "--config", str(path))
        assert (code, err) == (0, ""), argv


_HUGE = str(10 ** 26)


@pytest.mark.parametrize("argv,config", [
    # a count or order beyond sys.maxsize, the longest possible list
    (("criteria", "--family", "coherent", "--param", "1", "--add", _HUGE),
     None),
    (("criteria", "--family", "coherent", "--param", "1",
      "--subtract", _HUGE), None),
    (("criteria", "--family", "coherent", "--param", "1",
      "--ell-max", _HUGE), None),
    (("criteria", "--family", "coherent", "--param", "1",
      "--max-cutoff", str(10 ** 400)), None),
    (("sweep", "--family", "coherent", "--param-range", "0:1e300:1e-300"),
     None),
    # config values are read as the text of their flags
    (("criteria", "--family", "thermal", "--param", "1"),
     '{"ell_max": 1e400}'),
    (("criteria", "--family", "thermal", "--param", "1"),
     '{"max_cutoff": 1e400}'),
    (("criteria", "--family", "thermal", "--param", "1"), '{"ell_max": 2.5}'),
    (("criteria", "--family", "thermal", "--param", "1"), '{"criteria": 5}'),
    (("criteria", "--family", "thermal", "--param", "1"), '{"format": "xml"}'),
    (("selfcheck",), '{"tol": "x"}'),
    (("selfcheck",), '{"tol": [1]}'),
    (("criteria", "--family", "thermal", "--param", "1"), b"\xff{}"),
    # the policy is echoed in JSON, which has no infinity
    (("criteria", "--family", "thermal", "--param", "1", "--eps-tail",
      "inf"), None),
    (("criteria", "--family", "thermal", "--param", "1"),
     '{"rel_tol": "inf"}'),
    (("sweep", "--family", "thermal", "--param", "1"),
     '{"eps_tail": Infinity}'),
], ids=["add", "subtract", "ell-max", "max-cutoff", "param-range",
        "config-ell-max", "config-max-cutoff", "config-ell-max-float",
        "config-criteria", "config-format", "config-tol-text",
        "config-tol-list", "config-not-utf8", "eps-tail-inf",
        "config-rel-tol-inf", "config-eps-tail-infinity"])
def test_out_of_range_values_are_usage_errors(tmp_path, capsys, argv,
                                              config):
    if config is not None:
        path = tmp_path / "config.json"
        if isinstance(config, bytes):
            path.write_bytes(config)
        else:
            path.write_text(config, encoding="utf-8")
        argv = (*argv, "--config", str(path))
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("photonstat: error: ")


def _strict_json(text):
    """text parsed as JSON proper: NaN and Infinity are not JSON."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


# ------------------------------------------------------------------ fuzz

_FUZZ_PARAMS = ("0", "1e-300", "1e-100", "1e-30", "0.05", "0.5", "1", "2",
                "8", "19.5", "25", "745", "800", "200", "4000")
_CONFIG_KEYS = ("ell_max", "criteria", "format", "eps_tail", "rel_tol",
                "max_cutoff", "max_moment_order", "tol")
_CONFIG_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 64), st.just(10 ** 26),
    st.floats(), st.text(max_size=4), st.lists(st.integers(0, 3), max_size=2),
    st.sampled_from(("csv", "json", "Q,A3", "d_h")))


@st.composite
def _cli_calls(draw):
    """An argv for main and a config dict (or None) from a bounded grammar."""
    command = draw(st.sampled_from(("criteria", "sweep", "selfcheck")))
    argv = [command]

    def maybe(flag, values):
        if draw(st.booleans()):
            argv.extend((flag, str(draw(st.sampled_from(values)))))

    if command == "selfcheck":
        maybe("--tol", ("1e-8", "0", "nan"))
        maybe("--families", ("fock", "coherent,thermal", "cat"))
    else:
        argv += ["--family", draw(st.sampled_from(FAMILIES))]
        points = 1 if command == "criteria" else draw(st.integers(1, 3))
        for _ in range(points):
            argv += ["--param", draw(st.sampled_from(_FUZZ_PARAMS))]
        mod = draw(st.sampled_from((None, "--add", "--subtract")))
        if mod:
            argv += [mod, str(draw(st.integers(0, 200) | st.just(10 ** 18)))]
        maybe("--ell-max", range(61))
        maybe("--max-cutoff", (1, 16, 100, 4096))
        maybe("--eps-tail", ("1e-12", "1e-6", "0.5", "1e-300", "-1", "nan",
                             "inf"))
        maybe("--format", ("csv", "json"))
        maybe("--criteria", ("Q", "A3,d_h", ",".join(CRITERIA_TOKENS), "x"))
    config = draw(st.none() | st.dictionaries(
        st.sampled_from(_CONFIG_KEYS), _CONFIG_VALUES, max_size=3))
    return argv, config


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_cli_calls())
def test_fuzzed_invocations_exit_with_a_code_and_one_line(call):
    argv, config = call
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = os.path.join(tmp, "config.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(config, handle)
            argv = [*argv, "--config", path]
        start = time.perf_counter()
        first = _run_in_process(argv)
        elapsed = time.perf_counter() - start
        assert _run_in_process(argv) == first
    code, out, err = first
    assert code in range(5)
    assert len(err.splitlines()) <= 1
    assert elapsed < 30, argv
    if out.startswith("{"):
        _strict_json(out)
