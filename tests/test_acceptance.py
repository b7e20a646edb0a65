"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS line on success (run with -s to see them);
a failed assertion is the corresponding FAIL.
"""

import csv
import io
import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from photonstat import (
    DEFAULT_SUITE_STATES,
    DegenerateA3,
    StateModification,
    UndefinedStateError,
    build_state,
    direct_moments,
    direct_power_moments,
    equivalence_suite,
    evaluate_all,
    mandel_q,
    modified_moment_sequence,
    mu_from_m,
    oracle_subtract,
)
from photonstat.cli import main
from photonstat.moments import ladder_sums_exact

from helpers import q_added_ref, q_subtracted_ref, reorder_coefficients


def _ok(name):
    print(f"ACCEPTANCE {name}: PASS")


def _close(a, b, rel, floor=1e-12):
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), floor)


def test_coherent_nullity():
    started = time.perf_counter()
    for alpha_sq in (0.25, 0.5, 1.0, 2.0, 4.0):
        dist = build_state("coherent", alpha_sq)
        for n in range(4):
            report = evaluate_all(dist, StateModification.subtract(n),
                                  ell_max=3)
            for value in report.cells.values():
                assert not isinstance(value, DegenerateA3)
                assert abs(value) <= 1e-9, (alpha_sq, n, value)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"coherent nullity took {elapsed:.2f}s"
    _ok("coherent nullity")


def test_thermal_fixed_points():
    for i in range(1, 21):
        nbar = i / 10.0
        dist = build_state("thermal", nbar)
        report = evaluate_all(dist, ell_max=1)
        assert abs(report.cells["Q"] - nbar) <= 1e-9
        normal = ladder_sums_exact(dist.probs, 5)
        for n in (1, 2, 3):
            q = evaluate_all(dist, StateModification.subtract(n),
                             1).cells["Q"]
            assert abs(q - nbar) <= 1e-9
            assert abs(q_subtracted_ref(normal, n) - Fraction(nbar)) <= 1e-9
    # oracle confirmation on a representative point
    sub = oracle_subtract(build_state("thermal", 1.0), 2)
    q_oracle = mandel_q(float(sub.moments[1]), float(sub.moments[2]))
    assert abs(q_oracle - 1.0) <= 1e-9
    _ok("thermal fixed points")


def test_fock_fixed_points():
    for n in range(1, 7):
        report = evaluate_all(build_state("fock", n), ell_max=1)
        assert abs(report.cells["Q"] + 1.0) <= 1e-12
    two = evaluate_all(build_state("fock", 2), ell_max=2)
    assert abs(two.cells["A3"] + 1.0) <= 1e-10
    one = evaluate_all(build_state("fock", 1), ell_max=2)
    assert isinstance(one.cells["A3"], DegenerateA3)
    for n in range(7):
        with pytest.raises(UndefinedStateError):
            modified_moment_sequence(build_state("fock", n),
                                     StateModification.subtract(n + 1), 1)
    _ok("fock fixed points")


def test_photon_added_exactness_on_fock_inputs():
    for n in (0, 1):  # result states |1> and |2>
        dist = build_state("fock", n)
        q = evaluate_all(dist, StateModification.add(1),
                         ell_max=1).cells["Q"]
        assert abs(q + 1.0) <= 1e-12
        assert q_added_ref(ladder_sums_exact(dist.probs, 3), 1) == -1
    _ok("photon-added exactness on fock inputs")


def test_shortcut_oracle_equivalence():
    started = time.perf_counter()
    report = equivalence_suite(DEFAULT_SUITE_STATES, tol=1e-9)
    elapsed = time.perf_counter() - started
    assert report.passed, [c.line() for c in report.failures()][:10]
    assert elapsed < 60.0, f"equivalence suite took {elapsed:.1f}s"
    _ok(f"shortcut-oracle equivalence ({len(report.cells)} cells, "
        f"worst {report.worst.rel_dev:.2e}, {elapsed:.1f}s)")


def test_specialization_consistency():
    # the closed forms straight off the ladder, in exact rationals, against
    # Q of the modified state's moments
    for family, param in DEFAULT_SUITE_STATES:
        dist = build_state(family, param)
        normal = ladder_sums_exact(dist.probs, 6)
        for n in range(4):
            if normal[n] == 0 or normal[n + 1] == 0:
                continue
            direct = float(q_subtracted_ref(normal, n))
            m = modified_moment_sequence(dist, StateModification.subtract(n), 2)
            generic = mandel_q(float(m[1]), float(m[2]))
            assert _close(direct, generic, 1e-10), (family, param, n)
        for m_add in range(1, 5):
            direct = float(q_added_ref(normal, m_add))
            m = modified_moment_sequence(dist, StateModification.add(m_add), 2)
            generic = mandel_q(float(m[1]), float(m[2]))
            assert _close(direct, generic, 1e-10), (family, param, m_add)
    _ok("specialization consistency")


def test_reordering_identity_exact():
    # integer matrices in the monomial ladder representation
    # (lowering L[n-1,n] = n, raising R[n+1,n] = 1)
    dim = 16
    lower = np.zeros((dim, dim), dtype=object)
    raise_ = np.zeros((dim, dim), dtype=object)
    identity = np.array([[int(i == j) for j in range(dim)]
                         for i in range(dim)], dtype=object)
    for n in range(1, dim):
        lower[n - 1, n] = n
        raise_[n, n - 1] = 1

    def matpow(mat, power):
        out = identity
        for _ in range(power):
            out = out @ mat
        return out

    for x in range(7):
        lhs = matpow(raise_, x) @ matpow(lower, x)
        rhs = np.zeros((dim, dim), dtype=object)
        for k, coeff in enumerate(reorder_coefficients(x)):
            rhs = rhs + coeff * (matpow(lower, x - k) @ matpow(raise_, x - k))
        interior = dim - x
        assert (lhs[:interior, :interior] == rhs[:interior, :interior]).all()
    _ok("reordering identity (x <= 6, exact integers)")


def test_order_one_coincidence_and_lee_identity():
    mods = [StateModification.subtract(n) for n in range(4)]
    mods += [StateModification.add(m) for m in range(1, 5)]
    checked = 0
    for family, param in DEFAULT_SUITE_STATES:
        dist = build_state(family, param)
        for mod in mods:
            report = evaluate_all(dist, mod, ell_max=2)
            if report.undefined or report.mean == 0.0:
                continue
            q = report.cells["Q"]
            assert _close(report.cells["Q1_normal"], q, 1e-12, floor=1e-13)
            assert _close(report.cells["Q1_central"], q, 1e-12, floor=1e-13)
            assert _close(report.cells["dh1"], report.mean * q, 1e-12,
                          floor=1e-13)
            checked += 1
    assert checked > 50
    # documented divergence of the two generalized forms at l = 2 on |1>
    report = evaluate_all(build_state("fock", 1), ell_max=2)
    assert abs(report.cells["Q2_central"] - (-1.0)) <= 1e-10
    assert abs(report.cells["Q2_normal"] - (-0.75)) <= 1e-10
    _ok(f"order-1 coincidence and Lee identity ({checked} states)")


def test_stirling_conversion_against_direct_power_sums():
    for family, param in DEFAULT_SUITE_STATES:
        dist = build_state(family, param)
        converted = mu_from_m(direct_moments(dist, 6))
        direct = direct_power_moments(dist, 6)
        for z in range(7):
            a, b = float(converted[z]), float(direct[z])
            if a == b == 0.0:
                continue
            assert abs(a - b) <= 1e-10 * max(abs(a), abs(b)), (family, param, z)
    _ok("stirling conversion matches direct power sums")


def test_cli_contract(tmp_path, capsys):
    # exit 0 with the advertised value
    assert main(["criteria", "--family", "thermal", "--param", "1",
                 "--add", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert math.isclose(doc["Q"], 1.0 / 3.0, abs_tol=1e-9)

    # exit 1 on usage problems
    assert main(["criteria", "--family", "thermal"]) == 1
    capsys.readouterr()

    # exit 2 on annihilated states
    assert main(["criteria", "--family", "fock", "--param", "2",
                 "--subtract", "3"]) == 2
    assert "state annihilated" in capsys.readouterr().err

    # exit 4 when the self-check cannot reach the requested tolerance
    assert main(["selfcheck", "--tol", "1e-15"]) == 4
    capsys.readouterr()

    # exit 0 self-check on the exact family
    assert main(["selfcheck", "--families", "fock"]) == 0
    assert "selfcheck PASS" in capsys.readouterr().out

    # byte-identical CSV across repeat invocations, in fresh processes
    cmd = [sys.executable, "-m", "photonstat", "sweep", "--family",
           "thermal", "--param-range", "0.1:1.0:0.3", "--add", "1"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    rows = list(csv.DictReader(io.StringIO(first.stdout.decode())))
    assert len(rows) == 4
    _ok("cli contract")
