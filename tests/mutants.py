"""Mutation table: each planted error in the package must fail a check.

Each mutant replaces one text, which must occur exactly once, in one
module of a fresh temporary copy of src/; the working tree is never
touched.  Two gates run on each copy, one mutant at a time:

* selfcheck: `python -m photonstat selfcheck`, killed by a nonzero exit
* acceptance: `pytest -q tests/test_acceptance.py` against the copy

The unmutated copy must pass both gates first.  The tool prints one row
per mutant and exits 1 when an outcome differs from the one written
beside the mutant; a new mutant is one more entry of MUTANTS.  It uses
the standard library alone, plus pytest for the acceptance gate.

    python tests/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KILLED, SURVIVED = "killed", "survived"

# (name, module, old text, new text, expected selfcheck outcome, expected
# acceptance outcome)
MUTANTS = (
    ("q_ell_normal sign", "criteria.py", 'return _evaluate("Q_ell_normal", m, ell)[0]', 'return -_evaluate("Q_ell_normal", m, ell)[0]', KILLED, KILLED),
    ("Poisson O_{r>=4} x1.001", "criteria.py", "        row.append(value)", "        row.append(value * (1.001 if r >= 3 else 1))", KILLED, KILLED),
    ("_vandermonde_row plus one", "moments.py", "math.comb(r, i) * math.perm(m, i)", "math.comb(r, i) * math.perm(m, i) + 1", KILLED, KILLED),
    ("Stirling S(4,4) = 2", "criteria.py", "for k in range(1, z)], 1)", "for k in range(1, z)], 1 + (z == 4))", KILLED, KILLED),
    ("lee_dh index", "criteria.py", "(1, 0, (ell,))", "(1, 0, (ell - 1,))", KILLED, KILLED),
    ("A3 determinant sign", "criteria.py", "return det_m / denom", "return -det_m / denom", KILLED, KILLED),
    ("subtracted ladder shift", "moments.py", "norm = ladder.values[m]", "norm = ladder.values[m + 1]", KILLED, KILLED),
    ("oracle ModKind swapped", "oracle.py", "if mod.kind is ModKind.ADD and", "if mod.kind is ModKind.SUBTRACT and", KILLED, KILLED),
    ("DET_DEGENERACY_TOL x10", "criteria.py", "DET_DEGENERACY_TOL = 1e-10", "DET_DEGENERACY_TOL = 1e-9", SURVIVED, SURVIVED),
    ("Hankel term sign", "criteria.py", "(-1, 0, (0, 3, 3))", "(1, 0, (0, 3, 3))", KILLED, KILLED),
    ("Q numerator sign", "criteria.py", "(-1, 0, (1, 1)), (1, 0, (2,))", "(1, 0, (1, 1)), (1, 0, (2,))", KILLED, KILLED),
    ("Lee power sign", "criteria.py", "(-1) ** (ell + 1)", "(-1) ** ell", KILLED, KILLED),
    ("Q^(l) power off by one", "criteria.py", "(c, 2 * ell - j, (j,))", "(c, 2 * ell - j + 1, (j,))", KILLED, KILLED),
)

GATE_TIMEOUT = 600  # seconds; the acceptance gate takes a few


def _copy_src(tmp):
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def _gates(src):
    """The exit codes of (selfcheck, acceptance) with src first on the
    path."""
    env = {**os.environ, "PYTHONPATH": str(src),
           "PYTHONDONTWRITEBYTECODE": "1"}
    commands = (
        [sys.executable, "-m", "photonstat", "selfcheck"],
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_acceptance.py")],
    )
    return tuple(subprocess.run(command, cwd=src.parent, env=env,
                                capture_output=True,
                                timeout=GATE_TIMEOUT).returncode
                 for command in commands)


def main():
    package = ROOT / "src" / "photonstat"
    for name, module, old, _, _, _ in MUTANTS:
        count = (package / module).read_text().count(old)
        if count != 1:
            sys.exit(f"mutants: {name}: {old!r} occurs {count} times in "
                     f"{module}, not once")
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy_src(tmp)
        # an installed package must not shadow the copy
        imported = subprocess.run(
            [sys.executable, "-c",
             "import photonstat; print(photonstat.__file__)"],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
            text=True, check=True).stdout.strip()
        if not imported.startswith(str(src)):
            sys.exit(f"mutants: the copy is not imported: {imported}")
        if _gates(src) != (0, 0):
            sys.exit("mutants: the unmutated copy fails a gate")
    print(f"{'mutant':<28} {'selfcheck':<15} {'acceptance':<15} verdict")
    mismatches = 0
    for name, module, old, new, *expected in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            src = _copy_src(tmp)
            path = src / "photonstat" / module
            path.write_text(path.read_text().replace(old, new))
            codes = _gates(src)
        outcome = [KILLED if code else SURVIVED for code in codes]
        verdict = "as expected" if outcome == expected else (
            f"EXPECTED {'/'.join(expected)}")
        mismatches += verdict != "as expected"
        cells = [f"{o} ({code})" for o, code in zip(outcome, codes)]
        print(f"{name:<28} {cells[0]:<15} {cells[1]:<15} {verdict}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
