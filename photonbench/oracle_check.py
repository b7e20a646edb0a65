"""Check CLI outputs against the package's brute-force oracle.

One operation is one sweep row or one selfcheck cell.  An operation fails
when its invocation exits with an undocumented code or prints a traceback,
when its row is missing or flagged `accuracy_failure`, or when a value in
it disagrees with the oracle beyond the selfcheck tolerance of its path.
The first three are hard failures: the program did not produce a result.
The last is a numeric failure: the result is there but off the oracle.

Sweep rows are recomputed on the distribution `build_state` returns with
the default policy, which is the one the CLI uses, through the public
oracle (`oracle_add` / `oracle_subtract`, `direct_moments`,
`direct_power_moments`) and the criteria functions applied to the
oracle's moments.
"""

import csv
import io
import math
import re
from dataclasses import dataclass, field

# the selfcheck tolerances of the two paths (photonstat.oracle defaults)
TOL_SUBTRACT = 1e-9
TOL_ADD = 1e-8

UNDEF = "UNDEF"
DEGENERATE = "DEGENERATE"
ACCURACY = "accuracy_failure"

_SELFCHECK_TOTAL = re.compile(
    r"^selfcheck: (\d+) cells, worst rel dev (\S+) at (.*)$", re.M)


@dataclass
class Verdict:
    """Outcome of checking one invocation's output."""

    attempted: int = 0
    failed: int = 0
    hard: list = field(default_factory=list)   # reasons, one per problem
    worst_dev: float = 0.0
    worst_at: str = ""
    failures: list = field(default_factory=list)  # first few failed ops

    def note(self, dev, where, tol):
        if dev > self.worst_dev or not self.worst_at:
            self.worst_dev, self.worst_at = dev, where
        if dev > tol:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{where}: rel dev {dev:.3e} > {tol:g}")

    def fail_all(self, reason):
        self.hard.append(reason)
        self.failed = self.attempted

    def as_dict(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "hard_failures": self.hard,
                "worst_rel_dev": self.worst_dev, "worst_at": self.worst_at,
                "first_failures": self.failures}


def check(inv, code, stdout, stderr):
    """Verdict for one invocation given its exit code and output text."""
    if inv.is_sweep:
        return _check_sweep(inv, code, stdout, stderr)
    return _check_selfcheck(code, stdout, stderr)


def _check_selfcheck(code, stdout, stderr):
    v = Verdict()
    total = _SELFCHECK_TOTAL.search(stdout)
    v.attempted = int(total.group(1)) if total else 1
    if total:
        v.worst_dev, v.worst_at = float(total.group(2)), total.group(3)
    v.failed = len(re.findall(r"^FAIL ", stdout, re.M))
    if "Traceback" in stderr:
        v.fail_all("traceback on stderr")
    elif code != 0 or not total or "selfcheck PASS" not in stdout:
        v.fail_all(f"exit {code}, no 'selfcheck PASS'")
    return v


def _cell(text):
    """A rendered CSV cell as a float or marker; None when unparseable."""
    if text == UNDEF:
        return math.nan
    if text == DEGENERATE:
        return DEGENERATE
    try:
        return float(text)
    except ValueError:
        return None


def _dev(a, b):
    """selfcheck's criterion deviation: |a-b| / max(|a|, |b|, 1)."""
    if a is None:
        return math.inf
    if a == DEGENERATE or b == DEGENERATE:
        return 0.0 if a == b else math.inf
    if math.isnan(a) or math.isnan(b):
        return 0.0 if math.isnan(a) and math.isnan(b) else math.inf
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def sweep_columns(ell):
    """The CSV header `photonstat sweep` prints with every criterion."""
    return (["param", "mean", "Q"]
            + [f"Q{l}_normal" for l in range(1, ell + 1)]
            + [f"Q{l}_central" for l in range(1, ell + 1)]
            + [f"dh{h}" for h in range(1, ell + 1)] + ["A3", "flags"])


def oracle_row(inv, param):
    """Every column of a sweep row recomputed by brute force, or None when
    the modification annihilates the state.  Raises AccuracyError when no
    admissible cutoff exists."""
    import photonstat as ps

    ell = inv.ell_max
    x_max = max(2 * ell, ell + 1, 4)
    dist = ps.build_state(inv.family, param)
    apply = ps.oracle_add if inv.kind == "add" else ps.oracle_subtract
    try:
        ref = apply(dist, inv.count, x_max)
    except ps.UndefinedStateError:
        return None
    m = ps.direct_moments(ref.dist, x_max)
    mu = ps.direct_power_moments(ref.dist, x_max)
    row = {"mean": m[1], "Q": ps.mandel_q(float(m[1]), float(m[2]))}
    for l in range(1, ell + 1):
        row[f"Q{l}_normal"] = ps.q_ell_normal(m, l)
    for l in range(1, ell + 1):
        row[f"Q{l}_central"] = ps.q_ell_central(mu, l)
    for h in range(1, ell + 1):
        row[f"dh{h}"] = ps.lee_dh(m, h + 1)
    row["A3"] = ps.agarwal_tara(m, mu=mu)
    return {k: DEGENERATE if isinstance(v, ps.DegenerateA3) else float(v)
            for k, v in row.items()}


def _reference(inv, param):
    from photonstat import AccuracyError

    try:
        return oracle_row(inv, param)
    except AccuracyError:
        return ACCURACY


def _check_sweep(inv, code, stdout, stderr):
    v = Verdict(attempted=len(inv.params))
    if "Traceback" in stderr:
        v.fail_all("traceback on stderr")
        return v
    refs = [_reference(inv, p) for p in inv.params]
    # sweep exits non-zero only when no row has a result
    expected = 0
    if all(r is None or r is ACCURACY for r in refs):
        expected = 3 if ACCURACY in refs else 2
    if code != expected:
        v.fail_all(f"exit {code}, expected {expected}")
        return v
    table = list(csv.reader(io.StringIO(stdout)))
    header = sweep_columns(inv.ell_max)
    if not table or table[0] != header:
        v.fail_all("unexpected CSV header")
        return v
    rows = table[1:]
    if len(rows) > len(inv.params):
        v.hard.append(f"{len(rows) - len(inv.params)} unexpected extra rows")
    tol = TOL_ADD if inv.kind == "add" else TOL_SUBTRACT
    for i, (param, ref) in enumerate(zip(inv.params, refs)):
        where = f"{inv.family}({param!r}) {inv.kind}{inv.count}"
        if i >= len(rows) or len(rows[i]) != len(header) \
                or _cell(rows[i][0]) != float(param):
            v.hard.append(f"{where}: row missing")
            v.failed += 1
            continue
        row = dict(zip(header, rows[i]))
        flags = row["flags"].split(";")
        if "accuracy_failure" in flags or ref is ACCURACY:
            v.hard.append(f"{where}: accuracy_failure")
            v.failed += 1
            continue
        if ref is None:
            ok = "undefined_state" in flags and all(
                row[c] == UNDEF for c in header if c not in ("param", "flags"))
            v.note(0.0 if ok else math.inf, f"{where} undefined", tol)
            continue
        dev, worst = max((_dev(_cell(row[k]), ref[k]), k) for k in ref)
        v.note(dev, f"{where} {worst}", tol)
    return v
