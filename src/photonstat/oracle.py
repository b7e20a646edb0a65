"""Brute-force reference path for every ladder shortcut.

Photon subtraction and addition act directly on the number distribution
(the maps scale diagonal weights, so phases never enter): subtraction
moves weight p_{j+n} down to j with the falling-factorial factor, addition
moves p_{j-m} up to j with the rising one.  The modified distribution is
renormalized and its moments are recomputed by direct summation, entirely
independently of the normalization-ladder algebra in ``moments``.

``equivalence_suite`` drives both paths over a grid of base states and
modifications and reports every cell; it is the package's self-check.
"""

import math
from collections import namedtuple
from fractions import Fraction

from .criteria import (
    DegenerateA3,
    criteria_from_moments,
    evaluate_all,
    moment_order,
)
from .exceptions import UndefinedStateError
from .moments import ModKind, StateModification, checked_fsum, zero_norm_error
from .states import DEFAULT_POLICY, NumberDistribution, build_state

DEFAULT_SUITE_STATES = (
    ("coherent", 0.5), ("coherent", 1.0), ("coherent", 2.0),
    ("thermal", 0.5), ("thermal", 1.0), ("thermal", 2.0),
    ("squeezed", 0.3), ("squeezed", 0.8),
    ("fock", 0), ("fock", 1), ("fock", 2), ("fock", 3), ("fock", 4),
)

DEFAULT_TOL = 1e-9


class OracleResult(namedtuple("OracleResult", "dist moments norm_constant")):
    """Modified distribution, its direct moments (a list of floats), and
    the raw norm weight."""

    __slots__ = ()


def _weighted(weight, probs, quantity, *args):
    """[weight(n) * p_n for each n] as floats, and its fsum; weight(n) is
    an exact integer, read where p_n is nonzero.  A weight beyond float64
    makes the terms exact, so only a sum beyond float64 raises
    AccuracyError naming quantity.format(*args)."""
    try:
        terms = [float(weight(n)) * p if p else 0.0
                 for n, p in enumerate(probs)]
    except OverflowError:
        exact = [weight(n) * Fraction(p) if p else 0
                 for n, p in enumerate(probs)]
        # fsum of the one exact total rounds it, or names its overflow
        total = checked_fsum((sum(exact),), quantity, *args)
        return [float(t) for t in exact], total  # each at most the total
    return terms, checked_fsum(terms, quantity, *args)


def direct_moments(dist, x_max):
    """Factorial moments m_0..m_{x_max} by direct summation over the pmf.

    Integer falling-factorial weights, fsum accumulation; falls back to
    exact rational arithmetic if a weight overflows float64, and raises
    AccuracyError if the moment does.  Returns a list of floats.
    """
    return [_weighted(lambda n: math.perm(n, x), dist.probs,
                      "direct factorial moment m_{}", x)[1]
            for x in range(x_max + 1)]


def direct_power_moments(dist, z_max):
    """Raw moments mu_z = sum_n n^z p_n, summed as in direct_moments."""
    return [_weighted(lambda n: n ** z, dist.probs, "direct raw moment mu_{}",
                      z)[1]
            for z in range(z_max + 1)]


def oracle_subtract(dist, n, x_max=4):
    """Apply n-fold photon subtraction at the distribution level.

    q_j is proportional to (j+n)!/j! * p_{j+n}; the raw total is the
    normally ordered norm constant N_n of the base state.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    # empty, with norm 0, when n exceeds the cutoff
    raw, norm = _weighted(lambda j: math.perm(j + n, n), dist.probs[n:],
                          "normally ordered norm constant N_{}", n)
    if norm <= 0.0:
        raise zero_norm_error(dist, n)
    out = NumberDistribution([w / norm for w in raw], 0.0)
    return OracleResult(out, direct_moments(out, x_max), norm)


def oracle_add(dist, m, x_max=4):
    """Apply m-fold photon addition at the distribution level.

    q_j is proportional to j!/(j-m)! * p_{j-m} for j >= m; the support
    shifts up by m, and the raw total is the anti-normally ordered norm
    constant N_m of the base state.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    raw, norm = _weighted(lambda j: math.perm(j + m, m), dist.probs,
                          "anti-normally ordered norm constant N_{}", m)
    out = NumberDistribution([0.0] * m + [w / norm for w in raw], 0.0)
    return OracleResult(out, direct_moments(out, x_max), norm)


def apply_modification(dist, mod, x_max=4):
    if mod.kind is ModKind.ADD and mod.count > 0:
        return oracle_add(dist, mod.count, x_max)
    return oracle_subtract(dist, mod.count, x_max)


class EquivalenceCell(namedtuple(
        "EquivalenceCell",
        "family param mod quantity shortcut oracle rel_dev tol")):
    """One compared quantity.  mod is a tag such as "subtract2" or "add1";
    quantity is "m0".."m4", "Q", "Q2_normal", "dh1", "A3" or "undefined"."""

    __slots__ = ()

    @property
    def passed(self):
        return self.rel_dev <= self.tol

    def line(self):
        status = "ok" if self.passed else "FAIL"
        return (f"{self.family}({self.param!r}) {self.mod} {self.quantity}: "
                f"shortcut={self.shortcut!r} oracle={self.oracle!r} "
                f"rel_dev={self.rel_dev:.3e} {status}")


class EquivalenceReport:
    """Every cell of one equivalence_suite run; cells is a list."""

    def __init__(self, cells):
        self.cells = cells

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.cells == other.cells

    @property
    def passed(self):
        return all(c.passed for c in self.cells)

    @property
    def worst(self):
        return max(self.cells, key=lambda c: c.rel_dev)

    @property
    def max_rel_dev(self):
        return self.worst.rel_dev

    def failures(self):
        return [c for c in self.cells if not c.passed]

    def to_text(self):
        lines = ["photonstat equivalence report",
                 f"cells={len(self.cells)} "
                 f"worst_rel_dev={self.max_rel_dev:.6e} "
                 f"result={'PASS' if self.passed else 'FAIL'}", ""]
        lines.extend(c.line() for c in self.cells)
        return "\n".join(lines) + "\n"


def _moment_dev(a, b):
    # both sides are nonnegative moments; exact zeros must agree exactly
    if a == b:
        return 0.0
    denom = max(abs(a), abs(b))
    return abs(a - b) / denom


def _criterion_dev(a, b):
    # criteria are O(1)-scaled and can be true zeros with float dust on
    # both sides, so deviation is measured against max(|a|, |b|, 1)
    a_nan, b_nan = isinstance(a, float) and math.isnan(a), \
        isinstance(b, float) and math.isnan(b)
    a_deg, b_deg = isinstance(a, DegenerateA3), isinstance(b, DegenerateA3)
    if a_nan or b_nan:
        return 0.0 if a_nan and b_nan else math.inf
    if a_deg or b_deg:
        return 0.0 if a_deg and b_deg else math.inf
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def _as_float(value):
    if isinstance(value, DegenerateA3):
        return math.nan
    return float(value)


def equivalence_suite(states=DEFAULT_SUITE_STATES, n_max=3, m_max=4, x_max=4,
                      tol=DEFAULT_TOL, ell_max=2, policy=DEFAULT_POLICY):
    """Compare ladder shortcuts against the brute-force path, cell by cell.

    For every (base state, modification) the factorial moments m_0..m_x_max
    and every criterion are computed along both routes.  Cells record the
    relative deviation; a cell fails when it exceeds tol.
    """
    cells = []
    crit_x = moment_order(ell_max)
    moment_x = max(x_max, crit_x)
    # one report whose moments reach x_max serves every shortcut cell
    report_ell = max(ell_max, (x_max + 1) // 2)
    mods = [StateModification.subtract(n) for n in range(n_max + 1)]
    mods += [StateModification.add(m) for m in range(1, m_max + 1)]
    for family, param in states:
        dist = build_state(family, param, policy)
        for mod in mods:
            tag = f"{mod.kind.value}{mod.count}"
            report = evaluate_all(dist, mod, report_ell)
            try:
                ref = apply_modification(dist, mod, moment_x)
            except UndefinedStateError:
                ref = None
            if report.undefined or ref is None:
                # both paths must see the annihilation
                dev = 0.0 if report.undefined and ref is None else math.inf
                cells.append(EquivalenceCell(
                    family, param, tag, "undefined", math.nan, math.nan,
                    dev, tol))
                continue
            for x in range(x_max + 1):
                a, b = report.moments[x], float(ref.moments[x])
                cells.append(EquivalenceCell(
                    family, param, tag, f"m{x}", a, b, _moment_dev(a, b), tol))
            theirs = criteria_from_moments(
                ref.moments, direct_power_moments(ref.dist, crit_x),
                ell_max).cells(ell_max)
            for key, a in report.cells(ell_max).items():
                b = theirs[key]
                cells.append(EquivalenceCell(
                    family, param, tag, key, _as_float(a), _as_float(b),
                    _criterion_dev(a, b), tol))
    return EquivalenceReport(cells)
