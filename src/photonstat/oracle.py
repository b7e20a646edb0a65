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
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .criteria import (
    DegenerateA3,
    criteria_from_moments,
    evaluate_all,
    moment_order,
)
from .exceptions import CancellationWarning, UndefinedStateError
from .moments import ModKind, StateModification, modified_moment_sequence
from .states import DEFAULT_POLICY, NumberDistribution, build_state

DEFAULT_SUITE_STATES = (
    ("coherent", 0.5), ("coherent", 1.0), ("coherent", 2.0),
    ("thermal", 0.5), ("thermal", 1.0), ("thermal", 2.0),
    ("squeezed", 0.3), ("squeezed", 0.8),
    ("fock", 0), ("fock", 1), ("fock", 2), ("fock", 3), ("fock", 4),
)

# cancellation budget is larger on the addition path (alternating sums)
DEFAULT_TOL_SUBTRACT = 1e-9
DEFAULT_TOL_ADD = 1e-8


@dataclass(frozen=True)
class OracleResult:
    """Modified distribution, its direct moments, and the raw norm weight."""

    dist: NumberDistribution
    moments: np.ndarray
    norm_constant: float


def _falling(n, k):
    w = 1
    for j in range(k):
        w *= n - j
    return w


def direct_moments(dist, x_max):
    """Factorial moments m_0..m_{x_max} by direct summation over the pmf.

    Integer falling-factorial weights, fsum accumulation; falls back to
    exact rational arithmetic if a term overflows float64.
    """
    probs = dist.probs
    out = np.empty(x_max + 1)
    for x in range(x_max + 1):
        try:
            out[x] = math.fsum(
                float(_falling(n, x)) * probs[n]
                for n in range(x, probs.size) if probs[n] != 0.0)
        except OverflowError:
            exact = sum(_falling(n, x) * Fraction(float(probs[n]))
                        for n in range(x, probs.size) if probs[n] != 0.0)
            out[x] = float(exact)  # may legitimately overflow: let it raise
    return out


def direct_power_moments(dist, z_max):
    """Raw moments mu_z = sum_n n^z p_n by direct summation."""
    probs = dist.probs
    return np.array([
        math.fsum(float(n ** z) * probs[n]
                  for n in range(probs.size) if probs[n] != 0.0)
        for z in range(z_max + 1)
    ])


def oracle_subtract(dist, n, x_max=4):
    """Apply n-fold photon subtraction at the distribution level.

    q_j is proportional to (j+n)!/j! * p_{j+n}; the raw total is the
    normally ordered norm constant N_n of the base state.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    probs = dist.probs
    if n > dist.cutoff:
        raise UndefinedStateError(
            f"subtracting {n} photons annihilates the state (support ends "
            f"at {dist.cutoff})")
    raw = np.array([float(_falling(j + n, n)) * probs[j + n]
                    for j in range(probs.size - n)])
    norm = math.fsum(raw)
    if norm <= 0.0:
        raise UndefinedStateError(
            f"subtracting {n} photons annihilates the state (N_{n} = 0)")
    out = NumberDistribution(raw / norm, 0.0)
    return OracleResult(out, direct_moments(out, x_max), norm)


def oracle_add(dist, m, x_max=4):
    """Apply m-fold photon addition at the distribution level.

    q_j is proportional to j!/(j-m)! * p_{j-m} for j >= m; the support
    shifts up by m, and the raw total is the anti-normally ordered norm
    constant N_m of the base state.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    probs = dist.probs
    raw = np.zeros(probs.size + m)
    for j in range(m, probs.size + m):
        raw[j] = float(_falling(j, m)) * probs[j - m]
    norm = math.fsum(raw)
    out = NumberDistribution(raw / norm, 0.0)
    return OracleResult(out, direct_moments(out, x_max), norm)


def apply_modification(dist, mod, x_max=4):
    if mod.kind is ModKind.ADD and mod.count > 0:
        return oracle_add(dist, mod.count, x_max)
    return oracle_subtract(dist, mod.count, x_max)


@dataclass(frozen=True)
class EquivalenceCell:
    family: str
    param: float
    mod: str           # e.g. "subtract2", "add1"
    quantity: str      # "m0".."m4", "Q", "Q2_normal", "dh1", "A3", "undefined"
    shortcut: float
    oracle: float
    rel_dev: float
    tol: float

    @property
    def passed(self):
        return self.rel_dev <= self.tol

    def line(self):
        status = "ok" if self.passed else "FAIL"
        return (f"{self.family}({self.param!r}) {self.mod} {self.quantity}: "
                f"shortcut={self.shortcut!r} oracle={self.oracle!r} "
                f"rel_dev={self.rel_dev:.3e} {status}")


@dataclass
class EquivalenceReport:
    cells: list

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
                      tol_subtract=DEFAULT_TOL_SUBTRACT,
                      tol_add=DEFAULT_TOL_ADD,
                      ell_max=2, policy=DEFAULT_POLICY):
    """Compare ladder shortcuts against the brute-force path, cell by cell.

    For every (base state, modification) the factorial moments m_0..m_x_max
    and every criterion are computed along both routes.  Cells record the
    relative deviation; a cell fails when it exceeds the tolerance of its
    path (subtraction vs addition).
    """
    cells = []
    crit_x = moment_order(ell_max)
    mods = [StateModification.subtract(n) for n in range(n_max + 1)]
    mods += [StateModification.add(m) for m in range(1, m_max + 1)]
    for family, param in states:
        dist = build_state(family, param, policy)
        for mod in mods:
            tol = tol_add if mod.kind is ModKind.ADD else tol_subtract
            tag = f"{mod.kind.value}{mod.count}"
            moment_x = max(x_max, crit_x)
            try:
                ref = apply_modification(dist, mod, moment_x)
            except UndefinedStateError:
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", CancellationWarning)
                        modified_moment_sequence(dist, mod, x_max)
                    dev = math.inf  # shortcut failed to notice annihilation
                except UndefinedStateError:
                    dev = 0.0
                cells.append(EquivalenceCell(
                    family, param, tag, "undefined", math.nan, math.nan,
                    dev, tol))
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CancellationWarning)
                shortcut_m = modified_moment_sequence(dist, mod, x_max)
            for x in range(x_max + 1):
                a, b = float(shortcut_m[x]), float(ref.moments[x])
                cells.append(EquivalenceCell(
                    family, param, tag, f"m{x}", a, b, _moment_dev(a, b), tol))
            ours = evaluate_all(dist, mod, ell_max).cells(ell_max)
            theirs = criteria_from_moments(
                ref.moments, direct_power_moments(ref.dist, crit_x),
                ell_max).cells(ell_max)
            for key, a in ours.items():
                b = theirs[key]
                cells.append(EquivalenceCell(
                    family, param, tag, key, _as_float(a), _as_float(b),
                    _criterion_dev(a, b), tol))
    return EquivalenceReport(cells)
