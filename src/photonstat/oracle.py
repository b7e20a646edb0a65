"""Brute-force reference path for every ladder shortcut.

Photon subtraction and addition act directly on the number distribution
(the maps scale diagonal weights, so phases never enter): subtraction
moves weight p_{j+n} down to j with the falling-factorial factor, addition
moves p_{j-m} up to j with the rising one.  The modified distribution is
renormalized and its moments are recomputed by direct summation, entirely
independently of the normalization-ladder algebra in ``moments``.  Like
that algebra, no sum reads a built pmf past the order its cutoff was
checked at: ``moments.check_ladder_order`` refuses it.

``equivalence_suite`` drives both paths over a grid of base states and
modifications and reports every cell; it is the package's self-check.
"""

import math
from collections import namedtuple
from itertools import compress, repeat
from operator import add, mul, truediv

from .criteria import (
    DegenerateA3,
    criteria_from_moments,
    evaluate_all,
    moment_order,
)
from .exceptions import AccuracyError, UndefinedStateError
from .kernels import exact_fsum
from .moments import (
    ModKind,
    StateModification,
    _proves_overflow,
    check_ladder_order,
    normal_ladder,
    zero_norm_error,
)
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


def _occupied(probs):
    """The photon numbers n with p_n != 0, and those p_n."""
    return (list(compress(range(len(probs)), probs)),
            list(compress(probs, probs)))


def _weight_rows(ns, shifts):
    """Exact integer weight rows over the photon numbers ns: first all
    ones, then for each shift the previous row times n + shift, one
    multiplication per entry."""
    row = [1] * len(ns)
    yield row
    for shift in shifts:
        row = list(map(mul, row,
                       map(add, ns, repeat(shift)) if shift else ns))
        yield row


def direct_moments(dist, x_max):
    """Factorial moments m_0..m_{x_max} by direct summation over the pmf.

    Falling-factorial weights (n)_x as exact integer rows, the row of x
    from that of x - 1, each summed by kernels.exact_fsum: exact rational
    arithmetic where a weight or the sum leaves float64, AccuracyError
    where the moment does.  Returns a list of floats.
    """
    check_ladder_order(dist, x_max)
    ns, ps = _occupied(dist.probs)
    return [exact_fsum(row, ps, "direct factorial moment m_{}", x)
            for x, row in enumerate(_weight_rows(ns, range(0, -x_max, -1)))]


def direct_power_moments(dist, z_max):
    """Raw moments mu_z = sum_n n^z p_n, the weight row of z that of z - 1
    times n, summed as in direct_moments."""
    check_ladder_order(dist, z_max)
    ns, ps = _occupied(dist.probs)
    return [exact_fsum(row, ps, "direct raw moment mu_{}", z)
            for z, row in enumerate(_weight_rows(ns, repeat(0, z_max)))]


def _raised(probs, count, quantity):
    """q_j = (j+1)(j+2)...(j+count) p_j / norm for every j of probs, and
    norm, the raw total by kernels.exact_fsum, named
    quantity.format(count); q is left all 0 where norm is 0."""
    ns, ps = _occupied(probs)
    if not ns:  # norm 0, settled without count empty rows
        return [0.0] * len(probs), 0.0
    for weights in _weight_rows(ns, range(1, count + 1)):
        pass  # only the last row is needed
    norm = exact_fsum(weights, ps, quantity, count)
    try:
        # int * float converts the int to float first, or raises
        terms = list(map(mul, weights, ps))
    except OverflowError:
        # a weight beyond float64: exact_fsum rounds its term once, and
        # each term is at most the norm
        terms = [exact_fsum((w,), (p,), quantity, count)
                 for w, p in zip(weights, ps)]
    q = [0.0] * len(probs)
    if norm > 0.0:
        for j, value in zip(ns, map(truediv, terms, repeat(norm))):
            q[j] = value
    return q, norm


def oracle_subtract(dist, n, x_max=4):
    """Apply n-fold photon subtraction at the distribution level.

    q_j is proportional to (j+n)!/j! * p_{j+n}; the raw total is the
    normally ordered norm constant N_n of the base state.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    # empty, with norm 0, when n exceeds the cutoff
    q, norm = _raised(dist.probs[n:], n,
                      "normally ordered norm constant N_{}")
    if norm <= 0.0:
        raise zero_norm_error(dist, n)
    check_ladder_order(dist, n + x_max)
    out = NumberDistribution(q, 0.0)
    return OracleResult(out, direct_moments(out, x_max), norm)


def oracle_add(dist, m, x_max=4):
    """Apply m-fold photon addition at the distribution level.

    q_j is proportional to j!/(j-m)! * p_{j-m} for j >= m; the support
    shifts up by m, and the raw total is the anti-normally ordered norm
    constant N_m of the base state.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    quantity = "anti-normally ordered norm constant N_{}"
    # every raised weight is at least m!, so the norm is at least m! max p:
    # fail before m multiplications per entry
    if _proves_overflow(m, max(dist.probs)):
        raise AccuracyError(quantity.format(m) + " exceeds the float64 range")
    check_ladder_order(dist, m + x_max)
    q, norm = _raised(dist.probs, m, quantity)
    if norm <= 0.0:
        raise UndefinedStateError("the base state has zero norm (N_0 = 0)")
    out = NumberDistribution([0.0] * m + q, 0.0)
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


class EquivalenceReport(namedtuple("EquivalenceReport", "cells")):
    """Every cell of one equivalence_suite run; cells is a list."""

    __slots__ = ()

    @property
    def passed(self):
        return all(c.passed for c in self.cells)

    @property
    def worst(self):
        return max(self.cells, key=lambda c: c.rel_dev)

    def failures(self):
        return [c for c in self.cells if not c.passed]

    def to_text(self):
        lines = ["photonstat equivalence report",
                 f"cells={len(self.cells)} "
                 f"worst_rel_dev={self.worst.rel_dev:.6e} "
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


def checked_tol(tol):
    """tol as equivalence_suite takes it: a finite nonnegative number (0
    asks for exact agreement).  Raises ValueError otherwise."""
    if not 0.0 <= tol < math.inf:  # also NaN
        raise ValueError("tol must be a finite nonnegative number")
    return tol


def equivalence_suite(states=DEFAULT_SUITE_STATES, n_max=3, m_max=4, x_max=4,
                      tol=DEFAULT_TOL):
    """Compare ladder shortcuts against the brute-force path, cell by cell.

    For every (base state, modification) the factorial moments m_0..m_x_max
    and every criterion up to order l = 2 are computed along both routes.
    Cells record the relative deviation; a cell fails when it exceeds tol.
    Raises ValueError, before any state is built, for a tol checked_tol
    refuses or an empty states.
    """
    tol = checked_tol(tol)
    states = tuple(states)
    if not states:
        raise ValueError("states must name at least one base state")
    ell_max = 2
    cells = []
    crit_x = moment_order(ell_max)
    moment_x = max(x_max, crit_x)
    # one report whose moments reach x_max serves every shortcut cell
    report_ell = max(ell_max, (x_max + 1) // 2)
    mods = [StateModification.subtract(n) for n in range(n_max + 1)]
    mods += [StateModification.add(m) for m in range(1, m_max + 1)]
    # one normal ladder per state serves every modification's report; its
    # cutoff is checked at that order at least
    order = max(n_max, m_max) + moment_order(report_ell)
    policy = DEFAULT_POLICY._replace(
        max_moment_order=max(DEFAULT_POLICY.max_moment_order, order))
    for family, param in states:
        dist = build_state(family, param, policy)
        ladder = normal_ladder(dist, order)
        for mod in mods:
            tag = f"{mod.kind.value}{mod.count}"
            report = evaluate_all(ladder, mod, report_ell)
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
