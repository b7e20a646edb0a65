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
Since both paths read the same pmf, it first checks each pmf's normal
ladder against the family's analytic N_k; since both call the same
criterion functions, it also checks the shortcut's criteria against the
closed forms of the paper's fixed points wherever the modified state has
one.
"""

import math
from collections import namedtuple
from itertools import compress, repeat
from operator import add, mul, truediv

from .criteria import (
    DegenerateA3,
    column_names,
    criteria_from_moments,
    evaluate_all,
    moment_order,
)
from .exceptions import AccuracyError, UndefinedStateError
from .kernels import exact_fsum, proves_overflow
from .moments import (
    ZERO_BASE_NORM,
    ModKind,
    StateModification,
    check_ladder_order,
    normal_ladder,
    zero_norm_error,
)
from .states import NumberDistribution, analytic_ladder, build_state

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
    weights = [math.perm(j + count, count) for j in ns]
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
    if proves_overflow(m, max(dist.probs)):
        raise AccuracyError(quantity.format(m) + " exceeds the float64 range")
    check_ladder_order(dist, m + x_max)
    q, norm = _raised(dist.probs, m, quantity)
    if norm <= 0.0:
        raise UndefinedStateError(ZERO_BASE_NORM)
    out = NumberDistribution([0.0] * m + q, 0.0)
    return OracleResult(out, direct_moments(out, x_max), norm)


class EquivalenceCell(namedtuple(
        "EquivalenceCell",
        "family param mod quantity shortcut oracle rel_dev tol")):
    """One compared quantity.  mod is a tag such as "subtract2" or "add1",
    or "ladder" for the base state's own ladder; quantity is "m0".."m4",
    "Q", "Q2_normal", "dh1", "A3" or "undefined", a criterion with
    "_exact" appended for an anchor cell, whose oracle is the closed form
    of a fixed point, or "N0".."N8" for a ladder cell, whose oracle is
    states.analytic_ladder."""

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
    # both sides, so deviation is measured against max(|a|, |b|, 1); a NaN
    # or a DegenerateA3 agrees only with a value of its own kind
    if isinstance(a, DegenerateA3) or isinstance(b, DegenerateA3):
        return 0.0 if type(a) is type(b) else math.inf
    if a != a or b != b:
        return 0.0 if a != a and b != b else math.inf
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def _as_float(value):
    if isinstance(value, DegenerateA3):
        return math.nan
    return float(value)


def _poisson_central_exact(lam, order):
    """O_order(lam) = <(n - lam)^order> of a Poisson distribution at an
    integer mean, exactly: the binomial expansion over Touchard's raw
    moments T_r(lam) = sum_i S(r,i) lam^i, each S(r,i) by its explicit
    formula, so no table or recurrence of the shortcut is read."""
    def touchard(r):
        return sum(sum((-1) ** (i - j) * math.comb(i, j) * j ** r
                       for j in range(i + 1)) // math.factorial(i) * lam ** i
                   for i in range(r + 1))
    return sum(math.comb(order, r) * (-lam) ** (order - r) * touchard(r)
               for r in range(order + 1))


def _fixed_points(family, param, mod, ell_max):
    """{column: exact value} for the report cells that the paper's fixed
    points give in closed form, in column order; {} where none does.

    * Every modification of a Fock state is a number state |k>, k >= 1:
      Q = -1, Q^(l)_central = -1, d_h = (k)_{h+1} - k^(h+1), Q^(l)_normal
      = sum_j C(2l,j) (-k)^(2l-j) (k)_j / O_2l(k) as one int / int, and
      for k >= 2, A3 = -1, the raw Hankel matrix of k^j having rank one.
    * Subtracting photons leaves a coherent state coherent: every
      criterion is 0.
    * Subtracting photons leaves a thermal state at Q = nbar.
    """
    ells = range(1, ell_max + 1)
    subtract = mod.kind is ModKind.SUBTRACT
    if family == "coherent" and subtract:
        values = repeat(0.0)
    elif family == "thermal" and subtract:
        values = [float(param)]  # Q, the first column
    elif family == "fock":
        k = int(param) - mod.count if subtract else int(param) + mod.count
        if k < 1:
            return {}
        values = [-1.0]
        for ell in ells:
            order = 2 * ell
            values.append(sum(
                math.comb(order, j) * (-k) ** (order - j) * math.perm(k, j)
                for j in range(order + 1)) / _poisson_central_exact(k, order))
        values += [-1.0] * ell_max
        values += [float(math.perm(k, h + 1) - k ** (h + 1)) for h in ells]
        values.append(-1.0 if k >= 2 else math.nan)
    else:
        return {}
    # in column order; entries no fixed point gives are NaN
    return {name: value for name, value in zip(column_names(ell_max), values)
            if not math.isnan(value)}


def checked_tol(tol):
    """tol as equivalence_suite takes it: a finite nonnegative number (0
    asks for exact agreement).  Raises ValueError otherwise."""
    if not 0.0 <= tol < math.inf:  # also NaN
        raise ValueError("tol must be a finite nonnegative number")
    return tol


def equivalence_suite(states=DEFAULT_SUITE_STATES, tol=DEFAULT_TOL):
    """Compare ladder shortcuts against the brute-force path, cell by cell.

    For every base state, its pmf's normal ladder N_0..N_8 is first
    compared with the family's analytic one in a "ladder" block.  Then for
    each of subtract 0..3 and add 1..4, the factorial moments m_0..m_4 and
    every criterion up to order l = 2 are computed along both routes, and
    each criterion that _fixed_points gives is compared with that closed
    form in an anchor cell.  Cells record the relative deviation; a cell
    fails when it exceeds tol.
    Raises ValueError, before any state is built, for a tol checked_tol
    refuses or an empty states.
    """
    tol = checked_tol(tol)
    states = tuple(states)
    if not states:
        raise ValueError("states must name at least one base state")
    ell_max = 2
    cells = []
    x_max = moment_order(ell_max)
    mods = [StateModification.subtract(n) for n in range(4)]
    mods += [StateModification.add(m) for m in range(1, 5)]
    # one normal ladder per state serves every modification's report; its
    # order, 8, is within the default policy's checked order
    order = max(mod.count for mod in mods) + x_max
    for family, param in states:
        dist = build_state(family, param)
        ladder = normal_ladder(dist, order)
        # the pmf's ladder against the family's: both routes below read
        # the pmf, so only this sees a pmf built with the wrong parameter
        analytic = analytic_ladder(family, param, order)
        for k, (a, b) in enumerate(zip(ladder.values, analytic)):
            cells.append(EquivalenceCell(family, param, "ladder", f"N{k}",
                                         a, b, _moment_dev(a, b), tol))
        for mod in mods:
            tag = f"{mod.kind.value}{mod.count}"
            report = evaluate_all(ladder, mod, ell_max)
            try:
                ref = (oracle_add if mod.kind is ModKind.ADD
                       else oracle_subtract)(dist, mod.count, x_max)
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
                ref.moments, direct_power_moments(ref.dist, x_max),
                ell_max).cells
            ours = report.cells
            for key, a in ours.items():
                b = theirs[key]
                cells.append(EquivalenceCell(
                    family, param, tag, key, _as_float(a), _as_float(b),
                    _criterion_dev(a, b), tol))
            for key, b in _fixed_points(family, param, mod, ell_max).items():
                a = ours[key]
                cells.append(EquivalenceCell(
                    family, param, tag, f"{key}_exact", _as_float(a), b,
                    _criterion_dev(a, b), tol))
    return EquivalenceReport(cells)
