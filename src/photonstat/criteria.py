"""Nonclassicality criteria evaluated from factorial-moment sequences.

Criteria covered:

* Mandel Q (variance vs mean).
* Generalized Mandel Q^(l) in both of its circulating forms: the plain
  central-moment form and the normally ordered form.  These coincide at
  l = 1 and genuinely differ for l >= 2 on non-Poissonian states, so both
  are computed and reported side by side.
* Lee higher-order sub-Poissonian function d_h^(l-1) = m_l - m_1^l.
* Agarwal-Tara A3 determinant ratio over 3x3 moment matrices.

Every criterion reads the factorial moments of the modified state, which
moments.modified_moment_sequence derives from the normalization ladder;
raw photon-number moments come from them via Stirling numbers of the
second kind, so every criterion is a function of the ladder alone.
Undefined values (vacuum mean) are reported as NaN plus a flag, never
raised, so sweeps survive them.
"""

import math
from collections import namedtuple
from functools import lru_cache
from operator import mul

from .exceptions import AccuracyError, UndefinedStateError
from .kernels import checked, checked_fsum, exact_fsum
from .moments import StateModification, modified_moment_sequence

# |det(mu) - det(m)| at most this fraction of the largest first-row
# cofactor term means the A3 denominator carries no significant digits
DET_DEGENERACY_TOL = 1e-10


# highest ell_max: the Stirling table below keeps every row up to
# moment_order(ell_max), and at 500 a vacuum report peaks near 210 MB in
# about 3 s (700 needs 570 MB, and 1000 runs out of 1 GiB)
MAX_ELL_MAX = 500


def moment_order(ell_max):
    """Highest factorial-moment order of the modified state that
    evaluate_all reads; its ladder has order count + moment_order(ell_max).
    ValueError unless 1 <= ell_max <= MAX_ELL_MAX.
    """
    if ell_max < 1:
        raise ValueError("ell_max must be at least 1")
    if ell_max > MAX_ELL_MAX:
        raise ValueError(f"ell_max must be at most {MAX_ELL_MAX}")
    return max(2 * ell_max, 4)


_TOP_ORDER = moment_order(MAX_ELL_MAX)  # that of a report at the cap


def _refuse_past_cap(order):
    # no table grows past the orders a report at the cap reads
    if order > _TOP_ORDER:
        raise ValueError(f"moment order {order} exceeds that of ell_max "
                         f"{MAX_ELL_MAX}")


@lru_cache(maxsize=None)
def _stirling_row(z):
    """S(z, 0..z), exact, from the row of z - 1; read in rising order, as
    mu_from_m reads it, no call recurses more than one level."""
    if z == 0:
        return (1,)
    _refuse_past_cap(z)
    prev = _stirling_row(z - 1)
    return (0, *[k * prev[k] + prev[k - 1] for k in range(1, z)], 1)


@lru_cache(maxsize=None)
def _binomial_row(n):
    """C(n, j) for j = 0..n, exact."""
    _refuse_past_cap(n)
    return tuple(math.comb(n, j) for j in range(n + 1))


def mu_from_m(m):
    """Raw moments mu_z = <n^z> from factorial moments via Stirling weights,
    one per entry of m.

    mu_z = sum_{k=1..z} S(z,k) m_k, exact integer weights summed by
    kernels.exact_fsum.  Returns a list of floats; ValueError past order
    moment_order(MAX_ELL_MAX).
    """
    m = [float(v) for v in m]
    if not m:
        return []
    _refuse_past_cap(len(m) - 1)  # before any row is built
    return [1.0] + [exact_fsum(_stirling_row(z)[1:], m[1:z + 1],
                               "raw moment <n^{}>", z)
                    for z in range(1, len(m))]


def mandel_q(m1, m2):
    """Mandel Q = (m_2 - m_1^2)/m_1; NaN when the mean vanishes.

    Negative values indicate sub-Poissonian statistics; -1 is the Fock
    floor, 0 the Poissonian boundary.  AccuracyError beyond float64.
    """
    if m1 == 0.0:
        return math.nan
    return checked((m2 - m1 * m1) / m1, "Mandel Q")


def _need(seq, order, kind="factorial"):
    # the argument rule of every criterion that reads moments up to order
    if len(seq) <= order:
        raise ValueError(f"need {kind} moments up to order {order}")


def lee_dh(m, ell):
    """Lee function d_h^(ell-1) = m_ell - m_1^ell for ell >= 2.

    Negative values witness higher-order sub-Poissonian statistics.
    AccuracyError when m_1^ell or the difference leaves float64.
    """
    if ell < 2:
        raise ValueError("ell must be at least 2")
    _need(m, ell)
    try:
        dh = float(m[ell] - float(m[1]) ** ell)
    except OverflowError:  # m_1^ell beyond float64
        dh = math.inf
    return checked(dh, "Lee function dh{}", ell - 1)


# a report reads one entry; a run of rising orders in
# poisson_central_moment one per power of two
@lru_cache(maxsize=16)
def _mean_tables(lam, top):
    """((-lam)^0..(-lam)^top, O_0..O_r(lam)) for a float mean lam: each
    power by pow, inf past float64 so that a sum reading it raises, and
    the Poisson row up to r = top or to its last order within float64."""
    powers = []
    for e in range(top + 1):
        try:
            powers.append(pow(-lam, e))
        except OverflowError:
            powers.append(math.inf)
    row = [1.0, 0.0]
    for r in range(1, top):
        try:
            # every term is positive, so nothing cancels
            value = lam * exact_fsum(_binomial_row(r), row[:r],
                                     "Poisson reference moment O_{}", r + 1)
        except AccuracyError:
            break
        if math.isinf(value):
            break
        row.append(value)
    return tuple(powers), tuple(row)


def _poisson_entry(lam, row, order):
    # O_order(lam) from the row of lam
    if order >= len(row):
        raise AccuracyError(f"Poisson reference moment O_{len(row)}({lam!r}) "
                            "exceeds the float64 range")
    return row[order]


def poisson_central_moment(lam, order):
    """Central moment O_order(lam) = <(n - lam)^order> of a Poisson
    distribution, even order.

    Grown by Riordan's all-positive recurrence O_{r+1} = lam sum_{k<r}
    C(r,k) O_k from O_0 = 1, O_1 = 0 (Ann. Math. Statist. 8, 103 (1937)),
    so no digit is lost to cancellation at any mean.
    """
    if order < 2 or order % 2 != 0:
        raise ValueError("order must be an even integer >= 2")
    if not lam >= 0:  # also NaN
        raise ValueError("lam must be nonnegative")
    _refuse_past_cap(order)
    lam = float(lam) + 0.0  # 3, 3.0, -0.0 and 0.0 share one table
    # rising orders share the table of the next power of two
    top = min(1 << (order - 1).bit_length(), _TOP_ORDER)
    return _poisson_entry(lam, _mean_tables(lam, top)[1], order)


def _central_expansion(mean, seq, order, quantity):
    """(sum_j C(order,j) (-mean)^(order-j) seq_j, O_order(mean)) for a
    nonzero float mean: the central-moment expansion over seq and its
    Poisson reference, from the tables of mean up to seq's top order.
    ValueError, before any table is read, for a negative or NaN mean."""
    if not mean >= 0:  # a mean read off moments given by hand
        raise ValueError("mean must be nonnegative")
    _refuse_past_cap(order)
    powers, row = _mean_tables(mean, min(len(seq) - 1, _TOP_ORDER))
    total = checked_fsum(
        map(mul, map(mul, _binomial_row(order), powers[order::-1]),
            map(float, seq)),
        quantity, order)
    return total, _poisson_entry(mean, row, order)


def q_ell_normal(m, ell):
    """Generalized Mandel parameter, normally ordered form.

    <:(Delta n)^(2l):> / O_2l(m_1), with the numerator expanded over
    factorial moments: sum_j C(2l,j) (-m_1)^(2l-j) m_j.  Equals mandel_q
    at l = 1; NaN when the mean vanishes; AccuracyError beyond float64.
    """
    if ell < 1:
        raise ValueError("ell must be positive")
    _need(m, 2 * ell)
    m1 = float(m[1])
    if m1 == 0.0:
        return math.nan
    num, o2l = _central_expansion(
        m1, m, 2 * ell, "normally ordered central moment of order {}")
    return checked(num / o2l, "Q{}_normal", ell)


def q_ell_central(mu, ell):
    """Generalized Mandel parameter, plain central-moment form.

    (<(Delta n)^(2l)> - O_2l(mu_1)) / O_2l(mu_1), the central moment
    expanded from raw moments.  Equals mandel_q at l = 1; NaN when the
    mean vanishes; AccuracyError beyond float64.
    """
    if ell < 1:
        raise ValueError("ell must be positive")
    _need(mu, 2 * ell, "raw")
    mu1 = float(mu[1])
    if mu1 == 0.0:
        return math.nan
    central, o2l = _central_expansion(mu1, mu, 2 * ell,
                                      "central moment of order {}")
    return checked((central - o2l) / o2l, "Q{}_central", ell)


class DegenerateA3(namedtuple("DegenerateA3", "det_m det_mu")):
    """Marker for an A3 with a vanishing denominator (0/0-type case)."""

    __slots__ = ()


def _hankel_det3(seq):
    """(det, scale) of the 3x3 Hankel matrix of seq_0..seq_4: det is
    exactly rounded over its six cofactor products, and scale is the
    largest first-row cofactor term |seq_j C_0j|, j = 0..2, each the sum
    of two of those products."""
    s0, s1, s2, s3, s4 = map(float, seq[:5])
    p = (s0 * s2 * s4, -s0 * s3 * s3, -s1 * s1 * s4,
         s1 * s3 * s2, s2 * s1 * s3, -s2 * s2 * s2)
    det = checked_fsum(p, "A3 moment determinant")
    return det, max(abs(p[0] + p[1]), abs(p[2] + p[3]), abs(p[4] + p[5]))


def agarwal_tara(m, mu):
    """Agarwal-Tara A3 = det(m3) / (det(mu3) - det(m3)).

    m3 and mu3 are the 3x3 Hankel matrices of factorial and raw moments of
    orders 0..4.  A3 < 0 witnesses nonclassicality.  When the denominator
    is at most DET_DEGENERACY_TOL times the largest first-row cofactor
    term of either matrix, the ratio is meaningless and a DegenerateA3
    marker carrying both determinants is returned.  AccuracyError when
    the denominator leaves float64.
    """
    _need(m, 4)
    _need(mu, 4, "raw")
    det_m, scale_m = _hankel_det3(m)
    det_mu, scale_mu = _hankel_det3(mu)
    denom = checked(det_mu - det_m, "A3 denominator")
    if abs(denom) <= DET_DEGENERACY_TOL * max(scale_m, scale_mu):
        return DegenerateA3(det_m=det_m, det_mu=det_mu)
    return det_m / denom


# --criteria tokens, in the order their columns appear
CRITERIA_TOKENS = ("Q", "Q_ell_normal", "Q_ell_central", "d_h", "A3")


class CriteriaReport(namedtuple(
        "CriteriaReport", "mean mandel_q q_ell_normal q_ell_central lee_dh "
                          "a3 flags moments")):
    """Every criterion for one (state, modification) pair.

    Maps are keyed by l for the generalized Mandel families and by the
    order h = l - 1 for the Lee family (so lee_dh[1] = m_2 - m_1^2).
    Undefined entries are NaN and carry a flag; a3 may be a DegenerateA3
    marker.  flags is a sorted tuple of diagnostic tokens.  moments are
    the factorial moments m_0, m_1, ... the criteria were computed from,
    () for an undefined state.  A map left out is a new empty dict.
    """

    __slots__ = ()

    def __new__(cls, mean, mandel_q, q_ell_normal=None, q_ell_central=None,
                lee_dh=None, a3=math.nan, flags=(), moments=()):
        return super().__new__(cls, mean, mandel_q, q_ell_normal or {},
                               q_ell_central or {}, lee_dh or {}, a3, flags,
                               moments)

    @property
    def undefined(self):
        return "undefined_state" in self.flags

    def cells(self, ell_max, selection=CRITERIA_TOKENS):
        """The selected criteria as {column name: value} for orders up to
        ell_max, in column order: Q, Q<l>_normal, Q<l>_central, dh<h>, A3.

        Entries the report lacks (an undefined state) are NaN.
        """
        plan = _column_plan(ell_max, tuple(selection))
        return {name: self[field] if key is None else
                self[field].get(key, math.nan) for name, field, key in plan}


@lru_cache(maxsize=64)
def _column_plan(ell_max, selection):
    # (name, report field index, map key or None) per column, built once
    # per sweep instead of once per row
    ells = range(1, ell_max + 1)
    columns = {
        "Q": [("Q", 1, None)],
        "Q_ell_normal": [(f"Q{ell}_normal", 2, ell) for ell in ells],
        "Q_ell_central": [(f"Q{ell}_central", 3, ell) for ell in ells],
        "d_h": [(f"dh{h}", 4, h) for h in ells],
        "A3": [("A3", 5, None)],
    }
    return tuple(column for token in CRITERIA_TOKENS if token in selection
                 for column in columns[token])


def criteria_from_moments(m, mu, ell_max):
    """Every criterion up to order ell_max from one state's moments.

    m are its factorial moments and mu its raw moments, both up to order
    moment_order(ell_max).  The report's flags hold undefined_mean and
    a3_degenerate when they apply.
    """
    flags = set()
    m = [float(v) for v in m]
    mu = [float(v) for v in mu]
    mean = m[1]
    if mean == 0.0:
        flags.add("undefined_mean")
    ells = range(1, ell_max + 1)
    a3 = agarwal_tara(m, mu)
    if isinstance(a3, DegenerateA3):
        flags.add("a3_degenerate")
    return CriteriaReport(
        mean=mean,
        mandel_q=mandel_q(mean, m[2]),
        q_ell_normal={ell: q_ell_normal(m, ell) for ell in ells},
        q_ell_central={ell: q_ell_central(mu, ell) for ell in ells},
        lee_dh={ell - 1: lee_dh(m, ell) for ell in range(2, ell_max + 2)},
        a3=a3,
        flags=tuple(sorted(flags)),
        moments=tuple(m),
    )


def evaluate_all(dist, mod=None, ell_max=3):
    """Evaluate every criterion for dist under the given modification.

    One moment ladder of order count + moment_order(ell_max) and one
    Stirling conversion serve all criteria.  dist is the base distribution
    or, as in modified_moment_sequence, a normal ladder of it covering that
    order, which several calls may share.  Degenerate or undefined
    entries populate flags instead of raising, so parameter sweeps always
    get a report back.  An ell_max that moment_order refuses raises its
    ValueError before any ladder is built.
    """
    if mod is None:
        mod = StateModification.identity()
    try:
        m = modified_moment_sequence(dist, mod, moment_order(ell_max))
    except UndefinedStateError:
        return CriteriaReport(math.nan, math.nan, flags=("undefined_state",))
    return criteria_from_moments(m, mu_from_m(m), ell_max)
