"""Nonclassicality criteria evaluated from factorial-moment sequences.

Criteria covered:

* Mandel Q (variance vs mean), including the closed forms for subtracted
  and added states written directly on the normalization ladder.
* Generalized Mandel Q^(l) in both of its circulating forms: the plain
  central-moment form and the normally ordered form.  These coincide at
  l = 1 and genuinely differ for l >= 2 on non-Poissonian states, so both
  are computed and reported side by side.
* Lee higher-order sub-Poissonian function d_h^(l-1) = m_l - m_1^l.
* Agarwal-Tara A3 determinant ratio over 3x3 moment matrices.

Raw photon-number moments are always derived from factorial moments via
Stirling numbers of the second kind, so every criterion is a function of
the normalization ladder alone.  Undefined values (vacuum mean) are
reported as NaN plus a flag, never raised, so sweeps survive them.
"""

import math
import threading
from collections import namedtuple
from functools import lru_cache
from itertools import repeat
from operator import mul

from .exceptions import AccuracyError, UndefinedStateError
from .kernels import checked_fsum, exact_fsum
from .moments import (
    Ordering,
    StateModification,
    _check_cover,
    check_subtracted_norms,
    modified_moment_sequence,
)

# |det(mu) - det(m)| below this fraction of the largest cofactor product
# means the A3 denominator carries no significant digits
DET_DEGENERACY_TOL = 1e-10


# Exact rows S(z, 0..z), grown on demand and shared by stirling2 and
# mu_from_m; one row per order, whatever the number of states.
# Rows are only appended, under the lock, so a row once read never changes.
_STIRLING_ROWS = [[1]]
_STIRLING_LOCK = threading.Lock()


def _stirling_row(z):
    rows = _STIRLING_ROWS
    if len(rows) <= z:
        with _STIRLING_LOCK:
            while len(rows) <= z:
                prev = rows[-1]
                rows.append([0] + [k * prev[k] + prev[k - 1]
                                   for k in range(1, len(prev))] + [1])
    return rows[z]


@lru_cache(maxsize=None)
def _binomial_row(n):
    """C(n, j) for j = 0..n, exact."""
    return tuple(math.comb(n, j) for j in range(n + 1))


def stirling2(z, k):
    """Stirling number of the second kind S(z, k), exact integer."""
    if k < 0 or z < 0 or k > z:
        raise ValueError("need 0 <= k <= z")
    return _stirling_row(z)[k]


def mu_from_m(m, z_max=None):
    """Raw moments mu_z = <n^z> from factorial moments via Stirling weights.

    mu_z = sum_{k=1..z} S(z,k) m_k, exact integer weights summed by
    kernels.exact_fsum.  Returns a list of floats.
    """
    if z_max is None:
        z_max = len(m) - 1
    if len(m) <= z_max:
        raise ValueError(f"need factorial moments up to order {z_max}")
    m = [float(v) for v in m[:z_max + 1]]
    return [1.0] + [exact_fsum(_stirling_row(z)[1:], m[1:z + 1],
                               "raw moment <n^{}>", z)
                    for z in range(1, z_max + 1)]


def mandel_q(m1, m2):
    """Mandel Q = (m_2 - m_1^2)/m_1; NaN when the mean vanishes.

    Negative values indicate sub-Poissonian statistics; -1 is the Fock
    floor, 0 the Poissonian boundary.
    """
    if m1 == 0.0:
        return math.nan
    return (m2 - m1 * m1) / m1


def mandel_q_subtracted(ladder, n):
    """Mandel Q of the n-photon-subtracted state straight off the ladder:
    N_{n+2}/N_{n+1} - N_{n+1}/N_n."""
    _check_cover(ladder, n + 2, Ordering.NORMAL)
    check_subtracted_norms(ladder, n)
    v = ladder.values
    if v[n + 1] <= 0.0:
        raise UndefinedStateError(
            f"subtracting {n} photons leaves no state with positive mean")
    return float(v[n + 2] / v[n + 1] - v[n + 1] / v[n])


def mandel_q_added(ladder, m):
    """Mandel Q of the m-photon-added state straight off the ladder:
    (N_{m+2} - 4 N_{m+1} + 2 N_m)/(N_{m+1} - N_m) - (N_{m+1} - N_m)/N_m."""
    _check_cover(ladder, m + 2, Ordering.ANTINORMAL)
    v = ladder.values
    if v[m + 1] <= v[m]:
        raise ValueError(
            "anti-normal ladder is not strictly increasing at "
            f"k={m}; corrupted ladder or mean-zero state")
    mean = (v[m + 1] - v[m]) / v[m]
    second = checked_fsum((v[m + 2], -4.0 * v[m + 1], 2.0 * v[m]),
                          "norm times m_2 of the {}-photon-added state", m)
    return float(second / (v[m + 1] - v[m]) - mean)


def lee_dh(m, ell):
    """Lee function d_h^(ell-1) = m_ell - m_1^ell for ell >= 2.

    Negative values witness higher-order sub-Poissonian statistics.
    """
    if ell < 2:
        raise ValueError("ell must be at least 2")
    if len(m) <= ell:
        raise ValueError(f"need factorial moments up to order {ell}")
    return float(m[ell] - float(m[1]) ** ell)


# O_0..O_r(lam) of the last mean asked for: one report reads one mean, so
# a sweep replaces the row instead of accumulating rows.  The row is an
# immutable tuple swapped in by one assignment, so concurrent readers see
# either the old row or the new one, never a row being grown.
_poisson_last = (0.0, (1.0, 0.0))


def _poisson_row(lam, order):
    global _poisson_last
    lam = float(lam) + 0.0      # 3, 3.0, -0.0 and 0.0 share one row
    last, row = _poisson_last
    if last != lam:
        row = (1.0, 0.0)
    if len(row) <= order:
        row = list(row)
        for r in range(len(row) - 1, order):
            # every term is positive, so nothing cancels
            value = lam * exact_fsum(
                _binomial_row(r), row[:r],
                "Poisson reference moment O_{}({!r})", r + 1, lam)
            if math.isinf(value):
                raise AccuracyError(
                    f"Poisson reference moment O_{r + 1}({lam!r}) exceeds "
                    "the float64 range")
            row.append(value)
        row = tuple(row)
        _poisson_last = (lam, row)
    return row


def poisson_central_moment(lam, order):
    """Central moment O_order(lam) = <(n - lam)^order> of a Poisson
    distribution, even order.

    Grown by Riordan's all-positive recurrence O_{r+1} = lam sum_{k<r}
    C(r,k) O_k from O_0 = 1, O_1 = 0 (Ann. Math. Statist. 8, 103 (1937)),
    so no digit is lost to cancellation at any mean.
    """
    if order < 2 or order % 2 != 0:
        raise ValueError("order must be an even integer >= 2")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    return _poisson_row(lam, order)[order]


def _binomial_sum(mean, seq, order, quantity):
    # sum_j C(order,j) (-mean)^(order-j) seq_j, the central-moment expansion
    return checked_fsum(
        map(mul, map(mul, _binomial_row(order),
                     map(pow, repeat(-mean), range(order, -1, -1))),
            map(float, seq)),
        quantity, order)


def q_ell_normal(m, ell):
    """Generalized Mandel parameter, normally ordered form.

    <:(Delta n)^(2l):> / O_2l(m_1), with the numerator expanded over
    factorial moments: sum_j C(2l,j) (-m_1)^(2l-j) m_j.  Equals mandel_q
    at l = 1; NaN when the mean vanishes.
    """
    if ell < 1:
        raise ValueError("ell must be positive")
    if len(m) <= 2 * ell:
        raise ValueError(f"need factorial moments up to order {2 * ell}")
    m1 = float(m[1])
    if m1 == 0.0:
        return math.nan
    num = _binomial_sum(m1, m, 2 * ell,
                        "normally ordered central moment of order {}")
    return num / poisson_central_moment(m1, 2 * ell)


def q_ell_central(mu, ell):
    """Generalized Mandel parameter, plain central-moment form.

    (<(Delta n)^(2l)> - O_2l(mu_1)) / O_2l(mu_1), the central moment
    expanded from raw moments.  Equals mandel_q at l = 1; NaN when the
    mean vanishes.
    """
    if ell < 1:
        raise ValueError("ell must be positive")
    if len(mu) <= 2 * ell:
        raise ValueError(f"need raw moments up to order {2 * ell}")
    mu1 = float(mu[1])
    if mu1 == 0.0:
        return math.nan
    central = _binomial_sum(mu1, mu, 2 * ell, "central moment of order {}")
    o2l = poisson_central_moment(mu1, 2 * ell)
    return (central - o2l) / o2l


class DegenerateA3(namedtuple("DegenerateA3", "det_m det_mu")):
    """Marker for an A3 with a vanishing denominator (0/0-type case)."""

    __slots__ = ()


def _det3(a):
    # fully expanded cofactor form, exactly rounded over the 6 products
    return checked_fsum((
        a[0][0] * a[1][1] * a[2][2],
        -a[0][0] * a[1][2] * a[2][1],
        -a[0][1] * a[1][0] * a[2][2],
        a[0][1] * a[1][2] * a[2][0],
        a[0][2] * a[1][0] * a[2][1],
        -a[0][2] * a[1][1] * a[2][0],
    ), "A3 moment determinant")


def _cofactor_scale(a):
    # largest first-row entry times its 2x2 minor, in magnitude
    minors = (
        a[1][1] * a[2][2] - a[1][2] * a[2][1],
        a[1][0] * a[2][2] - a[1][2] * a[2][0],
        a[1][0] * a[2][1] - a[1][1] * a[2][0],
    )
    return max(abs(a[0][j] * minors[j]) for j in range(3))


def _hankel3(seq):
    return [[float(seq[0]), float(seq[1]), float(seq[2])],
            [float(seq[1]), float(seq[2]), float(seq[3])],
            [float(seq[2]), float(seq[3]), float(seq[4])]]


def agarwal_tara(m, mu=None):
    """Agarwal-Tara A3 = det(m3) / (det(mu3) - det(m3)).

    m3 and mu3 are the 3x3 Hankel matrices of factorial and raw moments of
    orders 0..4; mu defaults to the Stirling conversion of m.  A3 < 0
    witnesses nonclassicality.  When the denominator is smaller than
    DET_DEGENERACY_TOL times the largest cofactor product, the ratio is
    meaningless and a DegenerateA3 marker carrying both determinants is
    returned.
    """
    if len(m) < 5:
        raise ValueError("need factorial moments up to order 4")
    if mu is None:
        mu = mu_from_m(m, 4)
    mat_m = _hankel3(m)
    mat_mu = _hankel3(mu)
    det_m = _det3(mat_m)
    det_mu = _det3(mat_mu)
    denom = det_mu - det_m
    scale = max(_cofactor_scale(mat_m), _cofactor_scale(mat_mu))
    if abs(denom) <= DET_DEGENERACY_TOL * scale:
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
        ells = range(1, ell_max + 1)
        columns = {
            "Q": {"Q": self.mandel_q},
            "Q_ell_normal": {f"Q{ell}_normal": self.q_ell_normal.get(
                ell, math.nan) for ell in ells},
            "Q_ell_central": {f"Q{ell}_central": self.q_ell_central.get(
                ell, math.nan) for ell in ells},
            "d_h": {f"dh{h}": self.lee_dh.get(h, math.nan) for h in ells},
            "A3": {"A3": self.a3},
        }
        return {name: value
                for token in CRITERIA_TOKENS if token in selection
                for name, value in columns[token].items()}


def moment_order(ell_max):
    """Highest factorial-moment order of the modified state that
    evaluate_all reads; its ladder has order count + moment_order(ell_max).
    """
    return max(2 * ell_max, 4)


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
    get a report back.
    """
    if ell_max < 1:
        raise ValueError("ell_max must be at least 1")
    if mod is None:
        mod = StateModification.identity()
    try:
        m = modified_moment_sequence(dist, mod, moment_order(ell_max))
    except UndefinedStateError:
        return CriteriaReport(math.nan, math.nan, flags=("undefined_state",))
    return criteria_from_moments(m, mu_from_m(m), ell_max)
