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
second kind, so every criterion is a function of the ladder alone.  Each
is one entry of the table _CRITERIA, and _evaluate forms them all.
Undefined values (vacuum mean) are reported as NaN plus a flag, never
raised, so sweeps survive them.
"""

import math
from collections import namedtuple
from functools import lru_cache
from itertools import repeat
from operator import add, itemgetter, mul

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


def _q_ell_terms(ell):  # sum_j C(2l,j) (-s_1)^(2l-j) s_j: <(s - s_1)^2l>
    return [(c, 2 * ell - j, (j,))
            for j, c in enumerate(_binomial_row(2 * ell))]


# One entry per criterion, in column order, which is also the order of
# CriteriaReport's fields.  At order l >= least an entry reads
# s_0..s_reads(l) of one moment sequence s.  Its numerator sums the term
# rows (c, p, (i, ...)) of terms(l), each c (-s_1)^p s_i ... with integer
# c, rows with fewer factors last.  over is its denominator: None, "m_1",
# or the Poisson reference O_2l of the mean ("O_2l excess": less 1).  An
# AccuracyError names the numerator or result, formatted with (l, l - 1,
# reads(l)); column, formatted with a map key, names report columns.
_Criterion = namedtuple("_Criterion",
                        "column least reads terms over numerator result")
_CRITERIA = {
    "Q": _Criterion("Q", 1, lambda ell: 2, lambda ell: (
        (-1, 0, (1, 1)), (1, 0, (2,))), "m_1", "Mandel Q", "Mandel Q"),
    "Q_ell_normal": _Criterion(
        "Q{}_normal", 1, lambda ell: 2 * ell, _q_ell_terms, "O_2l",
        "normally ordered central moment of order {2}", "Q{0}_normal"),
    "Q_ell_central": _Criterion(
        "Q{}_central", 1, lambda ell: 2 * ell, _q_ell_terms, "O_2l excess",
        "central moment of order {2}", "Q{0}_central"),
    "d_h": _Criterion("dh{}", 2, lambda ell: ell, lambda ell: (
        (1, 0, (ell,)), ((-1) ** (ell + 1), ell, ())),
        None, "Lee function dh{1}", None),
    # det of the Hankel matrix of s_0..s_4; a row pair per s_j C_0j
    "A3": _Criterion("A3", 1, lambda ell: 4, lambda ell: (
        (1, 0, (0, 2, 4)), (-1, 0, (0, 3, 3)), (-1, 0, (1, 1, 4)),
        (1, 0, (1, 3, 2)), (1, 0, (2, 1, 3)), (-1, 0, (2, 2, 2))),
        None, "A3 moment determinant", None),
}

# --criteria tokens, in the order their columns appear
CRITERIA_TOKENS = tuple(_CRITERIA)


@lru_cache(maxsize=None, typed=True)  # typed: 2.0 is not served as 2
def moment_order(ell_max):
    """Highest factorial-moment order of the modified state that
    evaluate_all reads; its ladder has order count + moment_order(ell_max).
    ValueError unless ell_max is an int and 1 <= ell_max <= MAX_ELL_MAX.
    """
    if type(ell_max) is not int:
        raise ValueError("ell_max must be an integer")
    if ell_max < 1:
        raise ValueError("ell_max must be at least 1")
    if ell_max > MAX_ELL_MAX:
        raise ValueError(f"ell_max must be at most {MAX_ELL_MAX}")
    return max(  # a report's map key k is l = k + least - 1
        c.reads(ell_max + c.least - 1) for c in _CRITERIA.values())


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


def _refuse_nan(seq, indices, kind):
    # a non-finite result that read a NaN moment names that moment
    for i in (i for i in indices if seq[i] != seq[i]):
        raise ValueError(f"{kind} moment of order {i} is NaN")


def mu_from_m(m):
    """Raw moments mu_z = <n^z> from factorial moments via Stirling weights,
    one per entry of m.

    mu_z = sum_{k=1..z} S(z,k) m_k, exact integer weights summed by
    kernels.exact_fsum.  Returns a list of floats; ValueError past order
    moment_order(MAX_ELL_MAX).
    """
    m = list(map(float, m))
    if not m:
        return []
    _refuse_past_cap(len(m) - 1)  # before any row is built
    try:
        return [1.0] + [exact_fsum(_stirling_row(z)[1:], m[1:z + 1],
                                   "raw moment <n^{}>", z)
                        for z in range(1, len(m))]
    except ValueError:  # exact_fsum read a NaN
        _refuse_nan(m, range(1, len(m)), "factorial")
        raise


# a report reads one entry; a run of rising orders in
# poisson_central_moment one per power of two
@lru_cache(maxsize=16)
def _mean_tables(lam, top):
    """((-lam)^0..(-lam)^top, O_0..O_r(lam)) for a float mean lam: each
    power by pow, inf past float64 so that a sum reading it raises, and
    the Poisson row up to r = top or to its last finite order (none past
    O_1 for a NaN lam, which only d_h reads the powers of)."""
    powers = []
    try:
        powers.extend(map(pow, repeat(-lam), range(top + 1)))
    except OverflowError:  # this power and every higher one are inf
        powers += [math.inf] * (top + 1 - len(powers))
    row = [1.0, 0.0]
    for r in range(1, top):
        try:
            # every term is positive, so nothing cancels
            value = lam * exact_fsum(_binomial_row(r), row[:r],
                                     "Poisson reference moment O_{}", r + 1)
        except AccuracyError:
            break
        if not math.isfinite(value):
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
    if type(order) is not int or order < 2 or order % 2 != 0:
        raise ValueError("order must be an even integer >= 2")
    if not lam >= 0:  # also NaN
        raise ValueError("lam must be nonnegative")
    _refuse_past_cap(order)
    lam = float(lam) + 0.0  # 3, 3.0, -0.0 and 0.0 share one table
    # rising orders share the table of the next power of two
    top = min(1 << (order - 1).bit_length(), _TOP_ORDER)
    return _poisson_entry(lam, _mean_tables(lam, top)[1], order)


def _picker(indices, padding=()):
    # seq -> (seq[i] for i in indices) then padding, as one tuple
    if len(indices) == 1:
        return lambda seq, i=indices[0]: (seq[i], *padding)
    get = itemgetter(*indices)
    return (lambda seq: get(seq) + padding) if padding else get


@lru_cache(maxsize=None, typed=True)  # typed: 2.0 is not served as 2
def _plan(token, ell):
    # token at ell: order read, denominator rule and names, coefficients as
    # floats, a picker of powers (None if all are 0), one of each factor
    # (1.0 for rows without it), and the indices read
    if type(ell) is not int:
        raise ValueError("ell must be an integer")
    c = _CRITERIA[token]
    if ell < c.least:
        raise ValueError("ell must be positive" if c.least == 1
                         else f"ell must be at least {c.least}")
    order = c.reads(ell)
    _refuse_past_cap(order)
    coefs, pows, indices = zip(*c.terms(ell))
    factors = ([i[k] for i in indices if len(i) > k]
               for k in range(len(indices[0])))
    return (order, c.over, c.numerator, c.result, tuple(map(float, coefs)),
            _picker(pows) if any(pows) else None,
            [_picker(f, (1.0,) * (len(coefs) - len(f))) for f in factors],
            sorted({1}.union(*indices)))


def _evaluate(token, seq, ell, kind="factorial"):
    """(value, numerator products) of criterion token at order ell over
    seq, moments of the given kind; (NaN, []) for a vanishing mean under a
    denominator.  Each product forms left to right, with the powers and
    O_2l of the mean's tables to seq's top order, which a report shares,
    and checked_fsum sums them.  ValueError for an ell that is not an int
    or is below least, past the cap, a short seq, a negative or NaN mean
    under O_2l, or a NaN moment read, sought once the sum is non-finite;
    AccuracyError when a result from finite moments leaves float64."""
    (order, over, numerator, result, products, powers_of, factors,
     read) = _plan(token, ell)
    top = len(seq) - 1
    if top < order:
        raise ValueError(f"need {kind} moments up to order {order}")
    try:
        mean = float(seq[1])
    except OverflowError:  # an int beyond float64: its sums raise
        mean = math.inf
    if over:
        if mean == 0.0:
            return math.nan, []
        if over != "m_1" and not mean >= 0:  # moments given by hand
            raise ValueError("mean must be nonnegative")
    if powers_of:
        powers, row = _mean_tables(mean, top if top < _TOP_ORDER
                                   else _TOP_ORDER)
        products = map(mul, products, powers_of(powers))
    for pick in factors:
        products = map(mul, products, pick(seq))
    try:
        products = list(products)
        total = checked_fsum(products, numerator, ell, ell - 1, order)
    except OverflowError:  # an int moment beyond float64
        total = checked(math.inf, numerator, ell, ell - 1, order)
    except AccuracyError:  # unless a NaN moment is at fault
        _refuse_nan(seq, read, kind)
        raise
    if over is None:
        return total, products
    if over == "m_1":
        value = total / mean
    else:  # an O_2l rule, whose rows have powers
        o2l = row[order] if order < len(row) else _poisson_entry(
            mean, row, order)
        value = total / o2l if over == "O_2l" else (total - o2l) / o2l
    if math.isfinite(value):
        return value, products
    return checked(value, result, ell, ell - 1, order), products


def mandel_q(m1, m2):
    """Mandel Q = (m_2 - m_1^2)/m_1; NaN when the mean vanishes.

    Negative values indicate sub-Poissonian statistics; -1 is the Fock
    floor, 0 the Poissonian boundary.  AccuracyError beyond float64.
    """
    return _evaluate("Q", (1.0, m1, m2), 1)[0]  # m_0 is not read


def lee_dh(m, ell):
    """Lee function d_h^(ell-1) = m_ell - m_1^ell for ell >= 2.

    Negative values witness higher-order sub-Poissonian statistics.
    AccuracyError when m_1^ell or the difference leaves float64.
    """
    return _evaluate("d_h", m, ell)[0]


def q_ell_normal(m, ell):
    """Generalized Mandel parameter, normally ordered form.

    <:(Delta n)^(2l):> / O_2l(m_1), with the numerator expanded over
    factorial moments: sum_j C(2l,j) (-m_1)^(2l-j) m_j.  Equals mandel_q
    at l = 1; NaN when the mean vanishes; AccuracyError beyond float64.
    """
    return _evaluate("Q_ell_normal", m, ell)[0]


def q_ell_central(mu, ell):
    """Generalized Mandel parameter, plain central-moment form.

    (<(Delta n)^(2l)> - O_2l(mu_1)) / O_2l(mu_1), the central moment
    expanded from raw moments.  Equals mandel_q at l = 1; NaN when the
    mean vanishes; AccuracyError beyond float64.
    """
    return _evaluate("Q_ell_central", mu, ell, "raw")[0]


class DegenerateA3(namedtuple("DegenerateA3", "det_m det_mu")):
    """Marker for an A3 with a vanishing denominator (0/0-type case)."""

    __slots__ = ()


def agarwal_tara(m, mu):
    """Agarwal-Tara A3 = det(m3) / (det(mu3) - det(m3)).

    m3 and mu3 are the 3x3 Hankel matrices of factorial and raw moments of
    orders 0..4.  A3 < 0 witnesses nonclassicality.  When the denominator
    is at most DET_DEGENERACY_TOL times the largest first-row cofactor
    term of either matrix, the ratio is meaningless and a DegenerateA3
    marker carrying both determinants is returned.  AccuracyError when
    the denominator leaves float64.
    """
    det_m, terms_m = _evaluate("A3", m, 1)
    det_mu, terms_mu = _evaluate("A3", mu, 1, "raw")
    denom = checked(det_mu - det_m, "A3 denominator")
    terms = terms_m + terms_mu
    scale = max(map(abs, map(add, terms[::2], terms[1::2])))
    if abs(denom) <= DET_DEGENERACY_TOL * scale:
        return DegenerateA3(det_m=det_m, det_mu=det_mu)
    return det_m / denom


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
    # per sweep instead of once per row; a map's keys run over 1..ell_max
    return tuple(
        (c.column.format(key), field, key)
        for field, (token, c) in enumerate(_CRITERIA.items(), 1)
        if token in selection
        for key in (range(1, ell_max + 1) if "{}" in c.column else (None,)))


def criteria_from_moments(m, mu, ell_max):
    """Every criterion up to order ell_max from one state's moments.

    m are its factorial moments and mu its raw moments, both up to order
    moment_order(ell_max).  The report's flags hold undefined_mean and
    a3_degenerate when they apply.
    """
    flags = set()
    m = list(map(float, m))
    mu = list(map(float, mu))
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
