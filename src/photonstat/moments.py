"""Normalization-constant ladders and factorial moments of modified states.

The normal ladder N_0..N_K of a state collects the normally ordered
expectation values N_k = <a^+k a^k> = <(n)_k>, with (n)_k the falling
factorial n(n-1)...(n-k+1).  Factorial moments of photon-subtracted and
photon-added versions of the state are pure algebra on that ladder:

    subtract n photons:  <a^+x a^x> = N_{n+x} / N_n
    add m photons:       T_r = <(n+m)_r> = sum_i C(r,i) (m)_i N_{r-i}
                         <a^+x a^x> = (1/T_m) * sum_k C(x,k) (m)_k
                                       * T_{m+x-k}

The first added-state sum is the Vandermonde convolution of falling
factorials, (n+m)_r = sum_i C(r,i) (m)_i (n)_{r-i}; the second is its
product form (y)_m (y)_x = sum_k C(x,k) (m)_k (y)_{m+x-k} at y = n + m.
T_m = <a^m a^+m> is the norm of the added state.  Every term of both sums
is nonnegative, so nothing cancels.

The paper instead reorders a^+x a^x = sum_k (-1)^k k! C(x,k)^2
a^{x-k} a^+(x-k) and reads the anti-normal ladder <a^k a^+k>; the tests
check the positive form against that identity in exact rationals.

modified_moment_sequence is the one route from a state to the moments
every criterion reads.
"""

import enum
import math
import sys
from collections import namedtuple
from functools import lru_cache

from . import kernels
from .exceptions import AccuracyError, UndefinedStateError
from .states import checked_make

# log(DBL_MAX) plus a margin far beyond the rounding of lgamma and log
_LOG_FLOAT64_LIMIT = math.log(sys.float_info.max) + 1.0

_ZERO_BASE = "the base state has zero norm (N_0 = 0)"


class Ordering(enum.Enum):
    NORMAL = "normal"
    ANTINORMAL = "antinormal"


class ModKind(enum.Enum):
    SUBTRACT = "subtract"
    ADD = "add"


class StateModification(namedtuple("StateModification", "kind count")):
    """Subtract or add a fixed number of photons; count = 0 is the identity."""

    __slots__ = ()

    def __new__(cls, kind, count):
        if not isinstance(count, int) or count < 0:
            raise ValueError("count must be a nonnegative integer")
        return super().__new__(cls, kind, count)

    _make = classmethod(checked_make)

    @classmethod
    def subtract(cls, n):
        return cls(ModKind.SUBTRACT, n)

    @classmethod
    def add(cls, m):
        return cls(ModKind.ADD, m)

    @classmethod
    def identity(cls):
        return cls(ModKind.SUBTRACT, 0)


class MomentLadder(namedtuple("MomentLadder", "values ordering base")):
    """Ladder of norm constants N_0..N_K with its ordering convention.

    values is kept as a tuple of floats.
    """

    __slots__ = ()

    def __new__(cls, values, ordering, base):
        return super().__new__(cls, tuple(map(float, values)), ordering, base)

    _make = classmethod(checked_make)

    @property
    def order(self):
        return len(self.values) - 1


def ladder_sums_exact(probs, order):
    """Exact-rational normal ladder sums, the reference for
    kernels.ladder_sums.

    Accepts any sequence convertible to Fraction (floats convert exactly).
    Returns a list of Fractions.
    """
    from fractions import Fraction  # loaded only by the reference path

    sums = [Fraction(0)] * (order + 1)
    for n, p in enumerate(probs):
        frac = Fraction(p)
        if frac == 0:
            continue
        w = frac
        sums[0] += w
        for k in range(1, min(order, n) + 1):
            w *= n - k + 1
            sums[k] += w
    return sums


def _proves_overflow(k, total):
    # <(n+k)_k> >= k! * N_0, since (n+k)...(n+1) >= k!
    return total > 0.0 and (math.lgamma(k + 1) + math.log(total)
                            > _LOG_FLOAT64_LIMIT)


def check_ladder_order(dist, order):
    """Raise AccuracyError if order, the highest ladder order a read of
    dist needs (its top weight is (n)_order), exceeds dist.checked_order:
    no check bounds the cutoff's truncation error at a higher order."""
    if dist.checked_order is not None and order > dist.checked_order:
        raise AccuracyError(
            f"ladder order {order} exceeds order {dist.checked_order}, the "
            "order the cutoff was checked at; build the state with "
            f"max_moment_order >= {order}")


def normal_ladder(dist, order):
    """N_k = <a^+k a^k> of the base state for k = 0..order, an order that
    check_ladder_order accepts."""
    if order < 0:
        raise ValueError("ladder order must be nonnegative")
    check_ladder_order(dist, order)
    return MomentLadder(kernels.ladder_sums(dist.probs, order),
                        Ordering.NORMAL, dist)


def _occupied_head(values):
    # N_k vanishes exactly once no occupied n reaches k, and nowhere else
    # (a weight p_n (n)_k with n >= k never underflows), so the zeros of
    # a normal ladder form its tail; the positive sums skip it, so a
    # coefficient beyond float64 never meets a zero entry
    return values[:len(values) - values.count(0.0)]


# bounded: a sweep over m would otherwise keep every row of big integers
@lru_cache(maxsize=1024)
def _vandermonde_row(r, m):
    """C(r,i) (m)_i for i = 0..min(r, m), exact: the coefficients of both
    added-state sums, and with m = r those of the anti-normal ladder."""
    return tuple(math.comb(r, i) * math.perm(m, i)
                 for i in range(min(r, m) + 1))


def _positive_sums(first, rows, values, quantity):
    """[sum_i row[i] * values[r - i] for r, row in enumerate(rows, first)],
    each by kernels.exact_fsum, naming quantity.format(r).

    Every term is nonnegative.  Entries past the end of values are 0 and
    are skipped.
    """
    sums = []
    for r, row in enumerate(rows, first):
        hi = min(r, len(values) - 1)
        sums.append(kernels.exact_fsum(
            row[r - hi:], values[r - len(row) + 1:hi + 1][::-1], quantity, r))
    return sums


def antinormal_ladder(dist, order):
    """N_k = <a^k a^+k> of the base state for k = 0..order, from the normal
    ladder: sum_j C(k,j)^2 j! N_{k-j}, all terms nonnegative."""
    if order < 0:
        raise ValueError("ladder order must be nonnegative")
    if _proves_overflow(order, dist.total()):
        raise AccuracyError(
            f"anti-normal ladder entry up to order {order} exceeds the "
            "float64 range")
    normal = _occupied_head(normal_ladder(dist, order).values)
    rows = [_vandermonde_row(k, k) for k in range(order + 1)]
    return MomentLadder(
        _positive_sums(0, rows, normal, "anti-normal ladder entry N_{}"),
        Ordering.ANTINORMAL, dist)


def zero_norm_error(dist, n):
    """The error for a zero normal ladder entry N_n of dist: subtraction
    annihilates only a state of finite support (tail_bound 0, as for Fock
    states and the vacuum); any other zero is a float64 underflow."""
    if dist.tail_bound == 0.0:
        return UndefinedStateError(
            f"subtracting {n} photons annihilates the state (N_{n} = 0)")
    return AccuracyError(
        f"N_{n} underflows float64 to 0, but no N_k of a state without "
        "finite support vanishes")


def check_subtracted_norms(ladder, n):
    """zero_norm_error for the first zero among N_n, N_{n+1}, N_{n+2}, which
    the norm, mean and Mandel Q of the n-photon-subtracted state read; a
    zero N_{n+1} or N_{n+2} under finite support is just a zero mean."""
    for k, value in enumerate(ladder.values[n:n + 3], n):
        if value <= 0.0 and (k == n or ladder.base.tail_bound > 0.0):
            raise zero_norm_error(ladder.base, k)


def modified_moment(dist, mod, x):
    """<a^+x a^x> of the modified state, read off its moment sequence;
    dist may be a normal ladder, as there."""
    return modified_moment_sequence(dist, mod, x)[x]


def modified_moment_sequence(dist, mod, x_max):
    """Factorial moments m_0..m_{x_max} of the modified state, as a list of
    floats.

    dist is the base distribution, or its normal MomentLadder of order at
    least count + x_max (else ValueError).  A distribution gets one normal
    ladder of order count + x_max; a ladder serves as that one would, since
    its entries do not depend on the order built, so one ladder can serve
    every modification of a state.  Subtraction (and the identity) applies
    check_subtracted_norms, then divides N_m..N_{m+x_max} by N_m; addition
    uses the two positive sums of the module docstring.
    """
    if x_max < 0:
        raise ValueError("x_max must be nonnegative")
    m = mod.count
    subtract = m == 0 or mod.kind is ModKind.SUBTRACT
    ladder = None
    if isinstance(dist, MomentLadder):
        if dist.ordering is not Ordering.NORMAL:
            raise ValueError("ladder must be normally ordered")
        if dist.order < m + x_max:
            raise ValueError(
                f"ladder covers orders 0..{dist.order}, need {m + x_max}")
        # the entries past count + x_max, which a fresh ladder lacks, stay
        # unread
        ladder = dist._replace(values=dist.values[:m + x_max + 1])
        dist = ladder.base
    # T_m >= m! N_0 overflows: fail before building any ladder
    if not subtract and _proves_overflow(m, dist.total()):
        raise AccuracyError(
            f"<(n+{m})_{m}> of the base state exceeds the float64 range")
    if ladder is None:
        # N_k = 0 past the last occupied n: settle a zero norm before a
        # ladder of order count + x_max exists
        if not any(dist.probs[m if subtract else 0:]):
            if subtract:
                raise zero_norm_error(dist, m)
            raise UndefinedStateError(_ZERO_BASE)
        ladder = normal_ladder(dist, m + x_max)
    if subtract:
        check_subtracted_norms(ladder, m)
        norm = ladder.values[m]
        return [value / norm for value in ladder.values[m:m + x_max + 1]]
    normal = _occupied_head(ladder.values)
    if not normal:
        raise UndefinedStateError(_ZERO_BASE)
    # t[j] = T_{m+j}: no sum reads T_r below r = m, and T_r past
    # r = m + n_last vanishes and is left out
    rows = [_vandermonde_row(r, m)
            for r in range(m, m + min(x_max, len(normal) - 1) + 1)]
    t = _positive_sums(m, rows, normal, f"<(n+{m})_{{}}> of the base state")
    # dividing by the norm first keeps the moment sums in range wherever
    # the moments are
    t = [value / t[0] for value in t]
    rows = [_vandermonde_row(x, m) for x in range(x_max + 1)]
    return _positive_sums(0, rows, t, "factorial moment m_{} of the "
                          f"{m}-photon-added state")
