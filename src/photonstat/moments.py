"""Normalization-constant ladders and factorial moments of modified states.

The ladder N_0..N_K of a state collects either the normally ordered
expectation values <a^+k a^k> (falling factorial weights) or the
anti-normally ordered <a^k a^+k> (rising factorial weights).  Factorial
moments of photon-subtracted and photon-added versions of the state are
pure algebra on that ladder:

    subtract n photons:  <a^+x a^x> = N_{n+x} / N_n          (normal ladder)
    add m photons:       <a^+x a^x> = (1/N_m) * sum_k (-1)^k k! C(x,k)^2
                                       * N_{m+x-k}       (anti-normal ladder)

The second formula is the operator reordering identity
a^+x a^x = sum_k (-1)^k k! C(x,k)^2 a^{x-k} a^+(x-k) taken in expectation.
"""

import enum
import math
import sys
from collections import namedtuple
from functools import lru_cache
from operator import mul

from . import kernels
from .exceptions import AccuracyError, CancellationError, UndefinedStateError
from .states import checked_make

# alternating sums smaller than this fraction of their largest term are
# flagged as cancellation-dominated
CANCELLATION_RTOL = 1e-8

# log(DBL_MAX) plus a margin far beyond the rounding of lgamma and log
_LOG_FLOAT64_LIMIT = math.log(sys.float_info.max) + 1.0


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

    values is kept as a tuple of floats; ladder[k] reads N_k from it.
    """

    __slots__ = ()

    def __new__(cls, values, ordering, base):
        return super().__new__(cls, tuple(map(float, values)), ordering, base)

    _make = classmethod(checked_make)

    @property
    def order(self):
        return len(self.values) - 1

    def __getitem__(self, k):
        return self.values[k]


def ladder_sums_exact(probs, order, rising=False):
    """Exact-rational ladder sums; reference path and overflow fallback.

    Accepts any sequence convertible to Fraction (floats convert exactly).
    Returns a list of Fractions.
    """
    from fractions import Fraction  # loaded only when a ladder overflows

    sums = [Fraction(0)] * (order + 1)
    for n, p in enumerate(probs):
        frac = Fraction(p)
        if frac == 0:
            continue
        w = frac
        sums[0] += w
        kmax = order if rising else min(order, n)
        for k in range(1, kmax + 1):
            w *= (n + k) if rising else (n - k + 1)
            sums[k] += w
    return sums


def checked_fsum(terms, quantity, *args):
    """math.fsum; a sum (or a term) beyond the float64 range raises an
    AccuracyError naming quantity.format(*args)."""
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        raise AccuracyError(
            quantity.format(*args) + " exceeds the float64 range") from None


def _overflow(order, rising):
    kind = "anti-normal" if rising else "normal"
    return AccuracyError(
        f"{kind} ladder entry up to order {order} exceeds the float64 range")


def _ladder(dist, order, rising):
    if order < 0:
        raise ValueError("ladder order must be nonnegative")
    if rising:
        # N_order >= order! * N_0, since (n+1)...(n+order) >= order!
        total = dist.total()
        if total > 0.0 and (math.lgamma(order + 1) + math.log(total)
                            > _LOG_FLOAT64_LIMIT):
            raise _overflow(order, rising)
    values = kernels.ladder_sums(dist.probs, order, rising)
    if not all(map(math.isfinite, values)):
        # weights overflowed float64 for some occupied n; redo exactly and
        # convert at the end
        exact = ladder_sums_exact(dist.probs, order, rising)
        try:
            values = [float(v) for v in exact]
        except OverflowError:
            raise _overflow(order, rising) from None
    return values


def normal_ladder(dist, order):
    """N_k = <a^+k a^k> of the base state for k = 0..order."""
    return MomentLadder(_ladder(dist, order, rising=False), Ordering.NORMAL, dist)


def antinormal_ladder(dist, order):
    """N_k = <a^k a^+k> of the base state for k = 0..order."""
    return MomentLadder(_ladder(dist, order, rising=True), Ordering.ANTINORMAL, dist)


def _check_cover(ladder, needed, ordering):
    if ladder.ordering is not ordering:
        raise ValueError(f"ladder must be {ordering.value}ly ordered")
    if ladder.order < needed:
        raise ValueError(
            f"ladder covers orders 0..{ladder.order}, need {needed}")


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


def subtracted_factorial_moment(ladder, n, x):
    """<a^+x a^x> on the n-photon-subtracted state: N_{n+x}/N_n."""
    if n < 0 or x < 0:
        raise ValueError("n and x must be nonnegative")
    _check_cover(ladder, n + x, Ordering.NORMAL)
    norm = ladder.values[n]
    if norm <= 0.0:
        raise zero_norm_error(ladder.base, n)
    return ladder.values[n + x] / norm


@lru_cache(maxsize=None)
def _reorder_row(x):
    return tuple((-1) ** k * math.factorial(k) * math.comb(x, k) ** 2
                 for k in range(x + 1))


def reorder_coefficients(x):
    """Integer coefficients of a^{x-k} a^+(x-k) in the expansion of a^+x a^x.

    coeff[k] = (-1)^k k! C(x,k)^2 for k = 0..x, exact.
    """
    if x < 0:
        raise ValueError("x must be nonnegative")
    return list(_reorder_row(x))


def _reordering_sum(ladder, m, x):
    # (m_x of the m-photon-added state, whether cancellation dominated it)
    if m < 0 or x < 0:
        raise ValueError("m and x must be nonnegative")
    _check_cover(ladder, m + x, Ordering.ANTINORMAL)
    norm = ladder.values[m]
    if norm <= 0.0:
        raise UndefinedStateError(f"anti-normal ladder entry N_{m} vanished")
    # N_{m+x-k} for k = 0..x
    terms = list(map(mul, _reorder_row(x),
                     reversed(ladder.values[m:m + x + 1])))
    total = checked_fsum(terms, "reordering sum for m={}, x={}", m, x)
    scale = max(map(abs, terms))
    if total < -CANCELLATION_RTOL * scale:
        raise CancellationError(
            f"alternating sum for m={m}, x={x} is negative "
            f"({total:.3e} against largest term {scale:.3e})")
    return max(total, 0.0) / norm, abs(total) < CANCELLATION_RTOL * scale


def added_factorial_moment(ladder, m, x):
    """<a^+x a^x> on the m-photon-added state, from the anti-normal ladder.

    Evaluates the alternating reordering sum with exact rounding (fsum); a
    negative sum beyond the cancellation tolerance raises CancellationError.
    """
    return _reordering_sum(ladder, m, x)[0]


class FactorialMoments(list):
    """Factorial moments m_0, m_1, ... of a modified state, as floats.

    cancelled holds the orders whose reordering sum fell below
    CANCELLATION_RTOL of its largest term; () on the subtraction path.
    """

    def __init__(self, values, cancelled=()):
        super().__init__(values)
        self.cancelled = tuple(cancelled)


def modified_moment(dist, mod, x):
    """<a^+x a^x> of the modified state, read off its moment sequence."""
    return modified_moment_sequence(dist, mod, x)[x]


def modified_moment_sequence(dist, mod, x_max):
    """Factorial moments m_0..m_{x_max} of the modified state.

    Builds one ladder of sufficient length and reads every order from it.
    Returns a FactorialMoments list of floats.  Subtraction (and the
    identity) first applies check_subtracted_norms.
    """
    if x_max < 0:
        raise ValueError("x_max must be nonnegative")
    if mod.count == 0 or mod.kind is ModKind.SUBTRACT:
        ladder = normal_ladder(dist, mod.count + x_max)
        check_subtracted_norms(ladder, mod.count)
        return FactorialMoments([subtracted_factorial_moment(
            ladder, mod.count, x) for x in range(x_max + 1)])
    ladder = antinormal_ladder(dist, mod.count + x_max)
    values, cancelled = zip(*(_reordering_sum(ladder, mod.count, x)
                              for x in range(x_max + 1)))
    return FactorialMoments(values, (x for x, c in enumerate(cancelled) if c))
