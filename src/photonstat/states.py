"""Truncated photon-number distributions for standard single-mode states.

Every quantity downstream (factorial moments, nonclassicality criteria) is
diagonal in the number basis, so a state is represented by its photon-number
probability vector alone.  Probabilities are built by stable forward
recursion (never by evaluating factorials), and the truncation point is
chosen adaptively: the tail mass must fall below ``eps_tail`` and the
highest requested factorial moment must be converged under cutoff doubling.
"""

import math
import sys
from array import array
from collections import namedtuple
from itertools import accumulate, compress

from . import kernels
from .exceptions import AccuracyError

FAMILIES = ("coherent", "thermal", "fock", "squeezed")

# Exponent guard for log-space tail bounds (exp of anything below is 0.0).
_LOG_TINY = -745.0

_EPS = math.ulp(1.0)  # float64 machine epsilon


def _frozen(values):
    """A read-only float64 copy of values: a memoryview that supports len,
    indexing, slicing (as views), iteration and tobytes()."""
    return memoryview(array("d", values).tobytes()).cast("d")


def checked_make(cls, iterable):
    """A record's _make (which _replace calls) that keeps __new__'s checks."""
    return cls(*iterable)


class CutoffPolicy(namedtuple(
        "CutoffPolicy", "eps_tail rel_tol max_cutoff max_moment_order")):
    """Accuracy policy for choosing the Fock-space truncation point.

    eps_tail: required upper bound on the omitted probability mass.
    rel_tol: relative convergence tolerance for the moment-doubling check.
    max_cutoff: hard cap on the cutoff (exceeding it raises AccuracyError).
    max_moment_order: factorial-moment order used in the convergence check,
        capped at the last occupied n of the float64 pmf (every higher
        order vanishes).  build_state records it as the distribution's
        checked_order, and normal_ladder and the oracle's direct sums
        refuse a higher order with AccuracyError, so set it at least as
        high as the largest ladder order you will request.  The CLI and
        equivalence_suite raise it to the ladder order they read (for the
        CLI, count + criteria.moment_order(ell_max)), never lower it.
    """

    __slots__ = ()

    def __new__(cls, eps_tail=1e-12, rel_tol=1e-10, max_cutoff=4096,
                max_moment_order=12):
        for name, value in (("eps_tail", eps_tail), ("rel_tol", rel_tol)):
            if not value > 0:  # also rejects NaN
                raise ValueError(f"{name} must be positive")
            if value == math.inf:  # JSON output has no infinity
                raise ValueError(f"{name} must be finite")
        # both size lists: ints (not bools) up to sys.maxsize, the longest
        # a list can be
        sizes = (("max_cutoff", max_cutoff),
                 ("max_moment_order", max_moment_order))
        for name, value in sizes:
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer")
        if max_cutoff < 1:
            raise ValueError("max_cutoff must be at least 1")
        if max_moment_order < 0:
            raise ValueError("max_moment_order must be nonnegative")
        for name, value in sizes:
            if value > sys.maxsize:
                raise ValueError(f"{name} must not exceed {sys.maxsize}")
        return super().__new__(cls, eps_tail, rel_tol, max_cutoff,
                               max_moment_order)

    _make = classmethod(checked_make)


DEFAULT_POLICY = CutoffPolicy()


class NumberDistribution(namedtuple(
        "NumberDistribution", "probs tail_bound checked_order")):
    """Truncated photon-number distribution with a guaranteed tail bound.

    probs[n] is the probability of n photons, n = 0..cutoff.  tail_bound is
    an upper bound on the probability mass omitted by the truncation
    (relative to the untruncated state build_state targeted; 0 for states
    with finite support).  probs is given as any sequence of numbers and
    kept as a read-only float64 memoryview.  checked_order is the
    factorial-moment order the cutoff was checked at (build_state's
    policy.max_moment_order), the highest normal ladder order
    normal_ladder will read; None where no such check bounds the
    truncation: finite support, or a distribution built by hand.
    """

    __slots__ = ()

    def __new__(cls, probs, tail_bound=0.0, checked_order=None):
        try:
            probs = _frozen(probs)
        except TypeError:
            raise ValueError("probs must be a 1-d sequence of numbers") from None
        if not probs:
            raise ValueError("probs must be nonempty")
        if min(probs) < 0.0 or not all(map(math.isfinite, probs)):
            raise ValueError("probabilities must be finite and nonnegative")
        if not (0.0 <= tail_bound < 1.0):
            raise ValueError("tail_bound must lie in [0, 1)")
        if checked_order is not None and (type(checked_order) is not int
                                          or checked_order < 0):
            raise ValueError(
                "checked_order must be None or a nonnegative integer")
        return super().__new__(cls, probs, tail_bound, checked_order)

    _make = classmethod(checked_make)

    def __reduce__(self):
        # a memoryview cannot be pickled or copied; its values can
        return NumberDistribution, (self.probs.tolist(), self.tail_bound,
                                    self.checked_order)

    @property
    def cutoff(self):
        return len(self.probs) - 1

    def total(self):
        return kernels.checked_fsum(self.probs, "total probability")


def _coherent_probs(alpha_sq, cutoff):
    # Poisson pmf by forward recursion: p_{n+1} = p_n * lam / (n+1)
    p = [0.0] * (cutoff + 1)
    p[0] = math.exp(-alpha_sq)
    for n in range(cutoff):
        p[n + 1] = p[n] * alpha_sq / (n + 1)
    return p


def _coherent_tail(alpha_sq, cutoff):
    if alpha_sq == 0.0:
        return 0.0
    ratio = alpha_sq / (cutoff + 1)
    if ratio >= 1.0:
        return 1.0
    # sum_{n>D} p_n <= p_D * r / (1 - r) with r = lam/(D+1); log space
    # avoids underflow of p_D (and of r itself for subnormal lam).
    log_pd = -alpha_sq + cutoff * math.log(alpha_sq) - math.lgamma(cutoff + 1)
    log_tail = (log_pd + math.log(alpha_sq) - math.log(cutoff + 1)
                - math.log1p(-ratio))
    return math.exp(max(log_tail, _LOG_TINY)) if log_tail < 0 else 1.0


def _thermal_probs(nbar, cutoff):
    p = [0.0] * (cutoff + 1)
    q = nbar / (1.0 + nbar)
    p[0] = 1.0 / (1.0 + nbar)
    for n in range(cutoff):
        p[n + 1] = p[n] * q
    return p


def _thermal_tail(nbar, cutoff):
    if nbar == 0.0:
        return 0.0
    # exact geometric tail: q^(D+1)
    log_tail = (cutoff + 1) * math.log(nbar / (1.0 + nbar))
    return math.exp(max(log_tail, _LOG_TINY))


def _squeezed_probs(r, cutoff):
    # p_{2k} = (2k)! tanh^{2k} r / (4^k (k!)^2 cosh r); odd entries vanish.
    # Even-index recursion: p_{2(k+1)} = p_{2k} * tanh^2 r * (2k+1)/(2k+2).
    p = [0.0] * (cutoff + 1)
    t = math.tanh(r) ** 2
    p[0] = 1.0 / math.cosh(r)
    k = 0
    while 2 * (k + 1) <= cutoff:
        p[2 * (k + 1)] = p[2 * k] * t * (2 * k + 1) / (2 * k + 2)
        k += 1
    return p


def _squeezed_tail(r, cutoff):
    if r == 0.0:
        return 0.0
    t = math.tanh(r) ** 2
    if t == 0.0:
        # tanh^2 underflowed: the true tail is below r^2 < ulp(0)
        return math.ulp(0.0)
    if t == 1.0:
        # tanh^2 rounded to 1 (r above about 19): no bound below 1 is
        # computable, and cosh(r) overflows above about 710
        return 1.0
    k = cutoff // 2  # index of the last even entry <= cutoff
    # consecutive even terms decay by at least a factor t
    log_p2k = (math.lgamma(2 * k + 1) - 2 * k * math.log(2.0)
               - 2 * math.lgamma(k + 1) + k * math.log(t)
               - math.log(math.cosh(r)))
    log_tail = log_p2k + math.log(t) - math.log1p(-t)
    return math.exp(max(log_tail, _LOG_TINY)) if log_tail < 0 else 1.0


_BUILDERS = {
    "coherent": (_coherent_probs, _coherent_tail),
    "thermal": (_thermal_probs, _thermal_tail),
    "squeezed": (_squeezed_probs, _squeezed_tail),
}


def _falling_weights(probs, order):
    """p_n * n(n-1)...(n-order+1) for every n, one math.prod per occupied
    n >= order; entries n < order, and entries with p_n == 0, are 0.

    math.prod multiplies its float start by each int factor left to right,
    as float * int does, so every weight is the product kernels.ladder_sums
    forms.
    """
    weights = [0.0] * len(probs)
    for n in compress(range(order, len(probs)), probs[order:]):
        weights[n] = math.prod(range(n, n - order, -1), start=probs[n])
    return weights


def _tail_cutoff(family, param, policy):
    """Smallest cutoff in 1..max_cutoff whose tail bound meets eps_tail.

    Bisects on the closed-form bound alone, which is nonincreasing in the
    cutoff.  AccuracyError, naming the bound at max_cutoff, if none does.
    """
    _, tail = _BUILDERS[family]
    lo, hi = 0, policy.max_cutoff
    best = tail(param, hi)
    if best > policy.eps_tail:
        raise AccuracyError(
            f"{family}({param}) needs cutoff > {policy.max_cutoff}: tail "
            f"bound {best:.3e} vs eps_tail {policy.eps_tail:.3e}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if tail(param, mid) <= policy.eps_tail:
            hi = mid
        else:
            lo = mid
    return hi


def _search(family, param, policy):
    """The cutoff choose_cutoff describes, for a nonnegative parameter.

    Each round builds the pmf up to 2 * top + 2 and one row of falling
    weights at the check order, one product per occupied entry.  Every
    candidate cutoff D from the tail cutoff up to `top` is screened, in
    increasing order, on prefix sums S of that row (S[D] against S[2D]);
    a candidate that passes is confirmed by the exactly rounded sums of
    the same row's prefixes, so the screen never decides.  The first
    non-finite moment at 2D raises AccuracyError: prefix sums of
    nonnegative weights only grow, so no larger cutoff can pass.  `top`
    doubles, up to max_cutoff, only when no candidate passes.

    The check order min(K, n_last) needs no pmf entry past 2 * top + 2.
    The builders' recursions keep a zero, and the odd squeezed entries are
    0, so a backward scan from there finds n_last wherever it is at most
    2 * top.  Where n_last lies further out, the order is K, or it exceeds
    2 * top whatever its exact value: then every weight up to 2 * top is 0
    and no candidate passes, as at the full n_last.  So the work is
    bounded by top, however large K is.
    """
    pmf, _ = _BUILDERS[family]
    if param == 0.0:
        return 0
    first = _tail_cutoff(family, param, policy)
    top = min(2 * first + policy.max_moment_order, policy.max_cutoff)
    while True:
        probs = pmf(param, 2 * top + 2)
        n_last = next((n for n in range(2 * top + 2, -1, -1) if probs[n]),
                      None)
        if n_last is None:
            raise AccuracyError(
                f"{family}({param}) has no nonzero probability in float64")
        del probs[2 * top + 1:]  # no candidate reads past 2 * top
        # an n_last past 2 * top is not known exactly: the order is then
        # K, or exceeds 2 * top as K does, and either row is the same
        order = (policy.max_moment_order if n_last > 2 * top
                 else min(policy.max_moment_order, n_last))
        weights = _falling_weights(probs, order)
        sums = list(accumulate(weights))
        for cutoff in range(first, top + 1):
            here, twice = sums[cutoff], sums[2 * cutoff]
            # widen rel_tol by the rounding bound of the running sums, so
            # no candidate the exact test accepts is screened out; a
            # non-finite S[2D] goes on to the exact test, which raises
            slack = 16 * (cutoff + 1) * _EPS
            if twice == 0.0 or (math.isfinite(twice) and abs(twice - here)
                                > (policy.rel_tol + slack) * (1 + slack)
                                * twice):
                continue
            try:
                here, twice = (kernels.ladder_sums(weights[:n + 1], 0)[0]
                               for n in (cutoff, 2 * cutoff))
            except AccuracyError:  # S[D] <= S[2D], so S[2D] is out of range
                raise AccuracyError(
                    f"{family}({param}): the order-{order} factorial moment "
                    f"at cutoff {2 * cutoff} exceeds the float64 range"
                ) from None
            if abs(twice - here) <= policy.rel_tol * twice:
                return cutoff
        if top == policy.max_cutoff:
            raise AccuracyError(
                f"{family}({param}) needs cutoff > {policy.max_cutoff}: the "
                f"order-{order} factorial moment did not converge to "
                f"rel_tol {policy.rel_tol:.1e}")
        first, top = top + 1, min(2 * top, policy.max_cutoff)


def choose_cutoff(family, param, policy=DEFAULT_POLICY):
    """Smallest cutoff satisfying the tail and moment-convergence criteria.

    A cutoff D is accepted when the tail bound is at most eps_tail and the
    factorial moment of the check order of the pmf cut at D agrees with
    the one cut at 2D to within rel_tol.  The check order is
    min(K, n_last), with K = policy.max_moment_order and n_last the last
    n the float64 pmf occupies; higher orders vanish at every cutoff.  A
    zero or non-finite moment at 2D never passes.  The search runs over
    1..max_cutoff; parameter 0 (the vacuum) gives 0.

    Raises AccuracyError when no cutoff up to policy.max_cutoff works, or
    when the check-order moment at 2D exceeds the float64 range before
    any cutoff passes, and ValueError where checked_param does.
    """
    param = checked_param(family, param)
    if family == "fock":
        if param > policy.max_cutoff:
            raise AccuracyError(
                f"fock index {param} exceeds max_cutoff {policy.max_cutoff}")
        return param
    return _search(family, param, policy)


def checked_param(family, param):
    """param as build_state takes it for family: a Fock index as an int.

    Raises ValueError for a family not in FAMILIES, a non-finite or
    negative parameter, or a Fock index that is not an integer.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown state family {family!r}")
    if not math.isfinite(param):
        raise ValueError(f"{family} parameter must be finite")
    if family == "fock":
        n = int(param)
        if n != param or n < 0:
            raise ValueError("fock parameter must be a nonnegative integer")
        return n
    if param < 0:
        raise ValueError(f"{family} parameter must be nonnegative")
    return param


def build_state(family, param, policy=DEFAULT_POLICY):
    """Construct a base state by family name; see FAMILIES.

    param is |alpha|^2 (coherent, Poissonian), nbar (thermal, geometric),
    n (fock) or the squeezing r (squeezed vacuum, even photon numbers
    only).  The cutoff is choose_cutoff's under policy, so a Fock index
    above max_cutoff raises AccuracyError too.  A Fock state is p_n = 1
    with zero tail; the other pmfs are normalized to their exactly rounded
    total, with the closed-form tail bound at the cutoff and
    policy.max_moment_order as checked_order where that bound is not 0.
    """
    cutoff = choose_cutoff(family, param, policy)
    if family == "fock":
        probs = [0.0] * (cutoff + 1)
        probs[cutoff] = 1.0
        return NumberDistribution(probs, 0.0)
    pmf, tail = _BUILDERS[family]
    probs = pmf(param, cutoff)
    # positive: no cutoff passes the search with a zero check-order sum
    total = kernels.checked_fsum(probs, "total probability")
    tail_bound = tail(param, cutoff)
    # the vacuum (param 0) has finite support, and no search checked it
    return NumberDistribution([p / total for p in probs], tail_bound,
                              policy.max_moment_order if tail_bound else None)
