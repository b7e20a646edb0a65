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
from itertools import accumulate, compress, repeat
from operator import mul, sub

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
        order vanishes).  It is a floor: set it at least as high as the
        largest ladder order you will request.  The CLI raises it to the
        ladder order of each request (count + criteria.moment_order(ell_max)),
        never lowers it.
    """

    __slots__ = ()

    def __new__(cls, eps_tail=1e-12, rel_tol=1e-10, max_cutoff=4096,
                max_moment_order=12):
        if not eps_tail > 0:  # also rejects NaN
            raise ValueError("eps_tail must be positive")
        if not rel_tol > 0:
            raise ValueError("rel_tol must be positive")
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


class NumberDistribution(namedtuple("NumberDistribution", "probs tail_bound")):
    """Truncated photon-number distribution with a guaranteed tail bound.

    probs[n] is the probability of n photons, n = 0..cutoff.  tail_bound is
    an upper bound on the probability mass omitted by the truncation
    (relative to the untruncated state the builder targeted; 0 for states
    with finite support).  probs is given as any sequence of numbers and
    kept as a read-only float64 memoryview.
    """

    __slots__ = ()

    def __new__(cls, probs, tail_bound=0.0):
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
        return super().__new__(cls, probs, tail_bound)

    _make = classmethod(checked_make)

    def __reduce__(self):
        # a memoryview cannot be pickled or copied; its values can
        return NumberDistribution, (self.probs.tolist(), self.tail_bound)

    @property
    def cutoff(self):
        return len(self.probs) - 1

    def total(self):
        return kernels.checked_fsum(self.probs, "total probability")

    def mean(self):
        return kernels.checked_fsum((n * p for n, p in enumerate(self.probs)),
                                    "mean photon number")


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
    """p_n * n(n-1)...(n-order+1) for every n, multiplied left to right as
    in kernels.ladder_sums; entries n < order, and entries with p_n == 0,
    are 0."""
    weights = [0.0] * len(probs)
    ns = list(compress(range(order, len(probs)), probs[order:]))
    if not ns:
        return weights
    row = [probs[n] for n in ns]
    for k in range(order):
        row = list(map(mul, row, map(sub, ns, repeat(k))))
    for n, w in zip(ns, row):
        weights[n] = w
    return weights


def _tail_cutoff(family, param, policy):
    """Smallest cutoff in 1..max_cutoff whose tail bound meets eps_tail.

    Bisects on the closed-form bound alone, which is nonincreasing in the
    cutoff.
    """
    _, tail = _BUILDERS[family]
    lo, hi = 0, policy.max_cutoff
    if tail(param, hi) > policy.eps_tail:
        raise _cap_error(family, param, policy)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if tail(param, mid) <= policy.eps_tail:
            hi = mid
        else:
            lo = mid
    return hi


def _cap_error(family, param, policy):
    _, tail = _BUILDERS[family]
    best = tail(param, policy.max_cutoff)
    return AccuracyError(
        f"{family}({param}) needs cutoff > {policy.max_cutoff}: "
        f"tail bound {best:.3e} vs eps_tail {policy.eps_tail:.3e}, "
        f"or moment order {policy.max_moment_order} not converged "
        f"to rel_tol {policy.rel_tol:.1e}")


def _search(family, param, policy):
    """The cutoff choose_cutoff describes, for a nonnegative parameter.

    Each pmf built yields one row of falling weights at the check order.
    Every candidate cutoff D from the tail cutoff up to `top` is screened,
    in increasing order, on prefix sums S of that row (S[D] against
    S[2D]); a candidate that passes is confirmed by the exactly rounded
    sums of the same row's prefixes, so the screen never decides.  The
    first non-finite moment at 2D raises AccuracyError: prefix sums of
    nonnegative weights only grow, so no larger cutoff can pass.  `top`
    doubles, up to max_cutoff, only when no candidate passes.
    """
    pmf, _ = _BUILDERS[family]
    if param == 0.0:
        return 0
    first = _tail_cutoff(family, param, policy)
    top = min(2 * first + policy.max_moment_order, policy.max_cutoff)
    while True:
        # at least K + 1 entries, so n_last < K only where the pmf underflows
        probs = pmf(param, max(2 * top, policy.max_moment_order + 1))
        occupied = list(compress(range(len(probs)), probs))
        if not occupied:
            raise AccuracyError(
                f"{family}({param}) has no nonzero probability in float64")
        order = min(policy.max_moment_order, occupied[-1])
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
            raise _cap_error(family, param, policy)
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
    any cutoff passes, and ValueError for a negative or non-finite
    parameter or an unknown family.
    """
    if family == "fock":
        n = _as_fock_index(param)
        if n > policy.max_cutoff:
            raise AccuracyError(
                f"fock index {n} exceeds max_cutoff {policy.max_cutoff}")
        return n
    if family not in _BUILDERS:
        raise ValueError(f"unknown state family {family!r}")
    if not math.isfinite(param):
        raise ValueError(f"{family} parameter must be finite")
    if param < 0:
        raise ValueError(f"{family} parameter must be nonnegative")
    return _search(family, param, policy)


def _as_fock_index(param):
    if not math.isfinite(param):
        raise ValueError("fock parameter must be finite")
    n = int(param)
    if n != param or n < 0:
        raise ValueError("fock parameter must be a nonnegative integer")
    return n


def _build(family, param, policy):
    cutoff = choose_cutoff(family, param, policy)
    pmf, tail = _BUILDERS[family]
    probs = pmf(param, cutoff)
    # positive: no cutoff passes the search with a zero check-order sum
    total = kernels.checked_fsum(probs, "total probability")
    return NumberDistribution([p / total for p in probs], tail(param, cutoff))


def build_coherent(alpha_sq, policy=DEFAULT_POLICY):
    """Coherent state with mean photon number |alpha|^2 (Poissonian)."""
    return _build("coherent", alpha_sq, policy)


def build_thermal(nbar, policy=DEFAULT_POLICY):
    """Thermal state with mean photon number nbar (geometric pmf)."""
    return _build("thermal", nbar, policy)


def build_fock(n):
    """Number state |n>: p_n = 1, finite support, zero tail."""
    n = _as_fock_index(n)
    probs = [0.0] * (n + 1)
    probs[n] = 1.0
    return NumberDistribution(probs, 0.0)


def build_squeezed_vacuum(r, policy=DEFAULT_POLICY):
    """Squeezed vacuum with squeezing parameter r (even photon numbers only)."""
    return _build("squeezed", r, policy)


def build_state(family, param, policy=DEFAULT_POLICY):
    """Construct a base state by family name; see FAMILIES."""
    if family == "fock":
        return build_fock(choose_cutoff(family, param, policy))
    return _build(family, param, policy)
