"""Truncated photon-number distributions for standard single-mode states.

Every quantity downstream (factorial moments, nonclassicality criteria) is
diagonal in the number basis, so a state is represented by its photon-number
probability vector alone.  Probabilities are built by stable forward
recursion (never by evaluating factorials), and the truncation point is
chosen adaptively: the tail mass must fall below ``eps_tail`` and the
highest requested factorial moment must be converged under cutoff doubling.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .exceptions import AccuracyError

FAMILIES = ("coherent", "thermal", "fock", "squeezed")

# Exponent guard for log-space tail bounds (exp of anything below is 0.0).
_LOG_TINY = -745.0


@dataclass(frozen=True)
class CutoffPolicy:
    """Accuracy policy for choosing the Fock-space truncation point.

    eps_tail: required upper bound on the omitted probability mass.
    rel_tol: relative convergence tolerance for the moment-doubling check.
    max_cutoff: hard cap on the cutoff (exceeding it raises AccuracyError).
    max_moment_order: factorial-moment order used in the convergence check.
        It is a floor: set it at least as high as the largest ladder order
        you will request.  The CLI raises it to the ladder order of each
        request (count + criteria.moment_order(ell_max)), never lowers it.
    """

    eps_tail: float = 1e-12
    rel_tol: float = 1e-10
    max_cutoff: int = 4096
    max_moment_order: int = 12

    def __post_init__(self):
        if not self.eps_tail > 0:  # also rejects NaN
            raise ValueError("eps_tail must be positive")
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        if self.max_cutoff < 1:
            raise ValueError("max_cutoff must be at least 1")
        if self.max_moment_order < 0:
            raise ValueError("max_moment_order must be nonnegative")


DEFAULT_POLICY = CutoffPolicy()


@dataclass(frozen=True)
class NumberDistribution:
    """Truncated photon-number distribution with a guaranteed tail bound.

    probs[n] is the probability of n photons, n = 0..cutoff.  tail_bound is
    an upper bound on the probability mass omitted by the truncation
    (relative to the untruncated state the builder targeted; 0 for states
    with finite support).
    """

    probs: np.ndarray
    tail_bound: float = 0.0

    def __post_init__(self):
        arr = np.ascontiguousarray(self.probs, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("probs must be a nonempty 1-d array")
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise ValueError("probabilities must be finite and nonnegative")
        if not (0.0 <= self.tail_bound < 1.0):
            raise ValueError("tail_bound must lie in [0, 1)")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def cutoff(self):
        return self.probs.size - 1

    def total(self):
        return math.fsum(self.probs)

    def mean(self):
        return math.fsum(n * p for n, p in enumerate(self.probs))

    def renormalized(self):
        """Return a copy scaled to unit total probability."""
        s = self.total()
        if s <= 0.0:
            raise ValueError("cannot renormalize a zero distribution")
        return NumberDistribution(self.probs / s, self.tail_bound)


def _coherent_probs(alpha_sq, cutoff):
    # Poisson pmf by forward recursion: p_{n+1} = p_n * lam / (n+1)
    p = np.zeros(cutoff + 1)
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
    p = np.zeros(cutoff + 1)
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
    p = np.zeros(cutoff + 1)
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


def _raw_factorial_moment(probs, order):
    """sum_n p_n * n(n-1)...(n-order+1) on the unnormalized vector."""
    return float(kernels.ladder_sums(probs, order, False)[order])


def _moment_converged(probs, cutoff, policy):
    """Exactly rounded convergence test of cutoff on a long enough pmf.

    probs must reach index max(2*cutoff, max_moment_order + 1); its prefix
    of length cutoff + 1 is pmf(param, cutoff), because the builders run
    one forward recursion.
    """
    order = policy.max_moment_order
    m_here = _raw_factorial_moment(probs[:cutoff + 1], order)
    m_twice = _raw_factorial_moment(probs[:2 * cutoff + 1], order)
    if m_twice == 0.0:
        # both moments vanish trivially while 2*cutoff < order; only a pmf
        # that is exactly zero from `order` on (underflow) has converged
        return not probs[order:].any()
    return abs(m_twice - m_here) <= policy.rel_tol * abs(m_twice)


def _falling_weights(probs, order):
    """p_n * n(n-1)...(n-order+1) for every n, multiplied left to right as
    in kernels.ladder_sums; entries n < order are 0."""
    weights = np.zeros_like(probs)
    row = probs[order:].copy()
    n = np.arange(order, probs.size, dtype=np.float64)
    with np.errstate(over="ignore"):
        for k in range(order):
            row *= n - k
    weights[order:] = row
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


@lru_cache(maxsize=1)
def _search(family, param, policy):
    """(cutoff, pmf) with pmf at least cutoff + 1 entries long.

    Every candidate cutoff D from the tail cutoff up to `top` is screened
    at once on prefix sums S of the order-K falling weights (S[D] against
    S[2D]); candidates that pass are confirmed in increasing order by the
    exactly rounded _moment_converged, so the screen never decides.  `top`
    doubles, up to max_cutoff, only when no candidate passes.  The cache
    lets _build reuse the pmf that choose_cutoff's search built; the pmf
    is read-only because every caller shares it.
    """
    pmf, _ = _BUILDERS[family]
    if param == 0.0:
        return 0, pmf(param, 0)
    order = policy.max_moment_order
    first = _tail_cutoff(family, param, policy)
    top = min(2 * first + order, policy.max_cutoff)
    while True:
        probs = pmf(param, max(2 * top, order + 1))
        if not probs.any():
            raise AccuracyError(
                f"{family}({param}) has no nonzero probability in float64")
        probs.setflags(write=False)
        sums = np.cumsum(_falling_weights(probs, order))
        cand = np.arange(first, top + 1)
        here, twice = sums[cand], sums[2 * cand]
        # widen rel_tol by the rounding bound of the running sums, so no
        # candidate the exact test accepts is screened out
        slack = 16 * (cand + 1) * np.finfo(np.float64).eps
        with np.errstate(invalid="ignore"):
            keep = (np.abs(twice - here)
                    <= (policy.rel_tol + slack) * (1 + slack) * twice)
        if probs[order:].any():
            keep &= twice != 0.0
        for cutoff in cand[keep].tolist():
            if _moment_converged(probs, cutoff, policy):
                return cutoff, probs
        if top == policy.max_cutoff:
            raise _cap_error(family, param, policy)
        first, top = top + 1, min(2 * top, policy.max_cutoff)


def choose_cutoff(family, param, policy=DEFAULT_POLICY):
    """Smallest cutoff satisfying the tail and moment-convergence criteria.

    A cutoff D is accepted when the tail bound is at most eps_tail and the
    order-K factorial moment (K = policy.max_moment_order) of the pmf cut
    at D agrees with the one cut at 2D to within rel_tol.  When the
    order-K moment at 2D is zero, D is accepted only if the pmf is exactly
    zero in float64 from n = K on.  The search runs over 1..max_cutoff;
    parameter 0 (the vacuum) gives 0.

    Raises AccuracyError when no cutoff up to policy.max_cutoff works, and
    ValueError for a negative or non-finite parameter.
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
    return _search(family, param, policy)[0]


def _as_fock_index(param):
    if not math.isfinite(param):
        raise ValueError("fock parameter must be finite")
    n = int(param)
    if n != param or n < 0:
        raise ValueError("fock parameter must be a nonnegative integer")
    return n


def _build(family, param, policy, renormalize):
    cutoff = choose_cutoff(family, param, policy)
    _, tail = _BUILDERS[family]
    probs = _search(family, param, policy)[1][:cutoff + 1]
    dist = NumberDistribution(probs, tail(param, cutoff))
    return dist.renormalized() if renormalize else dist


def build_coherent(alpha_sq, policy=DEFAULT_POLICY, renormalize=True):
    """Coherent state with mean photon number |alpha|^2 (Poissonian)."""
    return _build("coherent", alpha_sq, policy, renormalize)


def build_thermal(nbar, policy=DEFAULT_POLICY, renormalize=True):
    """Thermal state with mean photon number nbar (geometric pmf)."""
    return _build("thermal", nbar, policy, renormalize)


def build_fock(n):
    """Number state |n>: p_n = 1, finite support, zero tail."""
    n = _as_fock_index(n)
    probs = np.zeros(n + 1)
    probs[n] = 1.0
    return NumberDistribution(probs, 0.0)


def build_squeezed_vacuum(r, policy=DEFAULT_POLICY, renormalize=True):
    """Squeezed vacuum with squeezing parameter r (even photon numbers only)."""
    return _build("squeezed", r, policy, renormalize)


def build_state(family, param, policy=DEFAULT_POLICY):
    """Construct a base state by family name; see FAMILIES."""
    if family == "coherent":
        return build_coherent(param, policy)
    if family == "thermal":
        return build_thermal(param, policy)
    if family == "fock":
        return build_fock(param)
    if family == "squeezed":
        return build_squeezed_vacuum(param, policy)
    raise ValueError(f"unknown state family {family!r}")
