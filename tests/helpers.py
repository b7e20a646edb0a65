"""Exact references and process limits shared by the test modules."""

import math
from fractions import Fraction


def exact_rising_sums(probs, order):
    """<a^k a^+k> = sum_n p_n (n+k)!/n! for k = 0..order, as Fractions."""
    return [sum(Fraction(p) * math.perm(n + k, k) for n, p in enumerate(probs))
            for k in range(order + 1)]


# Both ladders of each family with no pmf.  The factorial-moment generating
# function F(z) = sum_k N_k z^k / k! of every family solves P(z) F' = Q(z) F
# with small polynomials, and so does H(z) = sum_k N^A_k z^k / k!, with
# N^A_k = <a^k a^+k>; matching coefficients gives a three-term recurrence.
# Each step maps (param, k, L_k, L_{k-1}) to L_{k+1}, with L_0 = 1.  param
# is the mean for coherent and thermal states, the photon number n for a
# Fock state and s = sinh(r)^2 for squeezed vacuum.
_NORMAL_STEPS = {
    "coherent": lambda p, k, a, b: p * a,
    "thermal": lambda p, k, a, b: (k + 1) * p * a,
    "fock": lambda p, k, a, b: (p - k) * a,
    "squeezed": lambda p, k, a, b: p * ((2 * k + 1) * a + k * k * b),
}
_ANTINORMAL_STEPS = {
    # k! L_k(-lam), Agarwal & Tara, Phys. Rev. A 43, 492 (1991)
    "coherent": lambda p, k, a, b: (2 * k + 1 + p) * a - k * k * b,
    "thermal": lambda p, k, a, b: (k + 1) * (p + 1) * a,
    "fock": lambda p, k, a, b: (p + k + 1) * a,
    "squeezed": lambda p, k, a, b: (1 + p) * ((2 * k + 1) * a - k * k * b),
}


def _recurrence(step, param, order):
    param = Fraction(param)
    values, previous = [Fraction(1)], Fraction(0)
    for k in range(order):
        values.append(step(param, k, values[-1], previous))
        previous = values[-2]
    return values


def exact_normal_ladder(family, param, order):
    """N_k = <a^+k a^k> of the untruncated state for k = 0..order, as
    Fractions (param as for _NORMAL_STEPS, any exact rational)."""
    return _recurrence(_NORMAL_STEPS[family], param, order)


def exact_antinormal_ladder(family, param, order):
    """N^A_k = <a^k a^+k> of the untruncated state for k = 0..order, as
    Fractions (param as for _NORMAL_STEPS, any exact rational)."""
    return _recurrence(_ANTINORMAL_STEPS[family], param, order)


def reorder_coefficients(x):
    # the paper's a^+x a^x = sum_k coeff[k] a^{x-k} a^+(x-k), exact integers
    return [(-1) ** k * math.factorial(k) * math.comb(x, k) ** 2
            for k in range(x + 1)]


# The paper's closed forms for Mandel Q, exact on an exact-rational normal
# ladder N_0..N_{count+2}

def q_subtracted_ref(normal, n):
    # Q of the n-photon-subtracted state: N_{n+2}/N_{n+1} - N_{n+1}/N_n
    return normal[n + 2] / normal[n + 1] - normal[n + 1] / normal[n]


def q_added_ref(normal, m):
    # Q of the m-photon-added state on the anti-normal ladder
    # A_k = <a^k a^+k> = sum_j C(k,j)^2 j! N_{k-j}:
    # (A_{m+2} - 4 A_{m+1} + 2 A_m)/(A_{m+1} - A_m) - (A_{m+1} - A_m)/A_m
    a0, a1, a2 = (sum(math.comb(k, j) ** 2 * math.factorial(j) * normal[k - j]
                      for j in range(k + 1)) for k in (m, m + 1, m + 2))
    return (a2 - 4 * a1 + 2 * a0) / (a1 - a0) - (a1 - a0) / a0


def limit_address_space():
    # 1 GiB, for a child process: a runaway list or table fails at once
    # instead of filling memory
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))
