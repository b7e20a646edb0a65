"""Exact references and process limits shared by the test modules."""

import math
from fractions import Fraction


def exact_rising_sums(probs, order):
    """<a^k a^+k> = sum_n p_n (n+k)!/n! for k = 0..order, as Fractions."""
    return [sum(Fraction(p) * math.perm(n + k, k) for n, p in enumerate(probs))
            for k in range(order + 1)]


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
