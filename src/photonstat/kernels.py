"""Ladder accumulation kernel: the one hot loop behind every moment ladder."""

import math

import numpy as np


def ladder_sums(probs, order, rising):
    """Weighted moment sums of a photon-number pmf, one value per order.

    falling (rising=False): out[k] = sum_n p_n * n*(n-1)*...*(n-k+1)
    rising  (rising=True):  out[k] = sum_n p_n * (n+1)*(n+2)*...*(n+k)

    Weights are built by left-to-right products from p_n, and each order is
    summed with exact rounding (math.fsum).  Entries with p_n == 0 are
    skipped, so zero-padded distributions never poison the sums with
    inf*0.  Overflow, of a weight or of a sum, surfaces as non-finite
    output; callers must check finiteness.
    """
    probs = np.asarray(probs, dtype=np.float64)
    occ = np.flatnonzero(probs)
    n = occ.astype(np.float64)
    steps = np.arange(1, order + 1, dtype=np.float64)[:, None]
    factors = n + steps if rising else np.maximum(n - steps + 1, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        weights = np.cumprod(np.vstack((probs[occ], factors)), axis=0)
    out = np.empty(order + 1, dtype=np.float64)
    for k, row in enumerate(weights.tolist()):
        try:
            out[k] = math.fsum(row)
        except OverflowError:  # finite weights whose sum exceeds DBL_MAX
            out[k] = math.inf
    return out
