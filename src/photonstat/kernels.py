"""Ladder accumulation kernel: the one hot loop behind every moment ladder."""

import math
from itertools import compress, repeat
from operator import add, mul


def _row_sum(row):
    try:
        return math.fsum(row)
    except OverflowError:  # finite weights whose sum exceeds DBL_MAX
        return math.inf


def ladder_sums(probs, order):
    """Falling-factorial moment sums of a photon-number pmf, one value per
    order: out[k] = sum_n p_n * n*(n-1)*...*(n-k+1).

    Weights are built by left-to-right products from p_n, one row of
    weights per order, and each order is summed with exact rounding
    (math.fsum).  Entries with p_n == 0 are skipped, so zero padding costs
    nothing, and a falling weight is dropped once its factor n - k + 1 has
    made it exactly zero.
    Overflow, of a weight or of a sum, surfaces as non-finite output;
    callers must check finiteness.  Returns a list of order + 1 floats.
    Order 0 is the exactly rounded sum of probs, overflow mapped to inf;
    the cutoff search sums prefixes of its falling-weight row this way.
    """
    ns = list(map(float, compress(range(len(probs)), probs)))
    row = list(map(float, compress(probs, probs)))
    out = [_row_sum(row)]
    for k in range(1, order + 1):
        if not row:  # every falling weight has vanished: the rest are 0
            out += [0.0] * (order + 1 - k)
            break
        # factor n - k + 1, exact in float64
        row = list(map(mul, row, map(add, ns, repeat(float(1 - k)))))
        # only the weight of n = k - 1 can have become zero, and it leads
        # the row unless an earlier weight overflowed to inf (then NaN)
        if not row[0]:
            del row[0], ns[0]
        out.append(_row_sum(row))
    return out
