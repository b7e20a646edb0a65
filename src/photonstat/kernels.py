"""Float64 sums: the ladder kernel and the two guarded sums every other
module adds through.  None returns inf or NaN: a sum that leaves float64
raises AccuracyError."""

import math
from itertools import compress, repeat
from operator import add, mul

from .exceptions import AccuracyError


def checked_fsum(terms, quantity, *args):
    """math.fsum of terms, exactly rounded (Shewchuk, Discrete Comput. Geom.
    18, 305 (1997)); a non-finite result (an inf or NaN term, or a sum
    beyond DBL_MAX) raises AccuracyError naming quantity.format(*args)."""
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError):  # a sum beyond DBL_MAX, or inf - inf
        total = math.inf
    if math.isfinite(total):
        return total
    raise AccuracyError(quantity.format(*args) + " exceeds the float64 range")


def exact_fsum(coeffs, values, quantity, *args):
    """sum(c * v) over the sequences coeffs, of exact nonnegative integers,
    and values, of nonnegative floats, exactly rounded.  Where a term or
    the float sum leaves float64, the sum is redone in exact rationals and
    rounded once by checked_fsum, which raises only if it is beyond DBL_MAX.
    """
    try:
        total = math.fsum(map(mul, coeffs, values))
    except (OverflowError, ValueError):  # a term beyond DBL_MAX, or inf - inf
        total = math.inf
    if math.isfinite(total):
        return total
    if all(map(math.isfinite, values)):
        from fractions import Fraction  # loaded only when float64 overflows
        total = sum(map(mul, coeffs, map(Fraction, values)))
    return checked_fsum((total,), quantity, *args)


def ladder_sums(probs, order):
    """Falling-factorial moment sums of a photon-number pmf, one value per
    order: out[k] = sum_n p_n * n*(n-1)*...*(n-k+1).

    Weights are built by left-to-right products from p_n, one row of
    weights per order, and each order is summed by checked_fsum.  Entries
    with p_n == 0 are skipped, so zero padding costs nothing, and a
    falling weight is dropped once its factor n - k + 1 has made it
    exactly zero.  Returns a list of order + 1 floats; the first order
    whose weight or sum leaves float64 raises AccuracyError naming N_k.
    Every falling factor on a kept weight is at least 1, so the exact sum
    is then beyond DBL_MAX too, up to a relative band of k * 2**-53.
    Order 0 is the exactly rounded sum of probs; the cutoff search sums
    prefixes of its falling-weight row this way.
    """
    ns = list(map(float, compress(range(len(probs)), probs)))
    row = list(map(float, compress(probs, probs)))
    out = [checked_fsum(row, "normal ladder entry N_0")]
    for k in range(1, order + 1):
        if not row:  # every falling weight has vanished: the rest are 0
            out += [0.0] * (order + 1 - k)
            break
        # factor n - k + 1, exact in float64
        row = list(map(mul, row, map(add, ns, repeat(float(1 - k)))))
        # only the weight of n = k - 1 can have become zero; it leads the row
        if not row[0]:
            del row[0], ns[0]
        out.append(checked_fsum(row, "normal ladder entry N_{}", k))
    return out
