"""Float64 sums: the ladder kernel, the two guarded sums every other
module adds through, the finiteness check they share, and the overflow
proof that settles a sum before it is formed.  No sum returns inf or NaN:
one that leaves float64 raises AccuracyError."""

import math
import sys
from itertools import compress, repeat
from operator import add, mul

from .exceptions import AccuracyError

# log(DBL_MAX) plus a margin far beyond the rounding of lgamma and log
_LOG_FLOAT64_LIMIT = math.log(sys.float_info.max) + 1.0


def proves_overflow(k, total):
    """Whether k! * total is beyond float64 by a margin no rounding of
    lgamma or log can close.  A sum whose terms are each at least k! times
    one of some weights summing to total (for example <(n+k)_k> >= k! N_0,
    as (n+k)...(n+1) >= k!) then overflows too, so a caller can fail
    before forming it.  False proves nothing."""
    return total > 0.0 and (math.lgamma(k + 1) + math.log(total)
                            > _LOG_FLOAT64_LIMIT)


def checked_fsum(terms, quantity, *args):
    """math.fsum of terms, exactly rounded (Shewchuk, Discrete Comput. Geom.
    18, 305 (1997)); a non-finite result (an inf or NaN term, or a sum
    beyond DBL_MAX) raises AccuracyError naming quantity.format(*args)."""
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError):  # a sum beyond DBL_MAX, or inf - inf
        total = math.inf
    if math.isfinite(total):  # the common case, without a second call
        return total
    return checked(total, quantity, *args)


def checked(value, quantity, *args):
    """value if it is finite, else AccuracyError naming
    quantity.format(*args)."""
    if math.isfinite(value):
        return value
    raise AccuracyError(quantity.format(*args) + " exceeds the float64 range")


def exact_fsum(coeffs, values, quantity, *args):
    """sum(c * v) over the sequences coeffs, of exact nonnegative integers,
    and values, of nonnegative floats, within a relative error below
    3 * 2**-53: each product c * v rounds once (twice where c > 2**53, as
    float(c) rounds first) and math.fsum rounds their sum once.  Where a
    term or the float sum leaves float64, the sum is redone in exact
    rationals and rounded once by checked_fsum, so only that branch is
    exactly rounded; it raises only if the sum is beyond DBL_MAX.  A NaN
    value raises ValueError, looked for only once the sum is non-finite.
    """
    try:
        total = math.fsum(map(mul, coeffs, values))
    except (OverflowError, ValueError):  # a term beyond DBL_MAX, or inf - inf
        total = math.inf
    if math.isfinite(total):
        return total
    if any(map(math.isnan, values)):
        raise ValueError(f"{quantity.format(*args)} reads a NaN")
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
    Order 0 is the exactly rounded sum of probs, returned before any
    photon number is listed; the cutoff search sums prefixes of its
    falling-weight row this way.  A pmf with one occupied n (a number
    state) takes each weight as its order's sum, as the fsum of one finite
    float is that float, with no per-order row.
    """
    row = list(map(float, compress(probs, probs)))
    out = [checked_fsum(row, "normal ladder entry N_0")]
    if not order:
        return out
    ns = list(map(float, compress(range(len(probs)), probs)))
    if len(ns) == 1:  # a number state: each N_k is its one weight
        weight, n = row[0], ns[0]
        for k in range(1, min(order, int(n)) + 1):
            weight *= n + float(1 - k)
            if not math.isfinite(weight):
                raise AccuracyError(
                    f"normal ladder entry N_{k} exceeds the float64 range")
            out.append(weight)
        return out + [0.0] * (order + 1 - len(out))
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
