import math
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonstat import AccuracyError, kernels
from photonstat.moments import (
    antinormal_ladder,
    ladder_sums_exact,
    normal_ladder,
)
from photonstat.states import (
    _BUILDERS,
    NumberDistribution,
    _falling_weights,
    build_state,
)


def thermal_like(size, q=0.6):
    probs = q ** np.arange(size) * (1 - q)
    return probs / probs.sum()


def exact_rising_sums(probs, order):
    """sum_n p_n (n+1)(n+2)...(n+k) for k = 0..order, as Fractions."""
    return [sum(Fraction(p) * math.perm(n + k, k) for n, p in enumerate(probs))
            for k in range(order + 1)]


@pytest.mark.parametrize("rising", [False, True])
@pytest.mark.parametrize("size,order",
                         [(1, 0), (5, 3), (64, 8), (200, 10), (700, 14)])
def test_matches_exact_rational_reference(rising, size, order):
    # falling sums come from the kernel, rising ones are the anti-normal
    # ladder derived from them
    probs = thermal_like(size, q=0.7)
    if rising:
        got = antinormal_ladder(NumberDistribution(probs), order).values
        want = exact_rising_sums(probs, order)
    else:
        got = kernels.ladder_sums(probs, order)
        want = ladder_sums_exact(probs, order)
    np.testing.assert_allclose(got, [float(v) for v in want], rtol=1e-13)


def test_zero_entries_are_skipped():
    # zero padding must not change anything, even when the padded indices
    # would carry enormous weights
    probs = np.zeros(500)
    probs[2] = 1.0
    got = kernels.ladder_sums(probs, 6)
    np.testing.assert_array_equal(got, [1.0, 2.0, 2.0, 0, 0, 0, 0])
    got = antinormal_ladder(NumberDistribution(probs), 3).values
    np.testing.assert_array_equal(got, [1.0, 3.0, 12.0, 60.0])


def test_falling_weights_stop_at_occupation():
    # n < k contributes nothing to falling sums
    probs = np.array([0.25, 0.75])
    got = kernels.ladder_sums(probs, 4)
    np.testing.assert_array_equal(got, [1.0, 0.75, 0.0, 0.0, 0.0])


def test_order_zero_is_total_mass():
    probs = thermal_like(100)
    got = kernels.ladder_sums(probs, 0)
    assert len(got) == 1
    assert math.isclose(got[0], math.fsum(probs), rel_tol=1e-15)


def test_overflow_raises_at_the_first_entry():
    # the falling weight of a point mass at n = 400 first exceeds float64
    # at order 122, where (400)_k first exceeds DBL_MAX; the error names
    # that entry
    probs = np.zeros(401)
    probs[400] = 1.0
    with pytest.raises(AccuracyError, match="^normal ladder entry N_122 "
                                            "exceeds the float64 range$"):
        kernels.ladder_sums(probs, 400)
    # every weight is finite, but the order-138 sum exceeds float64
    probs = np.zeros(246)
    probs[244] = probs[245] = 0.5
    for ladder in (kernels.ladder_sums,
                   lambda p, k: normal_ladder(NumberDistribution(p), k)):
        with pytest.raises(AccuracyError, match="^normal ladder entry N_138 "
                                                "exceeds the float64 range$"):
            ladder(probs, 138)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                max_size=40),
       st.integers(min_value=0, max_value=8))
def test_compensation_tracks_exact_sums(weights, order):
    total = math.fsum(weights)
    if total == 0.0:
        weights[0] = 1.0
        total = 1.0
    probs = np.array(weights) / total
    got = kernels.ladder_sums(probs, order)
    want = ladder_sums_exact(probs, order)
    for g, w in zip(got, want):
        assert math.isclose(g, float(w), rel_tol=1e-12, abs_tol=1e-300)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=50),
       st.integers(min_value=0, max_value=10))
def test_rising_ladder_never_decreases(size, order):
    probs = thermal_like(size)
    got = antinormal_ladder(NumberDistribution(probs), order).values
    assert np.all(np.diff(got) >= 0)


# --------------------------------------------- numpy reference, bit for bit
# Test-local copies of the numpy kernel and cutoff-search weights the
# stdlib versions replaced; the new code must reproduce them exactly.

def numpy_ladder_sums(probs, order):
    probs = np.asarray(probs, dtype=np.float64)
    occ = np.flatnonzero(probs)
    n = occ.astype(np.float64)
    steps = np.arange(1, order + 1, dtype=np.float64)[:, None]
    factors = np.maximum(n - steps + 1, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        weights = np.cumprod(np.vstack((probs[occ], factors)), axis=0)
    out = np.empty(order + 1, dtype=np.float64)
    for k, row in enumerate(weights.tolist()):
        try:
            out[k] = math.fsum(row)
        except OverflowError:
            out[k] = math.inf
    return out


def numpy_falling_weights(probs, order):
    probs = np.asarray(probs, dtype=np.float64)
    weights = np.zeros_like(probs)
    row = probs[order:].copy()
    n = np.arange(order, probs.size, dtype=np.float64)
    with np.errstate(over="ignore"):
        for k in range(order):
            row *= n - k
    weights[order:] = row
    return weights


def hexes(values):
    return [float(v).hex() for v in values]


def spike(size, *occupied):
    probs = np.zeros(size)
    probs[list(occupied)] = 1.0 / len(occupied)
    return probs


def pmf_cases():
    # the built states and the longer pmfs the cutoff search screens
    for family, param in (("coherent", 8.0), ("thermal", 3.0),
                          ("squeezed", 1.2)):
        dist = build_state(family, param)
        yield f"{family}-{param}", np.array(dist.probs)
        pmf, _ = _BUILDERS[family]
        yield f"{family}-{param}-search", np.array(pmf(param, 4 * dist.cutoff))


PIN_CASES = (
    [(f"thermal-{size}", thermal_like(size, q=0.7), order)
     for size, order in [(1, 0), (5, 3), (64, 8), (200, 10), (700, 14)]]
    + [(name, probs, order) for name, probs in pmf_cases()
       for order in (8, 12, 18)]
    # the inputs of test_overflow_raises_at_the_first_entry, a weight that
    # overflows before its falling factor reaches 0 (inf * 0 = NaN), and
    # orders past the support, where every falling weight vanishes
    + [("spike-400", spike(401, 400), 400),
       ("spike-244-245", spike(246, 244, 245), 138),
       ("spike-200-past-zero", spike(201, 3, 200), 205),
       ("spike-1-3-past-support", spike(4, 1, 3), 8)]
)


@pytest.mark.parametrize("rising", [False, True])
@pytest.mark.parametrize("name,probs,order", PIN_CASES,
                         ids=[c[0] + f"-K{c[2]}" for c in PIN_CASES])
def test_ladder_sums_match_numpy_kernel_bit_for_bit(name, probs, order,
                                                     rising):
    falling = numpy_ladder_sums(probs, order).tolist()
    if rising:
        # the anti-normal ladder is the exactly rounded positive sum
        # sum_j C(k,j)^2 j! N_{k-j} over the kernel's falling sums; where
        # those overflow, so does the ladder
        dist = NumberDistribution(probs)
        if not all(map(math.isfinite, falling)):
            with pytest.raises(AccuracyError):
                antinormal_ladder(dist, order)
            return
        want = hexes(math.fsum(math.comb(k, j) ** 2 * math.factorial(j)
                               * falling[k - j]
                               for j in range(k + 1) if falling[k - j])
                     for k in range(order + 1))
        assert hexes(antinormal_ladder(dist, order).values) == want
        return
    # the library passes its read-only float64 view, not an array
    for probs in (probs, NumberDistribution(probs).probs):
        if all(map(math.isfinite, falling)):
            assert hexes(kernels.ladder_sums(probs, order)) == hexes(falling)
            continue
        # the kernel raises at the first order the reference overflows
        first = next(k for k, v in enumerate(falling)
                     if not math.isfinite(v))
        with pytest.raises(AccuracyError,
                           match=f"^normal ladder entry N_{first} exceeds"):
            kernels.ladder_sums(probs, order)


@pytest.mark.parametrize("name,probs,order", PIN_CASES,
                         ids=[c[0] + f"-K{c[2]}" for c in PIN_CASES])
def test_falling_weights_match_numpy_bit_for_bit(name, probs, order):
    want = numpy_falling_weights(probs, order)
    got = _falling_weights(NumberDistribution(probs).probs, order)
    assert hexes(got) == hexes(want)
    # the cutoff screen's running sums, cumsum against accumulate
    with np.errstate(over="ignore"):
        assert hexes(accumulate(got)) == hexes(np.cumsum(want))
