import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonstat import kernels
from photonstat.moments import ladder_sums_exact, normal_ladder
from photonstat.states import NumberDistribution


def thermal_like(size, q=0.6):
    probs = q ** np.arange(size) * (1 - q)
    return probs / probs.sum()


@pytest.mark.parametrize("rising", [False, True])
@pytest.mark.parametrize("size,order",
                         [(1, 0), (5, 3), (64, 8), (200, 10), (700, 14)])
def test_matches_exact_rational_reference(rising, size, order):
    probs = thermal_like(size, q=0.7)
    got = kernels.ladder_sums(probs, order, rising)
    want = [float(v) for v in ladder_sums_exact(probs, order, rising)]
    np.testing.assert_allclose(got, want, rtol=1e-13)


def test_zero_entries_are_skipped():
    # zero padding must not change anything, even when the padded indices
    # would carry enormous weights
    probs = np.zeros(500)
    probs[2] = 1.0
    got = kernels.ladder_sums(probs, 6, False)
    np.testing.assert_array_equal(got, [1.0, 2.0, 2.0, 0, 0, 0, 0])
    got = kernels.ladder_sums(probs, 3, True)
    np.testing.assert_array_equal(got, [1.0, 3.0, 12.0, 60.0])


def test_falling_weights_stop_at_occupation():
    # n < k contributes nothing to falling sums
    probs = np.array([0.25, 0.75])
    got = kernels.ladder_sums(probs, 4, False)
    np.testing.assert_array_equal(got, [1.0, 0.75, 0.0, 0.0, 0.0])


def test_order_zero_is_total_mass():
    probs = thermal_like(100)
    got = kernels.ladder_sums(probs, 0, True)
    assert got.shape == (1,)
    assert math.isclose(got[0], math.fsum(probs), rel_tol=1e-15)


def test_overflow_surfaces_as_nonfinite():
    # occupied indices large enough that falling weights exceed float64
    probs = np.zeros(401)
    probs[400] = 1.0
    got = kernels.ladder_sums(probs, 400, False)
    assert not np.all(np.isfinite(got))
    # every weight is finite, but the order-138 sum exceeds float64; the
    # kernel must report it as non-finite, not raise
    probs = np.zeros(246)
    probs[244] = probs[245] = 0.5
    got = kernels.ladder_sums(probs, 138, False)
    assert not np.all(np.isfinite(got))
    with pytest.raises(OverflowError, match="exceeds the float64 range"):
        normal_ladder(NumberDistribution(probs), 138)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                max_size=40),
       st.integers(min_value=0, max_value=8),
       st.booleans())
def test_compensation_tracks_exact_sums(weights, order, rising):
    total = math.fsum(weights)
    if total == 0.0:
        weights[0] = 1.0
        total = 1.0
    probs = np.array(weights) / total
    got = kernels.ladder_sums(probs, order, rising)
    want = ladder_sums_exact(probs, order, rising)
    for g, w in zip(got, want):
        assert math.isclose(g, float(w), rel_tol=1e-12, abs_tol=1e-300)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=50),
       st.integers(min_value=0, max_value=10))
def test_rising_ladder_never_decreases(size, order):
    probs = thermal_like(size)
    got = kernels.ladder_sums(probs, order, True)
    assert np.all(np.diff(got) >= 0)
