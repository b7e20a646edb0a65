import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonstat import moments, states
from photonstat import (
    AccuracyError,
    CutoffPolicy,
    NumberDistribution,
    StateModification,
    UndefinedStateError,
    build_state,
    evaluate_all,
    modified_moment_sequence,
    normal_ladder,
    oracle_subtract,
)
from photonstat.moments import (
    antinormal_ladder,
    ladder_sums_exact,
    modified_moment,
)

from helpers import (
    exact_antinormal_ladder,
    exact_normal_ladder,
    exact_rising_sums,
    reorder_coefficients,
)


def _subtracted(source, n, x_max):
    return modified_moment_sequence(source, StateModification.subtract(n),
                                    x_max)


def brute_falling_moment(dist, k):
    return math.fsum(
        p * math.prod(range(n - k + 1, n + 1))
        for n, p in enumerate(dist.probs))


# ---------------------------------------------------------------- ladders

def test_normal_ladder_fock():
    ladder = normal_ladder(build_state("fock", 2), 4)
    np.testing.assert_array_equal(ladder.values, [1.0, 2.0, 2.0, 0.0, 0.0])
    assert ladder.ordering == "normal"


def test_normal_ladder_coherent():
    ladder = normal_ladder(build_state("coherent", 1.0), 3)
    np.testing.assert_allclose(ladder.values, [1.0, 1.0, 1.0, 1.0],
                               rtol=1e-10)


def test_normal_ladder_thermal():
    # analytic k! nbar^k, cross-checked against the direct pmf sum
    dist = build_state("thermal", 0.5)
    ladder = normal_ladder(dist, 3)
    np.testing.assert_allclose(ladder.values, [1.0, 0.5, 0.5, 0.75],
                               rtol=1e-10)
    brute = [brute_falling_moment(dist, k) for k in range(4)]
    np.testing.assert_allclose(ladder.values, brute, rtol=1e-13)


def test_antinormal_ladder_vacuum():
    ladder = antinormal_ladder(build_state("fock", 0), 3)
    assert ladder == [1, 1, 2, 6]
    assert all(type(value) is Fraction for value in ladder)


def test_antinormal_ladder_fock1():
    assert antinormal_ladder(build_state("fock", 1), 2) == [1, 2, 6]


def test_antinormal_ladder_coherent_commutator_shift():
    ladder = antinormal_ladder(build_state("coherent", 1.0), 1)
    assert abs(ladder[1] - 2) <= Fraction(1e-12) * 2


def test_antinormal_ladder_monotone():
    for dist in (build_state("fock", 0), build_state("thermal", 1.0),
                 build_state("coherent", 0.5)):
        values = antinormal_ladder(dist, 6)
        assert values[0] <= values[1]
        assert all(a < b for a, b in zip(values[1:], values[2:]))


def test_ladder_unit_norm_head():
    for dist in (build_state("thermal", 2.0), build_state("coherent", 3.0)):
        assert abs(normal_ladder(dist, 2).values[0] - 1.0) <= 1e-13


def test_ladder_float_matches_exact_rational():
    dist = build_state("thermal", 1.2)
    got = normal_ladder(dist, 8).values
    want = [float(v) for v in ladder_sums_exact(dist.probs, 8)]
    np.testing.assert_allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize("family,param", [
    ("thermal", 1.2), ("coherent", 0.5), ("squeezed", 0.8), ("fock", 3)])
def test_antinormal_ladder_is_the_rising_sum(family, param):
    # the reordering identity <a^k a^+k> = sum_j C(k,j)^2 j! N_{k-j}, in
    # exact rationals on one float pmf, against sum_n p_n (n+k)!/n!
    dist = build_state(family, param)
    assert antinormal_ladder(dist, 12) == exact_rising_sums(dist.probs, 12)


@pytest.mark.parametrize("family,param", [
    ("coherent", 0.5), ("coherent", 7.9), ("coherent", 40.0),
    ("thermal", 0.5), ("thermal", 7.9), ("squeezed", 0.3), ("squeezed", 2.0),
    ("fock", 0), ("fock", 3), ("fock", 200)])
def test_recurrence_ladders_match_the_pmf_ladders(family, param):
    # The bound is the cutoff contract's.  The pmf's order-40 moment cut at
    # D agrees with the one cut at 2D to rel_tol, and no lower order has a
    # larger tail share, as (n)_40 / (n)_k grows with n; the normal ladder
    # is then short by at most rel_tol, and dividing by the truncated
    # total makes it long by at most eps_tail.  The anti-normal entries
    # are positive sums of normal ones, so the same bound holds.  Rounding
    # adds at most 4 (cutoff + order + 1) ulps: the pmf's forward
    # recursion, its parameter (tanh(r)^2 there, s here) and the ladder's
    # falling products.  A Fock state has no truncation.
    order = 40
    policy = CutoffPolicy(max_moment_order=order)
    dist = build_state(family, param, policy)
    bound = 4 * (dist.cutoff + order + 1) * math.ulp(1.0)
    if dist.tail_bound:
        bound += policy.rel_tol + policy.eps_tail
    if family == "squeezed":
        param = math.sinh(param) ** 2
    anti = antinormal_ladder(dist, order)
    pairs = ((normal_ladder(dist, order).values,
              exact_normal_ladder(family, param, order)),
             (anti, exact_antinormal_ladder(family, param, order)))
    for got, want in pairs:
        for k, (g, w) in enumerate(zip(got, want)):
            assert abs(Fraction(g) - w) <= Fraction(bound) * w, k
    if family == "fock":  # integer sums over an exact pmf
        assert anti == pairs[1][1]


@pytest.mark.parametrize("family,param", [
    ("coherent", 0.5), ("coherent", 40.0), ("thermal", 7.9),
    ("squeezed", 0.3), ("squeezed", 2.0), ("fock", 3), ("fock", 200)])
def test_analytic_ladder_is_the_exact_recurrence_rounded(family, param):
    # each float step rounds at most four times, each time by a relative
    # ulp/2 of a sum of positive terms, so N_k is within 4 k ulps of the
    # exact recurrence at the same float parameter
    order = 40
    exact = exact_normal_ladder(
        family, math.sinh(param) ** 2 if family == "squeezed" else param,
        order)
    got = states.analytic_ladder(family, param, order)
    assert len(got) == order + 1 and got[0] == 1.0
    for k, (g, w) in enumerate(zip(got, exact)):
        assert abs(Fraction(g) - w) <= Fraction(4 * k * math.ulp(1.0)) * w, k


def test_analytic_ladder_edges():
    # a Fock ladder ends at N_n with +0.0, not -0.0
    got = states.analytic_ladder("fock", 3.0, 6)
    assert got == [1.0, 3.0, 6.0, 6.0, 0.0, 0.0, 0.0]
    assert all(math.copysign(1.0, v) == 1.0 for v in got)
    with pytest.raises(ValueError, match="^fock parameter must be a "
                       "nonnegative integer$"):
        states.analytic_ladder("fock", 2.5, 3)
    # the first N_k beyond float64 is an accuracy failure, sinh(r)^2
    # included
    for family, param, k in (("coherent", 1e300, 2), ("squeezed", 400.0, 1),
                             ("squeezed", 800.0, 1), ("thermal", 1e200, 2),
                             ("fock", 10 ** 400, 1)):
        with pytest.raises(AccuracyError, match=f"^analytic normal ladder "
                           f"N_{k} exceeds the float64 range$"):
            states.analytic_ladder(family, param, 3)


def test_ladder_overflow_raises():
    probs = np.zeros(401)
    probs[400] = 1.0
    dist = NumberDistribution(probs)
    with pytest.raises(AccuracyError):
        normal_ladder(dist, 400)


def test_provable_added_norm_overflow_raises_before_any_sum(monkeypatch):
    # T_m = <(n+m)_m> >= m! * N_0, so log(200000!) alone proves the norm of
    # the 200000-photon-added state overflows: no ladder or sum may run
    dist = build_state("coherent", 1.0)

    def forbidden(*args, **kwargs):
        raise AssertionError("a sum ran although it must overflow")

    monkeypatch.setattr(moments.kernels, "ladder_sums", forbidden)
    monkeypatch.setattr(moments.kernels, "exact_fsum", forbidden)
    with pytest.raises(AccuracyError, match=r"^<\(n\+200000\)_200000> of the "
                       "base state exceeds the float64 range$"):
        modified_moment_sequence(dist, StateModification.add(200000), 1)
    # a count beyond float64, whose factorial is too, with any weight
    huge = 10 ** 400
    assert moments.kernels.proves_overflow(huge, 5e-324)
    assert not moments.kernels.proves_overflow(huge, 0.0)
    with pytest.raises(AccuracyError, match=rf"^<\(n\+{huge}\)_{huge}> of "
                       "the base state exceeds the float64 range$"):
        modified_moment_sequence(build_state("fock", 1),
                                 StateModification.add(huge), 2)


def test_added_norm_overflow_bound_is_not_premature():
    # the vacuum has T_m = m!: 170! fits in float64, 171! does not; adding
    # m photons to it gives |m>, of mean m
    vacuum = build_state("fock", 0)
    assert modified_moment_sequence(
        vacuum, StateModification.add(170), 1) == [1.0, 170.0]
    with pytest.raises(AccuracyError, match=r"^<\(n\+171\)_171> "):
        modified_moment_sequence(vacuum, StateModification.add(171), 1)
    # Fock(1) has T_170 = 171!: the bound 170! does not prove it overflows,
    # so the positive sum must find it
    with pytest.raises(AccuracyError, match=r"^<\(n\+170\)_170> "):
        modified_moment_sequence(build_state("fock", 1),
                                 StateModification.add(170), 1)


# ----------------------------------------------------- subtracted moments

def test_subtracted_moment_coherent_is_eigenstate():
    ladder = normal_ladder(build_state("coherent", 2.0), 6)
    for n in range(3):
        for x, got in enumerate(_subtracted(ladder, n, 3)):
            assert math.isclose(got, 2.0 ** x, rel_tol=1e-10)


def test_subtracted_moment_fock():
    ladder = normal_ladder(build_state("fock", 2), 3)
    assert _subtracted(ladder, 1, 1)[1] == 1.0


def test_subtracted_moment_thermal():
    # subtracting one photon from a thermal state doubles the mean
    ladder = normal_ladder(build_state("thermal", 0.5), 2)
    assert math.isclose(_subtracted(ladder, 1, 1)[1], 1.0, rel_tol=1e-10)


def test_subtracted_moment_order_zero_is_one():
    ladder = normal_ladder(build_state("thermal", 1.0), 3)
    assert _subtracted(ladder, 2, 0) == [1.0]


def test_oversubtraction_is_undefined():
    ladder = normal_ladder(build_state("fock", 2), 4)
    with pytest.raises(UndefinedStateError):
        _subtracted(ladder, 3, 1)


@pytest.mark.parametrize("dist,n,error", [
    # finite support: the subtraction really annihilates the state
    (build_state("fock", 2), 3, UndefinedStateError),
    (build_state("coherent", 0.0), 1, UndefinedStateError),
    (build_state("thermal", 0.0), 2, UndefinedStateError),
    # unbounded support: N_n only underflows float64
    (build_state("coherent", 1e-300), 2, AccuracyError),
    (build_state("thermal", 1e-300), 2, AccuracyError),
    (build_state("squeezed", 1e-200), 2, AccuracyError),
], ids=["fock2", "coherent0", "thermal0", "coherent1e-300",
        "thermal1e-300", "squeezed1e-200"])
def test_zero_norm_is_annihilation_only_for_finite_support(dist, n, error):
    # the message names N_n on the ladder route, on the route that settles
    # a zero norm before any ladder exists, and in the oracle
    ladder = normal_ladder(dist, n + 2)
    assert ladder.values[n] == 0.0
    with pytest.raises(error, match=f"N_{n}"):
        _subtracted(ladder, n, 1)
    with pytest.raises(error, match=f"N_{n}"):
        _subtracted(dist, n, 2)
    with pytest.raises(error, match=f"N_{n}"):
        oracle_subtract(dist, n)


@pytest.mark.parametrize("param,n,k", [
    (1e-100, 2, 4),     # N_2 = 1e-200, N_3 = 1e-300, N_4 underflows
    (1e-300, 1, 2),     # N_1 = 1e-300, N_2 underflows
    (1e-300, 0, 2),     # the identity reads N_0..N_2 too
])
def test_underflowed_mean_entries_are_accuracy_failures(param, n, k):
    # the mean and Q of a subtracted coherent state read N_{n+1}, N_{n+2}
    dist = build_state("coherent", param)
    ladder = normal_ladder(dist, n + 4)
    assert ladder.values[n] > 0.0 and ladder.values[k] == 0.0
    for source in (dist, ladder):
        with pytest.raises(AccuracyError,
                           match=f"^N_{k} underflows float64"):
            _subtracted(source, n, 4)
    with pytest.raises(AccuracyError, match=f"^N_{k} underflows float64"):
        evaluate_all(dist, StateModification.subtract(n), ell_max=1)


def test_zero_mean_entries_of_finite_support_are_a_zero_mean():
    # Fock(2) less 2 photons is the vacuum: N_3 = N_4 = 0 is exact
    dist = build_state("fock", 2)
    m = _subtracted(dist, 2, 4)
    assert m == [1.0, 0.0, 0.0, 0.0, 0.0]
    report = evaluate_all(normal_ladder(dist, 6),
                          StateModification.subtract(2), ell_max=1)
    assert not report.undefined and "undefined_mean" in report.flags
    assert math.isnan(report.cells["Q"])


def test_ladder_coverage_checked():
    ladder = normal_ladder(build_state("fock", 3), 2)
    with pytest.raises(ValueError,
                       match=r"^ladder covers orders 0\.\.2, need 3$"):
        _subtracted(ladder, 1, 2)


# -------------------------------------------------- reordering coefficients

def test_reorder_coefficients_base_cases():
    assert reorder_coefficients(0) == [1]
    assert reorder_coefficients(1) == [1, -1]
    assert reorder_coefficients(2) == [1, -4, 2]


def test_reorder_coefficients_are_ints():
    assert all(isinstance(c, int) for c in reorder_coefficients(7))


def _matpow(mat, power, dim):
    out = np.array([[int(i == j) for j in range(dim)] for i in range(dim)],
                   dtype=object)
    for _ in range(power):
        out = out @ mat
    return out


@pytest.mark.parametrize("x", range(7))
def test_reordering_identity_exact_on_truncated_basis(x):
    # Exact integer check on the monomial ladder-operator representation
    # (lowering L[n-1,n] = n, raising R[n+1,n] = 1, [L, R] = 1):
    # R^x L^x must equal sum_k coeff[k] L^(x-k) R^(x-k) away from the
    # truncation edge.
    dim = 14
    lower = np.zeros((dim, dim), dtype=object)
    raise_ = np.zeros((dim, dim), dtype=object)
    for n in range(1, dim):
        lower[n - 1, n] = n
        raise_[n, n - 1] = 1
    lhs = _matpow(raise_, x, dim) @ _matpow(lower, x, dim)
    rhs = np.zeros((dim, dim), dtype=object)
    for k, coeff in enumerate(reorder_coefficients(x)):
        rhs = rhs + coeff * (_matpow(lower, x - k, dim)
                             @ _matpow(raise_, x - k, dim))
    interior = dim - x
    assert (lhs[:interior, :interior] == rhs[:interior, :interior]).all()


# --------------------------------------------------------- added moments

def test_added_moment_vacuum():
    assert modified_moment(build_state("fock", 0), StateModification.add(1),
                           1) == 1.0


def test_added_moment_fock1():
    assert modified_moment(build_state("fock", 1), StateModification.add(1),
                           1) == 2.0


def test_added_moment_thermal():
    assert math.isclose(
        modified_moment(build_state("thermal", 1.0),
                        StateModification.add(1), 1),
        3.0, rel_tol=1e-10)


def test_added_moment_order_zero_is_one():
    assert modified_moment(build_state("thermal", 0.7),
                           StateModification.add(4), 0) == 1.0


def _exact_added(dist, m, x_max):
    # the m-photon-added pmf is p_n (n+m)!/n! moved up to n + m
    probs = [Fraction(p) for p in dist.probs]
    norm = sum(p * math.perm(n + m, m) for n, p in enumerate(probs))
    return [sum(p * math.perm(n + m, m) * math.perm(n + m, x)
                for n, p in enumerate(probs)) / norm
            for x in range(x_max + 1)]


@pytest.mark.parametrize("family,param,m,x_max", [
    ("squeezed", 0.01, 1, 12), ("squeezed", 0.05, 1, 12),
    ("squeezed", 0.5, 1, 12), ("squeezed", 1.2, 1, 12),
    ("thermal", 0.05, 2, 12), ("thermal", 3.0, 2, 12),
    ("fock", 0, 6, 12), ("fock", 3, 6, 12), ("fock", 50, 6, 12),
    ("fock", 200, 6, 12),
    ("coherent", 0.01, 3, 12), ("coherent", 2.0, 3, 12),
    ("coherent", 40.0, 3, 12),
    # coefficients C(r,i) (165)_i beyond float64 meet entries N_j = 1e-2j
    ("coherent", 0.01, 165, 12),
    # terms C(x,k) (20)_k T_{m+x-k} beyond float64, moments within it
    ("fock", 135, 20, 150),
], ids=lambda v: str(v))
def test_added_moments_match_exact_rationals(family, param, m, x_max):
    # the small-parameter states are where an alternating reordering sum
    # loses every digit; exact zeros (past a Fock state's n) stay exact
    dist = build_state(family, param, CutoffPolicy(max_moment_order=m + x_max))
    got = modified_moment_sequence(dist, StateModification.add(m), x_max)
    assert type(got) is list
    for x, (g, w) in enumerate(zip(got, _exact_added(dist, m, x_max))):
        assert abs(Fraction(g) - w) <= Fraction(1e-15) * w, (x, g, float(w))


def _pmf_ladders(family, param, order):
    probs = build_state(family, param).probs
    return ladder_sums_exact(probs, order), exact_rising_sums(probs, order)


def _recurrence_ladders(family, param, order):
    return (exact_normal_ladder(family, param, order),
            exact_antinormal_ladder(family, param, order))


@pytest.mark.parametrize("ladders,family,param", [
    # both ladders of one float pmf, in exact rationals
    pytest.param(_pmf_ladders, "thermal", 0.7, id="thermal-0.7"),
    pytest.param(_pmf_ladders, "coherent", 0.01, id="coherent-0.01"),
    pytest.param(_pmf_ladders, "squeezed", 0.8, id="squeezed-0.8"),
    pytest.param(_pmf_ladders, "fock", 3, id="fock-3"),
    # no truncation: each ladder by its own recurrence at a rational
    # parameter, squeezed vacuum at s = sinh(r)^2 = 3/4
    pytest.param(_recurrence_ladders, "thermal", Fraction(7, 10),
                 id="exact-thermal-7/10"),
    pytest.param(_recurrence_ladders, "coherent", Fraction(1, 100),
                 id="exact-coherent-1/100"),
    pytest.param(_recurrence_ladders, "squeezed", Fraction(3, 4),
                 id="exact-squeezed-3/4"),
    pytest.param(_recurrence_ladders, "fock", 3, id="exact-fock-3"),
])
def test_paper_reordering_identity_matches_positive_form(ladders, family,
                                                         param):
    # the paper's alternating sum over the anti-normal ladder equals the
    # positive Vandermonde form over the normal ladder, term rows and norms
    # included, for x <= 12 and m <= 6
    order = 12
    normal, anti = ladders(family, param, order + 6)
    for m in range(1, 7):
        t = [sum(c * normal[r - i]
                 for i, c in enumerate(moments._vandermonde_row(r, m)))
             for r in range(m + order + 1)]
        assert t[m] == anti[m]
        for x in range(order + 1):
            paper = sum(c * anti[m + x - k]
                        for k, c in enumerate(reorder_coefficients(x)))
            positive = sum(c * t[m + x - k]
                           for k, c in enumerate(moments._vandermonde_row(x, m)))
            assert paper == positive, (m, x)


_ZERO_LADDER = normal_ladder(NumberDistribution([0.0, 0.0]), 5)


@pytest.mark.parametrize("call,error,message", [
    (lambda: normal_ladder(build_state("fock", 2), -1), ValueError,
     "ladder order must be nonnegative"),
    (lambda: antinormal_ladder(build_state("fock", 2), -1), ValueError,
     "ladder order must be nonnegative"),
    (lambda: modified_moment_sequence(build_state("fock", 2),
                                      StateModification.subtract(1), -1),
     ValueError, "x_max must be nonnegative"),
    (lambda: modified_moment_sequence(_ZERO_LADDER,
                                      StateModification.add(1), 2),
     UndefinedStateError, r"the base state has zero norm \(N_0 = 0\)"),
], ids=["normal-order", "antinormal-order", "x-max", "zero-ladder-added"])
def test_input_checks_raise_their_own_message(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_zero_ladder_added_to_gives_an_undefined_report():
    report = evaluate_all(_ZERO_LADDER, StateModification.add(1), 2)
    assert report.flags == ("undefined_state",)


def test_added_state_of_a_zero_distribution_is_undefined():
    with pytest.raises(UndefinedStateError, match="zero norm"):
        modified_moment_sequence(NumberDistribution([0.0, 0.0]),
                                 StateModification.add(1), 2)


# ------------------------------------------------------------- dispatcher

def test_modified_moment_identity_count():
    dist = build_state("thermal", 1.0)
    for kind in (StateModification.subtract(0), StateModification.add(0)):
        assert math.isclose(modified_moment(dist, kind, 2), 2.0,
                            rel_tol=1e-10)


def test_modified_moment_examples():
    assert math.isclose(
        modified_moment(build_state("coherent", 1.0),
                        StateModification.subtract(2), 3),
        1.0, rel_tol=1e-10)
    with pytest.raises(UndefinedStateError):
        modified_moment(build_state("fock", 2),
                        StateModification.subtract(3), 1)
    assert modified_moment(build_state("fock", 0), StateModification.add(2),
                           2) == 2.0


def test_modified_moment_sequence_matches_scalar():
    dist = build_state("thermal", 0.8)
    mod = StateModification.add(2)
    seq = modified_moment_sequence(dist, mod, 3)
    for x in range(4):
        assert math.isclose(seq[x], modified_moment(dist, mod, x),
                            rel_tol=1e-14)


# ------------------------------------------------ a ladder for the state

_SUITE_MODS = ([StateModification.subtract(n) for n in range(4)]
               + [StateModification.add(m) for m in range(1, 5)])


@pytest.mark.parametrize("ell_max", [1, 2, 3])
@pytest.mark.parametrize("family,param", [
    ("coherent", 0.5), ("coherent", 2.0), ("thermal", 1.0), ("squeezed", 0.8),
    ("fock", 0), ("fock", 1), ("fock", 2), ("fock", 4)])
def test_evaluate_all_on_a_normal_ladder_is_bit_identical(family, param,
                                                          ell_max):
    # one ladder long enough for the largest count serves every
    # modification, annihilated states included; repr tells every bit apart
    dist = build_state(family, param)
    ladder = normal_ladder(dist, 4 + max(2 * ell_max, ell_max + 1, 4))
    for mod in _SUITE_MODS:
        want = evaluate_all(dist, mod, ell_max)
        assert repr(evaluate_all(ladder, mod, ell_max)) == repr(want), mod


def test_a_longer_ladder_leaves_unread_entries_unread():
    # N_2 = 0 without finite support is an underflow, but the identity's
    # m_0 and m_1 never read it: a fresh ladder of order 0 or 1 lacks it
    dist = NumberDistribution([1.0, 1e-200], 1e-13)
    ladder = normal_ladder(dist, 6)
    identity = StateModification.identity()
    for x_max in (0, 1):
        want = modified_moment_sequence(dist, identity, x_max)
        assert modified_moment_sequence(ladder, identity, x_max) == want
    with pytest.raises(AccuracyError, match="N_2 underflows"):
        modified_moment_sequence(ladder, identity, 2)


@pytest.mark.parametrize("family,param", [("thermal", 7.9),
                                          ("squeezed", 1.2)])
def test_no_ladder_reads_past_the_order_the_cutoff_was_checked_at(family,
                                                                   param):
    # adding 6 photons at ell_max 6 reads N_0..N_18; a cutoff checked at
    # order 12 left those entries off by up to 1.7e-6 relative, unflagged
    dist = build_state(family, param)
    mod = StateModification.add(6)
    message = (r"^ladder order 18 exceeds order 12, the order the cutoff was "
               r"checked at; build the state with max_moment_order >= 18$")
    for call in (lambda: evaluate_all(dist, mod, 6),
                 lambda: modified_moment_sequence(dist, mod, 12),
                 lambda: normal_ladder(dist, 18),
                 lambda: antinormal_ladder(dist, 18)):
        with pytest.raises(AccuracyError, match=message):
            call()
    assert normal_ladder(dist, 12).order == 12
    checked = build_state(family, param, CutoffPolicy(max_moment_order=18))
    report = evaluate_all(checked, mod, 6)
    assert math.isfinite(report.mean) and report.flags == ()
    assert list(report.moments) == modified_moment_sequence(
        normal_ladder(checked, 18), mod, 12)


def test_a_ladder_keeps_the_added_norm_overflow_check():
    # T_200 >= 200! N_0 is beyond float64 on either route, with one message
    dist = build_state("coherent", 1.0, CutoffPolicy(max_moment_order=204))
    mod = StateModification.add(200)
    for source in (dist, normal_ladder(dist, 204)):
        with pytest.raises(AccuracyError, match=r"^<\(n\+200\)_200> of the "
                           "base state exceeds the float64 range$"):
            modified_moment_sequence(source, mod, 4)


# every MomentLadder is normal, so only a short one is refused
@pytest.mark.parametrize("ladder,message", [
    (normal_ladder(build_state("thermal", 1.0), 5),
     r"^ladder covers orders 0\.\.5, need 6$"),
], ids=["too-short"])
def test_a_ladder_must_be_normal_and_cover_the_order(ladder, message):
    mod = StateModification.subtract(2)
    with pytest.raises(ValueError, match=message):
        evaluate_all(ladder, mod, 2)
    with pytest.raises(ValueError, match=message):
        modified_moment_sequence(ladder, StateModification.add(2), 4)


def test_modification_validation():
    with pytest.raises(ValueError):
        StateModification.subtract(-1)
    with pytest.raises(ValueError):
        StateModification.add(1.5)
    # a bool is no count, and a kind must be a ModKind: the shortcut and
    # the oracle would read the string "subtract" in opposite ways
    with pytest.raises(ValueError, match="^count must be"):
        StateModification.add(True)
    with pytest.raises(ValueError, match="^kind must be a ModKind$"):
        StateModification("subtract", 2)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.05, max_value=5.0),
       st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=5))
def test_coherent_moments_invariant_under_subtraction(alpha_sq, n, x):
    # coherent states are annihilation-operator eigenstates
    ladder = normal_ladder(build_state("coherent", alpha_sq), n + x)
    got = _subtracted(ladder, n, x)[x]
    assert math.isclose(got, alpha_sq ** x, rel_tol=1e-9)
