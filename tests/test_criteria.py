import math
import random
import re
import subprocess
import sys
import threading
import warnings
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonstat import (
    AccuracyError,
    DegenerateA3,
    ModKind,
    StateModification,
    agarwal_tara,
    build_state,
    criteria_from_moments,
    evaluate_all,
    lee_dh,
    mandel_q,
    modified_moment_sequence,
    mu_from_m,
    normal_ladder,
    poisson_central_moment,
    q_ell_central,
    q_ell_normal,
)
from photonstat import criteria
from photonstat.criteria import DET_DEGENERACY_TOL, column_names
from photonstat.moments import ladder_sums_exact

from helpers import limit_address_space, q_added_ref, q_subtracted_ref


def count_set_partitions(z, k):
    # brute force: partitions of {0..z-1} into exactly k nonempty blocks
    def partitions(items):
        if len(items) == 1:
            yield [items]
            return
        head, rest = items[0], items[1:]
        for part in partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [[head] + part[i]] + part[i + 1:]
            yield [[head]] + part
    return sum(1 for p in partitions(list(range(z))) if len(p) == k)


# ----------------------------------------------------------------- stirling
#
# mu_from_m on the unit factorial-moment vector e_k (k >= 1) returns
# mu_0 = 1, then the column S(1..z_max, k) scaled by the unit entry:
# mu_z = S(z, k) * scale.  A power of two keeps every column entry a normal
# float, so each one is the correctly rounded S(z, k) * scale.

def _stirling_column(z_max, k, scale=1.0):
    return mu_from_m([0.0] * k + [scale] + [0.0] * (z_max - k))


def test_stirling_base():
    assert _stirling_column(0, 0) == [1.0]     # S(0, 0) = 1
    assert _stirling_column(4, 2)[4] == 7.0


def test_stirling_brute_force():
    assert _stirling_column(5, 3)[5] == count_set_partitions(5, 3) == 25


def test_stirling_row_against_brute_force():
    for k in range(1, 7):
        assert _stirling_column(6, k) == [1.0] + [
            float(count_set_partitions(z, k)) for z in range(1, 7)]


# ------------------------------------------------------------------- mu/m

def test_mu_from_m_coherent():
    mu = mu_from_m([1, 1, 1, 1, 1])
    assert mu[1] == 1.0
    assert mu[2] == 2.0


def test_mu_from_m_of_no_moments_is_empty():
    assert mu_from_m([]) == []


def test_mu_from_m_fock2():
    mu = mu_from_m([1, 2, 2, 0, 0])
    np.testing.assert_array_equal(mu, [1, 2, 4, 8, 16])


def test_mu_from_m_thermal_brute_force():
    # geometric pmf at large cutoff as the independent reference
    nbar = 1.0
    q = nbar / (1 + nbar)
    probs = [(1 - q) * q ** n for n in range(800)]
    brute = [math.fsum(n ** z * p for n, p in enumerate(probs))
             for z in range(5)]
    mu = mu_from_m([1, 1, 2, 6, 24])
    assert mu[3] == 13.0
    assert mu[4] == 75.0
    np.testing.assert_allclose(mu, brute, rtol=1e-10)


def test_moment_pair_invariants():
    # the (m, mu) pair that criteria_from_moments reads
    m = [1.0, 1.0, 2.0, 6.0, 24.0]
    mu = mu_from_m(m)
    assert mu[1] == m[1]
    assert mu[2] == m[2] + m[1]


# --------------------------------------------------------------- mandel q

def test_mandel_q_coherent_is_zero():
    assert mandel_q(1.5, 1.5 ** 2) == 0.0


def test_mandel_q_fock_floor():
    for n in range(1, 7):
        assert mandel_q(float(n), float(n * (n - 1))) == -1.0


def test_mandel_q_thermal():
    for nbar in (0.3, 1.0, 2.0):
        assert math.isclose(mandel_q(nbar, 2 * nbar ** 2), nbar,
                            rel_tol=1e-12)


def test_mandel_q_vacuum_undefined():
    assert math.isnan(mandel_q(0.0, 0.0))


# The paper's closed forms of Q straight off the ladder, as exact
# references over the exact-rational normal ladder of one float pmf


def _pinned_q(dist, mod, rel=1e-12):
    """evaluate_all's Q, checked against the closed form within rel."""
    normal = ladder_sums_exact(dist.probs, mod.count + 2)
    if mod.kind is ModKind.ADD:
        exact = q_added_ref(normal, mod.count)
    else:
        exact = q_subtracted_ref(normal, mod.count)
    got = evaluate_all(dist, mod, ell_max=1).cells["Q"]
    assert abs(Fraction(got) - exact) <= Fraction(rel) * max(abs(exact), 1), (
        got, float(exact))
    return got, exact


def test_mandel_q_subtracted_thermal_is_invariant():
    dist = build_state("thermal", 0.8)
    for n in range(4):
        got, _ = _pinned_q(dist, StateModification.subtract(n))
        assert math.isclose(got, 0.8, rel_tol=1e-9)


def test_mandel_q_subtracted_coherent_is_zero():
    for n in range(3):
        got, exact = _pinned_q(build_state("coherent", 1.3),
                               StateModification.subtract(n))
        assert abs(got) <= 1e-12 and abs(exact) <= 1e-12


def test_mandel_q_subtracted_fock():
    got, exact = _pinned_q(build_state("fock", 3),
                           StateModification.subtract(1))
    assert got == exact == -1


def test_mandel_q_added_examples():
    for n in (0, 1):
        got, exact = _pinned_q(build_state("fock", n),
                               StateModification.add(1))
        assert got == exact == -1
    got, exact = _pinned_q(build_state("thermal", 1.0),
                           StateModification.add(1))
    assert math.isclose(got, 1.0 / 3.0, rel_tol=1e-10)
    assert abs(exact - Fraction(1, 3)) <= Fraction(1e-10)


# -------------------------------------------------------------------- lee

def test_lee_dh_coherent_is_zero():
    m = [1.0] + [1.7 ** x for x in range(1, 7)]
    for ell in range(2, 7):
        assert abs(lee_dh(m, ell)) <= 1e-12 * 1.7 ** ell


def test_lee_dh_fock2():
    assert lee_dh([1, 2, 2, 0, 0], 2) == -2.0


def test_lee_dh_thermal():
    assert lee_dh([1, 1, 2, 6, 24], 3) == 5.0


def test_lee_dh_validation():
    with pytest.raises(ValueError):
        lee_dh([1, 1, 2], 1)


_M4 = [1.0, 1.0, 2.0, 6.0, 24.0]


@pytest.mark.parametrize("call,message", [
    (lambda: lee_dh(_M4[:3], 3), "need factorial moments up to order 3"),
    (lambda: q_ell_normal(_M4, 3), "need factorial moments up to order 6"),
    (lambda: q_ell_central(_M4, 3), "need raw moments up to order 6"),
    (lambda: agarwal_tara(_M4[:4], _M4),
     "need factorial moments up to order 4"),
    (lambda: agarwal_tara(_M4, _M4[:4]), "need raw moments up to order 4"),
], ids=["lee", "q-normal", "q-central", "a3-m", "a3-mu"])
def test_short_moment_sequences_are_refused_by_one_rule(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("call,order", [
    (lambda: mandel_q(math.nan, 1.0), 1),
    (lambda: mandel_q(2.0, math.nan), 2),
    (lambda: lee_dh([1.0, math.nan, 1.0], 2), 1),
    (lambda: agarwal_tara([1.0, math.nan, 1.0, 1.0, 1.0], [1.0] * 5), 1),
    (lambda: q_ell_normal([1.0, 1.0, math.nan], 1), 2),
    (lambda: mu_from_m([1.0, math.nan]), 1),
], ids=["mandel-m1", "mandel-m2", "lee", "a3", "q-normal", "mu"])
def test_a_nan_moment_is_named_not_reported_as_overflow(call, order):
    # moments given by hand: a NaN is no float64 overflow
    with pytest.raises(ValueError,
                       match=f"^factorial moment of order {order} is NaN$"):
        call()


@pytest.mark.parametrize("call,quantity", [
    (lambda: mandel_q(10 ** 400, 1), "Mandel Q"),
    (lambda: lee_dh([1, 10 ** 400, 1], 2), "Lee function dh1"),
    (lambda: lee_dh([1, 1, 10 ** 400], 2), "Lee function dh1"),
    (lambda: q_ell_normal([1, 10 ** 400, 1], 1),
     "normally ordered central moment of order 2"),
    (lambda: q_ell_central([1, 1, 10 ** 400], 1),
     "central moment of order 2"),
    (lambda: agarwal_tara([1, 1, 10 ** 400, 1, 1], [1] * 5),
     "A3 moment determinant"),
    (lambda: mu_from_m([1, 10 ** 400]), "factorial moment of order 1"),
    (lambda: criteria_from_moments([1, 10 ** 400, 1, 1, 1], [1.0] * 5, 1),
     "factorial moment of order 1"),
    (lambda: criteria_from_moments([1.0] * 5, [1, 1, 10 ** 400, 1, 1], 1),
     "raw moment of order 2"),
    # an int mean beyond float64 is an infinite one
    (lambda: poisson_central_moment(10 ** 400, 2),
     "Poisson reference moment O_2(inf)"),
    # a count beyond float64 proves its added norm overflows
    (lambda: evaluate_all(build_state("fock", 1),
                          StateModification.add(10 ** 400), 1),
     f"<(n+{10 ** 400})_{10 ** 400}> of the base state"),
], ids=["mandel", "lee-m1", "lee-m2", "q-normal-mean", "q-central", "a3",
        "mu", "moments-m", "moments-mu", "poisson", "evaluate-add"])
def test_an_int_moment_beyond_float64_is_an_accuracy_error(call, quantity):
    # exact moments given by hand: no builtin OverflowError escapes
    with pytest.raises(AccuracyError, match=f"^{re.escape(quantity)} "
                       "exceeds the float64 range$"):
        call()


def test_mu_from_m_names_the_moment_beyond_float64():
    with pytest.raises(AccuracyError, match="^factorial moment of order 2 "
                       "exceeds the float64 range$"):
        mu_from_m(iter([1, 2, 10 ** 400, 3]))


@pytest.mark.parametrize("call,message", [
    (lambda: q_ell_normal(_M4, 2.0), "ell must be an integer"),
    (lambda: q_ell_central(_M4, 1.5), "ell must be an integer"),
    (lambda: q_ell_normal(_M4, True), "ell must be an integer"),
    (lambda: lee_dh(_M4, 2.0), "ell must be an integer"),
    (lambda: poisson_central_moment(1.0, 4.0),
     "order must be an even integer >= 2"),
    (lambda: criteria.moment_order(2.0), "ell_max must be an integer"),
    (lambda: criteria.moment_order(True), "ell_max must be an integer"),
], ids=["q-normal", "q-central", "q-bool", "lee", "poisson", "ell-max",
        "ell-max-bool"])
def test_an_order_that_is_not_an_int_is_refused(call, message):
    # not a builtin TypeError or AttributeError, and a bool is no order
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("q_ell", [q_ell_normal, q_ell_central],
                         ids=["normal", "central"])
def test_q_ell_order_must_be_positive(q_ell):
    with pytest.raises(ValueError, match="^ell must be positive$"):
        q_ell(_M4, 0)


@pytest.mark.parametrize("mean", [-1.0, math.nan], ids=["negative", "nan"])
@pytest.mark.parametrize("q_ell", [q_ell_normal, q_ell_central],
                         ids=["normal", "central"])
def test_a_negative_or_nan_mean_is_refused_before_any_table(q_ell, mean):
    # moments given by hand: the error names the mean, and no Poisson
    # table of it is built
    misses = criteria._mean_tables.cache_info().misses
    with pytest.raises(ValueError, match="^mean must be nonnegative$"):
        q_ell([1.0, mean, 5.0, 0.0, 0.0], 1)
    assert criteria._mean_tables.cache_info().misses == misses


def test_a_criterion_beyond_float64_raises_accuracy_error():
    # finite moments from 1e-320 to 1e307, some zero: each criterion
    # returns a finite float, NaN for a zero mean, a DegenerateA3, or
    # raises ValueError or AccuracyError; never inf or a builtin error
    rng = random.Random(30)

    def moments():
        return [1.0] + [0.0 if rng.random() < 0.05
                        else 10.0 ** rng.uniform(-320, 307)
                        for _ in range(8)]

    for _ in range(300):
        m, mu = moments(), moments()
        calls = [(mandel_q, (m[1], m[2]), m[1]),
                 (agarwal_tara, (m, mu), None)]
        calls += [(lee_dh, (m, ell), None) for ell in range(2, 9)]
        calls += [(q_ell, (seq, ell), seq[1]) for ell in range(1, 5)
                  for q_ell, seq in ((q_ell_normal, m), (q_ell_central, mu))]
        for criterion, args, mean in calls:
            try:
                value = criterion(*args)
            except (ValueError, AccuracyError):
                continue
            if isinstance(value, DegenerateA3):
                assert criterion is agarwal_tara
            elif mean == 0.0 and math.isnan(value):
                assert criterion is not lee_dh
            else:
                assert math.isfinite(value), (criterion.__name__, args)
    # det(m) = 1.25e308 and det(mu) = -1.25e308: the determinants are in
    # range, their difference is not
    with pytest.raises(AccuracyError, match="^A3 denominator exceeds"):
        agarwal_tara([1.0, 0.0, -5e102, 0.0, 0.0], [1.0, 0.0, 5e102, 0.0, 0.0])


# --------------------------------------------------- poisson central moments

def test_poisson_central_moment_variance():
    for lam in (0.2, 1.0, 3.7):
        assert math.isclose(poisson_central_moment(lam, 2), lam,
                            rel_tol=1e-13)


def test_poisson_central_moment_brute_force():
    # frozen from sum_n (n-1)^4 e^-1 / n! to convergence: exactly 4
    lam = 1.0
    probs = []
    p = math.exp(-lam)
    for n in range(200):
        probs.append(p)
        p *= lam / (n + 1)
    brute = math.fsum((n - lam) ** 4 * p for n, p in enumerate(probs))
    assert math.isclose(brute, 4.0, rel_tol=1e-12)
    assert math.isclose(poisson_central_moment(1.0, 4), 4.0, rel_tol=1e-13)


def test_poisson_central_moment_quartic_form():
    for lam in (0.4, 2.0):
        assert math.isclose(poisson_central_moment(lam, 4),
                            lam + 3 * lam ** 2, rel_tol=1e-12)


def test_poisson_central_moment_degenerate():
    # -0.0 and 0.0 share one table whichever comes first; no moment is -0.0
    for pair in ((0.0, -0.0), (-0.0, 0.0)):
        criteria._mean_tables.cache_clear()  # each pair starts afresh
        for lam in pair:
            got = poisson_central_moment(lam, 6)
            assert got == 0.0 and math.copysign(1.0, got) == 1.0


def test_poisson_central_moment_validation():
    with pytest.raises(ValueError):
        poisson_central_moment(1.0, 3)
    with pytest.raises(ValueError):
        poisson_central_moment(1.0, 0)
    for lam in (-1.0, math.nan):
        with pytest.raises(ValueError, match="^lam must be nonnegative$"):
            poisson_central_moment(lam, 2)


# ---------------------------------------------------------- generalized Q

def test_q_ell_order_one_equals_mandel():
    for dist in (build_state("thermal", 0.9), build_state("coherent", 2.0),
                 build_state("squeezed", 0.6)):
        ladder = normal_ladder(dist, 2).values
        m = list(ladder)
        mu = mu_from_m(m)
        q = mandel_q(m[1], m[2])
        assert math.isclose(q_ell_normal(m, 1), q, rel_tol=1e-12)
        assert math.isclose(q_ell_central(mu, 1), q, rel_tol=1e-12)


def test_q_ell_coherent_is_zero():
    m = [1.0] + [1.0] * 6  # alpha_sq = 1
    mu = mu_from_m(m)
    for ell in (1, 2, 3):
        assert abs(q_ell_normal(m, ell)) <= 1e-9
        assert abs(q_ell_central(mu, ell)) <= 1e-9


def test_q_ell_forms_differ_on_fock1():
    m = [1.0, 1.0, 0.0, 0.0, 0.0]
    mu = mu_from_m(m)
    assert math.isclose(q_ell_normal(m, 2), -0.75, rel_tol=1e-12)
    assert math.isclose(q_ell_central(mu, 2), -1.0, rel_tol=1e-12)


def test_q_ell_vacuum_undefined():
    assert math.isnan(q_ell_normal([1.0, 0.0, 0.0], 1))
    assert math.isnan(q_ell_central([1.0, 0.0, 0.0], 1))


# ------------------------------------------------------------ agarwal-tara

def test_a3_coherent_is_zero():
    for lam in (0.5, 1.0, 4.0):
        m = [lam ** x for x in range(5)]
        value = agarwal_tara(m, mu_from_m(m))
        assert not isinstance(value, DegenerateA3)
        assert abs(value) <= 1e-9


def test_a3_fock2():
    # hand-expanded determinants: det m3 = -8, det mu3 = 0
    m = [1.0, 2.0, 2.0, 0.0, 0.0]
    assert _hankel_det(m) == -8.0
    assert _hankel_det(mu_from_m(m)) == 0.0
    assert agarwal_tara(m, mu_from_m(m)) == -1.0


def test_a3_fock1_degenerate():
    m = [1.0, 1.0, 0.0, 0.0, 0.0]
    value = agarwal_tara(m, mu_from_m(m))
    assert isinstance(value, DegenerateA3)
    assert value.det_m == 0.0
    assert value.det_mu == 0.0


def test_a3_thermal_value():
    # thermal states are classical: A3 >= 0
    m = [1.0, 1.0, 2.0, 6.0, 24.0]
    value = agarwal_tara(m, mu_from_m(m))
    assert value >= 0.0


@pytest.mark.parametrize("factor,degenerate", [(0.9, True), (1.1, False)],
                         ids=["below", "above"])
def test_a3_degeneracy_threshold(factor, degenerate):
    # mu differs from m in its last entry alone, so det(mu) - det(m) =
    # delta (m0 m2 - m1^2) = delta.  The largest first-row cofactor term of
    # either matrix is m2 (m1 m3 - m2^2) = -2 (the others are 1.5 and 0.75,
    # moved by 2 delta at most), so the threshold is 2 DET_DEGENERACY_TOL.
    m = [1.0, 1.0, 2.0, 3.0, 5.25]
    delta = factor * DET_DEGENERACY_TOL * 2.0
    mu = m[:4] + [m[4] + delta]
    value = agarwal_tara(m, mu)
    if degenerate:
        assert isinstance(value, DegenerateA3)
        assert value == (0.25, mu[4] - 5.0)
    else:
        assert not isinstance(value, DegenerateA3)
        assert math.isclose(value, 0.25 / delta, rel_tol=1e-5)


@pytest.mark.parametrize("family,param,want", [
    # |det(mu) - det(m)| is 1.85e-10 of the cofactor scale: ten times
    # DET_DEGENERACY_TOL would mark these degenerate
    ("coherent", 1e-7, 3.6030084330532506e-05),
    ("thermal", 1e-7, 7.20628029242532e-05),
    # 6.16e-11 of the scale: a tenth of DET_DEGENERACY_TOL would give
    # these a value
    ("coherent", 3e-7, DegenerateA3(-2.1599980560011645e-19,
                                    -2.220446049250313e-16)),
    ("thermal", 3e-7, DegenerateA3(-4.3200029160000034e-19,
                                   -2.220446049250313e-16)),
])
def test_a3_degeneracy_boundary_on_one_added_photon(family, param, want):
    # a state near vacuum with one photon added sits within a factor of
    # two of the threshold on either side, so these rows pin it on the
    # inputs the CLI reads (criteria --family <f> --param <p> --add 1)
    report = evaluate_all(build_state(family, param),
                          StateModification.add(1))
    got = report.cells["A3"]
    assert type(got) is type(want) and got == want
    assert report.flags == (("a3_degenerate",) if type(want) is DegenerateA3
                            else ())


def test_det3_matches_elimination_routine():
    rng = np.random.default_rng(7)
    for dist in (build_state("thermal", 1.5), build_state("coherent", 2.5),
                 build_state("squeezed", 0.8)):
        m = list(normal_ladder(dist, 4).values)
        for seq in (m, list(mu_from_m(m))):
            lu = float(np.linalg.det(_hankel(seq)))
            assert math.isclose(_hankel_det(seq), lu, rel_tol=1e-12,
                                abs_tol=1e-12)
    # and on generic well-conditioned Hankel matrices
    for _ in range(25):
        seq = rng.uniform(-3, 3, size=5).tolist()
        assert math.isclose(_hankel_det(seq),
                            float(np.linalg.det(_hankel(seq))),
                            rel_tol=1e-10, abs_tol=1e-12)


def _hankel(seq):
    return np.array([seq[i:i + 3] for i in range(3)], dtype=float)


def _hankel_det(seq):
    # the A3 entry's numerator: the exactly rounded Hankel determinant
    return criteria._evaluate("A3", seq, 1)[0]


@pytest.mark.parametrize("token", criteria.CRITERIA_TOKENS)
def test_evaluator_products_form_left_to_right(token):
    # each product the evaluator returns is c (-s_1)^p s_i ... of its term
    # row, formed left to right in float64, bit for bit: A3's cofactor
    # scale reads them
    rng = random.Random(38)
    seq = [1.0] + [rng.uniform(0.5, 3.0) for _ in range(14)]
    entry = criteria._CRITERIA[token]
    for ell in (1, 2, 3, 7):
        if ell < entry.least:
            continue
        want = []
        for c, p, indices in entry.terms(ell):
            product = float(c) * (-seq[1]) ** p
            for i in indices:
                product *= seq[i]
            want.append(product)
        assert criteria._evaluate(token, seq, ell)[1] == want, ell


# ------------------------------------------------------------ evaluate_all

def test_evaluate_all_coherent_null():
    report = evaluate_all(build_state("coherent", 1.0),
                          StateModification.subtract(1), ell_max=2)
    for value in report.cells.values():
        assert abs(value) <= 1e-9
    assert report.flags == ()


def test_evaluate_all_oversubtraction_flagged():
    report = evaluate_all(build_state("fock", 2),
                          StateModification.subtract(3))
    assert report.undefined
    assert math.isnan(report.mean)
    assert report.cells == {}


def test_evaluate_all_thermal_added():
    report = evaluate_all(build_state("thermal", 1.0),
                          StateModification.add(1), ell_max=1)
    assert math.isclose(report.cells["Q"], 1.0 / 3.0, rel_tol=1e-9)
    assert math.isclose(report.mean, 3.0, rel_tol=1e-10)


def test_evaluate_all_vacuum_flags_undefined_mean():
    report = evaluate_all(build_state("fock", 0))
    assert "undefined_mean" in report.flags
    assert math.isnan(report.cells["Q"])
    assert all(math.isnan(report.cells[f"Q{ell}_normal"]) for ell in (1, 2, 3))


def test_evaluate_all_fock1_a3_degenerate_flag():
    report = evaluate_all(build_state("fock", 1))
    assert isinstance(report.cells["A3"], DegenerateA3)
    assert "a3_degenerate" in report.flags


def test_evaluate_all_lee_identity():
    for dist in (build_state("thermal", 1.3), build_state("coherent", 0.7),
                 build_state("squeezed", 0.5)):
        report = evaluate_all(dist)
        assert math.isclose(report.cells["dh1"],
                            report.mean * report.cells["Q"], rel_tol=1e-12)


def test_evaluate_all_order_one_coincidence():
    for dist in (build_state("thermal", 1.3), build_state("fock", 3),
                 build_state("squeezed", 0.5)):
        report = evaluate_all(dist)
        assert math.isclose(report.cells["Q1_normal"], report.cells["Q"],
                            rel_tol=1e-12)
        assert math.isclose(report.cells["Q1_central"], report.cells["Q"],
                            rel_tol=1e-12)


@pytest.mark.parametrize("family,param", [
    ("coherent", 1.5), ("thermal", 0.7), ("squeezed", 0.4), ("fock", 3)])
def test_every_report_holds_the_columns_in_table_order(family, param):
    dist = build_state(family, param)
    for mod in (StateModification.identity(), StateModification.add(2),
                StateModification.subtract(1), StateModification.subtract(4)):
        for ell_max in (1, 3):
            report = evaluate_all(dist, mod, ell_max)
            want = [] if report.undefined else list(column_names(ell_max))
            assert list(report.cells) == want, (mod, ell_max)


def test_evaluate_all_report_shape():
    report = evaluate_all(build_state("thermal", 0.5), ell_max=3)
    assert list(report.cells) == [
        "Q", "Q1_normal", "Q2_normal", "Q3_normal", "Q1_central",
        "Q2_central", "Q3_central", "dh1", "dh2", "dh3", "A3"]


@pytest.mark.parametrize("ell_max,message", [
    (0, "ell_max must be at least 1"),
    (criteria.MAX_ELL_MAX + 1,
     f"ell_max must be at most {criteria.MAX_ELL_MAX}"),
    (10 ** 17, f"ell_max must be at most {criteria.MAX_ELL_MAX}"),
], ids=["zero", "cap-plus-one", "huge"])
def test_evaluate_all_refuses_ell_max_outside_the_cap(ell_max, message):
    # moment_order refuses it before any ladder or Stirling row is built
    dist = build_state("fock", 0)
    rows = criteria._stirling_row.cache_info()
    with pytest.raises(ValueError, match=f"^{message}$"):
        evaluate_all(dist, ell_max=ell_max)
    assert criteria._stirling_row.cache_info() == rows


@pytest.mark.parametrize("call", [
    "mu_from_m([1.0] + [0.0] * 2000)",
    "poisson_central_moment(1e-300, 2000)",
], ids=["mu_from_m", "poisson_central_moment"])
def test_orders_past_the_cap_raise_before_any_table_grows(call):
    # without the cap, the Stirling rows up to order 2000 run out of 1 GiB
    # and the Poisson row at a tiny mean takes minutes
    code = (
        "from photonstat import criteria\n"
        "from photonstat.criteria import mu_from_m, poisson_central_moment\n"
        "def tables():\n"
        "    return [table.cache_info() for table in (\n"
        "        criteria._stirling_row, criteria._mean_tables,\n"
        "        criteria._binomial_row)]\n"
        "before = tables()\n"
        "try:\n"
        f"    {call}\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "print(tables() == before)\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, timeout=60,
                            preexec_fn=limit_address_space)
    assert result.stderr == ""
    assert result.stdout.splitlines() == [
        f"moment order 2000 exceeds that of ell_max {criteria.MAX_ELL_MAX}",
        "True"]


def test_stirling_rows_to_the_cap_build_without_deep_recursion():
    # mu_from_m reads the rows in rising order, each built from the one
    # below, so a fresh interpreter reaches order 1000 at the default
    # recursion limit; S(z, 1) = 1, so mu = m_1 = 1 at every order
    code = (
        "from photonstat.criteria import mu_from_m\n"
        "print(mu_from_m([1.0, 1.0] + [0.0] * 999) == [1.0] * 1001)\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, timeout=120,
                            preexec_fn=limit_address_space)
    assert result.stderr == ""
    assert result.stdout == "True\n"


def test_binomial_rows_to_the_cap_build_without_deep_recursion():
    # a cold Q^(500) plan reads binomial row 1000 first, which reads no
    # other row, so a fresh interpreter builds it at the default recursion
    # limit; every row to the cap is exact
    code = (
        "import math\n"
        "from photonstat.criteria import _binomial_row, q_ell_normal\n"
        "print(math.isnan(q_ell_normal([1.0] + [0.0] * 1000, 500)))\n"
        "print(_binomial_row(1000) == tuple(map(math.comb, [1000] * 1001,\n"
        "                                       range(1001))))\n"
        "print(all(sum(_binomial_row(n)) == 2 ** n for n in range(1001)))\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, timeout=120,
                            preexec_fn=limit_address_space)
    assert result.stderr == ""
    assert result.stdout == "True\nTrue\nTrue\n"


def test_a_vacuum_report_at_the_cap_builds_no_table_it_never_reads():
    # every Q^(l) value of the vacuum is NaN, settled before its plan, and
    # d_h reads the mean's powers alone: no Q^(l) plan is built, and no
    # Poisson entry past O_1 (1,000 plans and a row to O_1000 would cost
    # about 100 MB at the cap)
    code = (
        "from photonstat import criteria\n"
        "from photonstat.states import build_state\n"
        "plan, tables = criteria._plan, criteria._mean_tables\n"
        "planned, rows = set(), [()]\n"
        "def recorded_plan(token, ell):\n"
        "    planned.add(token)\n"
        "    return plan(token, ell)\n"
        "def recorded_tables(lam, top):\n"
        "    powers, row = tables(lam, top)\n"
        "    rows.append(row)\n"
        "    return powers, row\n"
        "criteria._plan, criteria._mean_tables = recorded_plan, "
        "recorded_tables\n"
        "report = criteria.evaluate_all(build_state('fock', 0), "
        f"ell_max={criteria.MAX_ELL_MAX})\n"
        "print(sorted(planned), max(map(len, rows)))\n"
        "print(sum(v != v for v in report.cells.values()), report.flags)\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, timeout=120,
                            preexec_fn=limit_address_space)
    assert result.stderr == ""
    # Q and both Q^(l) forms at l = 1..500 are NaN, the mean flagged
    assert result.stdout.splitlines() == [
        "['A3', 'd_h'] 0", f"{1 + 2 * criteria.MAX_ELL_MAX} "
        "('a3_degenerate', 'undefined_mean')"]


def test_rising_poisson_orders_build_few_tables():
    # orders 2..1000 share one table per power of two (2, 4, ..., 512,
    # then the cap); O_235(0.3) is beyond float64, and every order from it
    # up raises with its name
    criteria._mean_tables.cache_clear()
    for order in range(2, 1001, 2):
        if order < 235:
            got = poisson_central_moment(0.3, order)
            if order in (2, 4, 6, 64, 66, 100):
                assert _within(got, _poisson_exact(0.3, order)), order
            continue
        with pytest.raises(AccuracyError, match=r"^Poisson reference "
                           r"moment O_235\(0\.3\) exceeds the float64 "
                           r"range$"):
            poisson_central_moment(0.3, order)
    assert criteria._mean_tables.cache_info().misses <= 11


@pytest.mark.parametrize("lam,want", [
    # O_4 = lam + 3 lam^2 is beyond float64 and O_2 = lam is not: a table
    # built to the sequence's top order still serves l = 1
    (8e153, -4e153),
    # 2 lam m_1 is beyond float64: the expansion raises first
    (1e154, AccuracyError),
], ids=["O4-overflows", "expansion-overflows"])
def test_q_ell_at_one_reads_below_an_overflowing_poisson_row(lam, want):
    criteria._mean_tables.cache_clear()
    m = [1.0, lam, 0.5 * lam * lam, 0.0, 0.0]
    mu = mu_from_m(m[:3]) + [0.0, 0.0]
    for q_ell, seq in ((q_ell_normal, m), (q_ell_central, mu)):
        if want is AccuracyError:
            with pytest.raises(AccuracyError, match=r"central moment of "
                               r"order 2 exceeds the float64 range$"):
                q_ell(seq, 1)
        else:
            assert q_ell(seq, 1) == want
    with pytest.raises(AccuracyError, match=r"^Poisson reference moment "
                       r"O_4\(.*\) exceeds the float64 range$"):
        poisson_central_moment(lam, 4)


def test_column_names_take_any_iterable_selection():
    want = column_names(2, ("A3", "d_h"))
    assert list(want) == ["dh1", "dh2", "A3"]
    for selection in (["d_h", "A3"], {"A3", "d_h"}, iter(("A3", "d_h"))):
        assert column_names(2, selection) == want


def test_fock_states_are_maximally_sub_poissonian():
    for n in range(1, 7):
        report = evaluate_all(build_state("fock", n), ell_max=3)
        assert abs(report.cells["Q"] + 1.0) <= 1e-12
        for ell in range(2, n + 1):
            if f"dh{ell - 1}" in report.cells:
                assert report.cells[f"dh{ell - 1}"] < 0.0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2,
                max_size=20))
def test_order_one_coincidence_random_distributions(weights):
    from photonstat import NumberDistribution
    total = math.fsum(weights)
    if total <= 0.0:
        weights[1] = 1.0
        total = 1.0
    dist = NumberDistribution(np.array(weights) / total)
    m = list(normal_ladder(dist, 2).values)
    if m[1] == 0.0:
        return
    mu = mu_from_m(m)
    q = mandel_q(m[1], m[2])
    assert math.isclose(q_ell_normal(m, 1), q, rel_tol=1e-12, abs_tol=1e-13)
    assert math.isclose(q_ell_central(mu, 1), q, rel_tol=1e-12, abs_tol=1e-13)


# ------------------------------------- shared tables against uncached forms
#
# The criteria stage reuses Stirling, binomial and reordering rows and one
# table of powers and Poisson moments per mean.  These uncached copies
# recompute every term from scratch with the same operations, so every
# result must agree to the bit.  A reference that overflows must map to
# AccuracyError.  The Poisson reference O_2l is checked against exact
# rationals instead.

@lru_cache(maxsize=None)
def _stirling_ref(z, k):
    if z == k:
        return 1
    if k == 0 or k > z:
        return 0
    return k * _stirling_ref(z - 1, k) + _stirling_ref(z - 1, k - 1)


def _mu_ref(m, z_max):
    mu = np.empty(z_max + 1)
    mu[0] = 1.0
    for z in range(1, z_max + 1):
        mu[z] = math.fsum(_stirling_ref(z, k) * float(m[k])
                          for k in range(1, z + 1))
    return mu


@lru_cache(maxsize=None)
def _touchard_scaled(p, q, z):
    # q^z E[n^z] for a Poisson mean p/q: the Touchard sum
    # sum_k S(z,k) p^k q^(z-k), an exact integer
    return sum(_stirling_ref(z, k) * p ** k * q ** (z - k)
               for k in range(z + 1))


@lru_cache(maxsize=None)
def _poisson_exact(lam, order):
    """O_order(lam) as a Fraction, by a route independent of the
    recurrence: exact Touchard raw moments, then the exact binomial
    central-moment sum."""
    p, q = Fraction(lam).as_integer_ratio()
    return Fraction(sum(math.comb(order, j) * _touchard_scaled(p, q, j)
                        * (-p) ** (order - j) for j in range(order + 1)),
                    q ** order)


def _within(value, exact, rel=1e-15):
    return abs(Fraction(value) - exact) <= Fraction(rel) * abs(exact)


# the denominators are the library's own O_2l, pinned to exact rationals
# by test_poisson_central_moment_matches_exact_interleaved, so these pin
# the numerators and the division bit for bit
def _q_normal_ref(m, ell):
    m1 = float(m[1])
    if m1 == 0.0:
        return math.nan
    num = math.fsum(math.comb(2 * ell, j) * (-m1) ** (2 * ell - j)
                    * float(m[j]) for j in range(2 * ell + 1))
    return num / poisson_central_moment(m1, 2 * ell)


def _q_central_ref(mu, ell):
    mu1 = float(mu[1])
    if mu1 == 0.0:
        return math.nan
    central = math.fsum(math.comb(2 * ell, j) * (-mu1) ** (2 * ell - j)
                        * float(mu[j]) for j in range(2 * ell + 1))
    o2l = poisson_central_moment(mu1, 2 * ell)
    return (central - o2l) / o2l


def _added_ref(dist, m, x_max):
    # the two positive sums term by term, each exactly rounded, the second
    # over T_r / T_m; zero ladder entries contribute nothing
    n = normal_ladder(dist, m + x_max).values
    t = [math.fsum(math.comb(r, i) * math.perm(m, i) * n[r - i]
                   for i in range(min(r, m) + 1) if n[r - i])
         for r in range(m + x_max + 1)]
    if not all(map(math.isfinite, t)):
        raise OverflowError("a term of T_r overflowed")
    t = [value / t[m] for value in t]
    return [math.fsum(math.comb(x, k) * math.perm(m, k) * t[m + x - k]
                      for k in range(min(x, m) + 1) if t[m + x - k])
            for x in range(x_max + 1)]


def _outcome(fn, *args):
    """Exact bits of fn(*args), or the exception type it raised."""
    try:
        value = fn(*args)
    except (ArithmeticError, ValueError, AccuracyError) as exc:
        return type(exc)
    return [float(v).hex() for v in np.atleast_1d(value)]


def _agree(new, ref):
    # float64 overflow may end in ValueError ("-inf + inf") or
    # OverflowError in the uncached forms; the shared tables raise
    # AccuracyError either way
    if ref in (ValueError, OverflowError):
        return new is AccuracyError
    return new == ref


MAX_ORDER = 200
# O_200(4.0) is 2.3e305, in range; the order lists keep the O(l^3)
# references cheap
MEANS = (0.37, 2.0, 0.37, 4.0, 2.0)
POISSON_ORDERS = (*range(2, 41, 2), 100, 150, 188, 196, 198, 200)
# an int mean and its float share one row; means above 4 stop at order
# 40, well inside the float64 range of O_r
POISSON_MEANS = (*MEANS, 3, 3.0, 3, 20.0, 50.0, 206.0, 1000.0, 20.0)
ELLS = (*range(1, 21), 50, 75, 94, 98, 99, 100)


def _moments(mean):
    # a coherent-like factorial-moment sequence m_k = mean^k with a
    # Fock-like cutoff, so both Q^(l) forms move away from zero
    return [mean ** k if k < 150 else 0.0 for k in range(MAX_ORDER + 1)]


def _stirling_scaled(z, k, scale=2.0 ** -600):
    # S(z, k) * scale correctly rounded, as a unit column entry must be
    return float(_stirling_ref(z, k) * Fraction(scale))


def test_stirling_rows_match_recursion():
    # the shared rows are exact integers, built from S(0, 0) up; every
    # S(z, k) with z <= 200 fits float64 once scaled by 2**-600, so
    # mu_from_m takes its float path
    criteria._stirling_row.cache_clear()
    for z in range(MAX_ORDER + 1):
        assert criteria._stirling_row(z) == tuple(
            _stirling_ref(z, k) for k in range(z + 1))
    for k in range(1, MAX_ORDER + 1):
        assert _stirling_column(MAX_ORDER, k, 2.0 ** -600)[1:] == [
            _stirling_scaled(z, k) for z in range(1, MAX_ORDER + 1)], k


def test_poisson_central_moment_matches_exact_interleaved():
    for i, lam in enumerate(POISSON_MEANS):
        orders = POISSON_ORDERS if lam <= 4 else POISSON_ORDERS[:20]
        # alternate the direction so a row grown to a high order is also
        # read at low orders
        if i % 2:
            orders = orders[::-1]
        for order in orders:
            got = poisson_central_moment(lam, order)
            assert _within(got, _poisson_exact(lam, order)), (lam, order)
    for order in POISSON_ORDERS:
        assert (poisson_central_moment(3, order).hex()
                == poisson_central_moment(3.0, order).hex()), order


def test_poisson_central_moment_overflow_is_named():
    # O_198(5.0) is 1.9e307; O_199(5.0) exceeds DBL_MAX, and order 200
    # needs every order below it
    assert _within(poisson_central_moment(5.0, 198),
                   _poisson_exact(5.0, 198))
    with pytest.raises(AccuracyError, match=r"^Poisson reference moment "
                       r"O_199\(5\.0\) exceeds the float64 range$"):
        poisson_central_moment(5.0, 200)


def test_mu_and_q_ell_bit_exact_interleaved():
    for mean in MEANS:
        m = _moments(mean)
        assert _agree(_outcome(mu_from_m, m),
                      _outcome(_mu_ref, m, MAX_ORDER)), mean
        # <n^199> overflows at mean 4.0; order 198 serves every l <= 99
        head = m[:MAX_ORDER - 1]
        assert _outcome(mu_from_m, head) == _outcome(
            _mu_ref, m, MAX_ORDER - 2)
        mu = mu_from_m(head)
        for ell in ELLS:
            assert _agree(_outcome(q_ell_normal, m, ell),
                          _outcome(_q_normal_ref, m, ell)), (mean, ell)
            if 2 * ell < len(mu):
                assert _agree(_outcome(q_ell_central, mu, ell),
                              _outcome(_q_central_ref, mu, ell)), (mean, ell)
    # the mean changes at every step, and each step reads sequences cut to
    # one order and then to a higher or a lower one: a power table or
    # Poisson row kept from another mean, or too short for its order,
    # changes the bits
    mus = {mean: mu_from_m(_moments(mean)[:MAX_ORDER - 1]) for mean in MEANS}
    for first, second in ((3, 20), (99, 1), (2, 50), (98, 7)):
        for mean in MEANS:
            m, mu = _moments(mean), mus[mean]
            for ell in (first, second):
                cut = 2 * ell + 1
                assert _agree(_outcome(q_ell_normal, m[:cut], ell),
                              _outcome(_q_normal_ref, m, ell)), (mean, ell)
                assert _agree(_outcome(q_ell_central, mu[:cut], ell),
                              _outcome(_q_central_ref, mu, ell)), (mean, ell)


@pytest.mark.parametrize("dist,order", [
    (build_state("thermal", 0.7), 40), (build_state("coherent", 2.0), 40),
    (build_state("fock", 5), 40),
    # N_148 = (200)_148 fits in float64, but T_148 = (200+m)_148 does not
    # for m >= 3
    (build_state("fock", 200), 148),
], ids=["thermal", "coherent", "fock5", "fock200-overflow"])
def test_added_factorial_moment_bit_exact(dist, order):
    for m in (0, 1, 3, 6):
        for x_max in (order // 2 - m, order - m):
            new = _outcome(modified_moment_sequence, dist,
                           StateModification.add(m), x_max)
            assert _agree(new, _outcome(_added_ref, dist, m, x_max)), (m,
                                                                      x_max)


def test_shared_tables_survive_threads():
    # eight threads read the Poisson tables of two means in turn, and
    # build the Stirling rows from S(0, 0) through mu_from_m on unit
    # vectors, all with a tiny switch interval; every thread must get the
    # bits of a single-threaded run, and a row built from a missing or
    # partial row below it would shift every later Stirling row
    means = (0.731, 2.0)
    orders = list(range(2, 61, 2))
    want = {(lam, order): poisson_central_moment(lam, order)
            for lam in means for order in orders}
    for (lam, order), value in want.items():
        assert _within(value, _poisson_exact(lam, order)), (lam, order)
    rows = range(20, 201, 12)
    want_rows = {z: _stirling_scaled(z, z // 2) for z in rows}
    criteria._stirling_row.cache_clear()
    criteria._mean_tables.cache_clear()
    results = []

    def work(seed):
        rng = random.Random(seed)
        got = {(lam, order): poisson_central_moment(lam, order)
               for order in rng.sample(orders, len(orders)) for lam in means}
        got_rows = {z: _stirling_column(z, z // 2, 2.0 ** -600)[z]
                    for z in rng.sample(rows, len(rows))}
        results.append((got, got_rows))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,))
                   for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 8
    for got, got_rows in results:
        assert got == want and got_rows == want_rows


def test_mean_record_survives_threads():
    # eight threads read both Q^(l) forms at two means in random order,
    # over sequences cut to each order, so nearly every call reads a
    # different cached table of its mean, or builds it, all with a tiny
    # switch interval; every thread must get the bits of a
    # single-threaded run
    seqs = {mean: (_moments(mean), mu_from_m(_moments(mean)[:41]))
            for mean in (0.731, 2.0)}
    cases = [(mean, ell) for mean in seqs for ell in range(1, 21)]

    def bits(mean, ell):
        m, mu = seqs[mean]
        return (q_ell_normal(m[:2 * ell + 1], ell).hex(),
                q_ell_central(mu[:2 * ell + 1], ell).hex())
    want = {case: bits(*case) for case in cases}
    results = []

    def work(seed):
        rng = random.Random(seed)
        for _ in range(5):
            results.append(all(bits(*case) == want[case]
                               for case in rng.sample(cases, len(cases))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,))
                   for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 40 and all(results)


def test_cancellation_flags_survive_threads():
    # eight threads alternate a report that carries a flag with one that
    # has none, at a tiny switch interval; each report must carry its
    # single-threaded flags, and the process-wide warnings state must be
    # left as it was
    cases = ((build_state("fock", 0), StateModification.add(1)),
             (build_state("thermal", 1.0), StateModification.subtract(1)))
    want = [evaluate_all(dist, mod).flags for dist, mod in cases]
    assert want == [("a3_degenerate",), ()]
    filters, hook = list(warnings.filters), warnings.showwarning
    results = []

    def work():
        for i in range(150):
            dist, mod = cases[i % 2]
            results.append(evaluate_all(dist, mod).flags == want[i % 2])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 1200 and all(results)
    assert warnings.filters == filters and warnings.showwarning is hook
