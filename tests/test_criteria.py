import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonstat import (
    DegenerateA3,
    StateModification,
    agarwal_tara,
    antinormal_ladder,
    build_coherent,
    build_fock,
    build_squeezed_vacuum,
    build_thermal,
    evaluate_all,
    lee_dh,
    mandel_q,
    mandel_q_added,
    mandel_q_subtracted,
    mu_from_m,
    normal_ladder,
    poisson_central_moment,
    q_ell_central,
    q_ell_normal,
    stirling2,
)
from photonstat.criteria import _det3, _hankel3


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

def test_stirling_base():
    assert stirling2(0, 0) == 1
    assert stirling2(4, 2) == 7


def test_stirling_brute_force():
    assert stirling2(5, 3) == count_set_partitions(5, 3) == 25


def test_stirling_row_against_brute_force():
    for z in range(1, 7):
        for k in range(1, z + 1):
            assert stirling2(z, k) == count_set_partitions(z, k)


def test_stirling_validation():
    with pytest.raises(ValueError):
        stirling2(2, 3)
    with pytest.raises(ValueError):
        stirling2(-1, 0)


# ------------------------------------------------------------------- mu/m

def test_mu_from_m_coherent():
    mu = mu_from_m([1, 1, 1, 1, 1])
    assert mu[1] == 1.0
    assert mu[2] == 2.0


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


def test_mandel_q_subtracted_thermal_is_invariant():
    dist = build_thermal(0.8)
    ladder = normal_ladder(dist, 6)
    for n in range(4):
        assert math.isclose(mandel_q_subtracted(ladder, n), 0.8,
                            rel_tol=1e-9)


def test_mandel_q_subtracted_coherent_is_zero():
    ladder = normal_ladder(build_coherent(1.3), 5)
    for n in range(3):
        assert abs(mandel_q_subtracted(ladder, n)) <= 1e-12


def test_mandel_q_subtracted_fock():
    ladder = normal_ladder(build_fock(3), 3)
    assert mandel_q_subtracted(ladder, 1) == -1.0


def test_mandel_q_added_examples():
    assert mandel_q_added(antinormal_ladder(build_fock(0), 3), 1) == -1.0
    assert mandel_q_added(antinormal_ladder(build_fock(1), 3), 1) == -1.0
    got = mandel_q_added(antinormal_ladder(build_thermal(1.0), 3), 1)
    assert math.isclose(got, 1.0 / 3.0, rel_tol=1e-10)


def test_mandel_q_added_rejects_flat_ladder():
    from photonstat import MomentLadder, Ordering
    flat = MomentLadder(np.array([1.0, 1.0, 2.0]), Ordering.ANTINORMAL,
                        build_fock(0))
    with pytest.raises(ValueError):
        mandel_q_added(flat, 0)


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
    assert poisson_central_moment(0.0, 6) == 0.0


def test_poisson_central_moment_validation():
    with pytest.raises(ValueError):
        poisson_central_moment(1.0, 3)
    with pytest.raises(ValueError):
        poisson_central_moment(1.0, 0)
    with pytest.raises(ValueError):
        poisson_central_moment(-1.0, 2)


# ---------------------------------------------------------- generalized Q

def test_q_ell_order_one_equals_mandel():
    for dist in (build_thermal(0.9), build_coherent(2.0),
                 build_squeezed_vacuum(0.6)):
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
        value = agarwal_tara(m)
        assert not isinstance(value, DegenerateA3)
        assert abs(value) <= 1e-9


def test_a3_fock2():
    # hand-expanded determinants: det m3 = -8, det mu3 = 0
    m = [1.0, 2.0, 2.0, 0.0, 0.0]
    assert _det3(_hankel3(m)) == -8.0
    assert _det3(_hankel3(mu_from_m(m))) == 0.0
    assert agarwal_tara(m) == -1.0


def test_a3_fock1_degenerate():
    value = agarwal_tara([1.0, 1.0, 0.0, 0.0, 0.0])
    assert isinstance(value, DegenerateA3)
    assert value.det_m == 0.0
    assert value.det_mu == 0.0


def test_a3_thermal_value():
    # thermal states are classical: A3 >= 0
    m = [1.0, 1.0, 2.0, 6.0, 24.0]
    value = agarwal_tara(m)
    assert value >= 0.0


def test_det3_matches_elimination_routine():
    rng = np.random.default_rng(7)
    for dist in (build_thermal(1.5), build_coherent(2.5),
                 build_squeezed_vacuum(0.8)):
        m = list(normal_ladder(dist, 4).values)
        for seq in (m, list(mu_from_m(m))):
            mat = _hankel3(seq)
            ours = _det3(mat)
            lu = float(np.linalg.det(np.array(mat)))
            assert math.isclose(ours, lu, rel_tol=1e-12, abs_tol=1e-12)
    # and on generic well-conditioned matrices
    for _ in range(25):
        mat = rng.uniform(-3, 3, size=(3, 3))
        assert math.isclose(_det3(mat.tolist()), float(np.linalg.det(mat)),
                            rel_tol=1e-10, abs_tol=1e-12)


# ------------------------------------------------------------ evaluate_all

def test_evaluate_all_coherent_null():
    report = evaluate_all(build_coherent(1.0), StateModification.subtract(1),
                          ell_max=2)
    assert abs(report.mandel_q) <= 1e-9
    for value in (*report.q_ell_normal.values(),
                  *report.q_ell_central.values(),
                  *report.lee_dh.values()):
        assert abs(value) <= 1e-9
    assert abs(report.a3) <= 1e-9
    assert report.flags == ()


def test_evaluate_all_oversubtraction_flagged():
    report = evaluate_all(build_fock(2), StateModification.subtract(3))
    assert report.undefined
    assert math.isnan(report.mean)
    assert math.isnan(report.mandel_q)


def test_evaluate_all_thermal_added():
    report = evaluate_all(build_thermal(1.0), StateModification.add(1),
                          ell_max=1)
    assert math.isclose(report.mandel_q, 1.0 / 3.0, rel_tol=1e-9)
    assert math.isclose(report.mean, 3.0, rel_tol=1e-10)


def test_evaluate_all_vacuum_flags_undefined_mean():
    report = evaluate_all(build_fock(0))
    assert "undefined_mean" in report.flags
    assert math.isnan(report.mandel_q)
    assert all(math.isnan(v) for v in report.q_ell_normal.values())


def test_evaluate_all_fock1_a3_degenerate_flag():
    report = evaluate_all(build_fock(1))
    assert isinstance(report.a3, DegenerateA3)
    assert "a3_degenerate" in report.flags


def test_evaluate_all_lee_identity():
    for dist in (build_thermal(1.3), build_coherent(0.7),
                 build_squeezed_vacuum(0.5)):
        report = evaluate_all(dist)
        assert math.isclose(report.lee_dh[1],
                            report.mean * report.mandel_q, rel_tol=1e-12)


def test_evaluate_all_order_one_coincidence():
    for dist in (build_thermal(1.3), build_fock(3),
                 build_squeezed_vacuum(0.5)):
        report = evaluate_all(dist)
        assert math.isclose(report.q_ell_normal[1], report.mandel_q,
                            rel_tol=1e-12)
        assert math.isclose(report.q_ell_central[1], report.mandel_q,
                            rel_tol=1e-12)


def test_evaluate_all_report_shape():
    report = evaluate_all(build_thermal(0.5), ell_max=3)
    assert sorted(report.q_ell_normal) == [1, 2, 3]
    assert sorted(report.q_ell_central) == [1, 2, 3]
    assert sorted(report.lee_dh) == [1, 2, 3]


def test_fock_states_are_maximally_sub_poissonian():
    for n in range(1, 7):
        report = evaluate_all(build_fock(n), ell_max=3)
        assert abs(report.mandel_q + 1.0) <= 1e-12
        for ell in range(2, n + 1):
            if ell - 1 in report.lee_dh:
                assert report.lee_dh[ell - 1] < 0.0


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
