import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonstat import (
    AccuracyError,
    CutoffPolicy,
    DEFAULT_POLICY,
    NumberDistribution,
    build_coherent,
    build_fock,
    build_squeezed_vacuum,
    build_state,
    build_thermal,
    choose_cutoff,
    antinormal_ladder,
    normal_ladder,
)
from photonstat.cli import main
from photonstat.states import _BUILDERS, _raw_factorial_moment


def test_coherent_vacuum_limit():
    dist = build_coherent(0.0)
    assert dist.cutoff == 0
    assert dist.probs[0] == 1.0
    assert dist.tail_bound == 0.0


def test_coherent_ground_probability():
    dist = build_coherent(1.0)
    assert math.isclose(dist.probs[0], math.exp(-1), rel_tol=1e-13)


def test_coherent_mean():
    dist = build_coherent(2.0)
    assert math.isclose(dist.mean(), 2.0, rel_tol=DEFAULT_POLICY.rel_tol)


def test_thermal_vacuum_limit():
    dist = build_thermal(0.0)
    assert dist.cutoff == 0
    assert dist.probs[0] == 1.0


def test_thermal_geometric_weights():
    dist = build_thermal(1.0)
    assert math.isclose(dist.probs[0], 0.5, rel_tol=1e-13)
    assert math.isclose(dist.probs[1], 0.25, rel_tol=1e-13)


def test_thermal_mean():
    dist = build_thermal(0.5)
    assert math.isclose(dist.mean(), 0.5, rel_tol=DEFAULT_POLICY.rel_tol)


@pytest.mark.parametrize("n", [0, 2, 5])
def test_fock_distribution(n):
    dist = build_fock(n)
    assert dist.cutoff == n
    assert dist.probs[n] == 1.0
    assert dist.tail_bound == 0.0
    assert dist.mean() == n


def test_squeezed_vacuum_limit():
    dist = build_squeezed_vacuum(0.0)
    assert dist.cutoff == 0
    assert dist.probs[0] == 1.0


def test_squeezed_odd_entries_vanish():
    dist = build_squeezed_vacuum(0.7)
    assert np.all(dist.probs[1::2] == 0.0)


def test_squeezed_mean_matches_brute_force():
    # frozen from sum(n * p_n) at a very large cutoff: sinh(0.5)^2
    dist = build_squeezed_vacuum(0.5)
    assert math.isclose(dist.mean(), 0.2715403174076219,
                        rel_tol=DEFAULT_POLICY.rel_tol)


@pytest.mark.parametrize("family,param,mean", [
    ("coherent", 1.7, 1.7),
    ("thermal", 0.9, 0.9),
    ("squeezed", 0.8, math.sinh(0.8) ** 2),
])
def test_mean_consistency(family, param, mean):
    dist = build_state(family, param)
    assert math.isclose(dist.mean(), mean, rel_tol=DEFAULT_POLICY.rel_tol)


@pytest.mark.parametrize("family,param", [
    ("coherent", 2.0), ("thermal", 1.3), ("squeezed", 0.6),
])
def test_normalization(family, param):
    dist = build_state(family, param)
    assert abs(dist.total() - 1.0) <= 1e-14


def test_unnormalized_sum_within_tail_bound():
    dist = build_coherent(2.0, renormalize=False)
    total = dist.total()
    assert 1.0 - dist.tail_bound <= total <= 1.0 + 1e-15


def test_tail_bound_meets_policy():
    for family, param in [("coherent", 3.0), ("thermal", 2.0),
                          ("squeezed", 1.0)]:
        dist = build_state(family, param)
        assert dist.tail_bound <= DEFAULT_POLICY.eps_tail


@pytest.mark.parametrize("family,param", [
    ("coherent", 2.5), ("thermal", 1.5), ("squeezed", 0.9),
])
def test_tail_bound_monotone_in_cutoff(family, param):
    _, tail = _BUILDERS[family]
    bounds = [tail(param, cutoff) for cutoff in range(4, 200, 7)]
    assert all(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:]))


@pytest.mark.parametrize("family,param", [
    ("coherent", 2.5), ("thermal", 1.5), ("squeezed", 0.9),
])
def test_tail_bound_is_actually_a_bound(family, param):
    pmf, tail = _BUILDERS[family]
    big = pmf(param, 2000)
    for cutoff in (10, 25, 60):
        omitted = math.fsum(big[cutoff + 1:])
        assert omitted <= tail(param, cutoff) * (1 + 1e-12)


def test_choose_cutoff_fock():
    assert choose_cutoff("fock", 3) == 3


def test_choose_cutoff_vacuum():
    assert choose_cutoff("coherent", 0.0) == 0


def test_choose_cutoff_convergence_oracle():
    # the doubling criterion itself, replayed on the chosen cutoff
    policy = CutoffPolicy(eps_tail=1e-12, max_moment_order=8)
    cutoff = choose_cutoff("thermal", 1.0, policy)
    pmf, tail = _BUILDERS["thermal"]
    assert tail(1.0, cutoff) <= policy.eps_tail
    m_here = _raw_factorial_moment(pmf(1.0, cutoff), 8)
    m_twice = _raw_factorial_moment(pmf(1.0, 2 * cutoff), 8)
    assert abs(m_twice - m_here) <= policy.rel_tol * m_twice
    # and the cutoff is minimal: one step down violates a criterion
    smaller = cutoff - 1
    m_small = _raw_factorial_moment(pmf(1.0, smaller), 8)
    m_small2 = _raw_factorial_moment(pmf(1.0, 2 * smaller), 8)
    assert (tail(1.0, smaller) > policy.eps_tail
            or abs(m_small2 - m_small) > policy.rel_tol * m_small2)


def _accepts(family, param, cutoff, policy=DEFAULT_POLICY):
    """The cutoff predicate, replayed from scratch at one cutoff."""
    pmf, tail = _BUILDERS[family]
    order = policy.max_moment_order
    if tail(param, cutoff) > policy.eps_tail:
        return False
    m_here = _raw_factorial_moment(pmf(param, cutoff), order)
    m_twice = _raw_factorial_moment(pmf(param, 2 * cutoff), order)
    if m_twice == 0.0:
        # a zero moment at 2D certifies only a pmf that underflows to 0
        return not pmf(param, order + 1)[order:].any()
    return abs(m_twice - m_here) <= policy.rel_tol * m_twice


@pytest.mark.parametrize("family,param", [
    (family, param)
    for family, top in (("coherent", 8.0), ("thermal", 3.0),
                        ("squeezed", 1.2))
    for param in (1e-300, 1e-30, 1e-8, 0.01, 0.05, 0.5, 2.0, top)
])
def test_choose_cutoff_is_smallest_by_linear_scan(family, param):
    # nonzero parameters search 1..max_cutoff; the scan walks it in order
    smallest = next(d for d in itertools.count(1)
                    if _accepts(family, param, d))
    assert choose_cutoff(family, param) == smallest


@pytest.mark.parametrize("family,cutoff", [
    ("coherent", 16), ("thermal", 19), ("squeezed", 18),
])
def test_small_param_cutoffs_pinned(family, cutoff):
    # at 0.01 the order-12 moments vanish for 2D < 12; those cutoffs must
    # not pass vacuously
    assert choose_cutoff(family, 0.01) == cutoff


@pytest.mark.parametrize("nbar", [0.3, 1.0, 2.5])
def test_thermal_ladders_match_closed_form(nbar):
    dist = build_thermal(nbar)
    normal = normal_ladder(dist, 12)
    anti = antinormal_ladder(dist, 12)
    for k in range(13):
        assert math.isclose(normal[k], math.factorial(k) * nbar ** k,
                            rel_tol=DEFAULT_POLICY.rel_tol)
        assert math.isclose(anti[k], math.factorial(k) * (1 + nbar) ** k,
                            rel_tol=DEFAULT_POLICY.rel_tol)


def test_check_order_follows_the_request(capsys):
    # --add 6 --ell-max 6 reads the anti-normal ladder up to order 18
    code = main(["criteria", "--family", "thermal", "--param", "1",
                 "--add", "6", "--ell-max", "6"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["policy"]["max_moment_order"] == 18
    policy = CutoffPolicy(max_moment_order=18)
    assert _accepts("thermal", 1.0, doc["cutoff"], policy)
    assert not _accepts("thermal", 1.0, doc["cutoff"] - 1, policy)


def test_check_order_is_never_lowered(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"max_moment_order": 30}))
    code = main(["criteria", "--family", "thermal", "--param", "1",
                 "--config", str(config)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["policy"][
        "max_moment_order"] == 30


@pytest.mark.parametrize("family", ["coherent", "thermal", "squeezed",
                                    "fock"])
@pytest.mark.parametrize("param", [math.nan, math.inf])
def test_non_finite_params_rejected(family, param):
    with pytest.raises(ValueError):
        choose_cutoff(family, param)
    with pytest.raises(ValueError):
        build_state(family, param)


def test_cutoff_cap_raises_accuracy_error():
    policy = CutoffPolicy(max_cutoff=16)
    with pytest.raises(AccuracyError):
        build_thermal(5.0, policy)


@pytest.mark.parametrize("family,param", [
    ("squeezed", 19.5), ("squeezed", 25.0), ("squeezed", 800.0),
    ("coherent", 746.0), ("coherent", 800.0),
])
def test_float64_limits_raise_accuracy_error(family, param):
    # squeezed: tanh(r)**2 rounds to 1.0 (and cosh(r) overflows past 710);
    # coherent: exp(-|alpha|^2) underflows, so the whole pmf is 0.0
    with pytest.raises(AccuracyError, match=rf"{family}\({param}\)"):
        choose_cutoff(family, param)


def test_coherent_745_still_has_a_cutoff():
    # exp(-745) is the smallest subnormal, so the pmf is still nonzero
    assert choose_cutoff("coherent", 745.0) > 745


def test_invalid_inputs():
    with pytest.raises(ValueError):
        build_fock(-1)
    with pytest.raises(ValueError):
        build_fock(2.5)
    with pytest.raises(ValueError):
        build_thermal(-0.1)
    with pytest.raises(ValueError):
        build_state("cat", 1.0)
    with pytest.raises(ValueError):
        CutoffPolicy(eps_tail=0.0)
    with pytest.raises(ValueError):
        CutoffPolicy(eps_tail=math.nan)
    with pytest.raises(ValueError):
        CutoffPolicy(rel_tol=math.nan)


def test_distribution_is_immutable():
    dist = build_coherent(1.0)
    with pytest.raises(ValueError):
        dist.probs[0] = 0.5


def test_distribution_validation():
    with pytest.raises(ValueError):
        NumberDistribution(np.array([0.5, -0.1]))
    with pytest.raises(ValueError):
        NumberDistribution(np.array([]))
    with pytest.raises(ValueError):
        NumberDistribution(np.array([1.0]), tail_bound=-1e-3)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=8.0))
def test_coherent_properties_random_amplitude(alpha_sq):
    dist = build_coherent(alpha_sq)
    assert abs(dist.total() - 1.0) <= 1e-14
    assert math.isclose(dist.mean(), alpha_sq,
                        rel_tol=1e-9, abs_tol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=4.0))
def test_thermal_properties_random_occupation(nbar):
    dist = build_thermal(nbar)
    assert abs(dist.total() - 1.0) <= 1e-14
    assert math.isclose(dist.mean(), nbar, rel_tol=1e-9, abs_tol=1e-12)
