import copy
import itertools
import json
import math
import pickle
import struct

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
from photonstat import kernels, states
from photonstat.cli import main
from photonstat.states import _BUILDERS


def _factorial_moment(probs, order):
    """sum_n p_n * n(n-1)...(n-order+1), straight from the ladder kernel."""
    return kernels.ladder_sums(probs, order)[order]


def _check_order(family, param, policy):
    """max_moment_order, capped at the last n the float64 pmf occupies."""
    pmf, _ = _BUILDERS[family]
    probs = pmf(param, policy.max_moment_order + 1)
    return min(policy.max_moment_order,
               max(n for n, p in enumerate(probs) if p))


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
    assert all(p == 0.0 for p in dist.probs[1::2])


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
    pmf, tail = _BUILDERS["coherent"]
    cutoff = choose_cutoff("coherent", 2.0)
    total = kernels.checked_fsum(pmf(2.0, cutoff), "total probability")
    assert 1.0 - tail(2.0, cutoff) <= total <= 1.0 + 1e-15


@pytest.mark.parametrize("family,param", [
    ("coherent", 2.0), ("thermal", 1.3), ("squeezed", 0.6),
])
def test_continuous_build_constructs_one_distribution(family, param,
                                                      monkeypatch):
    # the pmf is scaled to unit total before the one distribution is made
    made = []

    def counting(*args):
        made.append(args)
        return NumberDistribution(*args)

    monkeypatch.setattr(states, "NumberDistribution", counting)
    dist = build_state(family, param)
    assert len(made) == 1
    pmf, _ = _BUILDERS[family]
    probs = pmf(param, dist.cutoff)
    total = kernels.checked_fsum(probs, "total probability")
    assert dist.probs.tobytes() == struct.pack(
        f"{len(probs)}d", *(p / total for p in probs))


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
    order = _check_order("thermal", 1.0, policy)
    assert order == 8
    m_here = _factorial_moment(pmf(1.0, cutoff), order)
    m_twice = _factorial_moment(pmf(1.0, 2 * cutoff), order)
    assert abs(m_twice - m_here) <= policy.rel_tol * m_twice
    # and the cutoff is minimal: one step down violates a criterion
    smaller = cutoff - 1
    m_small = _factorial_moment(pmf(1.0, smaller), order)
    m_small2 = _factorial_moment(pmf(1.0, 2 * smaller), order)
    assert (tail(1.0, smaller) > policy.eps_tail
            or abs(m_small2 - m_small) > policy.rel_tol * m_small2)


def _accepts(family, param, cutoff, policy=DEFAULT_POLICY):
    """The cutoff predicate, replayed from scratch at one cutoff."""
    pmf, tail = _BUILDERS[family]
    order = _check_order(family, param, policy)
    if tail(param, cutoff) > policy.eps_tail:
        return False
    m_here = _factorial_moment(pmf(param, cutoff), order)
    m_twice = _factorial_moment(pmf(param, 2 * cutoff), order)
    # a zero or non-finite moment at 2D never passes
    return (0.0 < m_twice < math.inf
            and abs(m_twice - m_here) <= policy.rel_tol * m_twice)


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


@pytest.mark.parametrize("family,param,cutoff", [
    pytest.param("coherent", 0.01, 16, id="coherent-16"),
    pytest.param("thermal", 0.01, 19, id="thermal-19"),
    pytest.param("squeezed", 0.01, 18, id="squeezed-18"),
    # the pmf underflows to 0 past n = 10 (or 3, or 1): the check order is
    # capped there, and a moment that is zero at 2D does not pass
    ("coherent", 1e-30, 10), ("thermal", 1e-30, 10), ("squeezed", 1e-30, 10),
    ("coherent", 1e-100, 3), ("coherent", 1e-300, 1),
])
def test_small_param_cutoffs_pinned(family, param, cutoff):
    # at 0.01 the order-12 moments vanish for 2D < 12; those cutoffs must
    # not pass vacuously
    assert choose_cutoff(family, param) == cutoff


def test_tiny_coherent_state_survives_subtraction(capsys):
    # photon subtraction cannot annihilate a coherent state: Q stays 0
    code = main(["criteria", "--family", "coherent", "--param", "1e-30",
                 "--subtract", "2"])
    assert code == 0
    assert abs(json.loads(capsys.readouterr().out)["Q"]) < 1e-40
    # N_2 = 1e-600 underflows float64: an accuracy failure, not annihilation
    code = main(["criteria", "--family", "coherent", "--param", "1e-300",
                 "--subtract", "2"])
    assert code == 3


def test_lee_dh_vanishes_up_to_the_underflowed_pmf(capsys):
    # Lee's d_h is 0 for a coherent state; the check order 79 + 78 exceeds
    # the last n the pmf occupies, and a cutoff below it would make
    # dh_h = -m_1^(h+1) from h of about 10 on
    code = main(["criteria", "--family", "coherent", "--param", "0.5",
                 "--subtract", "1", "--ell-max", "78", "--criteria", "d_h"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    for h in range(1, 79):
        assert abs(doc[f"dh{h}"]) <= 1e-12 * doc["mean"] ** (h + 1), h


def test_search_sums_one_weight_row(monkeypatch):
    # the confirmations sum prefixes of the screen's falling-weight row
    # (order 0) instead of rebuilding order-K weights
    orders = []
    ladder_sums = kernels.ladder_sums

    def recording(probs, order):
        orders.append(order)
        return ladder_sums(probs, order)

    monkeypatch.setattr(kernels, "ladder_sums", recording)
    policy = CutoffPolicy(max_moment_order=70)
    assert choose_cutoff("squeezed", 2.0, policy) == 3794
    assert orders and set(orders) == {0}


def _closed_form_ladders(family, param, k):
    """(normal, anti-normal) N_k in closed form, exact integers for Fock."""
    if family == "thermal":
        return (math.factorial(k) * param ** k,
                math.factorial(k) * (1 + param) ** k)
    if family == "coherent":
        # |alpha|^(2k) and k! L_k(-|alpha|^2), Agarwal & Tara, PRA 43, 492
        laguerre = math.fsum(math.comb(k, j) * math.perm(k, k - j)
                             * param ** j for j in range(k + 1))
        return param ** k, laguerre
    return math.perm(param, k), math.perm(param + k, k)


@pytest.mark.parametrize("family,param,order", [
    *(pytest.param("thermal", nbar, 12, id=repr(nbar))
      for nbar in (0.3, 1.0, 2.5)),
    *(pytest.param("coherent", alpha_sq, 12, id=f"coherent-{alpha_sq}")
      for alpha_sq in (0.3, 1.0, 2.5, 8.0)),
    *(pytest.param("fock", n, 18, id=f"fock-{n}")
      for n in (0, 1, 2, 7, 19, 60, 200)),
])
def test_thermal_ladders_match_closed_form(family, param, order):
    dist = build_state(family, param)
    normal = normal_ladder(dist, order)
    anti = antinormal_ladder(dist, order)
    for k in range(order + 1):
        for got, want in zip((normal.values[k], anti.values[k]),
                             _closed_form_ladders(family, param, k)):
            if family != "fock":
                assert math.isclose(got, want, rel_tol=DEFAULT_POLICY.rel_tol)
            elif want < 2 ** 53:
                # a single occupied n: the weights are exact products
                assert got == want
            else:
                assert math.isclose(got, want, rel_tol=1e-15)


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


def test_fock_index_honours_max_cutoff():
    policy = CutoffPolicy(max_cutoff=100)
    assert build_state("fock", 100, policy).cutoff == 100
    with pytest.raises(AccuracyError, match="exceeds max_cutoff 100"):
        build_state("fock", 200, policy)


def test_cutoff_cap_raises_accuracy_error():
    policy = CutoffPolicy(max_cutoff=16)
    with pytest.raises(AccuracyError):
        build_thermal(5.0, policy)


@pytest.mark.parametrize("family,param,order", [
    pytest.param(family, param, 12, id=f"{family}-{param}")
    for family, param in (("squeezed", 19.5), ("squeezed", 25.0),
                          ("squeezed", 800.0), ("coherent", 746.0),
                          ("coherent", 800.0))
] + [
    ("thermal", 3.0, 150), ("thermal", 5.0, 160), ("squeezed", 1.2, 150),
])
def test_float64_limits_raise_accuracy_error(family, param, order):
    # squeezed: tanh(r)**2 rounds to 1.0 (and cosh(r) overflows past 710);
    # coherent: exp(-|alpha|^2) underflows, so the whole pmf is 0.0;
    # orders 150 and 160: the check moment overflows before any cutoff
    # passes, so none can
    policy = CutoffPolicy(max_moment_order=order)
    match = rf"{family}\({param}\)"
    if order > 12:
        match += rf": the order-{order} factorial moment"
    with pytest.raises(AccuracyError, match=match):
        choose_cutoff(family, param, policy)


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
    before = dist.probs[0]
    # probs is a read-only memoryview, which refuses writes with TypeError
    with pytest.raises(TypeError):
        dist.probs[0] = 0.5
    assert dist.probs[0] == before


def test_distribution_pickles_and_copies():
    dist = build_squeezed_vacuum(0.8)
    ladder = antinormal_ladder(dist, 4)
    for twin in (pickle.loads(pickle.dumps(dist)), copy.deepcopy(dist)):
        assert twin == dist and twin.probs.readonly
        assert twin.probs.tobytes() == dist.probs.tobytes()
    assert pickle.loads(pickle.dumps(ladder)) == ladder


def test_distribution_validation():
    with pytest.raises(ValueError):
        NumberDistribution(np.array([0.5, -0.1]))
    with pytest.raises(ValueError):
        NumberDistribution(np.array([]))
    with pytest.raises(ValueError):
        NumberDistribution(np.array([1.0]), tail_bound=-1e-3)
    # a NaN anywhere, an infinity, or a second dimension is refused
    for bad in ([math.nan, 0.5], [0.5, math.nan], [0.5, math.inf],
                [[0.5, 0.5]], np.ones((2, 2)) / 4, "ab"):
        with pytest.raises(ValueError):
            NumberDistribution(bad)


def test_probs_is_a_read_only_float64_sequence():
    probs = NumberDistribution([0.25, 0.5, 0.25]).probs
    assert len(probs) == 3 and probs[1] == 0.5
    assert list(probs) == [0.25, 0.5, 0.25]
    assert list(probs[1:]) == [0.5, 0.25]
    assert probs.tobytes() == struct.pack("3d", 0.25, 0.5, 0.25)
    # any sequence of numbers is accepted and stored as float64
    for given_probs in ((0, 1), [0.0, 1.0], np.array([0.0, 1.0])):
        assert NumberDistribution(given_probs).probs.tolist() == [0.0, 1.0]


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
