import copy
import itertools
import json
import math
import pickle
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonstat import (
    AccuracyError,
    CutoffPolicy,
    DEFAULT_POLICY,
    NumberDistribution,
    build_state,
    choose_cutoff,
    direct_moments,
    normal_ladder,
)
from photonstat import kernels, states
from photonstat.cli import main
from photonstat.moments import antinormal_ladder
from photonstat.states import _BUILDERS, checked_param


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
    dist = build_state("coherent", 0.0)
    assert dist.cutoff == 0
    assert dist.probs[0] == 1.0
    assert dist.tail_bound == 0.0


def test_coherent_ground_probability():
    dist = build_state("coherent", 1.0)
    assert math.isclose(dist.probs[0], math.exp(-1), rel_tol=1e-13)


def test_coherent_mean():
    dist = build_state("coherent", 2.0)
    assert math.isclose(direct_moments(dist, 1)[1], 2.0,
                        rel_tol=DEFAULT_POLICY.rel_tol)


def test_thermal_vacuum_limit():
    dist = build_state("thermal", 0.0)
    assert dist.cutoff == 0
    assert dist.probs[0] == 1.0


def test_thermal_geometric_weights():
    dist = build_state("thermal", 1.0)
    assert math.isclose(dist.probs[0], 0.5, rel_tol=1e-13)
    assert math.isclose(dist.probs[1], 0.25, rel_tol=1e-13)


def test_thermal_mean():
    dist = build_state("thermal", 0.5)
    assert math.isclose(direct_moments(dist, 1)[1], 0.5,
                        rel_tol=DEFAULT_POLICY.rel_tol)


@pytest.mark.parametrize("n", [0, 2, 5])
def test_fock_distribution(n):
    dist = build_state("fock", n)
    assert dist.cutoff == n
    assert dist.probs[n] == 1.0
    assert dist.tail_bound == 0.0
    assert direct_moments(dist, 1)[1] == n


def test_build_state_records_the_order_its_cutoff_was_checked_at():
    for family, param in (("coherent", 2.0), ("thermal", 7.9),
                          ("squeezed", 1.2)):
        assert build_state(family, param).checked_order == 12
        policy = CutoffPolicy(max_moment_order=18)
        assert build_state(family, param, policy).checked_order == 18
    # no check bounds finite support (Fock states, the vacuum) or a
    # distribution built by hand: every order may be read
    for family, param in (("fock", 3), ("coherent", 0.0), ("thermal", 0.0),
                          ("squeezed", 0.0)):
        assert build_state(family, param).checked_order is None
    assert NumberDistribution([0.5, 0.5], 1e-3).checked_order is None


def test_squeezed_vacuum_limit():
    dist = build_state("squeezed", 0.0)
    assert dist.cutoff == 0
    assert dist.probs[0] == 1.0


def test_squeezed_odd_entries_vanish():
    dist = build_state("squeezed", 0.7)
    assert all(p == 0.0 for p in dist.probs[1::2])


def test_squeezed_mean_matches_brute_force():
    # frozen from sum(n * p_n) at a very large cutoff: sinh(0.5)^2
    dist = build_state("squeezed", 0.5)
    assert math.isclose(direct_moments(dist, 1)[1], 0.2715403174076219,
                        rel_tol=DEFAULT_POLICY.rel_tol)


@pytest.mark.parametrize("family,param,mean", [
    ("coherent", 1.7, 1.7),
    ("thermal", 0.9, 0.9),
    ("squeezed", 0.8, math.sinh(0.8) ** 2),
])
def test_mean_consistency(family, param, mean):
    dist = build_state(family, param)
    assert math.isclose(direct_moments(dist, 1)[1], mean,
                        rel_tol=DEFAULT_POLICY.rel_tol)


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


# check orders the CLI reaches: 12 by default, 18 for --add 6 or
# --subtract 6 at --ell-max 6, and 8 from a config's max_moment_order
@pytest.mark.parametrize("family,param,order", [
    pytest.param(family, param, order, id=f"{family}-{param}"
                 + ("" if order == 12 else f"-K{order}"))
    for family, top in (("coherent", 8.0), ("thermal", 3.0),
                        ("squeezed", 1.2))
    for param in (1e-300, 1e-30, 1e-8, 0.01, 0.05, 0.5, 2.0, top)
    for order in (8, 12, 18)
])
def test_choose_cutoff_is_smallest_by_linear_scan(family, param, order):
    # nonzero parameters search 1..max_cutoff; the scan walks it in order
    policy = CutoffPolicy(max_moment_order=order)
    smallest = next(d for d in itertools.count(1)
                    if _accepts(family, param, d, policy))
    assert choose_cutoff(family, param, policy) == smallest


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


def _cutoff_or_error(family, param, policy):
    try:
        return choose_cutoff(family, param, policy)
    except AccuracyError as exc:
        # a cap error goes on to name the policy's own K
        return str(exc).split(" needs cutoff")[0]


# pmfs that underflow to 0: a step ratio above 1/2 would hold them at the
# smallest subnormal for good
@pytest.mark.parametrize("family,param", [
    ("coherent", 1.0), ("thermal", 1.0), ("squeezed", 0.5)])
def test_a_huge_check_order_builds_no_longer_pmf(monkeypatch, family, param):
    # every order past n_last checks the same moment, so K = 10**18 must
    # decide as K = n_last does, on pmfs of at most 2 * max_cutoff + 3
    # entries (asking for K + 2 of them raises MemoryError)
    pmf, tail = _BUILDERS[family]
    probs = pmf(param, 2 * DEFAULT_POLICY.max_cutoff)
    n_last = max(n for n, p in enumerate(probs) if p)
    assert n_last < DEFAULT_POLICY.max_cutoff
    sizes = []

    def recording(param, cutoff):
        sizes.append(cutoff)
        return pmf(param, cutoff)

    monkeypatch.setitem(_BUILDERS, family, (recording, tail))
    huge, capped = (_cutoff_or_error(family, param, CutoffPolicy(
        max_moment_order=order)) for order in (10 ** 18, n_last))
    assert huge == capped
    assert max(sizes) <= 2 * DEFAULT_POLICY.max_cutoff + 2


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
    """(normal, anti-normal) N_k in closed form, the anti-normal one and
    the Fock ones exact."""
    if family == "thermal":
        return (math.factorial(k) * param ** k,
                math.factorial(k) * (1 + Fraction(param)) ** k)
    if family == "coherent":
        # |alpha|^(2k) and k! L_k(-|alpha|^2), Agarwal & Tara, PRA 43, 492
        laguerre = sum(math.comb(k, j) * math.perm(k, k - j)
                       * Fraction(param) ** j for j in range(k + 1))
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
    normal = normal_ladder(dist, order).values
    anti = antinormal_ladder(dist, order)
    for k in range(order + 1):
        want_normal, want_anti = _closed_form_ladders(family, param, k)
        if family != "fock":
            assert math.isclose(normal[k], want_normal,
                                rel_tol=DEFAULT_POLICY.rel_tol)
            assert (abs(anti[k] - want_anti)
                    <= Fraction(DEFAULT_POLICY.rel_tol) * want_anti)
            continue
        # a single occupied n: the anti-normal ladder is exact, and the
        # normal weights are exact products
        assert anti[k] == want_anti
        if want_normal < 2 ** 53:
            assert normal[k] == want_normal
        else:
            assert math.isclose(normal[k], want_normal, rel_tol=1e-15)


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
    with pytest.raises(AccuracyError, match=f"^fock index {10 ** 400} "
                       "exceeds max_cutoff 4096$"):
        build_state("fock", 10 ** 400)


def test_cutoff_cap_raises_accuracy_error():
    policy = CutoffPolicy(max_cutoff=16)
    with pytest.raises(AccuracyError):
        build_state("thermal", 5.0, policy)


@pytest.mark.parametrize("param,order,reason", [
    # tanh(25)**2 rounds to 1.0, so no tail bound below 1 is computable
    (25.0, 12, "tail bound 1.000e+00 vs eps_tail 1.000e-12"),
    # the tail bound is met, but the pmf never reaches 0, so the check
    # order stays K and its moment is 0 at every cutoff
    (1.0, 10 ** 18 + 6, "the order-1000000000000000006 factorial moment "
     "did not converge to rel_tol 1.0e-10"),
], ids=["tail", "moment"])
def test_cap_error_names_the_condition_that_failed(param, order, reason):
    policy = CutoffPolicy(max_moment_order=order)
    with pytest.raises(AccuracyError) as refused:
        choose_cutoff("squeezed", param, policy)
    assert str(refused.value) == (
        f"squeezed({param}) needs cutoff > 4096: {reason}")


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
        build_state("fock", -1)
    with pytest.raises(ValueError):
        build_state("fock", 2.5)
    with pytest.raises(ValueError):
        build_state("thermal", -0.1)
    with pytest.raises(ValueError):
        build_state("cat", 1.0)
    with pytest.raises(ValueError):
        CutoffPolicy(eps_tail=0.0)
    with pytest.raises(ValueError):
        CutoffPolicy(eps_tail=math.nan)
    with pytest.raises(ValueError):
        CutoffPolicy(rel_tol=math.nan)


@pytest.mark.parametrize("family,param,message", [
    ("cat", 1.0, "unknown state family 'cat'"),
    ("coherent", math.inf, "coherent parameter must be finite"),
    ("fock", math.nan, "fock parameter must be finite"),
    ("thermal", -0.1, "thermal parameter must be nonnegative"),
    ("fock", -1.0, "fock parameter must be a nonnegative integer"),
    ("fock", 2.5, "fock parameter must be a nonnegative integer"),
    # an int beyond float64 is not finite, as inf is not
    *(pytest.param(family, 10 ** 400, f"{family} parameter must be finite",
                   id=f"{family}-int-beyond-float64")
      for family in ("coherent", "thermal", "squeezed")),
])
def test_checked_param_is_the_rule_build_state_applies(family, param,
                                                      message):
    pattern = f"^{message}$"
    for call in (checked_param, build_state, choose_cutoff,
                 lambda family, param: states.analytic_ladder(family, param,
                                                              3)):
        with pytest.raises(ValueError, match=pattern):
            call(family, param)


def test_checked_param_returns_a_fock_index_as_an_int():
    assert type(checked_param("fock", 3.0)) is int
    assert checked_param("fock", 3.0) == 3
    assert checked_param("thermal", 0.5) == 0.5
    # an int index is exact, however large
    assert checked_param("fock", 10 ** 400) == 10 ** 400


def test_distribution_is_immutable():
    dist = build_state("coherent", 1.0)
    before = dist.probs[0]
    # probs is a read-only memoryview, which refuses writes with TypeError
    with pytest.raises(TypeError):
        dist.probs[0] = 0.5
    assert dist.probs[0] == before


def test_distribution_pickles_and_copies():
    dist = build_state("squeezed", 0.8)
    ladder = normal_ladder(dist, 4)
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
    dist = build_state("coherent", alpha_sq)
    assert abs(dist.total() - 1.0) <= 1e-14
    assert math.isclose(direct_moments(dist, 1)[1], alpha_sq,
                        rel_tol=1e-9, abs_tol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=4.0))
def test_thermal_properties_random_occupation(nbar):
    dist = build_state("thermal", nbar)
    assert abs(dist.total() - 1.0) <= 1e-14
    assert math.isclose(direct_moments(dist, 1)[1], nbar,
                        rel_tol=1e-9, abs_tol=1e-12)
