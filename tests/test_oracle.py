import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from photonstat import moments, oracle
from photonstat import (
    DEFAULT_SUITE_STATES,
    FAMILIES,
    AccuracyError,
    CutoffPolicy,
    NumberDistribution,
    StateModification,
    UndefinedStateError,
    antinormal_ladder,
    build_state,
    direct_moments,
    direct_power_moments,
    equivalence_suite,
    evaluate_all,
    modified_moment_sequence,
    mu_from_m,
    normal_ladder,
    oracle_add,
    oracle_subtract,
)


# --------------------------------------------------------------- subtract

def test_subtract_fock_lands_on_lower_fock():
    res = oracle_subtract(build_state("fock", 2), 1)
    np.testing.assert_array_equal(res.dist.probs, [0.0, 1.0])
    assert res.norm_constant == 2.0


def test_subtract_coherent_leaves_distribution_alone():
    base = build_state("coherent", 1.0)
    res = oracle_subtract(base, 2)
    assert len(res.dist.probs) == len(base.probs) - 2
    np.testing.assert_allclose(res.dist.probs, base.probs[:-2], atol=1e-12)
    assert math.isclose(res.norm_constant, 1.0, rel_tol=1e-10)


def test_subtract_thermal_doubles_mean():
    res = oracle_subtract(build_state("thermal", 1.0), 1)
    assert math.isclose(res.moments[1], 2.0, rel_tol=1e-10)


def test_subtract_identity():
    base = build_state("thermal", 0.5)
    res = oracle_subtract(base, 0)
    np.testing.assert_allclose(res.dist.probs, base.probs, rtol=1e-15)
    assert math.isclose(res.norm_constant, 1.0, rel_tol=1e-13)


def test_oversubtraction_raises():
    with pytest.raises(UndefinedStateError):
        oracle_subtract(build_state("fock", 2), 3)


def test_huge_counts_settle_before_any_weight_row(monkeypatch):
    # N_count is 0 past the last occupied n, and the added norm is at least
    # count! max p: neither needs the count rows _weight_rows would yield
    def no_rows(ns, shifts):
        raise AssertionError("a weight row was built")

    monkeypatch.setattr(oracle, "_weight_rows", no_rows)
    huge = 10 ** 18
    with pytest.raises(UndefinedStateError, match=f"^subtracting {huge} "):
        oracle_subtract(build_state("fock", 2), huge)
    with pytest.raises(AccuracyError, match=f"^N_{huge} underflows float64"):
        oracle_subtract(build_state("coherent", 1.0), huge)
    with pytest.raises(AccuracyError, match="^anti-normally ordered norm "
                       f"constant N_{huge} exceeds the float64 range$"):
        oracle_add(build_state("coherent", 1.0), huge)


def test_subtract_result_is_normalized():
    res = oracle_subtract(build_state("squeezed", 0.8), 2)
    assert abs(res.dist.total() - 1.0) <= 1e-14


# -------------------------------------------------------------------- add

def test_add_vacuum_gives_single_photon():
    res = oracle_add(build_state("fock", 0), 1)
    np.testing.assert_array_equal(res.dist.probs, [0.0, 1.0])
    assert res.norm_constant == 1.0


@pytest.mark.parametrize("m", [1, 2, 3, 10 ** 18])
def test_zero_norm_base_is_undefined_on_both_paths(m):
    # the shortcut and the oracle see the same undefined added state
    dist = NumberDistribution([0.0, 0.0])
    for path in (lambda: modified_moment_sequence(
                     dist, StateModification.add(m), 4),
                 lambda: oracle_add(dist, m)):
        with pytest.raises(UndefinedStateError, match=r"^the base state has "
                           r"zero norm \(N_0 = 0\)$"):
            path()


def test_add_fock1_gives_fock2():
    res = oracle_add(build_state("fock", 1), 1)
    np.testing.assert_array_equal(res.dist.probs, [0.0, 0.0, 1.0])
    assert res.norm_constant == 2.0


def test_add_coherent_mean():
    res = oracle_add(build_state("coherent", 1.0), 1)
    assert math.isclose(res.moments[1], 2.5, rel_tol=1e-10)


def test_add_support_shift_is_exact():
    res = oracle_add(build_state("thermal", 1.0), 3)
    assert list(res.dist.probs[:3]) == [0.0, 0.0, 0.0]
    assert res.dist.cutoff == build_state("thermal", 1.0).cutoff + 3


def test_add_composition_matches_single_step():
    base = build_state("thermal", 0.7)
    once_twice = oracle_add(oracle_add(base, 1).dist, 1).dist
    straight = oracle_add(base, 2).dist
    assert len(once_twice.probs) == len(straight.probs)
    np.testing.assert_allclose(once_twice.probs, straight.probs, atol=1e-12)


def test_addition_strictly_increases_mean():
    for dist in (build_state("fock", 0), build_state("thermal", 0.5),
                 build_state("coherent", 1.0), build_state("squeezed", 0.6)):
        mean = direct_moments(dist, 1)[1]
        added = oracle_add(dist, 1)
        assert added.moments[1] > mean


# ---------------------------------------------------------- direct moments

def test_direct_moments_fock():
    np.testing.assert_array_equal(direct_moments(build_state("fock", 2), 3),
                                  [1.0, 2.0, 2.0, 0.0])


def test_direct_moments_vacuum():
    np.testing.assert_array_equal(direct_moments(build_state("fock", 0), 4),
                                  [1.0, 0.0, 0.0, 0.0, 0.0])


def test_direct_moments_thermal():
    got = direct_moments(build_state("thermal", 1.0), 4)
    np.testing.assert_allclose(got, [1.0, 1.0, 2.0, 6.0, 24.0], rtol=1e-10)


def test_direct_power_moments_fock():
    np.testing.assert_array_equal(
        direct_power_moments(build_state("fock", 2), 4),
        [1.0, 2.0, 4.0, 8.0, 16.0])


def test_direct_moments_overflow_falls_back_to_exact():
    # the weight 300!/100! overflows float64 on its own, but the tiny
    # probability keeps the term representable; the rational path must
    # rescue it (log-space reference via lgamma)
    from photonstat import NumberDistribution
    probs = np.zeros(301)
    probs[0] = 1.0 - 1e-300
    probs[300] = 1e-300
    got = direct_moments(NumberDistribution(probs), 200)[200]
    log_want = (math.log(1e-300) + math.lgamma(301) - math.lgamma(101))
    assert math.isclose(math.log(got), log_want, rel_tol=1e-12)


def test_direct_moment_beyond_float64_is_an_accuracy_error():
    # m_148 of Fock(200) is 200!/52! = 9.8e306; m_149 is 52 times that
    assert direct_moments(build_state("fock", 200), 148)[148] < 1.8e308
    with pytest.raises(AccuracyError, match="^direct factorial moment "
                       "m_149 exceeds the float64 range$"):
        direct_moments(build_state("fock", 200), 150)


def test_direct_power_moment_beyond_float64_is_an_accuracy_error():
    # 200^133 = 1.1e306 fits float64; 200^134 does not
    assert (direct_power_moments(build_state("fock", 200), 133)[133]
            == float(200 ** 133))
    with pytest.raises(AccuracyError, match="^direct raw moment mu_134 "
                       "exceeds the float64 range$"):
        direct_power_moments(build_state("fock", 200), 140)


@pytest.mark.parametrize("read,order", [
    (lambda dist: direct_moments(dist, 18), 18),
    (lambda dist: direct_power_moments(dist, 13), 13),
    (lambda dist: oracle_subtract(dist, 2, 12), 14),
    (lambda dist: oracle_add(dist, 6, 12), 18),
], ids=["direct", "direct-power", "subtract", "add"])
def test_no_direct_sum_reads_past_the_order_the_cutoff_was_checked_at(
        read, order):
    # a thermal(7.9) cutoff checked at order 12 left m_18 off by 1.7e-7
    # relative, unflagged; the oracle refuses such a read as normal_ladder
    # does, with its message
    message = (f"^ladder order {order} exceeds order 12, the order the "
               "cutoff was checked at; build the state with "
               f"max_moment_order >= {order}$")
    with pytest.raises(AccuracyError, match=message):
        read(build_state("thermal", 7.9))
    with pytest.raises(AccuracyError, match=message):
        normal_ladder(build_state("thermal", 7.9), order)
    read(build_state("thermal", 7.9, CutoffPolicy(max_moment_order=order)))
    read(NumberDistribution(build_state("thermal", 7.9).probs))


def test_direct_power_moment_overflow_falls_back_to_exact():
    # 300^130 overflows float64 on its own; times 1e-300 it is 4.9e21
    from fractions import Fraction

    from photonstat import NumberDistribution
    probs = np.zeros(301)
    probs[300] = 1e-300
    got = direct_power_moments(NumberDistribution(probs), 130)[130]
    assert got == float(300 ** 130 * Fraction(1e-300))


@pytest.mark.parametrize("modify,kind", [
    (oracle_subtract, "normally"), (oracle_add, "anti-normally")])
def test_norm_constant_beyond_float64_is_an_accuracy_error(modify, kind):
    # N_150 of Fock(200) is 200!/50! = 2.6e310 (subtraction) or 350!/200!
    # (addition); the shortcut's ladders fail the same way
    with pytest.raises(AccuracyError, match=f"^{kind} ordered norm constant "
                       "N_150 exceeds the float64 range$"):
        modify(build_state("fock", 200), 150)


def test_subtraction_weight_overflow_falls_back_to_exact():
    # the weight 200!/50! overflows float64, but p_200 = 1e-100 keeps the
    # raw total 2.6e210 representable: the subtracted state is Fock(50)
    from fractions import Fraction

    from photonstat import NumberDistribution
    probs = np.zeros(201)
    probs[0], probs[200] = 0.5, 1e-100
    res = oracle_subtract(NumberDistribution(probs), 150)
    assert res.norm_constant == float(
        math.perm(200, 150) * Fraction(1e-100))
    np.testing.assert_array_equal(res.dist.probs, [0.0] * 50 + [1.0])
    assert res.moments == [1.0, 50.0, 2450.0, 117600.0, 5527200.0]


def test_only_a_weight_beyond_float64_rounds_its_term_exactly():
    # one row of weights: 152!/2! fits float64, so its term stays the plain
    # product float(w) * p; 300!/150! does not, so its term is the exact
    # product rounded once
    probs = np.zeros(301)
    probs[152], probs[300] = 0.3, 1e-300
    res = oracle_subtract(NumberDistribution(probs), 150)
    fits, beyond = math.perm(152, 150), math.perm(300, 150)
    norm = float(fits * Fraction(0.3) + beyond * Fraction(1e-300))
    assert res.norm_constant == norm
    assert res.dist.probs[2] == float(fits) * 0.3 / norm
    assert res.dist.probs[150] == float(beyond * Fraction(1e-300)) / norm


# ------------------------------------------------------- ladder duality

@pytest.mark.parametrize("family,param", [
    ("thermal", 1.0), ("coherent", 2.0), ("squeezed", 0.8),
])
def test_norm_constant_duality(family, param):
    dist = build_state(family, param)
    nl = normal_ladder(dist, 4)
    al = antinormal_ladder(dist, 4)
    for k in range(1, 5):
        sub = oracle_subtract(dist, k)
        assert math.isclose(sub.norm_constant, nl.values[k], rel_tol=1e-12)
        add = oracle_add(dist, k)
        assert math.isclose(add.norm_constant, al.values[k], rel_tol=1e-12)


# ------------------------------------------------------ equivalence suite

def test_suite_coherent_passes():
    states = (("coherent", 0.5), ("coherent", 1.0), ("coherent", 2.0))
    report = equivalence_suite(states, n_max=3, m_max=0, x_max=4, tol=1e-9)
    assert report.passed


def test_suite_fock_is_exact():
    states = tuple(("fock", n) for n in range(5))
    report = equivalence_suite(states, n_max=4, m_max=3, x_max=4)
    assert report.passed
    moment_cells = [c for c in report.cells if c.quantity.startswith("m")]
    assert all(c.rel_dev == 0.0 for c in moment_cells)


def test_suite_flags_undefined_consistently():
    report = equivalence_suite((("fock", 2),), n_max=3, m_max=0)
    undefined = [c for c in report.cells if c.quantity == "undefined"]
    assert len(undefined) == 1
    assert undefined[0].mod == "subtract3"
    assert undefined[0].passed


def test_suite_fails_an_annihilation_only_the_shortcut_sees(monkeypatch):
    # a shortcut that wrongly annihilates thermal(1) under one subtraction
    # fails one undefined cell instead of aborting the suite
    checked = moments.check_subtracted_norms

    def annihilating(ladder, n):
        if n == 1:
            raise UndefinedStateError("spurious annihilation")
        checked(ladder, n)

    monkeypatch.setattr(moments, "check_subtracted_norms", annihilating)
    report = equivalence_suite((("thermal", 1.0),), n_max=1, m_max=1)
    cells = [c for c in report.cells if c.mod == "subtract1"]
    assert [(c.quantity, c.passed) for c in cells] == [("undefined", False)]
    assert report.failures() == cells


def test_suite_mixed_families_pass_at_documented_tolerances():
    states = (("thermal", 1.0), ("squeezed", 0.8))
    report = equivalence_suite(states, n_max=2, m_max=2, x_max=4)
    assert report.passed, report.failures()


def test_suite_checks_its_cutoffs_at_the_ladder_order_it_reads():
    # subtract up to 10 at criteria order l = 2 reads N_14, past the
    # default policy's order 12: the suite raises its policy, as the CLI
    # does, rather than read a ladder past the order its cutoff was
    # checked at
    report = equivalence_suite((("thermal", 1.0), ("coherent", 2.0)),
                               n_max=10, m_max=1)
    assert report.passed, report.failures()
    assert {c.mod for c in report.cells} >= {"subtract10", "add1"}


def test_suite_extended_order_envelope():
    # deeper subtraction/addition envelope: n <= 4, m <= 5, x <= 6
    states = (("thermal", 1.0), ("coherent", 1.0), ("squeezed", 0.8))
    report = equivalence_suite(states, n_max=4, m_max=5, x_max=6)
    assert report.passed, report.failures()


def test_suite_fails_below_float_noise():
    states = (("thermal", 1.0),)
    report = equivalence_suite(states, tol=1e-16)
    assert not report.passed


def test_default_suite_builds_one_ladder_per_state(monkeypatch):
    # every modification's report reads the state's one normal ladder
    original = moments.normal_ladder
    orders = []

    def counted(*args, **kwargs):
        orders.append(args[1])
        return original(*args, **kwargs)

    for module in (moments, oracle):
        if getattr(module, "normal_ladder", None) is original:
            monkeypatch.setattr(module, "normal_ladder", counted)
    assert equivalence_suite().passed
    assert len(DEFAULT_SUITE_STATES) == 13
    assert orders == [8] * 13


@pytest.mark.parametrize("tol", [math.nan, -1.0, -1e-300, math.inf])
def test_suite_tolerance_must_be_finite_and_nonnegative(tol):
    with pytest.raises(ValueError, match="^tol must be a finite "
                       "nonnegative number$"):
        equivalence_suite((("fock", 1),), tol=tol)


def test_empty_suite_is_refused_before_any_state_is_built(monkeypatch):
    # an empty suite would pass with no cell, and its text would fail
    def refuse(*args):
        raise AssertionError("a state was built")
    monkeypatch.setattr(oracle, "build_state", refuse)
    for states in ((), iter(())):
        with pytest.raises(ValueError, match="^states must name at least "
                           "one base state$"):
            equivalence_suite(states)


def test_default_suite_covers_every_family():
    # so every nonempty selfcheck --families list selects a state
    assert {family for family, _ in DEFAULT_SUITE_STATES} == set(FAMILIES)


def test_suite_zero_tolerance_is_valid():
    assert equivalence_suite((("fock", 1),), tol=0.0).passed


def test_suite_report_text_has_one_record_per_cell():
    report = equivalence_suite((("fock", 1),), n_max=1, m_max=1, x_max=2)
    text = report.to_text()
    lines = [line for line in text.splitlines() if line]
    # header (2 lines) + cells
    assert len(lines) == 2 + len(report.cells)
    assert "PASS" in lines[1]
    assert all("rel_dev" in line for line in lines[2:])


# ------------------------------------------------------------------ fuzz

# an entry is 0, an ordinary probability, a subnormal, or a weight near
# DBL_MAX, so sums overflow, underflow and meet exact zeros
_FUZZ_ENTRIES = st.one_of(
    st.just(0.0),
    st.floats(-12.0, 0.0).map(lambda e: 10.0 ** e),
    st.integers(1, 2 ** 20).map(lambda k: k * 5e-324),
    st.floats(300.0, 308.0).map(lambda e: 10.0 ** e))


def _settled(fn, *args):
    """fn(*args), or None where it raises one of the package's errors."""
    try:
        return fn(*args)
    except (AccuracyError, UndefinedStateError):
        return None


def _assert_no_inf(values):
    assert not any(isinstance(v, float) and math.isinf(v) for v in values), \
        values


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_FUZZ_ENTRIES, min_size=1, max_size=12),
       st.sampled_from((0.0, 1e-13)),
       st.sampled_from((StateModification.add, StateModification.subtract)),
       st.one_of(st.integers(0, 6), st.just(10 ** 18)), st.integers(1, 4))
def test_entry_points_return_finite_values_or_raise_package_errors(
        probs, tail_bound, modification, count, ell_max):
    # no builtin OverflowError, ValueError or ZeroDivisionError escapes,
    # and nothing returned is inf
    dist = NumberDistribution(probs, tail_bound)
    report = _settled(evaluate_all, dist, modification(count), ell_max)
    if report is not None:
        _assert_no_inf(report.moments)
        _assert_no_inf(report.cells(ell_max).values())
        _assert_no_inf(_settled(mu_from_m, report.moments) or ())
    oracle = (oracle_add if modification is StateModification.add
              else oracle_subtract)
    result = _settled(oracle, dist, count, 8)
    if result is not None:
        _assert_no_inf((*result.moments, result.norm_constant))
    for direct in (direct_moments, direct_power_moments):
        _assert_no_inf(_settled(direct, dist, 8) or ())


def _per_entry_sums(weight, probs, top, quantity):
    """sum_n weight(n, x) p_n for x = 0..top with one weight call per
    occupied entry per order, in float64 unless a weight leaves it, then
    in exact rationals rounded once; a sum beyond float64 ends the list
    with the oracle's message."""
    sums = []
    for x in range(top + 1):
        try:
            terms = [float(weight(n, x)) * p if p else 0.0
                     for n, p in enumerate(probs)]
        except OverflowError:
            terms = [sum(weight(n, x) * Fraction(p)
                         for n, p in enumerate(probs))]
        try:
            total = math.fsum(terms)
        except OverflowError:
            total = math.inf
        if not math.isfinite(total):
            return sums + [quantity.format(x) + " exceeds the float64 range"]
        sums.append(total)
    return sums


# Offsets past n = 170 and orders past 170 give weights beyond float64,
# which the exact branch meets with subnormal and tiny probabilities.
@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_FUZZ_ENTRIES, min_size=1, max_size=12),
       st.integers(0, 320), st.integers(0, 330))
@example([5e-324], 300, 250)
@example([1e-300, 0.0, 5e-324], 298, 250)
def test_direct_sums_match_per_entry_weights_bit_for_bit(probs, offset, top):
    dist = NumberDistribution([0.0] * offset + probs)
    for direct, weight, quantity in (
            (direct_moments, math.perm, "direct factorial moment m_{}"),
            (direct_power_moments, pow, "direct raw moment mu_{}")):
        want = _per_entry_sums(weight, dist.probs, top, quantity)
        try:
            got = direct(dist, top)
        except AccuracyError as exc:
            got = want[:-1] + [str(exc)]
        assert repr(got) == repr(want), direct.__name__


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.lists(_FUZZ_ENTRIES, min_size=1, max_size=12),
       st.integers(0, 6))
def test_modified_distributions_match_per_entry_weights_bit_for_bit(probs,
                                                                    count):
    dist = NumberDistribution(probs)
    for modify, first in ((oracle_subtract, count), (oracle_add, 0)):
        raw = [float(math.perm(j + count, count)) * p if p else 0.0
               for j, p in enumerate(probs[first:])]
        try:
            norm = math.fsum(raw)
        except OverflowError:
            norm = math.inf
        if not 0.0 < norm < math.inf:
            with pytest.raises((AccuracyError, UndefinedStateError)):
                modify(dist, count, 0)
            continue
        result = modify(dist, count, 0)
        assert result.norm_constant == norm
        shift = count if modify is oracle_add else 0
        assert repr(result.dist.probs.tolist()[shift:]) == repr(
            [w / norm for w in raw]), modify.__name__
