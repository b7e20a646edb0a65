import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from photonstat import criteria, moments, oracle, states
from photonstat import (
    DEFAULT_SUITE_STATES,
    FAMILIES,
    AccuracyError,
    CutoffPolicy,
    ModKind,
    NumberDistribution,
    StateModification,
    UndefinedStateError,
    build_state,
    criteria_from_moments,
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
from photonstat.criteria import moment_order
from photonstat.moments import antinormal_ladder
from photonstat.oracle import DEFAULT_TOL


# --------------------------------------------------------------- subtract

@pytest.mark.parametrize("call,message", [
    (lambda: oracle_subtract(build_state("fock", 2), -1),
     "n must be nonnegative"),
    (lambda: oracle_add(build_state("fock", 2), -1), "m must be nonnegative"),
], ids=["subtract", "add"])
def test_negative_counts_are_refused(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


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
    # count! max p: neither needs a rising weight (j+count)!/j! or a row
    # of _weight_rows
    def no_weights(*args):
        raise AssertionError("a weight was formed")

    fock, coherent = build_state("fock", 2), build_state("coherent", 1.0)
    monkeypatch.setattr(oracle, "_weight_rows", no_weights)
    monkeypatch.setattr(math, "perm", no_weights)
    huge = 10 ** 18
    with pytest.raises(UndefinedStateError, match=f"^subtracting {huge} "):
        oracle_subtract(fock, huge)
    with pytest.raises(AccuracyError, match=f"^N_{huge} underflows float64"):
        oracle_subtract(coherent, huge)
    with pytest.raises(AccuracyError, match="^anti-normally ordered norm "
                       f"constant N_{huge} exceeds the float64 range$"):
        oracle_add(coherent, huge)
    # a count beyond float64, whose factorial is too
    huge = 10 ** 400
    with pytest.raises(AccuracyError, match="^anti-normally ordered norm "
                       f"constant N_{huge} exceeds the float64 range$"):
        oracle_add(build_state("fock", 1), huge)


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
        assert (abs(Fraction(add.norm_constant) - al[k])
                <= Fraction(1e-12) * al[k])


# ------------------------------------------------------ equivalence suite

def test_suite_coherent_passes():
    states = (("coherent", 0.5), ("coherent", 1.0), ("coherent", 2.0))
    report = equivalence_suite(states, tol=1e-9)
    assert report.passed


def test_suite_fock_is_exact():
    states = tuple(("fock", n) for n in range(5))
    report = equivalence_suite(states)
    assert report.passed
    moment_cells = [c for c in report.cells if c.quantity.startswith("m")]
    assert all(c.rel_dev == 0.0 for c in moment_cells)


def test_suite_flags_undefined_consistently():
    report = equivalence_suite((("fock", 2),))
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
    report = equivalence_suite((("thermal", 1.0),))
    cells = [c for c in report.cells if c.mod == "subtract1"]
    assert [(c.quantity, c.passed) for c in cells] == [("undefined", False)]
    assert report.failures() == cells


def test_suite_mixed_families_pass_at_documented_tolerances():
    states = (("thermal", 1.0), ("squeezed", 0.8))
    report = equivalence_suite(states)
    assert report.passed, report.failures()


@pytest.mark.parametrize("states,mods,x_max,exact_moments", [
    # n <= 4, m <= 5, x <= 6: deeper than the suite's fixed envelope
    ((("thermal", 1.0), ("coherent", 1.0), ("squeezed", 0.8)),
     [StateModification.subtract(n) for n in range(5)]
     + [StateModification.add(m) for m in range(1, 6)], 6, False),
    # subtract 4, past the suite's 0..3; Fock moments are exact
    (tuple(("fock", n) for n in range(5)),
     [StateModification.subtract(4)], 4, True),
], ids=["extended", "fock-subtract4"])
def test_deeper_envelopes_match_the_oracle(states, mods, x_max,
                                           exact_moments):
    # the suite's comparison past its envelope: the shortcut, on a state
    # whose cutoff is checked at the ladder order it reads, against the
    # brute-force modification and the criteria of its direct moments
    ell_max = x_max // 2
    order = max(mod.count for mod in mods) + moment_order(ell_max)
    policy = CutoffPolicy(max_moment_order=max(12, order))
    for family, param in states:
        dist = build_state(family, param, policy)
        for mod in mods:
            where = (family, param, mod)
            report = evaluate_all(dist, mod, ell_max)
            try:
                ref = (oracle_add if mod.kind is ModKind.ADD
                       else oracle_subtract)(dist, mod.count, x_max)
            except UndefinedStateError:
                assert report.undefined, where
                continue
            assert not report.undefined, where
            for x in range(x_max + 1):
                dev = oracle._moment_dev(report.moments[x], ref.moments[x])
                assert (dev == 0.0 if exact_moments
                        else dev <= DEFAULT_TOL), (where, x, dev)
            theirs = criteria_from_moments(
                ref.moments, direct_power_moments(ref.dist, x_max),
                ell_max).cells
            for key, a in report.cells.items():
                dev = oracle._criterion_dev(a, theirs[key])
                assert dev <= DEFAULT_TOL, (where, key, dev)


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
    report = equivalence_suite((("fock", 1),))
    text = report.to_text()
    lines = [line for line in text.splitlines() if line]
    # header (2 lines) + cells
    assert len(lines) == 2 + len(report.cells)
    assert "PASS" in lines[1]
    assert all("rel_dev" in line for line in lines[2:])


@pytest.mark.parametrize("families", [FAMILIES, ("fock", "thermal")],
                         ids=["default", "fock-thermal"])
def test_suite_writes_one_block_per_state_and_modification(families):
    # selfcheck summarizes the cells in one groupby pass, which is right
    # only while each (family, param, modification) is one contiguous
    # block, in states x modification order, each state's ladder block
    # first, and no key comes back
    states = tuple(s for s in DEFAULT_SUITE_STATES if s[0] in families)
    tags = ["ladder"] + [f"subtract{n}" for n in range(4)]
    tags += [f"add{m}" for m in range(1, 5)]
    report = equivalence_suite(states)
    blocks = [key for key, _ in itertools.groupby(
        report.cells, lambda c: (c.family, c.param, c.mod))]
    assert blocks == [(family, param, tag) for family, param in states
                      for tag in tags]


# ----------------------------------------------------------- fixed points

def test_fixed_points_are_the_closed_forms():
    add1 = StateModification.add(1)
    # |2> plus one photon is |3>: <:(dn)^4:> = 3k(k-2) = 9 over
    # O_4(3) = k(1+3k) = 30, and d_h = (3)_{h+1} - 3^(h+1)
    assert oracle._fixed_points("fock", 2, add1, 2) == {
        "Q": -1.0, "Q1_normal": -1.0, "Q2_normal": 0.3, "Q1_central": -1.0,
        "Q2_central": -1.0, "dh1": -3.0, "dh2": -21.0, "A3": -1.0}
    # |1> has a 0/0 A3, and |0> a vanishing mean
    assert oracle._fixed_points("fock", 3, StateModification.subtract(2),
                                1) == {"Q": -1.0, "Q1_normal": -1.0,
                                       "Q1_central": -1.0, "dh1": -1.0}
    assert oracle._fixed_points("fock", 3, StateModification.subtract(3),
                                1) == {}
    assert oracle._fixed_points(
        "coherent", 2.0, StateModification.subtract(1), 1) == dict.fromkeys(
            ("Q", "Q1_normal", "Q1_central", "dh1", "A3"), 0.0)
    assert oracle._fixed_points(
        "thermal", 0.5, StateModification.subtract(3), 2) == {"Q": 0.5}
    for family in ("coherent", "thermal", "squeezed"):
        assert oracle._fixed_points(family, 1.0, add1, 2) == {}
    # O_2, O_4 and O_6 of a Poisson distribution at mean lam
    for lam in (1, 2, 7):
        assert [oracle._poisson_central_exact(lam, r) for r in (2, 4, 6)] \
            == [lam, lam * (1 + 3 * lam), lam * (1 + 25 * lam + 15 * lam ** 2)]


def test_default_suite_holds_the_fixed_point_anchors():
    report = equivalence_suite()
    assert report.passed, report.failures()
    anchors = {}
    for cell in report.cells:
        if cell.quantity.endswith("_exact"):
            anchors[cell.family] = anchors.get(cell.family, 0) + 1
    # 30 modified Fock states |k>, k >= 1, of 7 or (k >= 2) 8 cells; 12
    # subtracted coherent states of 8 and 12 subtracted thermal ones of 1
    assert anchors == {"fock": 235, "coherent": 96, "thermal": 12}
    # and N_0..N_8 of each of the 13 states in its ladder block
    ladder = [c for c in report.cells if c.mod == "ladder"]
    assert [c.quantity for c in ladder] == [f"N{k}" for k in range(9)] * 13
    assert len(report.cells) == 1623 + 13 * 9


def _negate_q_ell_normal(monkeypatch):
    original = criteria.q_ell_normal
    monkeypatch.setattr(criteria, "q_ell_normal",
                        lambda m, ell: -original(m, ell))


def _scale_poisson_row(monkeypatch):
    # O_r(lam) for r >= 4 times 1.001
    original = criteria._mean_tables

    def scaled(lam, top):
        powers, row = original(lam, top)
        return powers, tuple(value * 1.001 if r >= 4 else value
                             for r, value in enumerate(row))
    monkeypatch.setattr(criteria, "_mean_tables", scaled)


@pytest.mark.parametrize("mutate", [_negate_q_ell_normal, _scale_poisson_row],
                         ids=["q-ell-normal-sign", "poisson-row-x1.001"])
def test_anchors_catch_an_error_both_routes_share(monkeypatch, mutate):
    # both routes call the same criterion functions, so only the closed
    # forms see an error in one
    mutate(monkeypatch)
    failures = equivalence_suite().failures()
    assert any(c.quantity.endswith("_exact") for c in failures)


@pytest.mark.parametrize("family,param,wrong", [
    ("coherent", 0.5, lambda alpha_sq: alpha_sq * 1.001),
    ("squeezed", 0.8, lambda r: r * 1.01),
], ids=["coherent-mean-x1.001", "squeezed-r-x1.01"])
def test_ladder_anchors_catch_a_pmf_built_with_the_wrong_parameter(
        monkeypatch, family, param, wrong):
    # both routes read the same pmf, and a renormalized Poisson pmf with
    # the wrong mean is still coherent, so only the family's analytic
    # ladder sees it
    pmf, tail = states._BUILDERS[family]
    monkeypatch.setitem(states._BUILDERS, family,
                        (lambda p, cutoff: pmf(wrong(p), cutoff), tail))
    failures = equivalence_suite(((family, param),)).failures()
    assert [c.quantity for c in failures] == [f"N{k}" for k in range(1, 9)]
    assert {c.mod for c in failures} == {"ladder"}


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
        _assert_no_inf(report.cells.values())
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
