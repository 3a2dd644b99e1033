"""Solution operator S_t: splicing, composition, continuity, mild form, generator."""

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import infidelay as fd
from infidelay import (
    CoefficientFamily,
    DelaySchedule,
    ProblemSpec,
    apply_semigroup,
    check_generator_domain,
    check_mild_solution,
    check_semigroup_law,
    check_strong_continuity,
    combine_histories,
    history_from_callable,
    history_preset,
    solve,
    sup_norm_k,
)
from conftest import classic_problem, random_core_history, sweep_problems

DS = DelaySchedule()


def stationary_problem() -> ProblemSpec:
    phi5 = fd.HistoryFunction([-8.0, 0.0], [[5.0, 0, 0, 0]], fd.ConstantTail(5.0))
    return ProblemSpec(0.0, CoefficientFamily.finite_support([0.0], DS), phi5)


def geometric_problem() -> ProblemSpec:
    return ProblemSpec(1.0, CoefficientFamily.geometric(1.0, 0.5, DS), history_preset("constant"))


# ---------------------------------------------------------------------------
# the shift itself
# ---------------------------------------------------------------------------


def test_time_zero_is_the_identity():
    traj = solve(classic_problem(), 1.0)
    assert apply_semigroup(traj, 0.0) is traj.problem.history


def test_classic_shift_by_one_is_minus_theta():
    traj = solve(classic_problem(), 2.0)
    s1 = apply_semigroup(traj, 1.0)
    thetas = np.linspace(-1.0, 0.0, 101)
    assert np.max(np.abs(s1.evaluate(thetas) + thetas)) < 1e-9
    # beyond one unit into the past the shifted state replays the history
    assert s1.evaluate(-1.5) == 1.0
    assert s1.evaluate(-40.0) == 1.0


def test_stationary_state_never_moves():
    traj = solve(stationary_problem(), 2.0)
    for t in (0.3, 0.7, 1.9):
        st_phi = apply_semigroup(traj, t)
        assert np.max(np.abs(st_phi.evaluate(np.linspace(-20, 0, 200)) - 5.0)) == 0.0


def test_shift_beyond_orbit_horizon_raises():
    traj = solve(classic_problem(), 1.0)
    with pytest.raises(ValueError):
        apply_semigroup(traj, 1.5)
    with pytest.raises(ValueError):
        apply_semigroup(traj, -0.1)


def test_shift_by_nan_is_refused():
    # NaN passed both guards and failed in the HistoryFunction constructor
    traj = solve(classic_problem(), 1.0)
    with pytest.raises(ValueError, match="semigroup times t must be >= 0"):
        apply_semigroup(traj, math.nan)


def test_strong_continuity_reads_k_as_an_integer():
    # a fractional k returned distances over [-2.5, 0]
    traj = solve(classic_problem(), 1.0)
    with pytest.raises(ValueError, match="window index k must be an integer"):
        check_strong_continuity(traj, 2.5, [0.1, 0.01])


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-6])
def test_generator_domain_refuses_a_tolerance_that_is_not_positive(tol):
    # L was certified to min(1e-12, tol * 1e-3), which is 0 at tol = 0
    with pytest.raises(ValueError, match="generator-domain tolerance must be positive"):
        check_generator_domain(history_preset("cos"), CoefficientFamily.geometric(1.0, 0.5, DS), 0.1, tol=tol)


def test_shift_replays_trajectory_values():
    traj = solve(classic_problem(), 2.0)
    s = apply_semigroup(traj, 1.5)
    for theta in (-0.2, -0.7, -1.2):
        # same Hermite rows, re-anchored at translated knots: equal to rounding
        assert abs(s.evaluate(theta) - traj.eval(1.5 + theta)) < 1e-12


# ---------------------------------------------------------------------------
# composition law
# ---------------------------------------------------------------------------


def test_law_with_zero_leg_is_exact():
    rep = check_semigroup_law(solve(classic_problem(), 0.5), 0.0, 0.5)
    assert rep.max_discrepancy <= 1e-10


def test_law_classic_half_plus_half():
    rep = check_semigroup_law(solve(classic_problem(), 1.0), 0.5, 0.5, k_list=(1,))
    assert rep.max_discrepancy < 1e-8


def test_law_geometric_one_plus_one():
    rep = check_semigroup_law(solve(geometric_problem(), 2.0), 1.0, 1.0, k_list=(1, 2))
    assert rep.max_discrepancy < 1e-6
    for row in rep.rows:
        assert row.sup_diff < 1e-6
        assert row.p_diff < 1e-6


@pytest.mark.parametrize("t, s", [(0.7, 0.1), (1.3, 0.4)])
def test_law_across_a_one_ulp_depth_mismatch(t, s):
    # the splices' core depths differ by one ulp; the strip between them must be bounded
    # from its own gap and slopes, not by sup|core| + sup|tail| = 2 under every window
    fam = CoefficientFamily.geometric(1.0, 0.5, DS)
    traj = solve(ProblemSpec(-0.5, fam, history_preset("cos")), 6.0)
    lhs, psi = apply_semigroup(traj, t + s), apply_semigroup(traj, s)
    rhs = apply_semigroup(solve(ProblemSpec(-0.5, fam, psi), t), t)
    assert lhs.depth != rhs.depth
    assert check_semigroup_law(traj, t, s).max_discrepancy < 1e-12


#: pairs of sweep_problems() whose law discrepancy exceeds 1e-6 (a ratchet: lower it, never raise it)
LAW_SWEEP_FAILURES = 76


def test_law_sweep_ratchet():
    # each problem solved to 2.5 tau_1, ten (t, s) pairs drawn uniformly from [0.02, 1.2] tau_1
    failures = 0
    for index, problem in enumerate(sweep_problems()):
        tau1 = problem.family.delays.tau1
        traj = solve(problem, 2.5 * tau1)
        rng = random.Random(1000 + index)
        for _ in range(10):
            t, s = rng.uniform(0.02, 1.2) * tau1, rng.uniform(0.02, 1.2) * tau1
            failures += check_semigroup_law(traj, t, s).max_discrepancy > 1e-6
    assert failures <= LAW_SWEEP_FAILURES


def test_law_report_shape_and_json():
    rep = check_semigroup_law(solve(classic_problem(), 2.0), 0.75, 1.25, k_list=(1, 2, 3))
    assert [r.k for r in rep.rows] == [1, 2, 3]
    d = dataclasses.asdict(rep)
    assert d["t"] == 0.75 and d["s"] == 1.25
    assert len(d["rows"]) == 3
    assert d["max_discrepancy"] == rep.max_discrepancy


def test_law_rejects_negative_times():
    with pytest.raises(ValueError):
        check_semigroup_law(solve(classic_problem(), 0.5), -0.5, 1.0)


# ---------------------------------------------------------------------------
# strong continuity at t = 0+
# ---------------------------------------------------------------------------


def test_continuity_stationary_distances_vanish():
    rep = check_strong_continuity(solve(stationary_problem(), 0.1), 2, [0.1, 0.01, 0.001])
    assert rep.distances == (0.0, 0.0, 0.0)
    assert rep.passed


def test_continuity_classic_distance_equals_t():
    # |S_t phi - phi| on [-2, 0]: phi = 1 and x(s) = 1 - s, so the sup is t
    rep = check_strong_continuity(solve(classic_problem(), 0.1), 2, [0.1, 0.01, 0.001])
    for t, d in zip(rep.times, rep.distances):
        assert abs(d - t) < 1e-9
    assert rep.monotone and rep.final_ok and rep.passed
    assert len(rep.p_distances) == 3


def test_continuity_distances_bounded_by_lipschitz_times_t():
    phi = history_from_callable(math.cos, 8.0, 0.02, fn_prime=lambda t: -math.sin(t))
    p = ProblemSpec(0.0, CoefficientFamily.finite_support([-1.0], DS), phi)
    rep = check_strong_continuity(solve(p, 0.2), 1, [0.2, 0.05, 0.0125])
    assert rep.passed
    for t, d in zip(rep.times, rep.distances):
        assert d <= rep.lipschitz * t + 1e-9


def test_continuity_requires_decreasing_times():
    with pytest.raises(ValueError):
        check_strong_continuity(solve(classic_problem(), 0.1), 1, [0.01, 0.1])


# ---------------------------------------------------------------------------
# mild-solution identity
# ---------------------------------------------------------------------------


def test_mild_identity_stationary_exact():
    rep = check_mild_solution(solve(stationary_problem(), 1.0), [0.0, 0.5, 1.0], [-1.0, -0.5, 0.0])
    assert rep.max_residual == 0.0
    assert rep.passed and rep.n_points == 9


def test_mild_identity_classic_at_the_edge():
    rep = check_mild_solution(solve(classic_problem(), 1.0), [1.0], [0.0])
    assert rep.max_residual < 1e-9


def test_mild_identity_geometric_grid():
    rep = check_mild_solution(solve(geometric_problem(), 2.0), np.linspace(0.0, 2.0, 5), [-1.0, -0.5, -0.1, 0.0])
    assert rep.max_residual < 1e-6
    assert rep.passed


def test_mild_identity_degenerate_region_is_structural():
    # t + theta <= 0 compares the splice against the history directly
    rep = check_mild_solution(solve(classic_problem(), 1.0), [0.25], [-2.0, -1.0, -0.5])
    assert rep.max_residual < 1e-12


def test_mild_batch_agrees_with_L_on_the_splice():
    # the batched integrand a x(t) + F(t) against L_functional(S_t phi) at
    # every t of the grid, within the two truncation remainders and rounding
    for p in sweep_problems():
        tau1 = p.family.delays.tau1
        traj = solve(p, 2.0 * tau1)
        rep = check_mild_solution(traj, np.linspace(0.0, 2.0 * tau1, 5), [-2.0 * tau1, -tau1, -0.1 * tau1, 0.0])
        assert rep.l_gap <= rep.l_bound, p
        assert rep.l_bound >= rep.eps_l == 1e-10 and rep.quad == "gauss4" and rep.n_terms >= 1


def test_rounding_with_one_index_per_time_equals_the_calls_per_index():
    # b_i = i^-3 from a constant history: each splice S_t phi is deeper, so
    # L's truncation stops at a later tail floor and the closed-form deep part
    # starts later; a geometric family reads every delay up to each cap
    power = ProblemSpec(-0.5, CoefficientFamily.power_law(1.0, 3.0, DS), history_preset("constant"))
    cases = [(power, None), (geometric_problem(), np.array([3, 5, 3, 8, 1]))]
    for p, ns in cases:
        traj, ts = solve(p, 2.0), np.linspace(0.0, 2.0, 5)
        if ns is None:
            ns = np.array([fd.L_functional(apply_semigroup(traj, t), p.family, p.a, 1e-10).index_last for t in ts])
            assert ns.tolist() == [7, 8, 8, 9, 9]
        per_index = np.zeros(len(ts))
        for n in set(ns.tolist()):
            per_index[ns == n] = fd.semigroup._rounding(traj, ts[ns == n], n)
        assert fd.semigroup._rounding(traj, ts, ns).tobytes() == per_index.tobytes()


def test_mild_check_fails_on_a_perturbed_trajectory():
    # a trajectory that leaves the equation on one piece must fail: the
    # residual has to depend on the integrand along the orbit
    traj = solve(classic_problem(), 2.0)
    # x raised by 1e-4 from the middle node on; a ramp on the piece before it
    # keeps the pieces continuous, so the splices stay valid
    pieces = traj.pieces.copy()
    j = len(pieces) // 2
    pieces[j - 1, 1] += 1e-4 / (traj.grid[j] - traj.grid[j - 1])
    pieces[j:, 0] += 1e-4
    grids = (np.linspace(0.0, 2.0, 9), [-1.0, -0.5, -0.25, 0.0])
    assert check_mild_solution(traj, *grids).passed
    assert not check_mild_solution(dataclasses.replace(traj, pieces=pieces), *grids).passed


@pytest.mark.parametrize("ts, thetas", [([], [0.0]), ([1.0], []), ([1.0], [0.5])])
def test_mild_rejects_empty_grids_and_positive_theta(ts, thetas):
    with pytest.raises(ValueError):
        check_mild_solution(solve(classic_problem(), 1.0), ts, thetas)


# ---------------------------------------------------------------------------
# one solve per orbit
# ---------------------------------------------------------------------------


@pytest.fixture
def solve_calls(monkeypatch):
    """Count calls of stepper.solve under every name it is imported as."""
    import sys

    calls = []
    orig = fd.stepper.solve

    def counting(*args, **kwargs):
        calls.append(args[1])
        return orig(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("infidelay") and getattr(mod, "solve", None) is orig:
            monkeypatch.setattr(mod, "solve", counting)
    return calls


def test_checks_verify_the_given_trajectory(solve_calls):
    traj = solve(classic_problem(), 2.0)
    solve_calls.clear()
    check_strong_continuity(traj, 2, [0.1, 0.01, 0.001])
    check_mild_solution(traj, np.linspace(0.0, 2.0, 5), [-1.0, 0.0])
    assert solve_calls == []
    check_semigroup_law(traj, 0.75, 1.25)
    assert solve_calls == [0.75]  # the right side, from S_s phi


def test_classic_scenario_solves_twice(monkeypatch, tmp_path):
    import importlib.resources as res

    from infidelay.scenario import load_scenario, run_scenario

    # each check asks solve for the orbit, and the history's memo answers all but the first:
    # count the marches from t = 0, one per solve that does work
    starts, real = [], fd.stepper._start
    monkeypatch.setattr(fd.stepper, "_start", lambda *args: starts.append(args[0]) or real(*args))
    data, lines = load_scenario(str(res.files("infidelay") / "scenarios" / "classic-delay.json"))
    run_scenario(data, str(tmp_path), lines)
    assert len(starts) == 2  # the scenario's orbit and the semigroup law's right side


# ---------------------------------------------------------------------------
# generator domain
# ---------------------------------------------------------------------------


def test_generator_tuned_exponential_is_in_domain():
    # phi = e^theta: phi'(0) = 1 while L(phi) = a + sum (2e)^-i = a + 1/(2e-1)
    a_star = 1.0 - 1.0 / (2.0 * math.e - 1.0)
    rep = check_generator_domain(
        history_preset("exp-decay"), CoefficientFamily.geometric(1.0, 0.5, DS), a_star
    )
    assert rep.verdict == "in-domain"
    assert rep.violation <= rep.l_error_bound + 1e-10
    assert rep.derivative_membership == "member"


def test_generator_cos_with_unit_delay_is_in_domain():
    # phi = cos(pi theta / 2): phi'(0) = 0 and L = -phi(-1) = -cos(pi/2) = 0
    rep = check_generator_domain(
        history_preset("cos"), CoefficientFamily.finite_support([-1.0], DS), 0.0
    )
    assert rep.verdict == "in-domain"
    assert rep.violation < 1e-12


def test_generator_flat_state_trivially_in_domain():
    rep = check_generator_domain(
        history_preset("constant"), CoefficientFamily.finite_support([0.0], DS), 0.0
    )
    assert rep.verdict == "in-domain" and rep.violation == 0.0


def test_generator_violations_detected():
    # constant history with the classic family: phi'(0)=0 but L=-1
    rep = check_generator_domain(
        history_preset("constant"), CoefficientFamily.finite_support([-1.0], DS), 0.0
    )
    assert rep.verdict == "not-in-domain"
    assert abs(rep.violation - 1.0) < 1e-12
    # untuned drift: violation is exactly 1/(2e-1)
    rep2 = check_generator_domain(
        history_preset("exp-decay"), CoefficientFamily.geometric(1.0, 0.5, DS), 1.0
    )
    assert rep2.verdict == "not-in-domain"
    assert abs(rep2.violation - 1.0 / (2.0 * math.e - 1.0)) < 1e-10


def test_generator_not_applicable_without_c1_structure():
    bp = [-2.0, -1.0, 0.0]
    cf = [[1.0, -1.0, 0, 0], [0.0, 1.0, 0, 0]]
    kink = fd.HistoryFunction(bp, cf, fd.ConstantTail(1.0))
    rep = check_generator_domain(kink, CoefficientFamily.finite_support([-1.0], DS), 0.0)
    assert rep.verdict == "not-applicable"
    # core-tail seam with mismatched slopes is equally non-differentiable
    lin = fd.HistoryFunction([-10.0, 0.0], [[-10.0, 1.0, 0, 0]], fd.ConstantTail(-10.0))
    rep2 = check_generator_domain(lin, CoefficientFamily.finite_support([0.0], DS), 1.0)
    assert rep2.verdict == "not-applicable"


# ---------------------------------------------------------------------------
# linearity of the flow
# ---------------------------------------------------------------------------


@given(
    alpha=st.floats(min_value=-3.0, max_value=3.0),
    beta=st.floats(min_value=-3.0, max_value=3.0),
    seed=st.integers(0, 30),
)
def test_semigroup_is_linear(alpha, beta, seed):
    rng = np.random.default_rng(seed)
    phi = random_core_history(rng)
    psi = random_core_history(rng)
    fam = CoefficientFamily.geometric(0.8, 0.4, DS)
    a = -0.2
    t = 1.3
    combo = combine_histories(alpha, phi, beta, psi)
    orb_c = solve(ProblemSpec(a, fam, combo), t)
    orb_1 = solve(ProblemSpec(a, fam, phi), t)
    orb_2 = solve(ProblemSpec(a, fam, psi), t)
    lhs = apply_semigroup(orb_c, t)
    rhs = combine_histories(alpha, apply_semigroup(orb_1, t), beta, apply_semigroup(orb_2, t))
    diff = fd.history_difference(lhs, rhs)
    assert sup_norm_k(diff, 3) <= 1e-8 * (abs(alpha) + abs(beta) + 1.0)
