"""The time relation, bit for bit: a problem rescaled in time by c = 2^e solves to the same values.

(tau, a, b, phi(.), H, h, eps) -> (c tau, a/c, b/c, phi(./c), c H, c h, eps/c)
gives x~(t) = x(t/c).  Every operation of a march then scales by a power
of two, so the values are bit-identical wherever nothing overflows or
underflows, and so are the grid, the slopes and the pieces up to their
powers of c.  That holds only when every tolerance on a time is stated in
the problem's own time unit (numerics.SAME_TIME, PAST_END).  sup_norm_k and
estimate_certificate are left out: their window [-k, 0] is absolute by
definition.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from infidelay import (
    CoefficientFamily,
    CosTail,
    DelaySchedule,
    HistoryFunction,
    L_functional,
    ProblemSpec,
    SolverConfig,
    apply_semigroup,
    check_semigroup_law,
    history_from_callable,
    oracle_solve,
    p_seminorm,
    solve,
    step_interval,
)

SCALES = [-300, -100, -40, -38, 0, 40, 300]
H, STEP, EPS = 4.0, 0.05, 1e-10
POWERS = np.arange(4.0)


def _cos_history() -> HistoryFunction:
    amp, w, phase = 1.5, 0.5 * math.pi, 0.3
    return history_from_callable(
        lambda t: amp * math.cos(w * t + phase), 8.0, 0.05, tail=CosTail(amp, w, phase),
        fn_prime=lambda t: -amp * w * math.sin(w * t + phase),
    )


PROBLEMS = {
    "march-long": CoefficientFamily.geometric(1.0, 0.5, DelaySchedule(0.0, 1.0)),
    "prefix": CoefficientFamily.geometric(1.0, 0.5, DelaySchedule(delta=1.0, prefix=(0.5, 1.25))),
    "power-law": CoefficientFamily.power_law(0.5, 3.0, DelaySchedule(0.0, 1.0)),
    "c-0.5-delta-1.5": CoefficientFamily.geometric(1.0, 0.5, DelaySchedule(0.5, 1.5)),
}


def _scaled(family: CoefficientFamily, c: float) -> tuple:
    """(problem, horizon, config) rescaled in time by c."""
    phi, d = _cos_history(), family.delays
    phi_c = HistoryFunction(c * phi.breakpoints, phi.coeffs / c**POWERS, replace(phi.tail, omega=phi.tail.omega / c))
    fam_c = replace(family, beta=family.beta / c, delays=DelaySchedule(c * d.c, c * d.delta, tuple(c * t for t in d.prefix)))
    config = SolverConfig(h=c * STEP, eps_forcing=EPS / c, eps_tail_seminorm=EPS / c)
    return ProblemSpec(-0.5 / c, fam_c, phi_c), c * H * d.tau1, config


def _assert_scaled_trajectory(traj_c, traj, c: float) -> None:
    assert (traj_c.n_forcing, traj_c.n_origin) == (traj.n_forcing, traj.n_origin)
    assert np.array_equal(traj_c.grid, c * traj.grid)
    assert np.array_equal(traj_c.values, traj.values)
    assert np.array_equal(c * traj_c.derivs, traj.derivs)
    assert np.array_equal(traj_c.pieces * c**POWERS, traj.pieces)


@pytest.fixture(scope="module")
def unit_solves():
    """Each problem's solve at c = 1, which every scale is compared with."""
    return {name: solve(*_scaled(fam, 1.0)) for name, fam in PROBLEMS.items()}


@pytest.mark.parametrize("name", PROBLEMS)
@pytest.mark.parametrize("e", SCALES)
def test_solve_its_splice_and_the_semigroup_law_are_bit_identical_under_time_scaling(unit_solves, name, e):
    c = 2.0**e
    traj, traj_c = unit_solves[name], solve(*_scaled(PROBLEMS[name], c))
    _assert_scaled_trajectory(traj_c, traj, c)
    t = 0.625 * traj.horizon
    psi, psi_c = apply_semigroup(traj, t), apply_semigroup(traj_c, c * t)
    assert np.array_equal(psi_c.breakpoints, c * psi.breakpoints)
    assert np.array_equal(psi_c.coeffs * c**POWERS, psi.coeffs)
    assert psi_c.tail == replace(psi.tail, omega=psi.tail.omega / c)
    # once refused at 2^-40; its sup rows read the absolute window [-k, 0], its p rows scale
    law, law_c = check_semigroup_law(traj, 0.25 * t, 0.75 * t), check_semigroup_law(traj_c, 0.25 * c * t, 0.75 * c * t)
    assert [c * row.p_diff for row in law_c.rows] == [row.p_diff for row in law.rows]


@pytest.mark.parametrize("name", PROBLEMS)
@pytest.mark.parametrize("e", SCALES)
def test_a_step_interval_chain_is_bit_identical_under_time_scaling(name, e):
    c = 2.0**e
    ends = []
    for scale in (1.0, c):
        prob, horizon, config = _scaled(PROBLEMS[name], scale)
        traj = solve(prob, 0.5 * horizon, config)
        for k in (2, 3):
            traj = step_interval(traj, k)
        ends.append(traj)
    _assert_scaled_trajectory(ends[1], ends[0], c)


@pytest.mark.parametrize("name", PROBLEMS)
@pytest.mark.parametrize("e", SCALES)
def test_seminorms_and_L_scale_by_one_over_c(name, e):
    c = 2.0**e
    (prob, *_), (prob_c, *_) = _scaled(PROBLEMS[name], 1.0), _scaled(PROBLEMS[name], c)
    for k in (1, 2):
        sv, sv_c = p_seminorm(prob.history, prob.family, k, EPS), p_seminorm(prob_c.history, prob_c.family, k, EPS / c)
        assert (c * sv_c.value, c * sv_c.truncation_bound, sv_c.indices_used, sv_c.verdict) == (
            sv.value, sv.truncation_bound, sv.indices_used, sv.verdict)
    lv, lv_c = L_functional(prob.history, prob.family, prob.a, EPS), L_functional(prob_c.history, prob_c.family, prob_c.a, EPS / c)
    assert (c * lv_c.value, c * lv_c.error_bound, lv_c.index_last) == (lv.value, lv.error_bound, lv.index_last)


@pytest.mark.parametrize("e", [-20, -40])
def test_a_core_from_central_differences_is_bit_identical_under_time_scaling(e):
    # without fn_prime the slopes are central differences of step 1e-6 depth;
    # once at least 1e-6 in time, which at these units spans the whole core
    c, fn = 2.0**e, lambda t: 1.5 * math.cos(0.5 * math.pi * t + 0.3)
    phi, phi_c = history_from_callable(fn, 8.0, 0.05), history_from_callable(lambda t: fn(t / c), 8.0 * c, 0.05 * c)
    assert np.array_equal(phi_c.breakpoints, c * phi.breakpoints)
    assert np.array_equal(phi_c.coeffs * c**POWERS, phi.coeffs)


def test_step_interval_marches_at_a_tiny_time_unit():
    # once returned its parent unchanged: an absolute 1e-12 read 6e-100 as "already covered"
    prob, _, config = _scaled(PROBLEMS["march-long"], 1e-100)
    traj = solve(prob, 1e-100, config)
    out = step_interval(traj, 5)
    assert out.horizon == 6e-100 and len(out.grid) > len(traj.grid)


@pytest.mark.xfail(strict=True, reason="oracle_solve certifies its truncation to an absolute _EPS_TRUNC, so N moves with the scale")
def test_oracle_solve_is_bit_identical_under_time_scaling():
    prob, horizon, _ = _scaled(PROBLEMS["march-long"], 1.0)
    ref = oracle_solve(prob, 0.5 * horizon)
    for e in (-40, 40):
        prob_c, horizon_c, _ = _scaled(PROBLEMS["march-long"], 2.0**e)
        _assert_scaled_trajectory(oracle_solve(prob_c, 0.5 * horizon_c), ref, 2.0**e)
