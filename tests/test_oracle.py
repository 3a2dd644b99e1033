"""Independent cross-check integrator: accuracy, order, and comparisons."""

import math

import numpy as np
import pytest

import infidelay as fd
from infidelay import (
    CoefficientFamily,
    DelaySchedule,
    ProblemSpec,
    compare_trajectories,
    history_preset,
    oracle_solve,
    solve,
)
from conftest import classic_exact, classic_problem

DS = DelaySchedule()


def test_oracle_classic_hits_the_piecewise_polynomial():
    traj = oracle_solve(classic_problem(), 3.0)
    assert abs(traj.eval(1.0)) < 1e-9
    assert abs(traj.eval(2.0) + 0.5) < 1e-9
    ts = np.linspace(0.0, 3.0, 601)
    exact = np.array([classic_exact(t) for t in ts])
    # the solution is piecewise cubic and the grid is kink-aligned, so the
    # fourth-order integrator reproduces it to rounding at any step size
    assert np.max(np.abs(traj.eval(ts) - exact)) < 1e-12


def test_oracle_pure_exponential():
    p = ProblemSpec(1.0, CoefficientFamily.finite_support([0.0], DS), history_preset("constant"))
    traj = oracle_solve(p, 2.0)
    assert abs(traj.eval(1.0) - math.e) < 1e-9
    assert abs(traj.eval(2.0) - math.e**2) < 1e-8


def test_oracle_constant_is_exact():
    phi5 = fd.HistoryFunction([-8.0, 0.0], [[5.0, 0, 0, 0]], fd.ConstantTail(5.0))
    p = ProblemSpec(0.0, CoefficientFamily.finite_support([0.0], DS), phi5)
    traj = oracle_solve(p, 2.0)
    assert traj.eval(1.3) == 5.0


def test_oracle_fourth_order_self_convergence():
    # transcendental solution (a=1 with an infinite delay family), so the
    # error actually scales; halving h must cut it by at least 2^3
    p = ProblemSpec(1.0, CoefficientFamily.geometric(1.0, 0.5, DS), history_preset("constant"))
    ref = oracle_solve(p, 3.0, h_fine=0.003125)
    ts = np.linspace(0.0, 3.0, 301)
    errs = []
    for h in (0.1, 0.05):
        tr = oracle_solve(p, 3.0, h_fine=h)
        errs.append(float(np.max(np.abs(tr.eval(ts) - ref.eval(ts)))))
    assert errs[0] / errs[1] >= 8.0


def test_compare_trajectories_identity_and_interval():
    traj = oracle_solve(classic_problem(), 2.0)
    assert compare_trajectories(traj, traj) == 0.0
    other = solve(classic_problem(), 2.0)
    d_full = compare_trajectories(traj, other)
    d_head = compare_trajectories(traj, other, (0.0, 1.0))
    assert d_head <= d_full + 1e-15


def test_oracle_auto_truncation_is_certified():
    # rho = -0.8 on a half-integer schedule needs a deep tail cut; both
    # solver and cross-check must land on the certified index and agree
    fam = CoefficientFamily.geometric(1.0, -0.8, DelaySchedule(delta=0.5))
    p = ProblemSpec(0.0, fam, history_preset("constant"))
    a = solve(p, 2.0)
    b = oracle_solve(p, 2.0)
    assert a.n_forcing == b.n_forcing == 110
    assert compare_trajectories(a, b) < 1e-6


def test_oracle_refuses_what_solve_cannot_certify():
    # the recorded tail mass 0.2 past the two listed coefficients never
    # falls below eps: solve and the oracle share the one truncation rule,
    # so neither returns a trajectory summed over the listed terms only
    p = ProblemSpec(0.0, CoefficientFamily.explicit_list([0.5, 0.25], 0.2, DS), history_preset("constant"))
    with pytest.raises(fd.NotInPhaseSpaceError, match="cannot certify"):
        solve(p, 1.0)
    with pytest.raises(fd.UnknownTailError, match="cannot certify"):
        oracle_solve(p, 1.0)


def test_oracle_matches_solver_on_infinite_family():
    p = ProblemSpec(1.0, CoefficientFamily.geometric(1.0, 0.5, DS), history_preset("constant"))
    a = solve(p, 3.0)
    b = oracle_solve(p, 3.0)
    assert compare_trajectories(a, b) < 1e-6


def test_oracle_rejects_divergent_history_family_pair():
    p = ProblemSpec(0.0, CoefficientFamily.power_law(1.0, 1.0, DS), history_preset("constant"))
    with pytest.raises((fd.NotInPhaseSpaceError, fd.DivergentTailError, fd.UnknownTailError)):
        oracle_solve(p, 1.0)
