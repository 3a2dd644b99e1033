"""The one-period recursion of the geometric forcing against an exact sum.

For b_i = beta rho^i on tau_i = c + i delta with delta = P tau_1, the march
reads F(s) from F(s - delta) (stepper._plan_recursion).  At every node the march's
F must lie within the stepper's bound (conftest.forcing_bounds) of the node's
head terms b_i x(t - tau_i), i <= cap(t), summed at 50 digits from the
trajectory's own x.
"""

import numpy as np
import pytest

import infidelay as fd
from infidelay import CoefficientFamily, DelaySchedule, ProblemSpec, history_preset, solve, step_interval
from conftest import U, forcing_bounds, recorded_march
from test_stepper import cos_history, march_long_problem

mpmath = pytest.importorskip("mpmath")  # the reference sums are mpmath's

MP = mpmath.mp.clone()
MP.dps = 50

_CASES = {
    # P = 1, a cosine tail; N = 34 from reach 0 and 39 at the horizon
    "march-long": (march_long_problem(), 32.0, 1),
    # tau_i = 2i - 1: delta = 2 tau_1
    "odd-delays": (ProblemSpec(-0.5, CoefficientFamily.geometric(1.0, 0.5, DelaySchedule(-1.0, 2.0)), cos_history()), 16.0, 2),
    "negative-rho": (ProblemSpec(-0.5, CoefficientFamily.geometric(1.0, -0.6, DelaySchedule()), cos_history()), 16.0, 1),
    # phi = 2^-theta grows into the past, b_i = 0.5 0.3^i
    "growing-exp": (ProblemSpec(-0.5, CoefficientFamily.geometric(0.5, 0.3, DelaySchedule()), history_preset("g-weight")), 16.0, 1),
}


@pytest.mark.parametrize("run", ["gauss4", "oracle"])
@pytest.mark.parametrize("problem, horizon, period", list(_CASES.values()), ids=list(_CASES))
def test_recursion_stays_within_its_bound_of_an_exact_sum(monkeypatch, run, problem, horizon, period):
    if run == "oracle":
        horizon /= 4.0  # the RK4 steps are five times finer
    assert fd.stepper._period(problem.family) == period
    march = (lambda: fd.oracle_solve(problem, horizon)) if run == "oracle" else (lambda: solve(problem, horizon))
    traj, windows = recorded_march(monkeypatch, march)
    b = forcing_bounds(traj, windows)
    at = np.flatnonzero(np.isin(b["points"], traj.grid[1:]))  # every node but t = 0
    assert len(at) == len(traj.grid) - 1
    # the first period reads the head, every later window the recursion
    tau1 = problem.family.delays.tau1
    assert np.array_equal(b["head"][at], traj.grid[1:] <= period * tau1 + 1e-12)
    n = int(b["caps"].max())
    taus, bs = problem.family.delays.tau_array(n), problem.family.b_array(n)
    for t, f, cap, bound in zip(b["points"][at], b["f"][at], b["caps"][at], b["bound"][at]):
        x = traj.eval(t - taus[:cap])
        exact = MP.fdot([MP.mpf(float(v)) for v in bs[:cap]], [MP.mpf(float(v)) for v in x])
        assert abs(MP.mpf(float(f)) - exact) <= bound, t


@pytest.mark.parametrize("problem, horizon, period", list(_CASES.values()), ids=list(_CASES))
def test_corrections_read_phi_at_or_below_its_depth(monkeypatch, problem, horizon, period):
    # c >= _tail_floor(s), so tau_{c+1} >= s + depth: every correction
    # argument s - tau_{c+1} lies at or below -depth up to the rounding of
    # s + depth and of the difference, and the plan's correction is
    # b_{c+1} phi(s - tau_{c+1}) where the cap stayed, 0 where it rose
    plans, real = [], fd.stepper._plan
    monkeypatch.setattr(fd.stepper, "_plan", lambda *args: plans.append((args, real(*args))) or plans[-1][1])
    solve(problem, horizon)
    (args, (entries, _, state, _)), depth = plans[0], problem.history.depth
    taus, bs = args[5], args[6]
    read = [entry for entry in entries if entry[-1] is not None]
    assert len(read) >= len(entries) - period - 1
    stays = 0
    for _, _, _, points, caps, _, (_, _, corr, run) in read:
        theta = points.ravel() - taus[caps]
        assert np.all(theta <= -depth + 4 * U * taus[caps])
        stayed = caps == state[2][run]
        want = np.where(stayed, bs[caps] * problem.history.evaluate(theta), 0.0)
        assert corr.tobytes() == want.tobytes()
        stays += stayed.sum()
    assert stays > 0


@pytest.mark.parametrize("problem, horizon, period", list(_CASES.values()), ids=list(_CASES))
def test_one_window_per_call_from_tau_1_is_the_one_shot_solve(problem, horizon, period):
    # step_interval from t = tau_1, one window per call, continues the
    # recursion from each trajectory's _period_state: nodes and state are
    # the one-shot solve's bit for bit
    tau1 = problem.family.delays.tau1
    chained = solve(problem, tau1)
    for k in range(1, round(horizon / tau1)):
        chained = step_interval(chained, k)
    direct = solve(problem, horizon)
    for name in ("grid", "values", "derivs", "pieces"):
        assert getattr(chained, name).tobytes() == getattr(direct, name).tobytes(), name
    assert all(a.tobytes() == b.tobytes() for a, b in zip(chained._period_state, direct._period_state))
    # the state is the last period: from the first point one period (less 1e-9) back on
    points, back = direct._period_state[0], horizon - problem.family.delays.delta
    assert points[-1] == horizon and back - 1e-9 <= points[0] < back + direct.h_used
