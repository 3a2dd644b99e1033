"""The one-period recursion of the geometric forcing against an exact sum.

For b_i = beta rho^i on tau_i = c + i delta with delta = P tau_1, the march
reads F(s) from F(s - delta) (stepper._recursion).  At every node the march's
F must lie within the stepper's bound (conftest.forcing_bounds) of the node's
head terms b_i x(t - tau_i), i <= cap(t), summed at 50 digits from the
trajectory's own x.
"""

import numpy as np
import pytest

import infidelay as fd
from infidelay import CoefficientFamily, DelaySchedule, ProblemSpec, history_preset, solve
from conftest import forcing_bounds, recorded_march
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
