"""Independent reference integrator used to cross-check the main stepper.

Classical RK4 on x' = a x + F(t), the delayed sum truncated per point by
the solver's rule (stepper._caps) with the indices that history._truncation,
the one truncation rule, certifies to _EPS_TRUNC at reach 0 and on
[0, horizon].  It runs the stepper's window march (stepper._march) with
the stage node 1/2 of each step, so it shares the step boundaries, the
plan, the batched forcing evaluation and the Hermite storage; the first
stage reads the start node's slope, so each point's F is evaluated once.
Its update, _rk4_scan with its grid part _rk4_grid, has no code in common
with the variation-of-constants scan, which is what makes agreement
between the two meaningful.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .history import _truncation
from .stepper import ProblemSpec, SolverConfig, Trajectory, _delayed_values, _march, _start


#: remainder to which the oracle's truncation of the delayed sum is certified
_EPS_TRUNC = 1e-10

#: evenly spaced times at which compare_trajectories samples, besides both grids
_COMPARE_SAMPLES = 2001


def _rk4_grid(a: float, steps: np.ndarray, points: np.ndarray) -> list:
    """_rk4_scan's grid part of a whole march: the steps as floats."""
    return steps.tolist()


def _rk4_scan(a: float, x: float, dx: float, grid: list, rows: slice, f: np.ndarray) -> list:
    """Node values of a window by classical RK4, F at each step's midpoint and end; k1 is the start node's slope.

    grid is the march's _rk4_grid and rows the window's steps in it.
    """
    out = []
    k1 = dx
    for dt, gm, g1 in zip(grid[rows], *f.T.tolist()):
        k2 = a * (x + 0.5 * dt * k1) + gm
        k3 = a * (x + 0.5 * dt * k2) + gm
        k4 = a * (x + dt * k3) + g1
        x = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        k1 = a * x + g1
        out.append(x)
    return out


#: the oracle's scan: (the stage node 1/2, its grid part, the scan)
_RK4 = (np.array([0.5]), _rk4_grid, _rk4_scan)


def oracle_solve(problem: ProblemSpec, horizon: float, h_fine: Optional[float] = None) -> Trajectory:
    """RK4 reference solution on [0, horizon] in a Trajectory container.

    h_fine is the step target (default tau_1/200, clamped to tau_1/2).  Refuses
    as solve does, with _truncation's NotInPhaseSpaceError, when the delayed
    sum has no certified truncation.
    """
    if not (0.0 < horizon < np.inf):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    tau1 = problem.family.delays.tau1
    h = min(h_fine if h_fine is not None else tau1 / 200.0, tau1 / 2.0)
    n = _truncation(problem.history, problem.family, horizon, _EPS_TRUNC)[0]
    n_origin = _truncation(problem.history, problem.family, 0.0, _EPS_TRUNC)[0]
    start = _start(problem, SolverConfig(h=h), n, n_origin, h, 0.0)
    return _march(start, horizon, n, _delayed_values, _RK4)


def compare_trajectories(ta: Trajectory, tb: Trajectory, interval: Optional[tuple[float, float]] = None) -> float:
    """Max |ta - tb| over the interval, sampled densely plus at both grids (repeats are harmless)."""
    if interval is None:
        interval = (0.0, min(ta.horizon, tb.horizon))
    lo, hi = interval
    ts = np.linspace(lo, hi, _COMPARE_SAMPLES)
    extra = [g[(g >= lo) & (g <= hi)] for g in (ta.grid, tb.grid)]
    ts = np.concatenate([ts] + extra)
    return float(np.max(np.abs(ta.eval(ts) - tb.eval(ts))))
