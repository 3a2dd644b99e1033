"""Independent reference integrator used to cross-check the main stepper.

Classical RK4 on x' = a x + F(t) with its own fixed truncation of the
delayed sum.  It runs the stepper's window march (stepper._march) with the
stage points (0, 1/2) of each step, so it shares the step boundaries, the
batched forcing evaluation and the Hermite storage; its update, _rk4_scan,
has no code in common with the variation-of-constants scan, which is what
makes agreement between the two meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .history import _truncation
from .stepper import ProblemSpec, SolverConfig, Trajectory, _delayed_values, _march, _start


#: tolerance of the certified truncation index picked when n_trunc is None
_EPS_TRUNC = 1e-10


@dataclass(frozen=True)
class OracleConfig:
    """h_fine: RK4 step target (default tau_1/200, clamped to tau_1/2).
    n_trunc: delayed-sum truncation for non-finite families; None picks the
    certified index for a 1e-10 truncated tail against the history envelope."""

    h_fine: Optional[float] = None
    n_trunc: Optional[int] = None


def _oracle_truncation(problem: ProblemSpec, config: OracleConfig, horizon: float) -> int:
    fam = problem.family
    if fam.kind in ("finite-support", "explicit-list"):
        n = len(fam.coeffs)
        while n > 0 and fam.coeffs[n - 1] == 0.0:
            n -= 1
        return n
    if config.n_trunc is not None:
        return config.n_trunc
    return _truncation(problem.history, fam, horizon, _EPS_TRUNC)[0]


def _rk4_scan(a: float, x: float, steps: np.ndarray, points: np.ndarray, f: np.ndarray) -> list:
    """Node values of a window by classical RK4, F at each step's start, midpoint and end."""
    out = []
    for dt, g0, gm, g1 in zip(steps.tolist(), *f.T.tolist()):
        k1 = a * x + g0
        k2 = a * (x + 0.5 * dt * k1) + gm
        k3 = a * (x + 0.5 * dt * k2) + gm
        k4 = a * (x + dt * k3) + g1
        x = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(x)
    return out


def oracle_solve(
    problem: ProblemSpec, horizon: float, config: Optional[OracleConfig] = None
) -> Trajectory:
    """RK4 reference solution on [0, horizon] in a Trajectory container."""
    if config is None:
        config = OracleConfig()
    if not (horizon > 0.0):
        raise ValueError(f"horizon must be positive, got {horizon}")
    tau1 = problem.family.delays.tau1
    h = min(config.h_fine if config.h_fine is not None else tau1 / 200.0, tau1 / 2.0)
    n = _oracle_truncation(problem, config, horizon)
    start = _start(problem, SolverConfig(h=h), n, h, 0.0)
    return _march(start, horizon, _delayed_values, np.array([0.0, 0.5]), _rk4_scan)


def compare_trajectories(
    ta: Trajectory,
    tb: Trajectory,
    interval: Optional[tuple[float, float]] = None,
    n_samples: int = 2001,
) -> float:
    """Max |ta - tb| over the interval, sampled densely plus at both grids (repeats are harmless)."""
    if interval is None:
        interval = (0.0, min(ta.horizon, tb.horizon))
    lo, hi = interval
    ts = np.linspace(lo, hi, n_samples)
    extra = [g[(g >= lo) & (g <= hi)] for g in (ta.grid, tb.grid)]
    ts = np.concatenate([ts] + extra)
    return float(np.max(np.abs(ta.eval(ts) - tb.eval(ts))))
