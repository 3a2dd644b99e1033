"""Independent reference integrator used to cross-check the main stepper.

Classical RK4 on x' = a x + F(t) with its own fixed truncation of the
delayed sum.  It shares with the stepper the problem data types, the
Trajectory container, the step boundaries, and the window-batched
evaluation and Hermite storage of the delayed data; the update formula has
no code in common with the variation-of-constants method, which is what
makes agreement between the two meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .stepper import (
    ProblemSpec,
    SolverConfig,
    Trajectory,
    _buffers,
    _delayed_values,
    _forcing_index,
    _store_window,
    _substeps,
    _window_forcing,
)


@dataclass(frozen=True)
class OracleConfig:
    """h_fine: RK4 step target (default tau_1/200, clamped to tau_1/2).
    n_trunc: delayed-sum truncation for non-finite families; None picks the
    certified index for a 1e-10 truncated tail against the history envelope.
    eps_trunc: the tolerance used by that automatic choice."""

    h_fine: Optional[float] = None
    n_trunc: Optional[int] = None
    eps_trunc: float = 1e-10


def _oracle_truncation(problem: ProblemSpec, config: OracleConfig, horizon: float) -> int:
    fam = problem.family
    if fam.kind in ("finite-support", "explicit-list"):
        n = len(fam.coeffs)
        while n > 0 and fam.coeffs[n - 1] == 0.0:
            n -= 1
        return n
    if config.n_trunc is not None:
        return config.n_trunc
    return _forcing_index(problem, horizon, config.eps_trunc)


def oracle_solve(
    problem: ProblemSpec, horizon: float, config: Optional[OracleConfig] = None
) -> Trajectory:
    """RK4 reference solution on [0, horizon] in a Trajectory container."""
    if config is None:
        config = OracleConfig()
    if not (horizon > 0.0):
        raise ValueError(f"horizon must be positive, got {horizon}")
    a = problem.a
    phi = problem.history
    fam = problem.family
    tau1 = fam.delays.tau1
    h = config.h_fine if config.h_fine is not None else tau1 / 200.0
    h = min(h, tau1 / 2.0)
    n = _oracle_truncation(problem, config, horizon)
    taus = fam.delays.tau_array(n)
    bs = fam.b_array(n)

    # steps align with the kinks (the t=0 junction echoes at each delay and
    # at the window boundaries); each window's RK4 stages read only data
    # from before it, so their forcing is one batch
    windows = _substeps(0.0, horizon, fam, h)
    x_zero = phi.value_at_zero()
    g_zero = _window_forcing(_delayed_values, phi, np.zeros(1), np.zeros((1, 4)), np.zeros(1), taus, bs)
    start = Trajectory(
        problem=problem,
        config=SolverConfig(h=h),
        grid=np.array([0.0]),
        values=np.array([x_zero]),
        derivs=np.array([a * x_zero + g_zero[0]]),
        pieces=np.zeros((0, 4)),
        n_forcing=n,
        h_used=h,
        eps_forcing_used=0.0,
    )
    grid, values, derivs, pieces = _buffers(start, windows)

    m = 1
    for ends in windows:
        starts = np.concatenate(([grid[m - 1]], ends[:-1]))
        dts = ends - starts
        stages = np.column_stack((starts, starts + 0.5 * dts, ends))
        g = _window_forcing(_delayed_values, phi, grid[:m], pieces[:m], stages.ravel(), taus, bs)
        x0 = float(values[m - 1])
        for r, (dt, g0, gm, g1) in enumerate(zip(dts.tolist(), *g.reshape(-1, 3).T.tolist()), start=m):
            k1 = a * x0 + g0
            k2 = a * (x0 + 0.5 * dt * k1) + gm
            k3 = a * (x0 + 0.5 * dt * k2) + gm
            k4 = a * (x0 + dt * k3) + g1
            x0 = x0 + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            values[r] = x0
            derivs[r] = a * x0 + g1
        m = _store_window(grid, values, derivs, pieces, m, ends, dts)

    return replace(start, grid=grid, values=values, derivs=derivs, pieces=pieces[: m - 1])


def compare_trajectories(
    ta: Trajectory,
    tb: Trajectory,
    interval: Optional[tuple[float, float]] = None,
    n_samples: int = 2001,
) -> float:
    """Max |ta - tb| over the interval, sampled densely plus at both grids."""
    if interval is None:
        interval = (0.0, min(ta.horizon, tb.horizon))
    lo, hi = interval
    ts = np.linspace(lo, hi, n_samples)
    extra = [g[(g >= lo) & (g <= hi)] for g in (ta.grid, tb.grid)]
    ts = np.unique(np.concatenate([ts] + extra))
    return float(np.max(np.abs(ta.eval(ts) - tb.eval(ts))))
