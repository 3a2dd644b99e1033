"""The solution semigroup S_t on the history phase space.

[S_t phi](theta) = x(t + theta) for t + theta > 0 and phi(t + theta)
otherwise.  Because trajectory pieces and history cores share the same
local-coordinate representation, S_t phi is assembled by *splicing* --
shifting breakpoints and reusing coefficient rows verbatim -- so applying
the semigroup introduces no interpolation error beyond the solve itself.

The checks in this module are the verification surface: the composition
law S_t S_s = S_{t+s}, strong continuity at t -> 0+, the integral (mild)
form of the equation driven by the right-hand-side functional, and the
pointwise generator-domain condition phi'(0) = L(phi).  The first three
verify the orbit of the Trajectory they are given, S_t phi = x_t(phi), and
read their seminorm and L tolerance from its config.eps_tail_seminorm; only
the composition law solves, once, from S_s phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coefficients import CoefficientFamily
from .history import (
    HistoryFunction,
    L_functional,
    _delayed_sums,
    _seminorms,
    _sup_norms,
    _truncation,
    _zeta_moment,
    _zeta_tail,
    history_difference,
    membership_in_F,
    p_seminorm,
    sup_norm_k,
)
from .numerics import GAUSS4_NODES, GAUSS4_WEIGHTS, PAST_END, SAME_TIME, derivative_coeffs, eval_pieces, piece_index, sup_abs_pieces
from .stepper import ProblemSpec, Trajectory, forcing, solve


def apply_semigroup(traj: Trajectory, t: float) -> HistoryFunction:
    """The shifted state S_t phi as a history function.

    t = 0 returns phi itself.  For t > 0 the new core is phi's core with
    breakpoints translated by -t, followed by the trajectory pieces on
    [0, t] (coefficient rows reused bitwise), and the tail is phi's tail
    shifted in time.
    """
    if not t >= 0.0:  # NaN fails too
        raise ValueError(f"semigroup times t must be >= 0, got {t}")
    phi = traj.problem.history
    if t == 0.0:
        return phi
    tau1 = traj.problem.family.delays.tau1
    if t > traj.horizon + PAST_END * tau1:
        raise ValueError(f"trajectory computed to {traj.horizon}, cannot shift by {t}")
    t = min(t, traj.horizon)
    inner = traj.grid[(traj.grid > SAME_TIME * tau1) & (traj.grid < t - SAME_TIME * tau1)]
    n_piece = len(inner) + 1  # pieces of the trajectory below t
    bp = np.concatenate([phi.breakpoints - t, inner - t, [0.0]])
    coeffs = np.concatenate([phi.coeffs, traj.pieces[:n_piece]])
    return HistoryFunction(bp, coeffs, phi.tail.shifted(t))


# ---------------------------------------------------------------------------
# composition law
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SemigroupLawRow:
    k: int
    sup_diff: float
    p_diff: float


@dataclass(frozen=True)
class SemigroupLawReport:
    """Seminorm distances between S_t S_s phi and S_{t+s} phi."""

    t: float
    s: float
    rows: tuple
    max_discrepancy: float



def check_semigroup_law(traj: Trajectory, t: float, s: float, k_list=(1, 2, 3)) -> SemigroupLawReport:
    """Compare S_{t+s} phi against S_t (S_s phi) in sup and p seminorms.

    The left side is traj's splice at t+s; the right side re-solves from
    the intermediate state S_s phi under traj.config, the check's one solve.
    Agreement is limited only by the integrator, so the discrepancy should
    sit at the solver-error scale.
    """
    if t < 0.0 or s < 0.0:
        raise ValueError("semigroup times must be >= 0")
    problem = traj.problem
    lhs = apply_semigroup(traj, t + s)
    psi = apply_semigroup(traj, s)
    rhs = apply_semigroup(solve(ProblemSpec(problem.a, problem.family, psi), max(t, SAME_TIME * problem.family.delays.tau1), traj.config), t)
    diff = history_difference(lhs, rhs)
    rows, worst, k_list = [], 0.0, list(k_list)
    pds = [sv.upper() for sv in _seminorms(diff, problem.family, k_list, traj.config.eps_tail_seminorm)]
    for k, sd, pd in zip(k_list, _sup_norms(diff, k_list), pds):
        rows.append(SemigroupLawRow(k, sd, pd))
        worst = max(worst, sd, pd)
    return SemigroupLawReport(t, s, tuple(rows), worst)


# ---------------------------------------------------------------------------
# strong continuity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StrongContinuityReport:
    k: int
    times: tuple
    distances: tuple
    p_distances: tuple
    lipschitz: float
    threshold: float
    monotone: bool
    final_ok: bool
    passed: bool



def check_strong_continuity(
    traj: Trajectory, k: int, t_sequence, threshold: Optional[float] = None
) -> StrongContinuityReport:
    """sup-norm distance of S_t phi from phi along t decreasing to 0, on traj's orbit.

    The distances d(t) = sup_{[-k,0]} |S_t phi - phi| must be non-increasing
    as t shrinks (tolerance 1e-10) and the final one must fall below the
    threshold, defaulting to 1e-2 * (1 + Lip) with Lip an exact Lipschitz
    bound for the solution and the history core.
    """
    ts = [float(v) for v in t_sequence]
    if not ts or any(v <= 0.0 for v in ts) or any(b >= a for a, b in zip(ts, ts[1:])):
        raise ValueError("need a strictly decreasing sequence of positive times")
    phi = traj.problem.history
    dists = []
    p_dists = []
    for t in ts:
        diff = history_difference(apply_semigroup(traj, t), phi)
        dists.append(sup_norm_k(diff, k))
        p_dists.append(p_seminorm(diff, traj.problem.family, k, traj.config.eps_tail_seminorm).upper())
    lip = max(
        sup_abs_pieces(traj.grid, derivative_coeffs(traj.pieces), 0.0, ts[0]),
        sup_abs_pieces(phi.breakpoints, derivative_coeffs(phi.coeffs), float(phi.breakpoints[0]), 0.0),
    )
    thr = threshold if threshold is not None else 1e-2 * (1.0 + lip)
    monotone = all(b <= a + 1e-10 for a, b in zip(dists, dists[1:]))
    final_ok = dists[-1] <= thr
    return StrongContinuityReport(
        k=k,
        times=tuple(ts),
        distances=tuple(dists),
        p_distances=tuple(p_dists),
        lipschitz=lip,
        threshold=thr,
        monotone=monotone,
        final_ok=final_ok,
        passed=monotone and final_ok,
    )


# ---------------------------------------------------------------------------
# mild-solution identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MildSolutionReport:
    """Residuals of the mild identity and the error budget of its integrand.

    The batch sums n_terms delayed terms (remainder <= eps_l) under the quad
    rule.  l_gap is its largest distance from L_functional on a splice S_t phi,
    l_bound the smallest allowance for that distance over t_grid.
    """

    max_residual: float
    tolerance: float
    n_points: int
    l_gap: float
    l_bound: float
    eps_l: float
    n_terms: int
    quad: str
    passed: bool


def _rounding(traj: Trajectory, ts: np.ndarray, n) -> np.ndarray:
    """Higham's gamma_{n+2} = (n+2)u / (1 - (n+2)u) times |a x(t)| + sum_{i<=n} |b_i x(t - tau_i)|, at every t in ts.

    n is one int or one per t, the caps of one _delayed_sums batch of |x|
    against |b_i|.  It has no tail moment, except the closed-form deep part
    |c beta| zeta(p, m + 1) that the sums it covers add past each head m.
    """
    prob, fam, top = traj.problem, traj.problem.family, int(np.max(n))
    closed = _zeta_tail(prob.history, fam)
    delayed = _delayed_sums(
        lambda args: np.abs(traj.eval(args)), prob.history, ts, fam.delays.tau_array(top), np.abs(fam.b_array(top)),
        None if closed is None else _zeta_moment(abs(closed[0]), closed[1]), n,
    )
    nu = (n + 2) * 2.0**-53
    return nu / (1.0 - nu) * (np.abs(prob.a * traj.eval(ts)) + delayed)


def check_mild_solution(traj: Trajectory, t_grid, theta_grid, tolerance: float = 1e-6) -> MildSolutionReport:
    """Verify [S_t phi](theta) = phi(0) + integral_0^{t+theta} L(S_s phi) ds on traj's orbit.

    For t+theta <= 0 the identity degenerates to [S_t phi](theta) =
    phi(t+theta), which the splicing makes structurally exact.  For
    t+theta > 0 the splice gives [S_s phi](-tau_i) = x(s - tau_i), so
    L(S_s phi) = a x(s) + F(s) with F the delayed forcing: the integrand at
    every Gauss node of the trajectory's own grid (the integrand is smooth
    inside those intervals) and of each partial interval is one forcing
    batch, and the prefix integrals are one cumulative sum.  At each t of
    t_grid, L_functional on the splice S_t phi cross-checks the batch.  The
    forcing and L are truncated to eps_l = traj.config.eps_tail_seminorm.
    """
    ts = sorted(float(v) for v in t_grid)
    thetas = np.array([float(v) for v in theta_grid])
    if not ts or not len(thetas) or ts[0] < 0.0 or thetas.max() > 0.0:
        raise ValueError("need nonempty grids of times t >= 0 and of thetas <= 0")
    problem, eps_l = traj.problem, traj.config.eps_tail_seminorm
    phi = problem.history
    phi0 = phi.evaluate(0.0)
    r = np.add.outer(ts, thetas)
    pos = r > 0.0
    grid = traj.grid[traj.grid <= r.max() + SAME_TIME * problem.family.delays.tau1]
    steps = np.diff(grid)
    j = piece_index(grid, len(grid), r[pos])
    part = r[pos] - grid[j]
    nodes = np.concatenate([grid[:-1, None] + steps[:, None] * GAUSS4_NODES, grid[j][:, None] + part[:, None] * GAUSS4_NODES])
    points = np.concatenate([nodes.ravel(), ts])
    n_terms = _truncation(phi, problem.family, traj.horizon, eps_l)[0]
    l_vals = problem.a * traj.eval(points) + forcing(traj, points, n_terms)
    means = l_vals[: nodes.size].reshape(-1, 4) @ GAUSS4_WEIGHTS
    prefix = np.concatenate(([0.0], np.cumsum(steps * means[: len(steps)])))
    integral = np.zeros_like(r)
    integral[pos] = prefix[j] + part * means[len(steps) :]

    worst, gap, lvs = 0.0, 0.0, []
    for i, t in enumerate(ts):
        psi = apply_semigroup(traj, t)
        vals = psi.evaluate(thetas)
        res = np.where(pos[i], vals - phi0 - integral[i], vals - phi.evaluate(np.minimum(r[i], 0.0)))
        worst = max(worst, float(np.abs(res).max()))
        lvs.append(L_functional(psi, problem.family, problem.a, eps_l))
        gap = max(gap, abs(lvs[-1].value - float(l_vals[nodes.size + i])))
    ts, last = np.array(ts), np.array([lv.index_last for lv in lvs])
    bound = float(np.min(np.array([float(lv.error_bound) for lv in lvs]) + eps_l + _rounding(traj, ts, last) + _rounding(traj, ts, n_terms)))
    return MildSolutionReport(
        worst, tolerance, r.size, gap, bound, eps_l, n_terms, "gauss4", worst <= tolerance and gap <= bound
    )


# ---------------------------------------------------------------------------
# generator domain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorDomainReport:
    verdict: str  # "in-domain" | "not-in-domain" | "inconclusive" | "not-applicable"
    violation: float
    l_value: float
    l_error_bound: float
    slope_at_zero: float
    derivative_membership: str



def check_generator_domain(
    phi: HistoryFunction,
    family: CoefficientFamily,
    a: float,
    tol: float = 1e-6,
    k_max: int = 3,
    eps_tail: float = 1e-10,
) -> GeneratorDomainReport:
    """Test the domain condition: phi is C^1, phi' lies in the phase space,
    and phi'(0) equals the functional L(phi) = a phi(0) + sum b_i phi(-tau_i).

    Histories without a usable derivative (non-C^1 cores or structurally
    underivable tails) report "not-applicable" rather than a fake verdict.
    """
    if not tol > 0.0:  # NaN fails too
        raise ValueError(f"generator-domain tolerance must be positive, got {tol}")
    dphi = phi.derivative()
    if dphi is None:
        return GeneratorDomainReport("not-applicable", math.nan, math.nan, math.nan, math.nan, "unknown")
    lv = L_functional(phi, family, a, eps=min(1e-12, tol * 1e-3))
    slope = float(eval_pieces(phi.breakpoints, derivative_coeffs(phi.coeffs), 0.0))
    violation = abs(slope - lv.value)
    member = membership_in_F(dphi, family, k_max, eps_tail).verdict
    if member == "not-member":
        verdict = "not-in-domain"
    elif member == "inconclusive":
        verdict = "inconclusive"
    else:
        verdict = "in-domain" if violation <= tol + lv.error_bound else "not-in-domain"
    return GeneratorDomainReport(
        verdict=verdict,
        violation=violation,
        l_value=lv.value,
        l_error_bound=lv.error_bound,
        slope_at_zero=slope,
        derivative_membership=member,
    )
