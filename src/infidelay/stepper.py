"""Method-of-steps integration of x'(t) = a x(t) + sum_i b_i x(t - tau_i).

The march uses exact variation of constants on each sub-step,

    x(t1) = x(t0) e^{a dt} + integral_{t0}^{t1} e^{a(t1-s)} F(s) ds,
    F(s)  = sum_{i <= N} b_i x(s - tau_i),

with the integral evaluated by 4-point Gauss-Legendre and F truncated per
point at max(N_0, _tail_floor(s)), N_0 certified at reach 0: past the floor
every argument reads the history's tail, whose envelope atoms bound the
terms discarded past N_0 by eps_forcing, uniformly on [0, T].  F(s)
depends on s alone, not on T, so an extension past T marches on.
Dense output is the cubic Hermite interpolant of the stored node values
and slopes.

Step boundaries are forced at every multiple of tau_1 and at every delay
tau_i <= T, where the solution loses one order of smoothness.  _substeps
is the one routine that places them: it merges knots within 1e-12 of
each other and cuts the march into tau_1-windows of sub-steps.

The march (_march) runs one window [k tau_1, (k+1) tau_1] at a time.
Every delay is at least tau_1, so F on the window reads x only on
(-inf, k tau_1]: the forcing at each distinct point of starts + steps *
nodes and the step ends is one batch through history._delayed_sums, which
splits each point's delays with one sorted search into a head, read from
one table of phi's core rows and the pieces (_delayed_values), and a tail
moment.  A scan turns the batch into the window's node values: _voc_scan,
the variation-of-constants update under the Gauss-4 weights, for solve and
step_interval; the oracle passes its RK4 scan.  The slopes are a x + F at
the step ends.  While the batch is evaluated, the piece row after the last
node holds the pending piece (x, x', 0, 0), so an argument at that node,
or one rounding step past it, reads the node data exactly as a finished
piece starting there would.

Admission is one certificate: solve and step_interval accept a history
exactly when the forcing truncation N is certified (_certify_forcing).
That also proves phi in F, every p_k finite, so no p_k is evaluated.
solve also certifies N_0; that fails only where a closed-form tail's
enclosure fits eps at the horizon's floor but not at F(0)'s.  A forcing
that is not finite in floating point (a term overflows where its b_i
underflows) is refused with the same NotInPhaseSpaceError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

import numpy as np

from .coefficients import CoefficientFamily, DivergentTailError, UnknownTailError, m_index, n_index
from .history import HistoryFunction, _delayed_sums, _tail_sums, _truncation, p_seminorm, sup_norm_k
from .numerics import GAUSS4_NODES, GAUSS4_WEIGHTS, hermite_coeffs, phi1, sup_abs_pieces


class NotInPhaseSpaceError(Exception):
    """The history fails (or cannot be certified for) phase-space membership."""


@dataclass(frozen=True)
class ProblemSpec:
    """One initial-value problem: scalar drift a, delay family, history."""

    a: float
    family: CoefficientFamily
    history: HistoryFunction


@dataclass(frozen=True)
class SolverConfig:
    """March parameters.  None means: resolve from the problem at solve time.

    h: sub-step target, > 0 (default tau_1/40, clamped to tau_1)
    eps_forcing: uniform bound on the discarded delayed-forcing tail, > 0
        (default 1e-10 * max(1, sup |phi| on [-1, 0]))
    eps_tail_seminorm: certification tolerance, > 0, of the p_k and L evaluated
        along a trajectory (estimate_certificate, the semigroup law, strong
        continuity, the mild check, the scenario checks); solve does not read it
    """

    h: Optional[float] = None
    eps_forcing: Optional[float] = None
    eps_tail_seminorm: float = 1e-10

    def __post_init__(self) -> None:
        if self.h is not None and not self.h > 0.0:
            raise ValueError(f"step size must be positive, got {self.h}")
        if self.eps_forcing is not None and not self.eps_forcing > 0.0:
            raise ValueError(f"forcing tolerance must be positive, got {self.eps_forcing}")
        if not self.eps_tail_seminorm > 0.0:
            raise ValueError(f"seminorm tolerance must be positive, got {self.eps_tail_seminorm}")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Computed solution on [0, horizon] with dense cubic output.

    grid/values/derivs hold the node data; pieces[j] are the local Hermite
    coefficients on [grid[j], grid[j+1]].  Evaluation at t <= 0 falls back
    to the history, so x is usable on (-infty, horizon].  n_forcing is the
    forcing index certified on [0, horizon], n_origin the one at reach 0.
    """

    problem: ProblemSpec
    config: SolverConfig
    grid: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    pieces: np.ndarray
    n_forcing: int
    n_origin: int
    h_used: float
    eps_forcing_used: float

    @property
    def horizon(self) -> float:
        return float(self.grid[-1])

    def eval(self, t):
        th = np.asarray(t, dtype=float)
        if np.any(th > self.horizon + 1e-9):
            raise ValueError(f"evaluation beyond horizon {self.horizon}: max t={th.max()}")
        out = _delayed_values(self.problem.history, self.grid, self.pieces, np.minimum(np.atleast_1d(th), self.horizon))
        return float(out[0]) if th.ndim == 0 else out

    def write_csv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("t,x,xprime\n")
            for t, x, d in zip(self.grid, self.values, self.derivs):
                fh.write(f"{t:.11e},{x:.11e},{d:.11e}\n")

    def to_json_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "grid": [float(v) for v in self.grid],
            "values": [float(v) for v in self.values],
            "derivs": [float(v) for v in self.derivs],
        }


def _delayed_values(phi: HistoryFunction, grid: np.ndarray, pieces: np.ndarray, args: np.ndarray) -> np.ndarray:
    """x at the 1-d array args, read (phi.read) from one table: phi's core rows, then the pieces on grid."""
    breaks = np.concatenate((phi.breakpoints[:-1], grid))
    return phi.read(breaks, np.concatenate((phi.coeffs, pieces)), args)


def _caps(traj: Trajectory, points: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Each point's forcing index max(n_origin, _tail_floor(s)), clipped at len(taus) >= n_origin.

    That is history._truncation's index for reach s; the clip drops only the
    zero b_i past a finite support's last nonzero one.
    """
    return np.maximum(traj.n_origin, np.searchsorted(taus, points + traj.problem.history.depth, side="left"))


def forcing(traj: Trajectory, t, n: Optional[int] = None):
    """The delayed forcing F(t) = sum_{i<=N} b_i x(t - tau_i) along traj.

    N is each t's own index max(n_origin, _tail_floor(t)) (_caps), the one
    the march used, or n for every t when given; forcing evaluates and never
    certifies.  Under a closed-form tail (history._zeta_tail) every delay
    past n must reach phi's tail from t, as it does past an index certified
    for t's reach.  Valid for t in [0, horizon]; a later t raises
    ValueError, as Trajectory.eval does.  t is a time (the result is a
    float) or an array of times, evaluated as one (points x N) batch whose
    entries equal the scalar results bit for bit.
    """
    prob = traj.problem
    ts = np.asarray(t, dtype=float)
    if np.any(ts > traj.horizon + 1e-9):
        raise ValueError(f"forcing beyond horizon {traj.horizon}: max t={ts.max()}")
    n_max = traj.n_forcing if n is None else n
    taus, bs = prob.family.delays.tau_array(n_max), prob.family.b_array(n_max)
    out = _delayed_sums(
        partial(_delayed_values, prob.history, traj.grid, traj.pieces), prob.history, ts.ravel(), taus, bs,
        _tail_sums(prob.history, prob.family, taus, bs), _caps(traj, ts.ravel(), taus) if n is None else n,
    )
    return float(out[0]) if ts.ndim == 0 else out.reshape(ts.shape)


def _certify_forcing(problem: ProblemSpec, horizon: float, eps: float) -> int:
    """Certified forcing truncation index on [0, horizon]: the solver's one admission test.

    Success proves phi in F, p_k(phi) < inf for every k, so no p_k is
    evaluated.  Past _tail_floor(phi, family, k tau_1) every window of p_k
    lies in phi's tail, where the atoms (s, w) bound |phi(t - tau_i)| for
    t >= 0 by sum s w(-tau_i) (weights do not decrease into the past); that
    part of p_k is at most sum s tail_sum_bound(family, w, n) with n past
    the floor.  Whether this is finite depends on neither n nor k, and each
    of the finitely many terms below the floor is finite.
    """
    try:
        return _truncation(problem.history, problem.family, horizon, eps)[0]
    except DivergentTailError as exc:
        raise NotInPhaseSpaceError(
            "the delayed series is certified divergent: the history is outside the phase space"
        ) from exc
    except UnknownTailError as exc:
        raise NotInPhaseSpaceError(str(exc)) from exc


def _substeps(t_from: float, t_to: float, family: CoefficientFamily, h: float) -> list[np.ndarray]:
    """Sub-step end times in (t_from, t_to], one array per tau_1-window.

    The knots are the multiples of tau_1 and the delays tau_i strictly
    inside (t_from, t_to) by more than 1e-12, sorted, then t_to; a knot is
    kept only when the next one lies more than 1e-12 past it, so of a
    cluster the last point stays (t_to wins ties).  Each knot interval is
    cut into equal sub-steps of at most h.  A window closes at every
    multiple of tau_1 and at t_to, so with h <= tau_1 no delayed argument of
    a window reaches past the node it starts from.
    """
    d = family.delays
    tau1 = d.tau1
    j = math.floor(t_from / tau1 + 1e-12) + 1
    lo, hi = t_from + 1e-12, t_to - 1e-12
    cands = [k * tau1 for k in range(j, math.ceil(hi / tau1) + 1)]
    cands += d.tau_array(d.first_index_at_least(hi) - 1).tolist()
    knots = sorted(v for v in cands if lo < v < hi) + [t_to]
    knots = [v for v, nxt in zip(knots, knots[1:]) if nxt - v > 1e-12] + [t_to]
    windows = []
    ends: list = []
    t_cur = t_from
    for t_next in knots:
        nsub = max(1, math.ceil((t_next - t_cur) / h - 1e-12))
        dt = (t_next - t_cur) / nsub
        ends.extend(t_cur + (i + 1) * dt for i in range(nsub - 1))
        ends.append(t_next)
        t_cur = t_next
        if t_next >= j * tau1 - 1e-12 or t_next == t_to:
            windows.append(np.array(ends))
            ends = []
            j += 1
    return windows


def _buffers(traj: Trajectory, windows: list) -> tuple:
    """Node and piece buffers holding traj's data, sized for the new windows.

    pieces has one row per node: the row of the last node holds the pending
    piece (x, x', 0, 0) while a window's forcing is evaluated, so delayed
    arguments at or just past that node read the node data exactly.
    """
    n0 = len(traj.grid)
    total = n0 + sum(len(w) for w in windows)
    grid, values, derivs = np.empty(total), np.empty(total), np.empty(total)
    pieces = np.empty((total, 4))
    grid[:n0], values[:n0], derivs[:n0] = traj.grid, traj.values, traj.derivs
    pieces[: n0 - 1] = traj.pieces
    pieces[n0 - 1] = (values[n0 - 1], derivs[n0 - 1], 0.0, 0.0)
    return grid, values, derivs, pieces


def _store_window(grid, values, derivs, pieces, m: int, ends: np.ndarray, steps: np.ndarray) -> int:
    """Write a window's step ends, its Hermite pieces and the next pending piece.

    The window's node values and slopes must already fill rows m onward.
    Returns the new node count.
    """
    m_new = m + len(ends)
    grid[m:m_new] = ends
    lo, hi = slice(m - 1, m_new - 1), slice(m, m_new)
    pieces[lo] = np.column_stack(hermite_coeffs(values[lo], derivs[lo], values[hi], derivs[hi], steps))
    pieces[m_new - 1] = (values[m_new - 1], derivs[m_new - 1], 0.0, 0.0)
    return m_new


def _voc_scan(a: float, x: float, steps: np.ndarray, points: np.ndarray, f: np.ndarray) -> list:
    """Node values of a window by variation of constants, the integral by the Gauss-4 weights."""
    quad = np.vecdot(np.exp(a * (points[:, -1:] - points[:, :-1])) * f[:, :-1], GAUSS4_WEIGHTS)
    out = []
    for step, q in zip(steps.tolist(), quad.tolist()):
        x = x * math.exp(a * step) + step * q
        out.append(x)
    return out


def _march(traj: Trajectory, t_end: float, delayed_values, nodes: np.ndarray, scan) -> Trajectory:
    """traj marched on from its horizon to t_end, one tau_1-window at a time.

    Each window's forcing is one batch at the distinct points of starts +
    steps * nodes and the step ends.  The points are sorted, so a repeat (the
    oracle's node 0 is the previous step's end) is its neighbour's twin, found
    without a sort.  scan(a, x, steps, points, f) returns the window's node
    values from the last node value x.  delayed_values is the caller's own
    _delayed_values, bound to each window's nodes with functools.partial.
    """
    problem = traj.problem
    a = problem.a
    taus = problem.family.delays.tau_array(traj.n_forcing)
    bs = problem.family.b_array(traj.n_forcing)
    tail_sums = _tail_sums(problem.history, problem.family, taus, bs)
    windows = _substeps(traj.horizon, t_end, problem.family, traj.h_used)
    grid, values, derivs, pieces = _buffers(traj, windows)
    m = len(traj.grid)
    for ends in windows:
        starts = np.concatenate(([grid[m - 1]], ends[:-1]))
        steps = ends - starts
        points = np.concatenate((starts[:, None] + steps[:, None] * nodes, ends[:, None]), axis=1)
        values_at = partial(delayed_values, problem.history, grid[:m], pieces[:m])
        flat = points.ravel()
        first = np.concatenate(([True], flat[1:] != flat[:-1]))
        f = _delayed_sums(values_at, problem.history, flat[first], taus, bs, tail_sums, _caps(traj, flat[first], taus))
        f = f[np.cumsum(first) - 1].reshape(points.shape)
        new = slice(m, m + len(ends))
        values[new] = scan(a, float(values[m - 1]), steps, points, f)
        derivs[new] = a * values[new] + f[:, -1]
        m = _store_window(grid, values, derivs, pieces, m, ends, steps)
    return replace(traj, grid=grid, values=values, derivs=derivs, pieces=pieces[: m - 1])


def _advance(traj: Trajectory, t_end: float) -> Trajectory:
    """traj marched on to t_end by variation of constants under the Gauss-4 rule."""
    return _march(traj, t_end, _delayed_values, GAUSS4_NODES, _voc_scan)


def _start(problem: ProblemSpec, config: SolverConfig, n_forcing: int, n_origin: int, h: float, eps_f: float) -> Trajectory:
    """The one-node trajectory at t = 0: x(0) = phi(0), x'(0) = a phi(0) + F(0)."""
    phi0 = problem.history.evaluate(0.0)
    traj = Trajectory(
        problem=problem,
        config=config,
        grid=np.array([0.0]),
        values=np.array([phi0]),
        derivs=np.zeros(1),
        pieces=np.zeros((0, 4)),
        n_forcing=n_forcing,
        n_origin=n_origin,
        h_used=h,
        eps_forcing_used=eps_f,
    )
    traj.derivs[0] = problem.a * phi0 + forcing(traj, 0.0)
    return traj


def solve(problem: ProblemSpec, horizon: float, config: Optional[SolverConfig] = None) -> Trajectory:
    """Integrate the problem on [0, horizon] once its forcing truncation is certified."""
    if not (horizon > 0.0):
        raise ValueError(f"horizon must be positive, got {horizon}")
    config = config if config is not None else SolverConfig()
    tau1 = problem.family.delays.tau1
    h = min(config.h if config.h is not None else tau1 / 40.0, tau1)
    eps_f = (
        config.eps_forcing
        if config.eps_forcing is not None
        else 1e-10 * max(1.0, sup_norm_k(problem.history, 1))
    )
    n_forcing = _certify_forcing(problem, horizon, eps_f)
    n_origin = _certify_forcing(problem, 0.0, eps_f)
    try:
        return _advance(_start(problem, config, n_forcing, n_origin, h, eps_f), horizon)
    except UnknownTailError as exc:  # a delayed sum that is not finite in floating point
        raise NotInPhaseSpaceError(str(exc)) from exc


def step_interval(traj: Trajectory, k: int) -> Trajectory:
    """Trajectory extended through the window [k*tau_1, (k+1)*tau_1].

    Returns traj unchanged when it already covers the window.  Otherwise
    certifies the forcing truncation for the longer horizon at traj's eps
    and marches the remaining span with that index; where it deepens, the
    nodes already computed stand, as each point's index is its own (_caps).
    An oracle_solve trajectory records no forcing eps (0.0) and is refused:
    extending it here would not be the RK4 reference.
    """
    if k < 0:
        raise ValueError(f"window index must be >= 0, got {k}")
    if not traj.eps_forcing_used > 0.0:
        raise ValueError("step_interval extends solve trajectories only, not oracle_solve ones")
    problem = traj.problem
    target = (k + 1) * problem.family.delays.tau1
    if target <= traj.horizon + 1e-12:
        return traj
    n_forcing = _certify_forcing(problem, target, traj.eps_forcing_used)
    try:
        return _advance(replace(traj, n_forcing=n_forcing), target)
    except UnknownTailError as exc:  # a delayed sum that is not finite in floating point
        raise NotInPhaseSpaceError(str(exc)) from exc


# ---------------------------------------------------------------------------
# a-priori estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimateCertificate:
    """A-priori bound for sup |x| on [0, k*tau_1] against the observed sup.

    The bound is built from the recursion

      B_1     = e^{max(a,0) tau_1} ||phi||_1 + phi1(a, tau_1) p_1(phi)
      B_{j}   = e^{max(a,0)(j-1) tau_1} M_{j-1}
                + j phi1(a j, tau_1) [ S_j max(||phi||_{m(j)}, M_{j-1}) + p_j(phi) ],

    where S_j sums |b_i| below n(j), M_j is the running max of B_1..B_j,
    and phi1(z, d) = (e^{z d} - 1)/z.  The certificate is VALID when the
    observed sup does not exceed the bound (tolerance 1e-9); every p_j
    enters through its certified upper value.
    """

    k: int
    bound: float
    observed: float
    valid: bool
    constant: float
    q_value: float
    levels: tuple
    b_chain: tuple


def estimate_certificate(traj: Trajectory, k: int) -> EstimateCertificate:
    """Build and check the window-k a-priori certificate along traj."""
    if k < 1:
        raise ValueError(f"window index k must be >= 1, got {k}")
    problem = traj.problem
    fam = problem.family
    phi = problem.history
    a = problem.a
    tau1 = fam.delays.tau1
    if traj.horizon < k * tau1 - 1e-9:
        raise ValueError(
            f"trajectory covers [0, {traj.horizon}] but the certificate needs [0, {k * tau1}]"
        )
    eps = traj.config.eps_tail_seminorm
    p_up = []
    for j in range(1, k + 1):
        sv = p_seminorm(phi, fam, j, eps)
        if sv.verdict == "divergent":
            raise DivergentTailError(f"p_{j} is certified divergent; no estimate exists")
        if sv.verdict == "inconclusive":
            raise UnknownTailError(f"p_{j} cannot be certified; no estimate is available")
        p_up.append(sv.upper())

    levels = []
    sup1 = sup_norm_k(phi, 1)
    levels.append((f"sup_norm[1]", sup1))
    for j in range(1, k + 1):
        levels.append((f"p[{j}]", p_up[j - 1]))

    e1 = math.exp(max(a, 0.0) * tau1)
    g1 = phi1(a, tau1)
    b_chain = [e1 * sup1 + g1 * p_up[0]]
    running = b_chain[0]
    seen_sup = {1}
    for j in range(2, k + 1):
        mj = m_index(fam, j)
        sup_m = sup_norm_k(phi, mj)
        if mj not in seen_sup:
            levels.append((f"sup_norm[{mj}]", sup_m))
            seen_sup.add(mj)
        s_j = fam.head_abs_sum(n_index(fam, j))
        e_j = math.exp(max(a, 0.0) * (j - 1) * tau1)
        g_j = j * phi1(a * j, tau1)
        b_j = e_j * running + g_j * (s_j * max(sup_m, running) + p_up[j - 1])
        b_chain.append(b_j)
        running = max(running, b_j)

    bound = running
    observed = sup_abs_pieces(traj.grid, traj.pieces, 0.0, k * tau1)
    q_value = max(v for (_, v) in levels)
    constant = bound / q_value if q_value > 0.0 else bound
    return EstimateCertificate(
        k=k,
        bound=bound,
        observed=observed,
        valid=observed <= bound + 1e-9,
        constant=constant,
        q_value=q_value,
        levels=tuple(levels),
        b_chain=tuple(b_chain),
    )
