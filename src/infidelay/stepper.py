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
splits each point's delays with one sorted search into a head and a tail
moment.  The head is read (_delayed_values) from a prefix of the march's
one append-only table: phi's core rows, then a row per node (_buffers).
A scan turns the batch into the window's node values: _voc_scan, the
variation-of-constants update under the Gauss-4 weights, for solve and
step_interval; the oracle passes its RK4 scan.  The slopes are a x + F at
the step ends.  While the batch is evaluated, the piece row after the last
node holds the pending piece (x, x', 0, 0), so an argument at that node,
or one rounding step past it, reads the node data exactly as a finished
piece starting there would.

The one-period recursion (_recursion, the discrete linear chain trick)
replaces that batch where it is exact: b_i = beta rho^i on tau_i = c + i
delta with no prefix and delta = P tau_1 for an integer P (_period), and
every point of the window one period delta after a stored point (within
1e-12), which holds from the (P+1)-th window on and across step_interval,
whose trajectory carries the last period's points, F and caps.  There

    F(s) = b_1 x(s - tau_1) + rho F(s - delta) - [c(s) = c(s - delta)] b_{c+1} x(s - tau_{c+1}),

c the caps, sums the head's own terms i <= c(s) in another order, so
the truncation, N, N_0 and eps_forcing are those of the head, and the
certificate is unchanged.  It reads at most two arguments per point, so
a window costs O(points) rather than O(points * N).  Per point it adds
at most 4u (|b_1 x| + |rho F(s - delta)| + |correction|) of rounding and
3u sum |b_i x| for b_{i+1} != rho b_i in floating point, plus rho times
the read mismatch of a point that recurs within 1e-12 rather than
exactly; each period damps the error carried in by |rho|, so it stays of
order u (|b_1 x| + |rho F| + |correction|) / (1 - |rho|) per point on
top of the first period's head rounding.  The first period, every other
family, a window whose points do not recur and a recursion whose F is not
finite (a growing tail's correction can be 0 * inf) read the head, so no
problem the head admits is refused.  forcing() always reads the head.

Admission is one certificate: solve and step_interval accept a history
exactly when the forcing truncation N is certified (_certify_forcing).
That also proves phi in F, every p_k finite, so no p_k is evaluated.
solve also certifies N_0; that fails only where a closed-form tail's
enclosure fits eps at the horizon's floor but not at F(0)'s.  A forcing
that is not finite in floating point (a term overflows where its b_i
underflows) is refused with the same NotInPhaseSpaceError; a solution that
itself leaves the floating-point range raises OverflowError with the time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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
    _period_state holds the march's (points, F, caps) of the last period,
    from which an extension continues the recursion (_recursion); it is
    march state and reaches no report.
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
    _period_state: tuple = field(default=(), repr=False)

    @property
    def horizon(self) -> float:
        return float(self.grid[-1])

    def eval(self, t):
        th = np.asarray(t, dtype=float)
        if np.any(th > self.horizon + 1e-9):
            raise ValueError(f"evaluation beyond horizon {self.horizon}: max t={th.max()}")
        phi = self.problem.history
        out = _delayed_values(phi, *_table(phi, self.grid, self.pieces), np.minimum(np.atleast_1d(th), self.horizon))
        return float(out[0]) if th.ndim == 0 else out

    def write_csv(self, path: str) -> None:
        rows = zip(self.grid.tolist(), self.values.tolist(), self.derivs.tolist())
        with open(path, "w") as fh:
            fh.write("t,x,xprime\n" + "".join("%.11e,%.11e,%.11e\n" % row for row in rows))

    def to_json_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "grid": self.grid.tolist(),
            "values": self.values.tolist(),
            "derivs": self.derivs.tolist(),
        }


def _table(phi: HistoryFunction, grid: np.ndarray, pieces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The read table of a trajectory: phi's core rows, then the pieces on grid (breaks, coeffs)."""
    return np.concatenate((phi.breakpoints[:-1], grid)), np.concatenate((phi.coeffs, pieces))


def _delayed_values(phi: HistoryFunction, breaks: np.ndarray, coeffs: np.ndarray, args: np.ndarray) -> np.ndarray:
    """x at the 1-d array args, read (phi.read) from _table's table or a prefix of the march's (_buffers)."""
    return phi.read(breaks, coeffs, args)


def _caps(traj: Trajectory, points: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Each point's forcing index max(n_origin, _tail_floor(s)), clipped at len(taus) >= n_origin.

    That is history._truncation's index for reach s; the clip drops only the
    zero b_i past a zero-mass list's last nonzero one.
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
    prob, phi = traj.problem, traj.problem.history
    ts = np.asarray(t, dtype=float)
    if np.any(ts > traj.horizon + 1e-9):
        raise ValueError(f"forcing beyond horizon {traj.horizon}: max t={ts.max()}")
    n_max = traj.n_forcing if n is None else n
    taus, bs = prob.family.delays.tau_array(n_max), prob.family.b_array(n_max)
    out = _delayed_sums(
        partial(_delayed_values, phi, *_table(phi, traj.grid, traj.pieces)), phi, ts.ravel(), taus, bs,
        _tail_sums(phi, prob.family, taus, bs), _caps(traj, ts.ravel(), taus) if n is None else n,
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

    The one-period recursion (_recursion) sums exactly the head's terms
    i <= max(N_0, _tail_floor(s)), so this index certifies its F too:
    the discarded part is the same and no second certificate exists.  Its
    rounding, of order u (|b_1 x| + |rho F| + |correction|) / (1 - |rho|)
    per point, is bounded in the module docstring, outside eps_forcing.
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
    """The march's append-only read table and node buffers, holding traj's data, sized for the new windows.

    The table (breaks, coeffs) is _table's, phi's core rows and then one row
    per node, whose node part grid and pieces view.  The row of the last node
    holds the pending piece (x, x', 0, 0) while a window's forcing is
    evaluated, so delayed arguments at or just past that node read the node
    data exactly.
    """
    phi = traj.problem.history
    c, n0 = len(phi.coeffs), len(traj.grid)
    total = n0 + sum(len(w) for w in windows)
    breaks, coeffs = np.empty(c + total), np.empty((c + total, 4))
    breaks[:c], coeffs[:c] = phi.breakpoints[:-1], phi.coeffs
    grid, pieces = breaks[c:], coeffs[c:]
    values, derivs = np.empty(total), np.empty(total)
    grid[:n0], values[:n0], derivs[:n0] = traj.grid, traj.values, traj.derivs
    pieces[: n0 - 1] = traj.pieces
    pieces[n0 - 1] = (values[n0 - 1], derivs[n0 - 1], 0.0, 0.0)
    return breaks, coeffs, grid, values, derivs, pieces


def _store_window(grid, values, derivs, pieces, m: int, ends: np.ndarray, steps: np.ndarray) -> int:
    """Write a window's step ends, its Hermite pieces and the next pending piece.

    The window's node values and slopes must already fill rows m onward.
    Returns the new node count.
    """
    m_new = m + len(ends)
    grid[m:m_new] = ends
    lo, hi = slice(m - 1, m_new - 1), slice(m, m_new)
    for k, column in enumerate(hermite_coeffs(values[lo], derivs[lo], values[hi], derivs[hi], steps)):
        pieces[lo, k] = column
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


def _period(family: CoefficientFamily) -> int:
    """P when F obeys the one-period recursion: b_i = beta rho^i on tau_i = c + i delta, delta = P tau_1; else 0."""
    d = family.delays
    if family.kind != "geometric" or d.prefix:
        return 0
    p = round(d.delta / d.tau1)
    return p if p >= 1 and abs(p * d.tau1 - d.delta) <= 1e-12 else 0


def _recursion(values_at, family: CoefficientFamily, points: np.ndarray, caps: np.ndarray, state: tuple, taus, bs):
    """F at points from F one period delta earlier (state), or None where the head must read it.

    With c the caps and s' the stored point s - delta,

        F(s) = b_1 x(s - tau_1) + rho F(s') - [c(s) = c(s')] b_{c+1} x(s - tau_{c+1}),

    the head's own terms i <= c(s): rho F(s') sums b_{i+1} x(s - tau_{i+1})
    for i <= c(s'), and c(s) - c(s') is 0 or 1.  points - delta must be a
    run of the stored points within 1e-12, c(s) - c(s') in {0, 1} at every
    point and the result finite; taus and bs reach index N + 1.  One read.
    """
    old, f_old, c_old = state
    i0 = int(np.searchsorted(old, points[0] - family.delays.delta - 1e-12))
    run = slice(i0, i0 + len(points))
    if i0 + len(points) > len(old) or np.abs(old[run] + family.delays.delta - points).max() > 1e-12:
        return None
    rise = caps - c_old[run]
    if not np.all((rise == 0) | (rise == 1)):
        return None
    same = np.flatnonzero(rise == 0)
    deep = caps[same]  # index of tau_{c+1} and b_{c+1}
    x = values_at(np.concatenate((points - taus[0], points[same] - taus[deep])))
    with np.errstate(over="ignore", invalid="ignore"):  # a growing tail can give 0 * inf here
        f = bs[0] * x[: len(points)] + family.rho * f_old[run]
        f[same] -= bs[deep] * x[len(points) :]
    return f if np.isfinite(f).all() else None


def _keep(state: tuple, points: np.ndarray, f: np.ndarray, caps: np.ndarray, since: float) -> tuple:
    """state (points, F, caps) with a window's appended, cut to the points from since - 1e-9 on.

    A window's first point that repeats the last stored one (the oracle's
    window start) is stored once.
    """
    if state:
        skip = int(points[0] == state[0][-1])
        points = np.concatenate((state[0], points[skip:]))
        f = np.concatenate((state[1], f[skip:]))
        caps = np.concatenate((state[2], caps[skip:]))
    i = int(np.searchsorted(points, since - 1e-9))
    return points[i:], f[i:], caps[i:]


def _march(traj: Trajectory, t_end: float, delayed_values, nodes: np.ndarray, scan) -> Trajectory:
    """traj marched on from its horizon to t_end, one tau_1-window at a time.

    Each window's forcing is one batch at the distinct points of starts +
    steps * nodes and the step ends.  The points are sorted, so a repeat (the
    oracle's node 0 is the previous step's end) is its neighbour's twin, found
    without a sort; a window without one (Gauss-4) is read as it stands.
    The batch is the one-period recursion (_recursion) where the family has a
    period (_period) and its points recur one period after stored ones, and
    the head (_delayed_sums) everywhere else; the points, F and caps of the
    last period ride on the trajectory as _period_state.
    scan(a, x, steps, points, f) returns the window's node values from the
    last node value x.  delayed_values is the caller's own _delayed_values,
    bound with functools.partial to the prefix of the one append-only table
    (_buffers) that holds each window's nodes.
    """
    problem = traj.problem
    a = problem.a
    n, period = traj.n_forcing, _period(problem.family)
    taus = problem.family.delays.tau_array(n + (period > 0))
    bs = problem.family.b_array(n + (period > 0))
    tail_sums = _tail_sums(problem.history, problem.family, taus[:n], bs[:n])
    windows = _substeps(traj.horizon, t_end, problem.family, traj.h_used)
    breaks, coeffs, grid, values, derivs, pieces = _buffers(traj, windows)
    c, m = len(breaks) - len(grid), len(traj.grid)
    state = traj._period_state
    if not period or (state and state[0][-1] != traj.horizon):  # no period, or another trajectory's state
        state = ()
    for ends in windows:
        starts = np.concatenate(([grid[m - 1]], ends[:-1]))
        steps = ends - starts
        points = np.concatenate((starts[:, None] + steps[:, None] * nodes, ends[:, None]), axis=1)
        values_at = partial(delayed_values, problem.history, breaks[: c + m], coeffs[: c + m])
        flat = points.ravel()
        first = np.concatenate(([True], flat[1:] != flat[:-1]))
        distinct = flat if first.all() else flat[first]
        caps = _caps(traj, distinct, taus[:n])
        f = _recursion(values_at, problem.family, distinct, caps, state, taus, bs) if state else None
        if f is None:
            f = _delayed_sums(values_at, problem.history, distinct, taus[:n], bs[:n], tail_sums, caps)
        if period:
            state = _keep(state, distinct, f, caps, ends[-1] - problem.family.delays.delta)
        f = (f if distinct is flat else f[np.cumsum(first) - 1]).reshape(points.shape)
        new = slice(m, m + len(ends))
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below, with its time
            values[new] = scan(a, float(values[m - 1]), steps, points, f)
            derivs[new] = a * values[new] + f[:, -1]
            m_new = _store_window(grid, values, derivs, pieces, m, ends, steps)
        # each new piece holds its node's value and slope and, in c2 and c3, the next node's
        if not np.isfinite(pieces[m - 1 : m_new]).all():
            row = np.isfinite(pieces[m - 1 : m_new]).all(axis=1).argmin()
            raise OverflowError(f"the solution leaves the floating-point range after t = {grid[m - 1 + row]}")
        m = m_new
    return replace(traj, grid=grid, values=values, derivs=derivs, pieces=pieces[: m - 1], _period_state=state)


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
    if not (0.0 < horizon < math.inf):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
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
    The one-period recursion continues from traj's _period_state, so the
    nodes are those of one solve to the end.
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
