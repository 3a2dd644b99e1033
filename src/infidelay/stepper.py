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

The march (_march) is a plan and a sweep.  The mesh is fixed before any
value of x is known and the delays are constant, so the plan (_plan) does
the march's grid-only work in one batch: it writes the step ends into the
march's one append-only table (phi's core rows, then a row per node;
_buffers) and gives each tau_1-window its points (start + step * nodes and
the step ends, interior nodes only, so no point repeats) and their caps
(_caps).  The sweep runs the windows in order and does the work that needs
x, one F per point.  Every delay is at least tau_1, so F on the window
[k tau_1, (k+1) tau_1] reads x only on (-inf, k tau_1]; a scan turns F into
the window's node values (_voc_scan, variation of constants under the
Gauss-4 weights, for solve and step_interval; the oracle passes its RK4
scan, whose first stage reads the node's slope), and the slopes are a x + F
at the step ends.  While a window's F is evaluated, the table's row after
the last node holds the pending piece (x, x', 0, 0), so an argument at that
node, or one rounding step past it, reads the node data exactly as a
finished piece would.

A window's F is the head (history._delayed_sums: one sorted search per
point splits its delays into a head, read from the table's prefix that
holds the window's nodes by _delayed_values, and a tail moment) or, where
it is exact, the one-period recursion (the discrete linear chain trick):
b_i = beta rho^i on tau_i = c + i delta with no prefix and delta = P tau_1
for an integer P (_period), and every point of the window one period delta
after a stored point (within 1e-12), which holds from the (P+1)-th window
on and across step_interval, whose trajectory carries the last period's
points, F and caps.  There

    F(s) = b_1 x(s - tau_1) + rho F(s - delta) - [c(s) = c(s - delta)] b_{c+1} x(s - tau_{c+1}),

c the caps, sums the head's own terms i <= c(s) in another order, so
the truncation, N, N_0 and eps_forcing are those of the head, and the
certificate is unchanged.  The plan admits the window, locates each
x(s - tau_1) in the table and reads the whole correction, whose argument
lies at or below -depth, in phi alone (c >= _tail_floor(s), so tau_{c+1} >=
s + depth); the sweep reads one solution argument per point, one
eval_located gather, so a window costs O(points), not O(points * N).  Per
point the recursion adds at most 4u (|b_1 x| + |rho F(s - delta)| +
|correction|) of rounding and 3u sum |b_i x| for b_{i+1} != rho b_i in
floating point, plus rho times the read mismatch of a point that recurs
within 1e-12 rather than exactly; each period damps the error carried in
by |rho|, so it stays of order u (|b_1 x| + |rho F| + |correction|) /
(1 - |rho|) per point on top of the first period's head rounding.  The
first period, every other family, a window whose points do not recur and a
recursion whose F is not finite (a growing tail's correction can be
0 * inf) read the head, so no problem the head admits is refused.
forcing() always reads the head.

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
from itertools import accumulate
from typing import Optional

import numpy as np

from .coefficients import CoefficientFamily, DivergentTailError, UnknownTailError, m_index, n_index
from .history import HistoryFunction, _delayed_sums, _tail_sums, _truncation, p_seminorm, sup_norm_k
from .numerics import GAUSS4_NODES, GAUSS4_WEIGHTS, eval_located, hermite_coeffs, phi1, piece_index, sup_abs_pieces


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
    from which an extension continues the one-period recursion; it is
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
    return np.maximum(traj.n_origin, taus.searchsorted(points + traj.problem.history.depth, side="left"))


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

    The one-period recursion (_plan_recursion) sums exactly the head's terms
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
    cut into equal sub-steps of at most h, the i-th ending at t_cur + i dt
    and the last at the knot.  A window closes at every multiple of tau_1
    and at t_to, so with h <= tau_1 no delayed argument of a window reaches
    past the node it starts from.
    """
    d = family.delays
    tau1 = d.tau1
    j = math.floor(t_from / tau1 + 1e-12) + 1
    lo, hi = t_from + 1e-12, t_to - 1e-12
    cands = [k * tau1 for k in range(j, math.ceil(hi / tau1) + 1)]
    cands += [d.tau(i) for i in range(d.first_index_at_least(lo), d.first_index_at_least(hi))]
    knots = sorted(v for v in cands if lo < v < hi) + [t_to]
    knots = [v for v, nxt in zip(knots, knots[1:]) if nxt - v > 1e-12] + [t_to]
    windows = []
    ends: list = []
    t_cur = t_from
    for t_next in knots:
        nsub = max(1, math.ceil((t_next - t_cur) / h - 1e-12))
        ends.append(t_cur + np.arange(1.0, nsub + 1) * ((t_next - t_cur) / nsub))
        ends[-1][-1] = t_next
        t_cur = t_next
        if t_next >= j * tau1 - 1e-12 or t_next == t_to:
            windows.append(np.concatenate(ends))
            ends = []
            j += 1
    return windows


def _buffers(traj: Trajectory, ends: np.ndarray) -> tuple:
    """The march's append-only read table and node buffers: traj's data, then the step ends of the march.

    The table (breaks, coeffs) is _table's, phi's core rows and then one row
    per node, whose node part grid and pieces view; every step end is in
    grid from the start, and the rows are filled window by window.  The row
    of the last node holds the pending piece (x, x', 0, 0) while a window's
    forcing is evaluated, so delayed arguments at or just past that node read
    the node data exactly.
    """
    phi = traj.problem.history
    c, n0 = len(phi.coeffs), len(traj.grid)
    total = n0 + len(ends)
    breaks, coeffs = np.empty(c + total), np.empty((c + total, 4))
    breaks[:c], coeffs[:c] = phi.breakpoints[:-1], phi.coeffs
    grid, pieces = breaks[c:], coeffs[c:]
    values, derivs = np.empty(total), np.empty(total)
    grid[:n0], values[:n0], derivs[:n0] = traj.grid, traj.values, traj.derivs
    grid[n0:] = ends
    pieces[: n0 - 1] = traj.pieces
    pieces[n0 - 1] = (values[n0 - 1], derivs[n0 - 1], 0.0, 0.0)
    return breaks, coeffs, grid, values, derivs, pieces


def _store_window(values, derivs, pieces, m: int, steps: np.ndarray) -> int:
    """Write a window's Hermite pieces and the next pending piece.

    The window's node values and slopes must already fill rows m onward.
    Returns the new node count.
    """
    m_new = m + len(steps)
    lo, hi = slice(m - 1, m_new - 1), slice(m, m_new)
    for k, column in enumerate(hermite_coeffs(values[lo], derivs[lo], values[hi], derivs[hi], steps)):
        pieces[lo, k] = column
    pieces[m_new - 1] = (values[m_new - 1], derivs[m_new - 1], 0.0, 0.0)
    return m_new


def _voc_scan(a: float, x: float, dx: float, steps: np.ndarray, points: np.ndarray, f: np.ndarray) -> list:
    """Node values of a window by variation of constants, the integral by the Gauss-4 weights (dx is unused)."""
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


def _plan(traj: Trajectory, windows: list, ends: np.ndarray, nodes: np.ndarray, breaks: np.ndarray, taus, bs, n: int) -> tuple:
    """The grid-only work of every window of a march, in one batch: (entries, state, since).

    A window's entry is (m, steps, points, caps, store, recursion): its
    first node row m; each step's points, start + step * nodes and its end,
    which never repeat; and the caps (_caps) of points.ravel().  store,
    recursion, state and since are _plan_recursion's, or None, None, None
    and 0 without a period (taus holds n delays, not n + 1).
    """
    rows = list(accumulate(map(len, windows), initial=0))
    starts = np.concatenate((traj.grid[-1:], ends[:-1]))
    steps = ends - starts
    points = np.concatenate((starts[:, None] + steps[:, None] * nodes, ends[:, None]), axis=1)
    width = points.shape[1]
    caps = _caps(traj, points.ravel(), taus[:n])
    stores = recursions = [None] * len(windows)
    state, since = None, 0
    if len(taus) > n:
        stores, recursions, state, since = _plan_recursion(traj, rows, points, caps, breaks, taus, bs)
    entries = [
        (len(traj.grid) + r0, steps[r0:r1], points[r0:r1], caps[r0 * width : r1 * width], st, rc)
        for r0, r1, st, rc in zip(rows, rows[1:], stores, recursions)
    ]
    return entries, state, since


def _plan_recursion(traj: Trajectory, rows: list, points: np.ndarray, caps, breaks, taus, bs) -> tuple:
    """The one-period recursion's part of the plan: (stores, recursions, state, since).

    The state arrays (points, F, caps) hold traj's last period, then each
    window's points (points.ravel()) and caps; the sweep writes window w's
    F at the slice stores[w], and the last period starts at since, one
    period (less 1e-9) before the end.  A window's run is the stored points
    from the first at or past its first point - delta - 1e-12 on.
    recursions[w] is None, so the head reads the window, unless the run was
    stored before the window, each run point lies within 1e-12 of its
    point - delta, each cap rose by 0 or 1 and each x(s - tau_1) lies in the
    table.  Else it is (idx, u, corr, run): each x(s - tau_1)'s piece (no
    later than the window's pending row, as a read of the table's prefix)
    and local coordinate, the correction b_{c+1} x(s - tau_{c+1}) where the
    cap stayed (0 where it rose), read from phi alone, and the run's slice.
    """
    phi, delta = traj.problem.history, traj.problem.family.delays.delta
    flat, width = points.ravel(), points.shape[1]
    state = traj._period_state
    if not state or state[0][-1] != traj.horizon:  # no state, or another trajectory's
        state = (np.empty(0), np.empty(0), np.empty(0, dtype=caps.dtype))
    held, first = len(state[0]), [r * width for r in rows]
    counts, heads = np.diff(first), points[rows[:-1], 0]  # each window's point count and first point
    # a solve starts without state: its stored points and caps are the plan's, not copies
    stored = np.concatenate((state[0], flat)) if held else flat
    c_stored = np.concatenate((state[2], caps)) if held else caps
    state = (stored, np.concatenate((state[1], np.empty(len(flat)))), c_stored)
    runs = stored.searchsorted(heads - delta - 1e-12).tolist()
    run = np.arange(len(flat)) + np.array([r - d for r, d in zip(runs, first)]).repeat(counts)
    rise = caps - c_stored.take(run, mode="clip")
    ok = (np.abs(stored.take(run, mode="clip") + delta - flat) <= 1e-12) & ((rise == 0) | (rise == 1))
    ok = np.logical_and.reduceat(ok, first[:-1]).tolist()
    rose = rise != 0
    del run, rise  # the plan's arrays are O(points): free each as soon as it is done with
    # a window's points increase, so its first x(s - tau_1) is its least
    tau1, b0 = float(taus[0]), float(breaks[0])
    recur = [g and r + k <= held + d and h - tau1 >= b0 for g, r, k, d, h in zip(ok, runs, counts.tolist(), first, heads.tolist())]
    stores = [slice(held + d0, held + d1) for d0, d1 in zip(first, first[1:])]
    since = int(stored.searchsorted(flat[-1] - delta - 1e-9))
    if not any(recur):
        return stores, [None] * len(stores), state, since
    u = flat - taus[0]
    idx = piece_index(breaks, len(breaks), u)
    np.minimum(idx, np.array([len(phi.coeffs) + len(traj.grid) - 1 + r for r in rows[:-1]]).repeat(counts), out=idx)
    u -= breaks[idx]
    corr = np.zeros(len(flat))
    if not rose.all():
        corr = phi.read(phi.breakpoints, phi.coeffs, flat - taus[caps])
        corr *= bs[caps]  # a growing tail can overflow here and give 0 * inf: that window reads the head
        corr[rose] = 0.0
    recursions = [
        (idx[d0:d1], u[d0:d1], corr[d0:d1], slice(r, r + d1 - d0)) if rec else None
        for rec, d0, d1, r in zip(recur, first, first[1:], runs)
    ]
    return stores, recursions, state, since


def _march(traj: Trajectory, t_end: float, n_forcing: int, delayed_values, nodes: np.ndarray, scan) -> Trajectory:
    """traj marched on from its horizon to t_end at forcing index n_forcing: a plan, then a sweep.

    The plan (_plan) does the grid-only work of every window at once.  The
    sweep does the work that needs x, a window at a time: F at its points,
    one value each, by the recursion from one eval_located gather where the
    plan admits it and F is finite, else by the head (_delayed_sums) on the
    prefix of the table (_buffers) that holds the window's nodes, read by
    the caller's own delayed_values; then scan(a, x, dx, steps, points, f),
    the node values from the last node's value x and slope dx, the slopes
    and the Hermite pieces.  The last period's points, F and caps ride on
    the trajectory as _period_state.
    """
    problem = traj.problem
    a, rho = problem.a, problem.family.rho
    n, period = n_forcing, _period(problem.family)
    taus = problem.family.delays.tau_array(n + (period > 0))
    bs = problem.family.b_array(n + (period > 0))
    tail_sums = _tail_sums(problem.history, problem.family, taus[:n], bs[:n])
    windows = _substeps(traj.horizon, t_end, problem.family, traj.h_used)
    ends = np.concatenate(windows)
    breaks, coeffs, grid, values, derivs, pieces = _buffers(traj, ends)
    c = len(breaks) - len(grid)
    # every value that is not finite is named: a recursion's F (a growing tail's correction can be
    # 0 * inf) goes to the head, the head raises UnknownTailError and an overflow below names its time
    with np.errstate(over="ignore", invalid="ignore"):
        plan, state, since = _plan(traj, windows, ends, nodes, breaks, taus, bs, n)
        for m, steps, points, caps, store, located in plan:
            f = None
            if located is not None:
                idx, u, corr, run = located
                f = eval_located(coeffs, idx, u)
                f *= bs[0]
                f += rho * state[1][run]
                f -= corr
                if not np.isfinite(f).all():
                    f = None
            if f is None:
                values_at = partial(delayed_values, problem.history, breaks[: c + m], coeffs[: c + m])
                f = _delayed_sums(values_at, problem.history, points.ravel(), taus[:n], bs[:n], tail_sums, caps)
            if store is not None:
                state[1][store] = f
            f = f.reshape(points.shape)
            new = slice(m, m + len(steps))
            values[new] = scan(a, float(values[m - 1]), float(derivs[m - 1]), steps, points, f)
            derivs[new] = a * values[new] + f[:, -1]
            m_new = _store_window(values, derivs, pieces, m, steps)
            # each new piece holds its node's value and slope and, in c2 and c3, the next node's
            if not np.isfinite(pieces[m - 1 : m_new]).all():
                row = np.isfinite(pieces[m - 1 : m_new]).all(axis=1).argmin()
                raise OverflowError(f"the solution leaves the floating-point range after t = {grid[m - 1 + row]}")
    state = (state[0][since:].copy(), state[1][since:].copy(), state[2][since:].copy()) if state else ()
    return replace(
        traj, grid=grid, values=values, derivs=derivs, pieces=pieces[:-1], n_forcing=n_forcing, _period_state=state
    )


def _advance(start, t_end: float, n_forcing: int) -> Trajectory:
    """The trajectory start() marched on to t_end at forcing index n_forcing, by variation of constants under the Gauss-4 rule.

    A delayed sum that is not finite in floating point, solve's F(0) in
    start() included, refuses the history with NotInPhaseSpaceError.
    """
    try:
        return _march(start(), t_end, n_forcing, _delayed_values, GAUSS4_NODES, _voc_scan)
    except UnknownTailError as exc:
        raise NotInPhaseSpaceError(str(exc)) from exc


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
    return _advance(partial(_start, problem, config, n_forcing, n_origin, h, eps_f), horizon, n_forcing)


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
    return _advance(lambda: traj, target, n_forcing)


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
