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
each other and cuts the march into tau_1-windows of sub-steps.  It
refuses, with ValueError and before any list is built, a march of more
than history._MAX_CORE_PIECES steps: they are rows of one read table, as
a core's pieces are.

The march (_march) is a plan and a sweep.  It appends to its chain's
buffers (_Chain): one read table (phi's core rows, then a row per node,
the step ends written from the start), whose node rows hold the node
values and slopes in columns 0 and 1, so the scan writes them in place,
and one family array pair, with the tail moment built only when a head
window reads it.  A solve starts a chain, and step_interval from the
chain's latest trajectory appends to it in place, so an extension costs
O(window), not O(trajectory); any other parent copies itself once into a
chain of its own (_chain).  A trajectory is read-only views of the
buffers it was marched in, and a copy of its march's last period.  A
march from _start's one node at t = 0 reads that node's slope
a phi(0) + F(0) with F(0) a head point of these arrays, forcing(traj, 0.0)
bit for bit.  The mesh is fixed before any value of x is known and the
delays are constant, so the plan (_plan) does every computation that
depends on the grid alone, for all windows in one pass: the steps' powers
dt, dt**2 and dt**3 (numerics.hermite_steps, which refuses a step whose
cube is not a normal float once per march, before any row is written),
each window's points (start + dt * nodes and the step ends, interior
nodes only, so no point repeats) and their caps (_caps), the scan's grid
part, and the one-period recursion's reads below.  The sweep runs the
windows in order and keeps only the arithmetic that needs x, one F per
point.  Every delay is at least tau_1, so F on the window
[k tau_1, (k+1) tau_1] reads x only on (-inf, k tau_1]; a scan turns F
into the window's node values, the slopes a x + F at the step ends are
formed in place, and numerics.hermite_terms fits the pieces from the
planned powers.  A scan is a pair that shares no code with the other:
_voc_scan, variation of constants under the Gauss-4 weights for solve and
step_interval, whose grid part (_voc_grid) holds the steps as floats and
e^{a(t_end - s)} at every Gauss point, so only e^{a dt} of the running
value is left to its loop; and the oracle's RK4 scan, whose grid part is
its steps as floats and whose first stage reads the node's slope.  While a
window's F is evaluated, the table's row after the last node holds the
pending piece (x, x', 0, 0), so an argument at that node, or one rounding
step past it, reads the node data exactly as a finished piece would.

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
eval_located row gather, and forms F in place in the period state, so a
window costs O(points), not O(points * N).  Per
point the recursion adds at most 4u (|b_1 x| + |rho F(s - delta)| +
|correction|) of rounding and 3u sum |b_i x| for b_{i+1} != rho b_i in
floating point, plus rho times the read mismatch of a point that recurs
within 1e-12 rather than exactly; each period damps the error carried in
by |rho|, so it stays of order u (|b_1 x| + |rho F| + |correction|) /
(1 - |rho|) per point on top of the first period's head rounding.  The
first period, every other family, a window whose points do not recur and a
recursion whose F is not finite (a growing tail's correction can be
0 * inf) read the head, so no problem the head admits is refused.
forcing() always reads the head, from the trajectory's read table, with
family arrays and a tail moment of its own.

Admission is one certificate: solve and step_interval accept a history
exactly when the forcing truncation N is certified (history._truncation),
which proves phi in F, every p_k finite (see solve), so no p_k is evaluated.
solve also certifies N_0; that fails only where a closed-form tail's
enclosure fits eps at the horizon's floor but not at F(0)'s.  Every refusal
is a NotInPhaseSpaceError whose subclass says why: DivergentTailError for a
series certified divergent, UnknownTailError for one that cannot be
certified or a forcing that is not finite in floating point (a term
overflows where its b_i underflows).  A solution leaving the floating-point
range raises OverflowError with the time; a march too long to hold, or a
step whose cube is not a normal float, raises ValueError before the sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate
from typing import Optional

import numpy as np

from .coefficients import CoefficientFamily, DivergentTailError, UnknownTailError, m_index, n_index
from .history import _MAX_CORE_PIECES, HistoryFunction, _delayed_sums, _seminorms, _sup_norms, _tail_sums, _truncation, _window_index, sup_norm_k
from .numerics import GAUSS4_NODES, GAUSS4_WEIGHTS, eval_located, hermite_steps, hermite_terms, phi1, piece_index, sup_abs_pieces


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
    _period_state holds read-only copies of the march's (points, F, caps)
    of the last period, from which an extension continues the one-period
    recursion; it is march state and reaches no report.  A marched
    trajectory's node arrays are read-only views of its chain's buffers:
    _chain is the chain (_Chain) and _read the read table (breaks, coeffs)
    of phi's core rows and the pieces.  A trajectory built by its
    constructor, such as a dataclasses.replace copy, has neither until it
    is read or extended, and then copies its own fields into a chain of
    its own.
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
    _chain: Optional["_Chain"] = field(default=None, init=False, repr=False)
    _read: tuple = field(default=(), init=False, repr=False)

    @property
    def horizon(self) -> float:
        return float(self.grid[-1])

    def eval(self, t):
        th = np.asarray(t, dtype=float)
        if not (th <= self.horizon + 1e-9).all():  # NaN fails too
            raise ValueError(f"evaluation beyond horizon {self.horizon}: max t={th.max()}")
        phi = self.problem.history
        out = _delayed_values(phi, *(self._read or _chain(self, 0).read()), np.minimum(np.atleast_1d(th), self.horizon))
        return float(out[0]) if th.ndim == 0 else out

    def to_json_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "grid": self.grid.tolist(),
            "values": self.values.tolist(),
            "derivs": self.derivs.tolist(),
        }


def _read_only(*arrays: np.ndarray) -> tuple:
    """A read-only view of each array: every slice of one is read-only too."""
    views = tuple(arr.view() for arr in arrays)
    for view in views:
        view.setflags(write=False)
    return views


def _grown(arr: np.ndarray, used: int, size: int) -> np.ndarray:
    """A new buffer of size rows that starts with arr's first used rows."""
    out = np.empty((size, *arr.shape[1:]), arr.dtype)
    out[:used] = arr[:used]
    return out


class _Chain:
    """The buffers a step_interval chain appends to: the read table and the family arrays.

    The table (breaks, coeffs) is phi's core rows, then one row per node:
    a piece starts at its node's value and slope, so columns 0 and 1 of a
    node row hold the node's value and slope, and the last node's row is
    the pending piece (x, x', 0, 0) while a window's forcing is evaluated:
    delayed arguments at or just past that node read the node data exactly.
    rows counts the tip's rows (the tip is the chain's latest trajectory).
    A march writes past them and sets rows only when it succeeds, so one
    that raised leaves the tip as it was.  taus and bs hold at least
    the delays and coefficients any march read, moment the tail moment of
    the last n a head read, and period the family's _period.  A full
    table or family array grows to twice its size.  Trajectories hold
    slices of read-only views (frozen) of the buffers they were marched
    in, which no march writes again.  The one-period recursion's state is
    not the chain's: it is O(window), so each march stacks its own
    (_plan_recursion) and gives its trajectory the last period.
    """

    def __init__(self, traj: Trajectory, rows: int):
        phi = traj.problem.history
        c, n0 = len(phi.coeffs), len(traj.grid)
        self.breaks, self.coeffs = np.empty(c + n0 + rows), np.empty((c + n0 + rows, 4))
        self.breaks[:c], self.breaks[c : c + n0] = phi.breakpoints[:-1], traj.grid
        self.coeffs[:c], self.coeffs[c : c + n0 - 1] = phi.coeffs, traj.pieces
        self.coeffs[c + n0 - 1, :2] = traj.values[-1], traj.derivs[-1]
        self.frozen, self.core, self.rows = _read_only(self.breaks, self.coeffs), c, c + n0
        self.taus = self.bs = np.empty(0)
        self.moment, self.period = (-1, None), _period(traj.problem.family)

    def read(self) -> tuple:
        """The tip's read table (breaks, coeffs): phi's core rows, then the pieces."""
        return self.frozen[0][: self.rows], self.frozen[1][: self.rows - 1]

    def nodes(self) -> tuple:
        """The tip's (grid, values, derivs, pieces)."""
        grid, rows = self.frozen[0][self.core : self.rows], self.frozen[1][self.core : self.rows]
        return grid, rows[:, 0], rows[:, 1], rows[:-1]

    def family_arrays(self, family: CoefficientFamily, n: int) -> tuple:
        """The first n delays and coefficients; an entry does not depend on how many are built."""
        if len(self.taus) < n:
            # an explicit list may hold no more coefficients than it stores
            size = n if family.kind == "explicit-list" else max(n, 2 * len(self.taus))
            self.taus, self.bs = family.delays.tau_array(size), family.b_array(size)
        return self.taus[:n], self.bs[:n]

    def tail_sums(self, phi: HistoryFunction, family: CoefficientFamily, n: int):
        """history._tail_sums over the first n delays, built when a head first reads it."""
        if self.moment[0] != n:
            self.moment = (n, _tail_sums(phi, family, self.taus[:n], self.bs[:n]))
        return self.moment[1]

    def extend(self, ends: list) -> tuple:
        """The table with a row per step end after the tip's: (breaks, coeffs), cubic terms 0 from the tip's last row."""
        r0 = self.rows
        r1 = r0 + sum(map(len, ends))
        if r1 > len(self.breaks):
            size = max(r1, 2 * len(self.breaks))
            self.breaks, self.coeffs = _grown(self.breaks, r0, size), _grown(self.coeffs, r0, size)
            self.frozen = _read_only(self.breaks, self.coeffs)
        np.concatenate(ends, out=self.breaks[r0:r1])
        self.coeffs[r0 - 1 : r1, 2:] = 0.0  # a march that raised may have written them
        return self.breaks[:r1], self.coeffs[:r1]


def _chain(traj: Trajectory, rows: int) -> _Chain:
    """The chain traj extends in place: its own when traj is the tip, else a new one, a copy of traj with room for rows more nodes.

    An older trajectory of a chain, a second child's parent or a
    trajectory built outside a march thus copies once and starts a chain
    of its own, and no extension writes where another trajectory reads.
    """
    chain = traj._chain
    if chain is None or chain.rows != chain.core + len(traj.grid):
        chain = _Chain(traj, rows)
        object.__setattr__(traj, "_chain", chain)
        object.__setattr__(traj, "_read", traj._read or chain.read())
    return chain


def _delayed_values(phi: HistoryFunction, breaks: np.ndarray, coeffs: np.ndarray, args: np.ndarray) -> np.ndarray:
    """x at the 1-d array args, read (phi.read) from a trajectory's read table or a prefix of a march's."""
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
    certifies.  Each call reads traj's read table (_read) and builds its
    own family arrays and tail moment; the march does not call it, and
    reads F(0) for the start slope from its chain's arrays, as the same
    head sum.  Under a closed-form tail
    (history._zeta_tail) every delay past n must reach phi's tail from t, as
    it does past an index certified for t's reach.  Valid for t in [0, horizon]; a later t raises
    ValueError, as Trajectory.eval does.  t is a time (the result is a
    float) or an array of times, evaluated as one (points x N) batch whose
    entries equal the scalar results bit for bit.
    """
    prob, phi = traj.problem, traj.problem.history
    ts = np.asarray(t, dtype=float)
    if not (ts <= traj.horizon + 1e-9).all():  # NaN fails too
        raise ValueError(f"forcing beyond horizon {traj.horizon}: max t={ts.max()}")
    n_max = traj.n_forcing if n is None else n
    taus, bs = prob.family.delays.tau_array(n_max), prob.family.b_array(n_max)
    out = _delayed_sums(
        partial(_delayed_values, phi, *(traj._read or _chain(traj, 0).read())), phi, ts.ravel(), taus, bs,
        _tail_sums(phi, prob.family, taus, bs), _caps(traj, ts.ravel(), taus) if n is None else n,
    )
    return float(out[0]) if ts.ndim == 0 else out.reshape(ts.shape)


def _substeps(t_from: float, t_to: float, family: CoefficientFamily, h: float) -> list[np.ndarray]:
    """Sub-step end times in (t_from, t_to], one array per tau_1-window.

    The knots are the multiples of tau_1 and the delays tau_i strictly
    inside (t_from, t_to) by more than 1e-12, sorted, then t_to; a knot is
    kept only when the next one lies more than 1e-12 past it, so of a
    cluster the last point stays (t_to wins ties).  Each knot interval is
    cut into equal sub-steps of at most h, the i-th ending at t_cur + i dt
    and the last at the knot.  A window closes at every multiple of tau_1
    and at t_to, so with h <= tau_1 no delayed argument of a window reaches
    past the node it starts from.  A march of more than _MAX_CORE_PIECES
    steps (history's cap on a core: the steps are pieces of the same read
    table) raises ValueError before any list is built: each knot interval
    takes at most its length / h + 1 steps, so the count is at most
    (t_to - t_from) / h plus one more than the knot candidates.
    """
    d = family.delays
    tau1 = d.tau1
    j = math.floor(t_from / tau1 + 1e-12) + 1
    lo, hi = t_from + 1e-12, t_to - 1e-12
    i_lo, i_hi = d.first_index_at_least(lo), d.first_index_at_least(hi)
    count = (t_to - t_from) / h + max(0.0, hi / tau1 - j + 2) + (i_hi - i_lo) + 1
    if not count <= _MAX_CORE_PIECES:  # NaN and inf fail too
        raise ValueError(f"a march from t = {t_from} to {t_to} in steps of at most h = {h} takes up to {count:.4g} steps, more than {_MAX_CORE_PIECES}")
    cands = [k * tau1 for k in range(j, math.ceil(hi / tau1) + 1)]
    cands += [d.tau(i) for i in range(i_lo, i_hi)]
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
            windows.append(ends[0] if len(ends) == 1 else np.concatenate(ends))
            ends = []
            j += 1
    return windows


def _store_window(values, derivs, pieces, m: int, steps: tuple) -> int:
    """Complete a window's Hermite pieces, whose node values and slopes (columns 0 and 1) fill rows m onward.

    values and derivs view those columns and steps is the window's slice of
    the plan's hermite_steps (dt, dt**2, dt**3); the cubic terms
    (hermite_terms) go to columns 2 and 3 of rows m - 1 onward, and the new
    last row stays the pending piece.  Returns the new node count.
    """
    m_new = m + len(steps[0])
    lo, hi = slice(m - 1, m_new - 1), slice(m, m_new)
    pieces[lo, 2], pieces[lo, 3] = hermite_terms(values[lo], derivs[lo], values[hi], derivs[hi], steps)
    return m_new


def _voc_grid(a: float, steps: np.ndarray, points: np.ndarray) -> tuple:
    """_voc_scan's grid part of a whole march: the steps as floats and e^{a(t_end - s)} at each step's Gauss points s."""
    return steps.tolist(), np.exp(a * (points[:, -1:] - points[:, :-1]))


def _voc_scan(a: float, x: float, dx: float, grid: tuple, rows: slice, f: np.ndarray) -> list:
    """Node values of a window by variation of constants, the integral by the Gauss-4 weights (dx is unused).

    grid is the march's _voc_grid and rows the window's steps in it; only
    e^{a dt} of the running value is left to the loop.
    """
    steps, decay = grid
    quad = np.vecdot(decay[rows] * f[:, :-1], GAUSS4_WEIGHTS)
    return [x := x * math.exp(a * step) + step * q for step, q in zip(steps[rows], quad.tolist())]


#: the variation-of-constants scan of solve and step_interval: (its points' nodes in a step, its grid part, the scan)
_VOC = (GAUSS4_NODES, _voc_grid, _voc_scan)


def _period(family: CoefficientFamily) -> int:
    """P when F obeys the one-period recursion: b_i = beta rho^i on tau_i = c + i delta, delta = P tau_1; else 0."""
    d = family.delays
    if family.kind != "geometric" or d.prefix:
        return 0
    p = round(d.delta / d.tau1)
    return p if p >= 1 and abs(p * d.tau1 - d.delta) <= 1e-12 else 0


def _plan(traj: Trajectory, windows: list, ends: np.ndarray, scan: tuple, breaks: np.ndarray, taus, bs, n: int) -> tuple:
    """The grid-only work of every window of a march, in one batch: (entries, grid, state, since).

    scan is the march's (nodes, grid part, scan), and grid the grid part of
    the march's steps and points.  The steps' powers are hermite_steps'
    (dt, dt**2, dt**3), computed once, so a step without a normal cube is
    refused here, before the sweep writes a row.  A window's entry is
    (m, rows, steps, points, caps, store, recursion): its first node row m;
    the slice rows of its steps in the march; its slices of the powers;
    each step's points, start + dt * nodes and its end, which never repeat;
    and the caps (_caps) of points.ravel().  store, recursion, state and
    since are _plan_recursion's, or None, None, None and 0 without a period
    (taus holds n delays, not n + 1).
    """
    nodes, scan_grid, _ = scan
    rows = list(accumulate(map(len, windows), initial=0))
    starts = breaks[len(breaks) - len(ends) - 1 : -1]  # the march's table ends with traj's last node, then ends
    dt, dt2, dt3 = hermite_steps(starts, ends)
    points = np.concatenate((starts[:, None] + dt[:, None] * nodes, ends[:, None]), axis=1)
    width = points.shape[1]
    caps = _caps(traj, points.ravel(), taus[:n])
    stores = recursions = [None] * len(windows)
    state, since = None, 0
    if len(taus) > n:
        stores, recursions, state, since = _plan_recursion(traj, rows, points, caps, breaks, taus, bs)
    entries = [
        (len(traj.grid) + r0, (rs := slice(r0, r1)), (dt[rs], dt2[rs], dt3[rs]), points[rs], caps[r0 * width : r1 * width], st, rc)
        for r0, r1, st, rc in zip(rows, rows[1:], stores, recursions)
    ]
    return entries, scan_grid(traj.problem.a, dt, points), state, since


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
    state, last = (flat, np.empty(len(flat)), caps), traj._period_state
    if last and last[0][-1] == traj.horizon:  # traj's own last period, not another trajectory's (a solve's stack is the plan's arrays)
        state = tuple(map(np.concatenate, zip(last, state)))
    stored, _, c_stored = state
    held, first = len(stored) - len(flat), [r * width for r in rows]
    counts, heads = [d1 - d0 for d0, d1 in zip(first, first[1:])], points[:, 0][rows[:-1]]  # each window's point count and first point
    runs = stored.searchsorted(heads - delta - 1e-12).tolist()
    run = np.arange(len(flat)) + np.array([r - d for r, d in zip(runs, first)]).repeat(counts)
    rise = caps - c_stored.take(run, mode="clip")
    ok = (np.abs(stored.take(run, mode="clip") + delta - flat) <= 1e-12) & ((rise == 0) | (rise == 1))
    ok = np.logical_and.reduceat(ok, first[:-1]).tolist()
    rose = rise != 0
    del run, rise  # the plan's arrays are O(points): free each as soon as it is done with
    # a window's points increase, so its first x(s - tau_1) is its least
    tau1, b0 = float(taus[0]), float(breaks[0])
    recur = [g and r + k <= held + d and h - tau1 >= b0 for g, r, k, d, h in zip(ok, runs, counts, first, heads.tolist())]
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


# every value that is not finite is named: a recursion's F (a growing tail's correction can be
# 0 * inf) goes to the head, the head raises UnknownTailError and an overflow names its time
@np.errstate(over="ignore", invalid="ignore")
def _march(traj: Trajectory, t_end: float, n_forcing: int, delayed_values, scan: tuple) -> Trajectory:
    """traj marched on from its horizon to t_end at forcing index n_forcing: a plan, then a sweep.

    scan is (nodes, grid part, scan): the points' nodes in a step, and the
    two halves of a scan (_VOC, or the oracle's RK4).  The plan (_plan)
    does the grid-only work of every window at once, the step powers and
    the scan's grid part included.  The sweep keeps only the work that
    needs x, a window at a time: F at its points, one value each, by the
    recursion from one eval_located row gather, formed in place in the
    period state, where the plan admits it and F is finite, else by the
    head (_delayed_sums) on the prefix of the chain's table (_Chain.extend)
    that holds the window's nodes, read by the caller's own delayed_values;
    then scan(a, x, dx, grid, rows, f), the node values from the last
    node's value x and slope dx, the march's grid part and the window's
    steps rows in it; the slopes a x + F in place; and the Hermite pieces
    from the planned powers (_store_window).  Read-only copies of the last
    period's points, F and caps ride on the trajectory as _period_state.
    """
    problem, phi = traj.problem, traj.problem.history
    a, rho = problem.a, problem.family.rho
    n = n_forcing
    windows = _substeps(traj.horizon, t_end, problem.family, traj.h_used)
    chain = _chain(traj, sum(map(len, windows)))
    taus, bs = chain.family_arrays(problem.family, n + (chain.period > 0))
    breaks, coeffs = chain.extend(windows)
    c, n0 = len(phi.coeffs), len(traj.grid)
    grid, pieces = breaks[c:], coeffs[c:]
    values, derivs = pieces[:, 0], pieces[:, 1]
    if n0 == 1:  # _start's node: its slope a phi(0) + F(0), F(0) read as a head point of these arrays
        values_at = partial(delayed_values, phi, breaks[: c + 1], coeffs[: c + 1])
        derivs[0] = a * values[0] + _delayed_sums(values_at, phi, grid[:1], taus[:n], bs[:n], chain.tail_sums(phi, problem.family, n), _caps(traj, grid[:1], taus[:n]))[0]
    plan, scan_grid, state, since = _plan(traj, windows, grid[n0:], scan, breaks, taus, bs, n)
    window_scan = scan[2]
    for m, rows, steps, points, caps, store, located in plan:
        f = None
        if located is not None:
            idx, u, corr, run = located
            f = np.multiply(state[1][run], rho, state[1][store])
            head = eval_located(coeffs, idx, u)
            head *= bs[0]
            f += head
            f -= corr
            if not np.isfinite(f).all():
                f = None
        if f is None:
            values_at = partial(delayed_values, phi, breaks[: c + m], coeffs[: c + m])
            f = _delayed_sums(values_at, phi, points.ravel(), taus[:n], bs[:n], chain.tail_sums(phi, problem.family, n), caps)
            if store is not None:
                state[1][store] = f
        f = f.reshape(points.shape)
        new = slice(m, m + len(steps[0]))
        values[new] = window_scan(a, float(values[m - 1]), float(derivs[m - 1]), scan_grid, rows, f)
        slopes = np.multiply(values[new], a, derivs[new])
        slopes += f[:, -1]
        m_new = _store_window(values, derivs, pieces, m, steps)
        # each new piece holds its node's value and slope and, in c2 and c3, the next node's
        if not np.isfinite(pieces[m - 1 : m_new]).all():
            row = np.isfinite(pieces[m - 1 : m_new]).all(axis=1).argmin()
            raise OverflowError(f"the solution leaves the floating-point range after t = {grid[m - 1 + row]}")
    chain.rows = len(breaks)
    state = _read_only(*(arr[since:].copy() for arr in state)) if state else ()
    # Trajectory's fields in order: a direct call, as dataclasses.replace costs twice as much
    out = Trajectory(problem, traj.config, *chain.nodes(), n_forcing,
                     traj.n_origin, traj.h_used, traj.eps_forcing_used, state)
    object.__setattr__(out, "_chain", chain)
    object.__setattr__(out, "_read", chain.read())
    return out


def _start(problem: ProblemSpec, config: SolverConfig, n_forcing: int, n_origin: int, h: float, eps_f: float) -> Trajectory:
    """The one-node trajectory at t = 0, x(0) = phi(0); _march gives it its slope x'(0) = a phi(0) + F(0)."""
    phi = problem.history
    return Trajectory(
        problem=problem,
        config=config,
        grid=np.zeros(1),
        values=phi.read(phi.breakpoints, phi.coeffs, np.zeros(1)),
        derivs=np.zeros(1),
        pieces=np.zeros((0, 4)),
        n_forcing=n_forcing,
        n_origin=n_origin,
        h_used=h,
        eps_forcing_used=eps_f,
    )


def solve(problem: ProblemSpec, horizon: float, config: Optional[SolverConfig] = None) -> Trajectory:
    """Integrate the problem on [0, horizon] once its forcing truncation is certified.

    The forcing index N on [0, horizon] (history._truncation) is the
    solver's one admission test; a refusal is _truncation's
    DivergentTailError or UnknownTailError, both NotInPhaseSpaceErrors.
    Success proves phi in F, p_k(phi) < inf for every k, so no p_k is
    evaluated.  Past _tail_floor(phi, family, k tau_1) every window of p_k
    lies in phi's tail, where the atoms (s, w) bound |phi(t - tau_i)| for
    t >= 0 by sum s w(-tau_i) (weights do not decrease into the past); that
    part of p_k is at most sum s tail_sum_bound(family, w, n) with n past
    the floor.  Whether this
    is finite depends on neither n nor k, and each of the finitely many
    terms below the floor is finite.

    The one-period recursion (_plan_recursion) sums exactly the head's terms
    i <= max(N_0, _tail_floor(s)), so this index certifies its F too:
    the discarded part is the same and no second certificate exists.  Its
    rounding, of order u (|b_1 x| + |rho F| + |correction|) / (1 - |rho|)
    per point, is bounded in the module docstring, outside eps_forcing.
    """
    if not (0.0 < horizon < math.inf):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    config = config if config is not None else SolverConfig()
    tau1 = problem.family.delays.tau1
    h = min(config.h if config.h is not None else tau1 / 40.0, tau1)
    eps_f = config.eps_forcing if config.eps_forcing is not None else 1e-10 * max(1.0, sup_norm_k(problem.history, 1))
    n_forcing = _truncation(problem.history, problem.family, horizon, eps_f)[0]
    n_origin = _truncation(problem.history, problem.family, 0.0, eps_f)[0]
    start = _start(problem, config, n_forcing, n_origin, h, eps_f)
    return _march(start, horizon, n_forcing, _delayed_values, _VOC)


def step_interval(traj: Trajectory, k: int) -> Trajectory:
    """Trajectory extended through the window [k*tau_1, (k+1)*tau_1].

    Returns traj unchanged when it already covers the window.  Otherwise
    certifies the forcing truncation for the longer horizon at traj's eps
    and marches the remaining span with that index; where it deepens, the
    nodes already computed stand, as each point's index is its own (_caps).
    The one-period recursion continues from traj's _period_state, so the
    nodes are those of one solve to the end.  From its chain's latest
    trajectory it appends to the chain's buffers, in O(window); from any
    other it copies traj once first (_chain).  It refuses as solve does.
    An oracle_solve trajectory records no forcing eps (0.0) and is refused:
    extending it here would not be the RK4 reference.  k must be an integer
    >= 0 (numpy integers pass, as operator.index reads them).
    """
    k = _window_index(k, 0)
    if not traj.eps_forcing_used > 0.0:
        raise ValueError("step_interval extends solve trajectories only, not oracle_solve ones")
    problem = traj.problem
    target = (k + 1) * problem.family.delays.tau1
    if target <= traj.horizon + 1e-12:
        return traj
    n_forcing = _truncation(problem.history, problem.family, target, traj.eps_forcing_used)[0]
    return _march(traj, target, n_forcing, _delayed_values, _VOC)


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
    """Build and check the window-k a-priori certificate along traj; k is an integer >= 1 (numpy integers pass)."""
    k = _window_index(k)
    fam, phi, a = traj.problem.family, traj.problem.history, traj.problem.a
    tau1 = fam.delays.tau1
    if traj.horizon < k * tau1 - 1e-9:
        raise ValueError(
            f"trajectory covers [0, {traj.horizon}] but the certificate needs [0, {k * tau1}]"
        )
    eps = traj.config.eps_tail_seminorm
    p_up = []
    for j, sv in enumerate(_seminorms(phi, fam, range(1, k + 1), eps), 1):
        if sv.verdict == "divergent":
            raise DivergentTailError(f"p_{j} is certified divergent; no estimate exists")
        if sv.verdict == "inconclusive":
            raise UnknownTailError(f"p_{j} cannot be certified; no estimate is available")
        p_up.append(sv.upper())

    ms = [m_index(fam, j) for j in range(2, k + 1)]
    sup = dict(zip([1, *ms], _sup_norms(phi, [1, *ms])))  # first-use order
    levels = [("sup_norm[1]", sup[1]), *((f"p[{j}]", p) for j, p in enumerate(p_up, 1))]
    levels += [(f"sup_norm[{m}]", v) for m, v in sup.items() if m != 1]

    running = math.exp(max(a, 0.0) * tau1) * sup[1] + phi1(a, tau1) * p_up[0]
    b_chain = [running]
    for j, mj in enumerate(ms, 2):
        s_j = fam.head_abs_sum(n_index(fam, j))
        b_j = math.exp(max(a, 0.0) * (j - 1) * tau1) * running + j * phi1(a * j, tau1) * (s_j * max(sup[mj], running) + p_up[j - 1])
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
