"""Shared builders for the test suite.

Random histories are piecewise-cubic Hermite cores with a constant
extension, so every seminorm they enter has an exact, certifiable tail.
Random families stay inside the certified kinds with enough coefficient
mass to make the dynamics non-trivial.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import infidelay as fd
from infidelay.numerics import hermite_coeffs

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def _empty_zeta_memo():
    """Each test starts with an empty process-wide hurwitz_zeta memo, so no call count depends on test order."""
    fd.coefficients.hurwitz_zeta.cache_clear()


def random_core_history(rng: np.random.Generator, depth: float = 6.0, res: float = 0.5, amp: float = 2.0) -> fd.HistoryFunction:
    """Random C^1 piecewise-cubic history on [-depth, 0], constant beyond."""
    bps = np.arange(-depth, 0.0 + 1e-9, res)
    vals = rng.uniform(-amp, amp, size=len(bps))
    slopes = rng.uniform(-amp, amp, size=len(bps))
    coeffs = np.array(
        [
            hermite_coeffs(vals[j], slopes[j], vals[j + 1], slopes[j + 1], res)
            for j in range(len(bps) - 1)
        ]
    )
    return fd.HistoryFunction(bps, coeffs, fd.ConstantTail(vals[0]))


def random_family(rng: np.random.Generator) -> fd.CoefficientFamily:
    """Random finite-support or geometric family with mass >= 0.05."""
    delta = rng.uniform(0.5, 1.5)
    c = rng.uniform(0.0, 0.5)
    ds = fd.DelaySchedule(c=c, delta=delta)
    if rng.random() < 0.5:
        n = int(rng.integers(1, 4))
        coeffs = rng.uniform(-0.8, 0.8, size=n)
        if np.sum(np.abs(coeffs)) < 0.05:
            coeffs[0] = 0.3
        return fd.CoefficientFamily.finite_support(list(coeffs), ds)
    beta = rng.uniform(0.1, 1.0) * rng.choice([-1.0, 1.0])
    rho = rng.uniform(0.1, 0.7) * rng.choice([-1.0, 1.0])
    return fd.CoefficientFamily.geometric(float(beta), float(rho), ds)


BOUNDED_PRESETS = ("constant", "cos", "exp-decay", "linear")


def random_problem(rng: np.random.Generator) -> fd.ProblemSpec:
    """Random solvable problem: certified family, bounded history, |a| <= 1."""
    fam = random_family(rng)
    a = float(rng.uniform(-1.0, 1.0))
    if rng.random() < 0.5:
        phi = fd.history_preset(BOUNDED_PRESETS[int(rng.integers(0, len(BOUNDED_PRESETS)))])
    else:
        phi = random_core_history(rng)
    return fd.ProblemSpec(a, fam, phi)


def oracle_scenarios() -> list[fd.ProblemSpec]:
    """Ten mixed finite-support / geometric problems for solver-vs-reference runs."""
    DS = fd.DelaySchedule
    CF = fd.CoefficientFamily
    rows = [
        (0.0, CF.finite_support([-1.0], DS()), "constant"),
        (0.1, CF.finite_support([-0.5], DS()), "cos"),
        (-0.5, CF.finite_support([0.4, -0.2], DS(delta=0.8)), "exp-decay"),
        (0.1, CF.finite_support([0.15], DS()), "linear"),
        (0.0, CF.geometric(0.5, 0.5, DS()), "constant"),
        (-1.0, CF.geometric(0.6, 0.4, DS(delta=0.5)), "cos"),
        (0.1, CF.geometric(0.3, 0.6, DS()), "exp-decay"),
        (0.0, CF.geometric(-0.8, 0.5, DS()), "constant"),
        (0.1, CF.geometric(0.5, -0.5, DS()), "linear"),
        (0.05, CF.finite_support([-0.6, 0.2, 0.1], DS(delta=0.7)), "cos"),
    ]
    return [fd.ProblemSpec(a, fam, fd.history_preset(p)) for a, fam, p in rows]


def semigroup_scenarios() -> list[fd.ProblemSpec]:
    """Five problems used by the semigroup-property sweeps."""
    DS = fd.DelaySchedule
    CF = fd.CoefficientFamily
    rows = [
        (0.0, CF.finite_support([-1.0], DS()), "constant"),
        (0.1, CF.finite_support([-0.5], DS()), "cos"),
        (-0.5, CF.finite_support([0.4, -0.2], DS(delta=0.8)), "exp-decay"),
        (0.0, CF.geometric(0.5, 0.5, DS()), "constant"),
        (0.1, CF.geometric(0.3, 0.6, DS()), "exp-decay"),
    ]
    return [fd.ProblemSpec(a, fam, fd.history_preset(p)) for a, fam, p in rows]


def classic_problem() -> fd.ProblemSpec:
    """x'(t) = -x(t-1) started from the constant-one history."""
    fam = fd.CoefficientFamily.finite_support([-1.0], fd.DelaySchedule())
    return fd.ProblemSpec(0.0, fam, fd.history_preset("constant"))


def classic_exact(t: float) -> float:
    """Analytic method-of-steps solution of x' = -x(t-1), phi = 1, on [-inf, 3].

    Integrating x'(t) = -x(t-1) window by window:
      [0,1]: x' = -1          -> x = 1 - t
      [1,2]: x' = -(1-(t-1))  -> x = 1 - t + (t-1)^2/2
      [2,3]: x' = -(x above at t-1) -> x = 1 - t + (t-1)^2/2 - (t-2)^3/6
    """
    if t <= 0.0:
        return 1.0
    if t <= 1.0:
        return 1.0 - t
    if t <= 2.0:
        return 1.0 - t + (t - 1.0) ** 2 / 2.0
    if t <= 3.0:
        return 1.0 - t + (t - 1.0) ** 2 / 2.0 - (t - 2.0) ** 3 / 6.0
    raise ValueError("analytic reference derived only through t = 3")


def sweep_problems() -> list[fd.ProblemSpec]:
    """oracle_scenarios(), semigroup_scenarios(), the classic problem and six random problems."""
    rng = np.random.default_rng(6)
    return oracle_scenarios() + semigroup_scenarios() + [classic_problem()] + [random_problem(rng) for _ in range(6)]


#: unit roundoff of IEEE double precision
U = 2.0**-53


def recorded_march(monkeypatch, run) -> tuple:
    """run() with the march's windows recorded: (its result, [(points, F, caps, head), ...]).

    One entry per window of a family with a period (stepper._period), in
    march order, read from the plan's state arrays (stepper._plan) once the
    sweep has filled them; head tells whether F came from the head
    (_delayed_sums) or the one-period recursion.  A window's points are its
    plan entry's points.ravel(), one F each: no point repeats, within a
    window or across windows.
    """
    plans, heads = [], []
    plan, sums = fd.stepper._plan, fd.stepper._delayed_sums

    def recorded_sums(values_at, phi, points, *rest):
        heads.append(points)
        return sums(values_at, phi, points, *rest)

    def recorded_plan(*args):
        plans.append(plan(*args))
        return plans[-1]

    with monkeypatch.context() as m:
        m.setattr(fd.stepper, "_delayed_sums", recorded_sums)
        m.setattr(fd.stepper, "_plan", recorded_plan)
        out = run()
    windows = []
    for entries, _, state, _ in plans:
        for _, _, _, points, _, at, _ in entries if state else ():
            head = any(np.shares_memory(read, points) for read in heads)
            windows.append(tuple(column[at].copy() for column in state) + (head,))
            assert np.array_equal(windows[-1][0], points.ravel())
        # the march's points, window after window, increase strictly: none repeats
        assert np.all(np.diff(np.concatenate([entry[3].ravel() for entry in entries])) > 0.0)
    return out, windows


def forcing_bounds(traj: fd.Trajectory, windows: list) -> dict:
    """Each recorded march point's F with the stepper's bound on |F - S| (stepper._recursion).

    S is the exact sum of the point's head terms b_i x(s - tau_i), i <= cap,
    at the float arguments.  On a head point the bound is the dot product's
    gamma_{cap+2} sum |b_i x|.  On a recursion point with stored point s' it is

        |rho| (bound(s') + read mismatch) + 4u (|b_1 x_1| + |rho F(s')| + |corr|) + 3u (sum |b_i x| + |corr|):

    the mismatch sums |b_i| |x(s' - tau_i) - x(s - tau_{i+1})| over
    i <= cap(s'), and 3u bounds |b_{i+1} - rho b_i| / |b_{i+1}|.  Returns
    the arrays points, f, bound, mag (sum |b_i x|) and head over all points.
    """
    fam = traj.problem.family
    rho, delta = fam.rho, fam.delays.delta
    n = max(int(w[2].max()) for w in windows) + 1
    taus, bs = fam.delays.tau_array(n), fam.b_array(n)
    idx = np.arange(1, n + 1)
    cols = {"points": [], "f": [], "caps": [], "bound": [], "mag": [], "head": []}

    def masked_sum(terms, upto):
        return np.where(idx[: terms.shape[1]] <= upto[:, None], terms, 0.0).sum(axis=1)

    for points, f, caps, head in windows:
        with np.errstate(over="ignore", invalid="ignore"):  # masked entries may be 0 * inf
            mag = masked_sum(np.abs(bs) * np.abs(traj.eval(points[:, None] - taus)), caps)
        if head:
            nu = (caps + 2) * U
            bound = nu / (1.0 - nu) * mag
        else:
            old = {k: np.concatenate(v) for k, v in cols.items()}
            j = np.searchsorted(old["points"], points - delta - 1e-12)
            assert np.abs(old["points"][j] + delta - points).max() <= 1e-12
            c_old = old["caps"][j]
            corr = np.where(caps == c_old, np.abs(bs[caps] * traj.eval(points - taus[caps])), 0.0)
            step = np.abs(bs[0] * traj.eval(points - taus[0])) + np.abs(rho * old["f"][j]) + corr
            with np.errstate(over="ignore", invalid="ignore"):
                shifted = np.abs(traj.eval(old["points"][j][:, None] - taus[:-1]) - traj.eval(points[:, None] - taus[1:]))
                mismatch = masked_sum(np.abs(bs[:-1]) * shifted, c_old)
            bound = abs(rho) * (old["bound"][j] + mismatch) + 4.001 * U * step + 3.001 * U * (mag + corr)
        for k, v in zip(cols, (points, f, caps, bound, mag, np.full(len(points), head))):
            cols[k].append(v)
    return {k: np.concatenate(v) for k, v in cols.items()}
