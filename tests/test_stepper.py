"""Forward solver: marching, forcing, certificates, and trajectory containers."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import infidelay as fd
from infidelay import (
    CoefficientFamily,
    DelaySchedule,
    NotInPhaseSpaceError,
    ProblemSpec,
    SolverConfig,
    compare_trajectories,
    estimate_certificate,
    forcing,
    history_preset,
    solve,
    step_interval,
)
from infidelay.coefficients import hurwitz_zeta
from infidelay.numerics import derivative_coeffs, eval_pieces, phi1
from infidelay.scenario import _run_estimates
from conftest import U, classic_exact, classic_problem, forcing_bounds, oracle_scenarios, recorded_march, sweep_problems

DS = DelaySchedule()


def pure_exponential_problem() -> ProblemSpec:
    return ProblemSpec(1.0, CoefficientFamily.finite_support([0.0], DS), history_preset("constant"))


def geometric_problem(a: float = 1.0) -> ProblemSpec:
    return ProblemSpec(a, CoefficientFamily.geometric(1.0, 0.5, DS), history_preset("constant"))


def slow_geometric_problem() -> ProblemSpec:
    """Delays 1, 2.5, 3.5, ...; N is set by eps far above the floor and stays put."""
    ds = DelaySchedule(delta=1.0, prefix=(1.0, 2.5))
    return ProblemSpec(-0.3, CoefficientFamily.geometric(0.5, 0.9, ds), history_preset("cos"))


def fast_geometric_problem() -> ProblemSpec:
    """Truncation index at the forcing floor: N grows by one per window from H = 3."""
    return ProblemSpec(-0.5, CoefficientFamily.geometric(0.5, 0.1, DS), history_preset("cos"))


def cos_history(amp: float = 1.5, phase: float = 0.3) -> fd.HistoryFunction:
    """amp cos(pi t / 2 + phase) on a depth-8 core with its exact cosine tail."""
    w = 0.5 * math.pi
    return fd.history_from_callable(
        lambda t: amp * math.cos(w * t + phase), 8.0, 0.05,
        tail=fd.CosTail(amp, w, phase), fn_prime=lambda t: -amp * w * math.sin(w * t + phase),
    )


def march_long_problem() -> ProblemSpec:
    """b_i = 0.5^i on tau_i = i from a cosine history: N = 34 from reach 0, the floor 39 at H = 32."""
    return ProblemSpec(-0.5, CoefficientFamily.geometric(1.0, 0.5, DS), cos_history())


def odd_delays_problem() -> ProblemSpec:
    """b_i = 0.5^i on tau_i = 2i - 1 from a cosine history: the period delta is 2 tau_1, N = 34 to H = 32."""
    return ProblemSpec(-0.5, CoefficientFamily.geometric(1.0, 0.5, DelaySchedule(-1.0, 2.0)), cos_history())


# ---------------------------------------------------------------------------
# forcing
# ---------------------------------------------------------------------------


def test_forcing_classic_first_and_second_window():
    traj = solve(classic_problem(), 2.0)
    # F(t) = -x(t-1): the history while t < 1, then -(1-(t-1)) on [1, 2]
    assert forcing(traj, 0.5) == -1.0
    assert abs(forcing(traj, 1.5) - (-classic_exact(0.5))) < 1e-12


def test_forcing_geometric_certified_sum():
    traj = solve(geometric_problem(), 1.0)
    # at t=0 every delayed value is phi(-tau_i)=1: F(0) = sum 2^-i = 1
    assert abs(forcing(traj, 0.0) - 1.0) <= 1e-9


@pytest.mark.parametrize("eps", [None, 1e-12])
def test_forcing_batch_equals_pointwise(monkeypatch, eps):
    # an array of times is one (points x N) batch, taken in row chunks; each
    # entry must equal the single-point evaluation bit for bit, at the
    # trajectory's own index and at the one certified to eps
    rng = np.random.default_rng(11)
    for p in sweep_problems():
        horizon = 3.0 * p.family.delays.tau1
        traj = solve(p, horizon)
        n = None if eps is None else fd.history._truncation(p.history, p.family, horizon, eps)[0]
        ts = np.concatenate([traj.grid[::3], rng.uniform(0.0, horizon, 20)])
        pointwise = [forcing(traj, t, n) for t in ts]
        assert isinstance(pointwise[0], float)
        assert np.array_equal(forcing(traj, ts, n), pointwise), p
        with monkeypatch.context() as m:
            m.setattr(fd.history, "_CHUNK_TERMS", 64)
            assert np.array_equal(forcing(traj, ts, n), pointwise), p


def exp_history(rate: float) -> fd.HistoryFunction:
    return fd.history_from_callable(
        lambda t: math.exp(rate * t), 8.0, 0.05, tail=fd.ExpTail(1.0, rate), fn_prime=lambda t: rate * math.exp(rate * t)
    )


#: b_i = 0.72^i on tau_i = i/10: N = 99 at H = 2, and at the nodes 1.2 and
#: 1.7 fl(s - tau_i) rounds across the core's edge where fl(s + depth) does not
TENTH = CoefficientFamily.geometric(1.0, 0.72, DelaySchedule(0.0, 0.1))
_MOMENT_PHIS = {"constant": history_preset("constant"), "cos": history_preset("cos"), "exp": exp_history(0.1)}
_MOMENT_FAMILIES = {
    "power-law": CoefficientFamily.power_law(0.8, 3.5, DelaySchedule(0.0, 0.5)),
    "geometric": CoefficientFamily.geometric(0.6, -0.95, DelaySchedule(0.1, 0.3)),
}
_MOMENT_CASES = {f"{fk}-{pk}": (phi, fam) for fk, fam in _MOMENT_FAMILIES.items() for pk, phi in _MOMENT_PHIS.items()}
_MOMENT_CASES["tenth-delays-cos"] = (history_preset("cos"), TENTH)
# 2^-theta grows into the past: its moment has kappa = -ln 2, suffix terms b_i 2^tau_i
_MOMENT_CASES["tenth-delays-g-weight"] = (history_preset("g-weight"), TENTH)


@pytest.mark.parametrize("phi, family", list(_MOMENT_CASES.values()), ids=list(_MOMENT_CASES))
def test_forcing_tail_moments_match_a_term_by_term_sum(monkeypatch, phi, family):
    # past the head every delayed argument is in the tail and comes from a
    # suffix moment, or for a constant tail under a power law from the closed
    # form c beta zeta(p, m + 1) at N on its floor; the total must agree at
    # every node with the term-by-term sum (plus the term c beta zeta(p, N + 1)
    # for the closed form) within Higham's gamma of the term count times the
    # sum of |terms|, and the split must not depend on the batch: node slopes
    # and chunked batches match pointwise F
    p = ProblemSpec(-0.2, family, phi)
    traj, windows = recorded_march(monkeypatch, partial(solve, p, 2.0))
    n = traj.n_forcing
    taus, bs = family.delays.tau_array(n), family.b_array(n)
    assert fd.history._tail_sums(phi, family, taus, bs) is not None
    ts = traj.grid
    heads = np.searchsorted(taus, ts + phi.depth, side="right")
    closed = fd.history._zeta_tail(phi, family)
    if family is TENTH:
        # the sorted split and the float arguments disagree at two nodes
        core_args = ts[:, None] - taus >= -phi.depth
        assert np.flatnonzero((core_args != (np.arange(1, n + 1) <= heads[:, None])).any(axis=1)).size == 2
    elif closed is None:
        assert n > 10 * heads.max()
    else:
        assert n == fd.history._tail_floor(phi, family, 2.0)
    deep = [] if closed is None else [closed[0] * hurwitz_zeta(closed[1], n + 1)[0]]
    # each point sums to its own cap; the closed form's head stops at the search
    caps = [n] * len(ts) if closed else fd.stepper._caps(traj, ts, taus).tolist()
    pointwise = [forcing(traj, t) for t in ts]
    for t, cap, f in zip(ts, caps, pointwise):
        terms = np.append(bs[:cap] * traj.eval(t - taus[:cap]), deep)
        nu = len(terms) * 2.0**-53
        assert abs(f - math.fsum(terms)) <= nu / (1.0 - nu) * math.fsum(np.abs(terms)), t
    monkeypatch.setattr(fd.history, "_CHUNK_TERMS", 64)
    assert np.array_equal(forcing(traj, ts), pointwise)
    # tau_i = i/10 recurs from the second window on
    assert _assert_node_slopes(traj, windows, p.a * traj.values + np.array(pointwise)) == (0 if family is not TENTH else 760)


@pytest.mark.parametrize("phi", [history_preset("cos"), exp_history(0.1)], ids=["cos", "exp"])
def test_batched_forcing_sums_each_head_as_one_dot_product(monkeypatch, phi):
    # rows with equal head counts share one np.vecdot; each entry must still
    # be the explicit np.dot of its head plus its tail moment over (m, n],
    # bit for bit; n is certified at reach 0 already, so it caps every point
    family = CoefficientFamily.power_law(0.8, 3.5, DelaySchedule(0.0, 0.5))
    traj = solve(ProblemSpec(-0.2, family, phi), 2.0)
    n = traj.n_forcing
    assert traj.n_origin == n
    taus, bs = family.delays.tau_array(n), family.b_array(n)
    tail_sums = fd.history._tail_sums(phi, family, taus, bs)
    ts = np.concatenate([np.linspace(0.0, 2.0, 41), traj.grid[::7]])
    heads = np.searchsorted(taus, ts + phi.depth, side="right")
    assert len(set(heads.tolist())) >= 4 and tail_sums is not None
    monkeypatch.setattr(fd.history, "_CHUNK_TERMS", 64)
    want = [
        tail_sums(np.array([s]), np.array([m]), n)[0] + np.dot(bs[:m], traj.eval(s - taus[:m]))
        for s, m in zip(ts, heads.tolist())
    ]
    assert forcing(traj, ts).tobytes() == np.array(want).tobytes()


def _row_major_sums(values_at, phi, points, taus, bs, tail_sums, caps):
    """_delayed_sums before its delay-major blocks: each point's head read as one row, summed by np.dot."""
    heads = np.full(len(points), caps)
    out = np.zeros(len(points))
    if tail_sums is not None:
        heads = np.minimum(np.searchsorted(taus, points + phi.depth, side="right"), heads)
        out = tail_sums(points, heads, caps)
    for r, (s, m) in enumerate(zip(points, heads.tolist())):
        out[r] += np.dot(values_at(s - taus[:m]), bs[:m])
    return out, heads


@pytest.mark.parametrize("chunk", [512, 65536])
@pytest.mark.parametrize("moment", [False, True], ids=["head-only", "moment"])
@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "mixed"])
def test_delay_major_sums_have_the_row_major_bits(monkeypatch, chunk, moment, uniform):
    # each chunk is read delay-major and transposed back, so every row's dot
    # reads the contiguous operands of a row-major read: the sums keep their
    # bits whether a chunk's head counts are one (one dot) or several
    phi = history_preset("cos")
    traj = solve(ProblemSpec(-0.2, TENTH, phi), 2.0)
    n = traj.n_forcing
    taus, bs = TENTH.delays.tau_array(n), TENTH.b_array(n)
    tail_sums = fd.history._tail_sums(phi, TENTH, taus, bs) if moment else None
    assert n >= fd.history._MOMENT_MIN_TERMS and (tail_sums is not None) == moment
    # s + depth between two delays gives every point one sorted search
    points = np.linspace(0.31, 0.39, 40) if uniform else np.concatenate((np.linspace(0.0, 2.0, 97), traj.grid[::5]))
    caps = n if uniform else fd.stepper._caps(traj, points, taus)
    values_at = partial(fd.stepper._delayed_values, phi, *traj._read)
    want, heads = _row_major_sums(values_at, phi, points, taus, bs, tail_sums, caps)
    assert (len(set(heads.tolist())) == 1) == uniform
    monkeypatch.setattr(fd.history, "_CHUNK_TERMS", chunk)
    got = fd.history._delayed_sums(values_at, phi, points, taus, bs, tail_sums, caps)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("t", [5.0, 50.0, np.array([0.5, 1.0, 2.5])], ids=["5", "50", "array"])
def test_forcing_past_the_horizon_raises_as_eval_does(t):
    # extrapolating the last cubic once gave F(5) = -1.5 and F(50) = -1104
    traj = solve(classic_problem(), 2.0)
    with pytest.raises(ValueError, match="beyond horizon"):
        traj.eval(t)
    with pytest.raises(ValueError, match="beyond horizon"):
        forcing(traj, t)
    assert forcing(traj, 2.0 + 1e-10) == forcing(traj, np.array([2.0 + 1e-10]))[0]


def test_forcing_argument_on_the_core_edge_is_in_the_head():
    # the tail differs from the core's edge value within the continuity
    # tolerance, so b_10's term shows which side evaluated it; b_100 keeps N
    # at 100, so the tail part comes from a moment
    phi = fd.HistoryFunction(np.array([-8.0, 0.0]), np.array([[1.0, 0.0, 0.0, 0.0]]), fd.ConstantTail(1.0 + 2.0**-42))
    coeffs = [0.0] * 100
    coeffs[9] = coeffs[99] = 1.0
    traj = solve(ProblemSpec(0.0, CoefficientFamily.finite_support(coeffs, DS), phi), 2.0)
    assert traj.n_forcing == 100 >= fd.history._MOMENT_MIN_TERMS
    assert np.searchsorted(DS.tau_array(100), np.array([2.0, 1.5]) + phi.depth, side="right").tolist() == [10, 9]
    assert forcing(traj, 2.0) == 2.0 + 2.0**-42  # 2 - tau_10 == breakpoints[0]: the core
    assert forcing(traj, 1.5) == 2.0 + 2.0**-41


def test_finite_support_forcing_stops_at_the_last_coefficient():
    assert solve(classic_problem(), 2.0).n_forcing == 1
    fam = CoefficientFamily.finite_support([0.5, 0.0, -0.25, 0.0, 0.0], DS)
    p = ProblemSpec(0.0, fam, history_preset("cos"))
    assert solve(p, 3.0).n_forcing == fd.oracle_solve(p, 3.0).n_forcing == 3


# ---------------------------------------------------------------------------
# solve: frozen solutions
# ---------------------------------------------------------------------------


def test_solve_constant_is_stationary():
    phi5 = fd.HistoryFunction([-8.0, 0.0], [[5.0, 0, 0, 0]], fd.ConstantTail(5.0))
    traj = solve(ProblemSpec(0.0, CoefficientFamily.finite_support([0.0], DS), phi5), 3.0)
    ts = np.linspace(0.0, 3.0, 301)
    assert np.max(np.abs(traj.eval(ts) - 5.0)) == 0.0


def test_solve_pure_exponential():
    traj = solve(pure_exponential_problem(), 2.0)
    assert abs(traj.eval(1.0) - math.e) < 1e-9
    assert abs(traj.eval(2.0) - math.e**2) < 1e-8


def test_solve_classic_matches_piecewise_polynomial():
    traj = solve(classic_problem(), 3.0)
    ts = np.linspace(0.0, 3.0, 601)
    exact = np.array([classic_exact(t) for t in ts])
    assert np.max(np.abs(traj.eval(ts) - exact)) < 1e-8
    assert abs(traj.eval(1.0)) < 1e-10
    assert abs(traj.eval(2.0) + 0.5) < 1e-10


def test_solve_deep_power_law_tail():
    # b_i = i^-3 on tau_i = i from a constant history c: on [0, 1] every
    # delayed argument is in the history, so F = c zeta(3) and
    # x(1) = c e^a + c zeta(3) (e^a - 1) / a; the part past each head m is
    # the closed form c zeta(3, m + 1), and N = 8 is the tail floor
    a, c, zeta3 = -0.5, 1.5, 1.2020569031595942854
    fam = CoefficientFamily.power_law(1.0, 3.0, DS)
    traj = solve(ProblemSpec(a, fam, fd.scale_history(c, history_preset("constant"))), 1.0)
    assert traj.n_forcing == 8
    ea = math.exp(a)
    assert abs(traj.eval(1.0) - (c * ea + c * zeta3 * (ea - 1.0) / a)) < 1e-8


def test_solve_geometric_against_independent_oracle():
    problem = geometric_problem()
    traj = solve(problem, 3.0)
    ref = fd.oracle_solve(problem, 3.0, h_fine=0.002)
    ts = np.linspace(0.0, 3.0, 400)
    assert np.max(np.abs(traj.eval(ts) - ref.eval(ts))) < 1e-6


def test_solve_rejects_history_outside_phase_space():
    bad = ProblemSpec(0.0, CoefficientFamily.power_law(1.0, 1.0, DS), history_preset("constant"))
    with pytest.raises(NotInPhaseSpaceError, match="outside the phase space"):
        solve(bad, 1.0)
    # a recorded tail mass bounds no series under a growing history: neither verdict is provable
    listed = CoefficientFamily.explicit_list([0.5], 0.2, DS)
    with pytest.raises(NotInPhaseSpaceError, match="cannot certify"):
        solve(ProblemSpec(0.0, listed, history_preset("g-weight")), 1.0)


def test_solve_refuses_a_closed_form_tail_whose_enclosure_fits_only_deeper():
    # zeta(p, 8) ~ 131,072.26 and zeta(p, 16) ~ 131,071.53 straddle 2^17, so
    # the enclosure at the horizon's floor is narrower than at reach 0's:
    # N = 15 certifies, but F(0) is not within eps, and N_0 fails
    fam = CoefficientFamily.power_law(0.6, 1.0000076292621705, DS)
    p = ProblemSpec(-0.5, fam, history_preset("constant"))
    assert fd.history._truncation(p.history, fam, 8.0, 1e-10)[0] == 15
    lo, hi = hurwitz_zeta(fam.p_exponent, 8)
    assert 0.6 * (hi - lo) > 1e-10
    with pytest.raises(NotInPhaseSpaceError, match="cannot certify"):
        solve(p, 8.0)


#: (family, eps, why) from the constant history: b_i = 1/i is certified
#: divergent, and a recorded tail mass of 0.2 above eps = 0.1 proves neither verdict
_REFUSED_PAIRS = [
    (CoefficientFamily.power_law(1.0, 1.0, DS), 1e-10, fd.DivergentTailError),
    (CoefficientFamily.explicit_list([0.5], 0.2, DS), 0.1, fd.UnknownTailError),
]


@pytest.mark.parametrize("call", ["solve", "step_interval", "oracle_solve", "L_functional", "estimate_certificate"])
@pytest.mark.parametrize("fam, eps, why", _REFUSED_PAIRS, ids=["divergent", "uncertifiable"])
def test_every_refusal_is_a_not_in_phase_space_error_that_says_why(fam, eps, why, call):
    # the trajectory step_interval and estimate_certificate read comes from a
    # finite support, then carries the refused problem
    phi = history_preset("constant")
    problem, config = ProblemSpec(0.0, fam, phi), SolverConfig(eps_forcing=eps, eps_tail_seminorm=eps)
    host = solve(ProblemSpec(0.0, CoefficientFamily.finite_support([0.5], DS), phi), 1.0, config)
    traj = replace(host, problem=problem)
    calls = {
        "solve": lambda: solve(problem, 1.0, config),
        "step_interval": lambda: step_interval(traj, 1),
        "oracle_solve": lambda: fd.oracle_solve(problem, 1.0),
        "L_functional": lambda: fd.L_functional(phi, fam, 0.0, eps),
        "estimate_certificate": lambda: estimate_certificate(traj, 1),
    }
    with pytest.raises(NotInPhaseSpaceError) as info:
        calls[call]()
    assert type(info.value) is why


def test_the_truncation_cap_refuses_end_to_end():
    # b_i = i^-2 from the cos history: at eps 1e-10 no truncation index below
    # the cap certifies the forcing, so solve refuses with the search's text
    # and an UnknownTailError as cause, L raises that UnknownTailError, p_1 is
    # inconclusive, and membership, which asks for no eps, still holds
    fam = CoefficientFamily.power_law(1.0, 2.0, DS)
    phi = history_preset("cos")
    with pytest.raises(NotInPhaseSpaceError, match="no truncation index below 10000000") as info:
        solve(ProblemSpec(-2.0, fam, phi), 4.0)
    assert isinstance(info.value.__cause__, fd.UnknownTailError)
    with pytest.raises(fd.UnknownTailError, match="no truncation index below 10000000"):
        fd.L_functional(phi, fam, -2.0)
    assert fd.p_seminorm(phi, fam, 1).verdict == "inconclusive"
    assert fd.membership_in_F(phi, fam).verdict == "member"


def test_solve_admits_a_member_whose_seminorms_are_inconclusive():
    # b_i = i^-2 from the cos history: no p_k reaches eps_tail = 1e-10 below
    # the index cap, but the forcing certificate at eps 1e-4 proves
    # membership.  With sum_i i^-2 e^{-i pi i / 2} = -pi^2/48 - i G (G is
    # Catalan's constant) the forcing on [0, 1] is
    # F(s) = -pi^2/48 cos(pi s / 2) + G sin(pi s / 2), so x(1) is e^a plus
    # the integral of e^{a(1 - s)} F(s), up to the discarded forcing and the
    # Hermite core's O(0.05^4) interpolation error
    a, eps, catalan = -0.5, 1e-4, 0.91596559417721901505
    fam = CoefficientFamily.power_law(1.0, 2.0, DS)
    phi = history_preset("cos")
    assert fd.p_seminorm(phi, fam, 1).verdict == "inconclusive"
    assert fd.membership_in_F(phi, fam).verdict == "member"
    traj = solve(ProblemSpec(a, fam, phi), 1.0, SolverConfig(eps_forcing=eps))
    assert traj.n_forcing == 10_000
    s, w = np.polynomial.legendre.leggauss(20)
    s, w = 0.5 * (s + 1.0), 0.5 * w
    f = -math.pi**2 / 48.0 * np.cos(0.5 * math.pi * s) + catalan * np.sin(0.5 * math.pi * s)
    want = math.exp(a) + float(np.dot(w, np.exp(a * (1.0 - s)) * f))
    assert abs(traj.eval(1.0) - want) <= eps * phi1(a, 1.0) + 2e-7


def test_explicit_list_solves_as_its_geometric_family():
    # b_i = 2^-i stored for i <= 60 with the exact mass 2^-60 past the list:
    # N = 34 lies inside the list, so the stored-length guard passes and every
    # node, L and p_2 equal the geometric family's
    phi = history_preset("constant")
    geo = CoefficientFamily.geometric(1.0, 0.5, DS)
    listed = CoefficientFamily.explicit_list([2.0**-i for i in range(1, 61)], 2.0**-60, DS)
    want, got = (solve(ProblemSpec(1.0, fam, phi), 4.0) for fam in (geo, listed))
    assert got.n_forcing == want.n_forcing == 34
    assert np.array_equal(got.grid, want.grid) and np.array_equal(got.values, want.values)
    assert fd.L_functional(phi, listed, 1.0) == fd.L_functional(phi, geo, 1.0)
    assert fd.p_seminorm(phi, listed, 2) == fd.p_seminorm(phi, geo, 2)


def test_explicit_list_shorter_than_its_truncation_is_bracketed():
    # five stored coefficients with mass 1e-12 past them: the search wants an
    # N past the list.  While tau_6 >= the reach, every unstored term reads
    # phi, so mass * sup |phi| bounds them: N = 5, each p_k brackets its
    # stored windows, and solve is admitted up to H = tau_6 = 6
    phi = history_preset("constant")
    short = CoefficientFamily.explicit_list([2.0**-i for i in range(1, 6)], 1e-12, DS)
    for k, head in ((1, 0.96875), (2, 0.46875), (3, 0.21875)):
        sv = fd.p_seminorm(phi, short, k)
        assert (sv.verdict, sv.value, sv.truncation_bound, sv.index_last) == ("finite", head, 1e-12, 5), k
    assert fd.membership_in_F(phi, short).verdict == "member"
    for horizon in (4.0, 6.0):
        traj = solve(ProblemSpec(1.0, short, phi), horizon)
        assert traj.n_forcing == traj.n_origin == 5
    # on [0, 1] every argument reads phi = 1: x(t) = e^t (1 + B) - B, B = sum b_i
    B = 0.96875
    assert traj.eval(1.0) == pytest.approx(math.e * (1.0 + B) - B, rel=1e-12, abs=0.0)
    # past tau_6 some unknown b_i multiply the solution, not phi
    with pytest.raises(NotInPhaseSpaceError, match="explicit-list family stores 5 coefficients, asked for 14"):
        solve(ProblemSpec(1.0, short, phi), 7.0)
    # a zero mass gives a zero remainder
    exact = fd.p_seminorm(phi, CoefficientFamily.explicit_list(short.coeffs, 0.0, DS), 1)
    assert (exact.verdict, exact.value, exact.truncation_bound, exact.index_last) == ("finite", 0.96875, 0.0, 5)


def test_explicit_list_with_zero_mass_solves_as_its_finite_support():
    # a zero recorded mass makes every b_i past the list 0, so the search
    # starts at the last nonzero stored b_i, as for a finite support: past
    # tau_6 = 6 no unknown b_i is left, and H = 7 solves with N = 5
    phi, coeffs = history_preset("constant"), [2.0**-i for i in range(1, 6)]
    listed = solve(ProblemSpec(1.0, CoefficientFamily.explicit_list(coeffs, 0.0, DS), phi), 7.0)
    finite = solve(ProblemSpec(1.0, CoefficientFamily.finite_support(coeffs, DS), phi), 7.0)
    assert listed.n_forcing == listed.n_origin == finite.n_forcing == 5
    _assert_same_nodes(listed, finite)


def test_a_zero_mass_list_reads_zeros_past_its_end():
    # classic-delay's family as an explicit list: b_array pads b_i = 0 past
    # b_1, so both calls read n past the list; the pinned values are those
    # of x'(t) = -x(t - 1) from phi = 1, to rounding
    listed = CoefficientFamily.explicit_list([-1.0], 0.0, DS)
    traj = solve(ProblemSpec(0.0, listed, history_preset("constant")), 3.0)
    cert = estimate_certificate(traj, 3)
    assert (cert.bound, cert.observed, cert.valid, cert.b_chain) == (24.0, 1.0, True, (2.0, 6.0, 24.0))
    assert cert.levels == (("sup_norm[1]", 1.0), ("p[1]", 1.0), ("p[2]", 0.0), ("p[3]", 0.0))
    assert forcing(traj, np.array([0.5, 1.5, 2.5]), 3).tolist() == [-1.0, -0.49999999999999983, 0.37500000000000006]
    assert forcing(traj, 2.5, 3) == forcing(traj, 2.5) == 0.37500000000000006


_NONFINITE = {
    "coeffs": lambda: CoefficientFamily.finite_support([0.5, math.nan], DS),
    "beta": lambda: CoefficientFamily.geometric(math.inf, 0.5, DS),
    "rho": lambda: CoefficientFamily.geometric(1.0, -math.inf, DS),
    "p_exponent": lambda: CoefficientFamily.power_law(1.0, math.inf, DS),
    "tail_abs_bound": lambda: CoefficientFamily.explicit_list([0.5], math.inf, DS),
    "c": lambda: DelaySchedule(c=math.nan),
    "delta": lambda: DelaySchedule(delta=math.inf),
    "prefix": lambda: DelaySchedule(prefix=(0.5, math.inf)),
    "horizon": lambda: solve(classic_problem(), math.inf),
    "oracle-horizon": lambda: fd.oracle_solve(classic_problem(), math.inf),
}


@pytest.mark.parametrize("field", sorted(_NONFINITE))
def test_non_finite_numbers_are_refused_at_the_python_boundary(field):
    # an infinite mass or beta would otherwise read as a certificate of
    # divergence, and an infinite horizon or delay fail deep in the solver
    with pytest.raises(ValueError, match=rf"\b{field.split('-')[-1]} must be (positive and )?finite"):
        _NONFINITE[field]()


@pytest.mark.parametrize(
    "phi, fam, eps, n_want",
    [
        # rate * tau_N = 815.5 > 700: e^{-rate tau_N} would leave the normal floats
        (history_preset("exp-decay"), CoefficientFamily.power_law(0.8, 3.5, DelaySchedule(0.0, 0.5)), 1e-12, 1631),
        # e^{-10 theta} under b_i = 1e-300 on tau_i = 0.99 i, i <= 71: |rate| * tau_N
        # = 702.9 > 700, so the guard keeps every delay in the head, though the
        # largest term, 1e-300 e^{702.9} = 1.3e5, is finite
        (exp_history(-10.0), CoefficientFamily.finite_support([1e-300] * 71, DelaySchedule(0.0, 0.99)), None, 71),
        # neither a polynomial envelope tail nor a difference tail has an exponential form
        (
            fd.history_from_callable(
                lambda t: (1.0 - t) ** 2, 8.0, 0.05,
                tail=fd.WeightEnvelopeTail(1.0, fd.WeightFunction.polynomial(2)), fn_prime=lambda t: -2.0 * (1.0 - t),
            ),
            TENTH, None, 176,
        ),
        (fd.history_difference(history_preset("cos"), history_preset("exp-decay")), TENTH, None, 99),
    ],
    ids=["exp-past-reach", "exp-growing-past-reach", "envelope", "difference"],
)
def test_tails_without_a_moment_sum_term_by_term(phi, fam, eps, n_want):
    # N >= _MOMENT_MIN_TERMS, yet the tail has no moment, so every delay up
    # to the cap is summed in the head; it must agree with a correctly
    # rounded sum of b_i x(t - tau_i) within Higham's gamma of the term count
    # (the gap measured 2.2e-16)
    traj = solve(ProblemSpec(-0.5, fam, phi), 2.0, SolverConfig(eps_forcing=eps))
    n = traj.n_forcing
    taus, bs = fam.delays.tau_array(n), fam.b_array(n)
    assert n == n_want >= fd.history._MOMENT_MIN_TERMS
    assert fd.history._tail_sums(phi, fam, taus, bs) is None
    for t in (0.3, 1.1, 2.0):
        cap = int(fd.stepper._caps(traj, np.array([t]), taus)[0])
        terms = bs[:cap] * traj.eval(t - taus[:cap])
        nu = cap * 2.0**-53
        assert abs(forcing(traj, t) - math.fsum(terms)) <= nu / (1.0 - nu) * math.fsum(np.abs(terms)), t


@pytest.mark.parametrize("horizon", [1.5, 3.0])
def test_an_overflowing_solution_is_named(horizon):
    # x' = 800 x + x(t - 1) from phi = 1 passes 1.8e308 before t = 1: both horizons
    # stop in that window, and neither stores an infinite node or reads one
    # back as a delayed sum that is not finite
    problem = ProblemSpec(800.0, CoefficientFamily.finite_support([1.0], DS), history_preset("constant"))
    with pytest.raises(OverflowError, match=r"floating-point range after t = 0\.8"):
        solve(problem, horizon)
    with pytest.raises(OverflowError, match=r"floating-point range after t = 0\.9"):
        fd.oracle_solve(problem, horizon)


def test_a_step_with_a_subnormal_cube_is_refused_not_called_an_overflow():
    # below dt of about 2.8e-103, dt**3 leaves the normal range; at 1e-155 the
    # Hermite fit once divided by zero and the march named a false overflow.
    # The plan refuses once, naming the first bad step's start
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for march in (solve, fd.oracle_solve):
            with pytest.raises(ValueError, match=r"normal cube .*the step from t = 0\.0 has dt = 1e-155"):
                march(classic_problem(), 1e-155)
        assert solve(classic_problem(), 1e-100).eval(1e-100) == 1.0
        assert fd.oracle_solve(classic_problem(), 1e-100).eval(1e-100) == 1.0


def test_a_step_whose_cube_overflows_is_refused_before_a_row_is_written():
    # with tau_1 = 1e200 an extension steps by tau_1/40, whose cube passes the
    # largest float: step_interval refuses in the plan, so the parent stays its
    # chain's tip and the chain keeps its rows
    problem = ProblemSpec(0.0, CoefficientFamily.finite_support([-1.0], DelaySchedule(0.0, 1e200)), history_preset("constant"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = solve(problem, 1e100)  # one step of 1e100: its cube is normal
        chain, rows = traj._chain, traj._chain.rows
        nodes = [arr.tobytes() for arr in (traj.grid, traj.values, traj.derivs, traj.pieces)]
        with pytest.raises(ValueError, match=r"normal cube .*the step from t = 1e\+100 has dt = 2\.\d+e\+198"):
            step_interval(traj, 0)
    assert chain.rows == rows == chain.core + len(traj.grid) and fd.stepper._chain(traj, 0) is chain
    assert [arr.tobytes() for arr in (traj.grid, traj.values, traj.derivs, traj.pieces)] == nodes


@pytest.mark.parametrize(
    "march",
    [
        # a knot list of 4e10 multiples of tau_1 once ran out of memory
        partial(solve, classic_problem(), 1e9),
        partial(fd.oracle_solve, classic_problem(), 1e9),
        # tau_1 = 1e-6: 3.2e8 steps of tau_1/40 once asked numpy for 2.6 GB
        partial(solve, ProblemSpec(-0.5, CoefficientFamily.geometric(1.0, 0.5, DelaySchedule(-0.999999, 1.0)), history_preset("cos")), 8.0),
        # h = 1e-300 once asked np.arange for 8e300 entries
        partial(solve, classic_problem(), 8.0, SolverConfig(h=1e-300)),
    ],
    ids=["solve", "oracle_solve", "tiny-tau1", "tiny-h"],
)
def test_a_march_of_too_many_steps_is_refused_before_any_allocation(march):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"takes up to .* steps, more than 1000000"):
            march()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_an_extension_of_too_many_steps_is_refused_before_any_allocation():
    traj = solve(classic_problem(), 2.0)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"a march from t = 2\.0 to 1000000000\.0 .* takes up to 4\.\d+e\+10 steps"):
            step_interval(traj, 10**9 - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert step_interval(traj, 2).horizon == 3.0  # the chain marches on


def test_solve_is_deterministic():
    a = solve(geometric_problem(), 3.0)
    b = solve(geometric_problem(), 3.0)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.derivs, b.derivs)
    assert np.array_equal(a.pieces, b.pieces)


def test_solve_step_refinement_agrees():
    p = geometric_problem()
    coarse = solve(p, 3.0, SolverConfig(h=0.05))
    fine = solve(p, 3.0, SolverConfig(h=0.05 / 3.0))
    ts = np.linspace(0.0, 3.0, 500)
    assert np.max(np.abs(coarse.eval(ts) - fine.eval(ts))) < 1e-5


def test_solver_config_validation_and_clamping():
    for bad in (
        {"h": 0.0},
        {"h": -1.0},
        {"eps_forcing": math.nan},
        {"eps_forcing": -1.0},
        {"eps_forcing": 0.0},
        {"eps_tail_seminorm": math.nan},
        {"eps_tail_seminorm": 0.0},
    ):
        with pytest.raises(ValueError):
            SolverConfig(**bad)
    traj = solve(classic_problem(), 2.0, SolverConfig(h=5.0))
    assert traj.h_used <= DS.tau1


def test_trajectory_eval_domain():
    traj = solve(classic_problem(), 2.0)
    with pytest.raises(ValueError):
        traj.eval(2.5)
    assert traj.eval(-2.5) == 1.0  # delegates to the history
    assert traj.eval(0.0) == 1.0


def test_trajectory_derivative_satisfies_the_equation():
    # x'(t) = a x(t) + F(t) should hold along the dense output
    p = geometric_problem(a=-0.3)
    traj = solve(p, 2.0)
    for t in np.linspace(0.05, 1.95, 23):
        resid = eval_pieces(traj.grid, derivative_coeffs(traj.pieces), t) - (p.a * traj.eval(t) + forcing(traj, t))
        assert abs(resid) < 1e-7


# ---------------------------------------------------------------------------
# interval stepping
# ---------------------------------------------------------------------------


def test_step_interval_extends_bit_identically():
    p = classic_problem()
    base = solve(p, 1.0)
    extended = step_interval(base, 2)  # through the window [2*tau_1, 3*tau_1]
    direct = solve(p, 3.0)
    assert extended.horizon == direct.horizon
    assert compare_trajectories(extended, direct, (0.0, 3.0)) == 0.0


def _assert_node_slopes(traj, windows, want) -> int:
    """derivs against want, a x + forcing at each node: bit for bit where the head read F.

    At a node of a recursion window the slopes may differ by the
    recursion's bound (forcing_bounds), the head's own gamma_{cap+2} sum
    |b_i x| and one rounding of each slope.  Returns the number of such nodes.
    """
    on = np.zeros(len(traj.grid), dtype=bool)
    if windows:
        b = forcing_bounds(traj, windows)
        on = np.isin(traj.grid, b["points"][~b["head"]])
        k = np.searchsorted(b["points"], traj.grid[on])
        nu = (b["caps"][k] + 2) * U
        slack = b["bound"][k] + nu / (1.0 - nu) * b["mag"][k] + U * (np.abs(traj.derivs[on]) + np.abs(want[on]))
        assert np.all(np.abs(traj.derivs[on] - want[on]) <= slack)
    assert np.array_equal(traj.derivs[~on], want[~on])
    return int(on.sum())


@pytest.mark.parametrize("run", ["gauss4", "oracle"])
def test_node_slopes_match_the_forcing_exactly(monkeypatch, run):
    # every node slope comes from a window-batched forcing evaluation; where
    # the head read it, it must equal a single-point evaluation over the
    # finished trajectory bit for bit, including the step ends where
    # t - tau_1 is the node the window started from; where the one-period
    # recursion read it, within the recursion's bound.  The RK4 oracle
    # shares that march
    recursive = []
    for p in oracle_scenarios() + [classic_problem()]:
        horizon = 10.0 * p.family.delays.tau1
        march = partial(fd.oracle_solve if run == "oracle" else solve, p, horizon)
        traj, windows = recorded_march(monkeypatch, march)
        want = np.array([p.a * v + forcing(traj, t) for v, t in zip(traj.values.tolist(), traj.grid.tolist())])
        recursive.append(_assert_node_slopes(traj, windows, want))
    # the five geometric problems on tau_i = c + i delta with c = 0 recur from the second window
    assert sum(n > 0 for n in recursive) == 5


def _row_gather_eval(breaks, coeffs, x):
    """eval_pieces before the column gathers: one (n, 4) row gather, then strided column reads."""
    idx = np.searchsorted(breaks[1 : len(coeffs)], x, side="right")
    u = x - breaks[idx]
    c = coeffs[idx]
    return c[..., 0] + u * (c[..., 1] + u * (c[..., 2] + u * c[..., 3]))


def _three_way_read(phi, grid, pieces, args):
    """The delayed read before the one table: phi at args <= 0, split again at its core; the pieces past 0."""
    out = np.empty_like(args)
    neg = args <= 0.0
    th = np.minimum(args[neg], 0.0)
    core = th >= phi.breakpoints[0]
    hist = np.empty_like(th)
    hist[core] = _row_gather_eval(phi.breakpoints, phi.coeffs, th[core])
    hist[~core] = phi.tail.evaluate(th[~core])
    out[neg] = hist
    out[~neg] = _row_gather_eval(grid, pieces, args[~neg])
    return out


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _edge_arguments(phi, grid) -> np.ndarray:
    """0 and -0, the core's edge b0 and its float neighbours, deep tail points, the last node and one ulp past it."""
    b0, end = phi.breakpoints[0], grid[-1]
    edges = [0.0, -0.0, b0, np.nextafter(b0, -np.inf), np.nextafter(b0, np.inf), b0 - 0.3, b0 - 40.0, -1e4]
    return np.array(edges + [phi.breakpoints[-2], 0.5 * b0, 0.5 * end, end, np.nextafter(end, np.inf)])


_READ_PROBLEMS = {
    "cos-tail": march_long_problem(),
    "constant-tail": geometric_problem(-0.5),
    "exp-tail": ProblemSpec(-0.5, CoefficientFamily.geometric(0.5, 0.5, DS), exp_history(0.1)),
    # the tail meets the core 2^-44 below it, inside the continuity tolerance: b0 must read the core
    "offset-tail": ProblemSpec(
        -0.5,
        CoefficientFamily.geometric(0.5, 0.5, DS),
        fd.HistoryFunction(np.array([-8.0, -4.0, 0.0]), np.array([[1.0 + 2.0**-44, 0.1, 0.0, 0.0], [1.4 + 2.0**-44, 0.0, 0.0, 0.0]]), fd.ConstantTail(1.0)),
    ),
}


@pytest.mark.parametrize("run", ["gauss4", "oracle"])
@pytest.mark.parametrize("p", list(_READ_PROBLEMS.values()), ids=list(_READ_PROBLEMS))
def test_one_table_read_matches_the_three_way_split(monkeypatch, run, p):
    # _delayed_values reads phi's core rows and the pieces as one table (a
    # zero argument reads the first piece, which starts at phi(0)); it must
    # give the bits of the old split on the march's own arguments and at the
    # edges, in mid-march prefixes of the append-only table, whose last row
    # is the pending piece, and on the finished trajectory.  A recursion
    # window's gather (eval_located at the pieces the plan found in the
    # whole table) must give them on its x(s - tau_1), read in its prefix
    real, buffers = fd.stepper._delayed_values, []
    plan, gather, planned = fd.stepper._plan, fd.stepper.eval_located, {}

    def checked(phi, breaks, coeffs, args):
        c = len(phi.coeffs)
        grid, pieces = breaks[c:], coeffs[c:]
        assert _same_bits(breaks[:c], phi.breakpoints[:-1]) and _same_bits(coeffs[:c], phi.coeffs)
        edges = _edge_arguments(phi, grid)  # F(0) at the start has no piece past 0
        for x in (args, edges if len(pieces) else edges[edges <= 0.0]):
            assert _same_bits(real(phi, breaks, coeffs, x), _three_way_read(phi, grid, pieces, x)), len(grid)
        buffers.append(len(pieces) == len(grid))
        return real(phi, breaks, coeffs, args)

    def recorded_plan(traj, windows, ends, scan, breaks, taus, bs, n):
        out = plan(traj, windows, ends, scan, breaks, taus, bs, n)
        for m, _, _, points, _, _, located in out[0]:
            if located is not None:
                planned[id(located[0])] = (breaks, m, points.ravel() - taus[0])
        return out

    def checked_gather(coeffs, idx, u):
        breaks, m, args = planned[id(idx)]
        c = len(p.history.coeffs)
        got = gather(coeffs, idx, u)
        assert _same_bits(got, _three_way_read(p.history, breaks[c : c + m], coeffs[c : c + m], args)), m
        buffers.append(True)
        return got

    monkeypatch.setattr(fd.stepper, "_plan", recorded_plan)
    monkeypatch.setattr(fd.stepper, "eval_located", checked_gather)
    monkeypatch.setattr(fd.stepper, "_delayed_values", checked)
    monkeypatch.setattr(fd.oracle, "_delayed_values", checked)
    traj = fd.oracle_solve(p, 3.0) if run == "oracle" else solve(p, 3.0)
    assert sum(buffers) >= 3 and len(planned) >= 2  # the windows of [0, 3], each with its pending row
    monkeypatch.undo()
    ts = np.concatenate((_edge_arguments(p.history, traj.grid), np.linspace(-20.0, 3.0, 2001), traj.grid))
    table = traj._read
    assert _same_bits(real(p.history, *table, ts), _three_way_read(p.history, traj.grid, traj.pieces, ts))
    clamped = np.minimum(ts, traj.horizon)
    assert _same_bits(traj.eval(ts), _three_way_read(p.history, traj.grid, traj.pieces, clamped))
    assert _same_bits(p.history.evaluate(clamped[clamped <= 0.0]), _three_way_read(p.history, traj.grid[:1], traj.pieces[:0], clamped[clamped <= 0.0]))


@pytest.mark.parametrize("shape", [(), (7,), (3, 5)], ids=["0-d", "1-d", "2-d"])
def test_eval_pieces_gathers_columns_with_the_row_gather_bits(shape):
    traj = solve(march_long_problem(), 3.0)
    x = np.random.default_rng(3).uniform(-0.5, 3.5, shape)
    got, want = eval_pieces(traj.grid, traj.pieces, x), _row_gather_eval(traj.grid, traj.pieces, x)
    assert np.shape(got) == shape and _same_bits(got, want)


@pytest.mark.parametrize("run, per_step", [("gauss4", 5), ("oracle", 2)])
def test_each_distinct_forcing_point_is_evaluated_once(monkeypatch, run, per_step):
    # the oracle's first RK4 stage, at the previous step's end, reads that
    # node's slope, so n RK4 steps evaluate 2n points, the midpoints and the
    # ends; the Gauss points never repeat, so a solve window evaluates 5n.
    # The first call is F(0) at the start.
    real, counts = fd.stepper._delayed_sums, []

    def counted(values_at, phi, points, *rest):
        counts.append(len(points))
        return real(values_at, phi, points, *rest)

    monkeypatch.setattr(fd.stepper, "_delayed_sums", counted)
    p = slow_geometric_problem()
    traj = fd.oracle_solve(p, 4.0) if run == "oracle" else solve(p, 4.0)
    windows = fd.stepper._substeps(0.0, 4.0, p.family, traj.h_used)
    assert len(windows) == 4 and counts == [1] + [per_step * len(w) for w in windows]


def _assert_same_nodes(a, b):
    for name in ("grid", "values", "derivs", "pieces"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_step_interval_from_inside_a_window_is_bit_identical():
    # t = 2.5 is a knot of both runs but no window boundary
    p = slow_geometric_problem()
    base = solve(p, 2.5)
    chained = step_interval(base, 3)
    direct = solve(p, 4.0)
    assert base.n_forcing == direct.n_forcing
    _assert_same_nodes(chained, direct)


def test_step_interval_resolve_is_bit_identical():
    # the truncation index grows with the horizon here: the extension takes
    # the deeper index and marches on, and the nodes it keeps are those of
    # the one-shot solve, because each point's index depends on the point alone
    p = fast_geometric_problem()
    base = solve(p, 2.0)
    chained = step_interval(base, 3)
    direct = solve(p, 4.0)
    assert base.n_forcing != direct.n_forcing
    _assert_same_nodes(chained, direct)


@pytest.fixture
def seminorm_calls(monkeypatch):
    calls = []
    original = fd.stepper._seminorms

    def counted(phi, family, ks, eps_tail):
        calls.append(ks)
        return original(phi, family, ks, eps_tail)

    monkeypatch.setattr(fd.stepper, "_seminorms", counted)
    return calls


@pytest.mark.parametrize(
    "problem, resolves",
    [(slow_geometric_problem(), False), (fast_geometric_problem(), True)],
    ids=["march", "resolve"],
)
def test_step_interval_certifies_only_the_new_window(seminorm_calls, problem, resolves):
    # the extension certifies the forcing truncation through the new window
    # and marches on, with the deeper index where it deepens ("resolve");
    # that certificate proves every p_k finite, so neither solve nor the
    # extension evaluates one
    traj = solve(problem, 2.0)
    extended = step_interval(traj, 2)
    assert extended.horizon == 3.0
    assert extended.n_forcing == solve(problem, 3.0).n_forcing
    assert (extended.n_forcing != traj.n_forcing) == resolves
    assert seminorm_calls == []


def _chain(problem: ProblemSpec, horizon: float, windows, monkeypatch) -> tuple:
    """solve to horizon, then step_interval through each window; (trajectory, _start calls, stored windows' starts)."""
    starts, stored = [], []
    start, store = fd.stepper._start, fd.stepper._store_window

    def counted_start(*args):
        starts.append(args)
        return start(*args)

    def counted_store(values, derivs, pieces, m, steps):
        stored.append(m - 1)  # the row of the window's first node, the same in every later trajectory
        return store(values, derivs, pieces, m, steps)

    with monkeypatch.context() as m:
        m.setattr(fd.stepper, "_start", counted_start)
        m.setattr(fd.stepper, "_store_window", counted_store)
        traj = solve(problem, horizon)
        for k in windows:
            traj = step_interval(traj, k)
    return traj, len(starts), traj.grid[stored].tolist()


@pytest.mark.parametrize(
    "problem, start, ns, tol",
    [
        # N is 34 from reach 0 up to H = 27 and the floor H + 7 beyond, so
        # the last five extensions deepen it
        (march_long_problem(), 16, (34, 39), 0.0),
        # b_i = i^-3 from the constant history: N is the floor H + 7, deeper
        # at every extension.  At s = 4, tau_12 = s + depth exactly, so
        # the sorted search there reaches past the shorter run's delays: the head
        # must stop at the point's own index in both runs
        (ProblemSpec(-0.5, CoefficientFamily.power_law(1.0, 3.0, DS), history_preset("constant")), 4, (7, 15), 0.0),
        # tau_i = i/10: N is the floor, at least 79 >= _MOMENT_MIN_TERMS, so
        # the cos tail enters through suffix moments over (m, cap]; those
        # start from the array's last delay, so they round by array length.
        # A moment over (m, N] instead would differ by b_90..b_99, ~1e-12
        (ProblemSpec(-0.5, CoefficientFamily.geometric(1.0, 0.72, DelaySchedule(0.0, 0.1)), cos_history()), 10, (79, 99), 1e-14),
        # tau_i = 2i - 1: the recursion reads F two windows back, across extensions
        (odd_delays_problem(), 16, (34, 34), 0.0),
    ],
    ids=["march-long", "closed-form", "moments", "period-2"],
)
def test_step_interval_chain_marches_on_to_the_one_shot_nodes(monkeypatch, problem, start, ns, tol):
    # solve to start tau_1, then one window per extension to 2 start tau_1:
    # no extension starts over from t = 0, and the nodes are the one-shot's
    tau1 = problem.family.delays.tau1
    chained, starts, _ = _chain(problem, start * tau1, range(start, 2 * start), monkeypatch)
    direct = solve(problem, 2 * start * tau1)
    assert starts == 1
    assert (chained.n_origin, chained.n_forcing) == (direct.n_origin, direct.n_forcing) == ns
    if tol == 0.0:
        _assert_same_nodes(chained, direct)
    assert np.array_equal(chained.grid, direct.grid)
    for name in ("values", "derivs"):
        assert np.max(np.abs(getattr(chained, name) - getattr(direct, name))) <= tol, name


@pytest.mark.parametrize("problem", [march_long_problem(), odd_delays_problem()], ids=["period-1", "period-2"])
def test_step_interval_chain_from_inside_a_window_marches_on_to_the_one_shot_nodes(monkeypatch, problem):
    # solve stops at t = 16.5, a step end of the one-shot grid; the partial
    # window [16, 16.5] and the extension's [16.5, 17] recur one period after
    # points the march stored, so they read the recursion as the one-shot does
    chained, starts, stored = _chain(problem, 16.5, range(16, 24), monkeypatch)
    direct = solve(problem, 24.0)
    assert starts == 1 and stored[16:18] == [16.0, 16.5]
    _assert_same_nodes(chained, direct)


def _reads(monkeypatch, march) -> list:
    """The number of solution arguments of each read march() makes: a head read through
    stepper._delayed_values, or a recursion window's one stepper.eval_located gather."""
    sizes, real, gather = [], fd.stepper._delayed_values, fd.stepper.eval_located

    def counted(phi, breaks, coeffs, args):
        sizes.append(len(args))
        return real(phi, breaks, coeffs, args)

    def gathered(coeffs, idx, u):
        sizes.append(len(idx))
        return gather(coeffs, idx, u)

    with monkeypatch.context() as m:
        m.setattr(fd.stepper, "_delayed_values", counted)
        m.setattr(fd.stepper, "eval_located", gathered)
        march()
    return sizes


@pytest.mark.parametrize("problem, period", [(march_long_problem(), 1), (odd_delays_problem(), 2)], ids=["period-1", "period-2"])
def test_recursion_reads_one_solution_argument_per_point(monkeypatch, problem, period):
    # F(0) is one read and each window one more; past the first period a
    # window reads x(s - tau_1) once at each of its 5 points per step, and
    # the correction x(s - tau_{c+1}) from phi alone, in the plan; so the
    # reads per node do not grow with the horizon as the head's do
    per_node = {}
    for horizon in (32.0, 256.0):
        sizes = _reads(monkeypatch, partial(solve, problem, horizon))
        windows = fd.stepper._substeps(0.0, horizon, problem.family, problem.family.delays.tau1 / 40.0)
        assert len(sizes) == 1 + len(windows)
        for k, (w, n) in enumerate(zip(windows, sizes[1:])):
            assert k < period or n == 5 * len(w), (horizon, k)
        per_node[horizon] = sum(sizes) / (1 + sum(len(w) for w in windows))
    assert per_node[256.0] <= 1.5 * per_node[32.0]


_HEAD_ONLY = {
    "power-law": (ProblemSpec(-0.5, CoefficientFamily.power_law(1.0, 3.0, DS), cos_history()), 8.0),
    "prefix": (slow_geometric_problem(), 8.0),
    "half-period": (ProblemSpec(-0.5, CoefficientFamily.geometric(1.0, 0.5, DelaySchedule(0.5, 0.5)), cos_history()), 8.0),
}


@pytest.mark.parametrize("problem, horizon", list(_HEAD_ONLY.values()), ids=list(_HEAD_ONLY))
def test_families_without_a_period_read_the_head(monkeypatch, problem, horizon):
    # a power law, a delay prefix and delta = tau_1 / 2 have no period: every
    # window reads the head, argument for argument
    assert fd.stepper._period(problem.family) == 0
    sizes = _reads(monkeypatch, partial(solve, problem, horizon))
    monkeypatch.setattr(fd.stepper, "_period", lambda family: 0)
    assert sizes == _reads(monkeypatch, partial(solve, problem, horizon))


@pytest.mark.parametrize("horizon, recurs", [(8.31, False), (8.5, True)])
def test_a_partial_last_window_recurs_only_on_the_stored_points(monkeypatch, horizon, recurs):
    # [8, 8.31] takes 13 steps of 0.31/13, which recur nowhere one period
    # back, so it reads the head; [8, 8.5] takes the 20 steps of [7, 7.5]
    problem = march_long_problem()
    sizes = _reads(monkeypatch, partial(solve, problem, horizon))
    monkeypatch.setattr(fd.stepper, "_period", lambda family: 0)
    heads = _reads(monkeypatch, partial(solve, problem, horizon))
    assert sizes[:2] == heads[:2] and all(n < h for n, h in zip(sizes[2:-1], heads[2:-1]))
    assert (sizes[-1] < heads[-1]) == recurs and (sizes[-1] == heads[-1]) != recurs


def test_a_recursion_that_is_not_finite_leaves_the_window_to_the_head(monkeypatch):
    # a growing tail's correction can be 0 * inf: a window whose recursion F
    # is not finite reads the head instead.  With the correction at each
    # window's first point spoiled, every window reads the head: the nodes
    # and the stored (points, F, caps) are those of a plan without the
    # recursion, and the nodes those of a family without a period
    problem, real = march_long_problem(), fd.stepper._plan

    def spoiled(*args):
        entries, grid, state, since = real(*args)
        for *_, recursion in entries[1:]:
            _, _, corr, _ = recursion  # every window past the first recurs
            corr[0] = np.nan
        return entries, grid, state, since

    def head_only(*args):
        entries, grid, state, since = real(*args)
        return [entry[:-1] + (None,) for entry in entries], grid, state, since

    runs = []
    for plan in (spoiled, head_only):
        monkeypatch.setattr(fd.stepper, "_plan", plan)
        runs.append(solve(problem, 4.0))
    monkeypatch.setattr(fd.stepper, "_plan", real)
    monkeypatch.setattr(fd.stepper, "_period", lambda family: 0)
    runs.append(solve(problem, 4.0))
    _assert_same_nodes(runs[0], runs[1])
    _assert_same_nodes(runs[0], runs[2])
    assert len(runs[0]._period_state[0]) > 0 and runs[2]._period_state == ()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(runs[0]._period_state, runs[1]._period_state))


def test_a_cap_that_rises_by_two_leaves_the_window_to_the_head(monkeypatch):
    # over one period the recursion adds one delay, b_{c(s)} x(s - tau_{c(s)})
    # when c(s) = c(s - delta) + 1; a cap that fell, or rose by 2 (s + depth
    # within rounding of a delay), would sum other terms, so that window
    # reads the head
    problem, real = march_long_problem(), fd.stepper._caps

    def lowered(traj, points, taus):
        caps = real(traj, points, taus)
        return caps - 2 * ((points > 1.5) & (points < 1.6))  # a rise of -2 over [0.5, 0.6], then of 2

    monkeypatch.setattr(fd.stepper, "_caps", lowered)
    _, windows = recorded_march(monkeypatch, partial(solve, problem, 4.0))
    assert [head for *_, head in windows] == [True, True, True, False]


def test_the_plan_does_the_grid_only_work_once_per_march(monkeypatch):
    # a 32-window solve computes its step powers, its scan's grid part and
    # its one np.exp once, in the plan; the sweep exponentiates only e^{a dt}
    # (math.exp) and never tests a cube.  The RK4 grid part needs no np.exp
    calls = []
    powers, exp, (nodes, grid, scan) = fd.stepper.hermite_steps, np.exp, fd.stepper._VOC
    monkeypatch.setattr(fd.stepper, "hermite_steps", lambda *args: calls.append("powers") or powers(*args))
    monkeypatch.setattr(fd.stepper, "_VOC", (nodes, lambda *args: calls.append("grid") or grid(*args), scan))
    monkeypatch.setattr(np, "exp", lambda *args, **kw: calls.append("np.exp") or exp(*args, **kw))
    monkeypatch.setattr(fd.numerics, "normal_cube", lambda dt: calls.append("normal_cube"))
    traj = solve(march_long_problem(), 32.0)
    assert sorted(calls) == ["grid", "np.exp", "powers"] and len(traj.grid) == 1281
    calls.clear()
    step_interval(traj, 32)
    assert sorted(calls) == ["grid", "np.exp", "powers"]
    calls.clear()
    fd.oracle_solve(march_long_problem(), 4.0)
    assert calls == ["powers"]


def test_step_interval_chain_stores_each_window_once(monkeypatch):
    # one _store_window call per tau_1-window of [0, 32]: the solve stores
    # [0, 16] and each extension only its own window
    _, _, stored = _chain(march_long_problem(), 16.0, range(16, 32), monkeypatch)
    assert stored == [float(k) for k in range(32)]


def _bits(traj) -> list:
    """Every node array and period-state array of traj as bytes, with its forcing index."""
    arrays = (traj.grid, traj.values, traj.derivs, traj.pieces, *traj._period_state)
    return [traj.n_forcing, len(traj._period_state)] + [arr.tobytes() for arr in arrays]


def test_two_extensions_from_one_parent_do_not_see_each_other():
    # the first child appends to the parent's chain in place; the second
    # finds the parent no longer its chain's tip, copies it once and starts
    # a chain of its own.  Each child, and each grandchild, is a fresh chain's
    p = march_long_problem()
    parent = step_interval(solve(p, 3.0), 3)
    before = _bits(parent)
    first, second = step_interval(parent, 4), step_interval(parent, 5)
    fresh = step_interval(solve(p, 3.0), 3)
    assert _bits(first) == _bits(step_interval(fresh, 4))
    assert _bits(second) == _bits(step_interval(fresh, 5)) and first._chain is not second._chain
    assert _bits(step_interval(first, 6)) == _bits(step_interval(step_interval(fresh, 4), 6))
    assert _bits(step_interval(second, 6)) == _bits(step_interval(fresh, 6))
    assert _bits(parent) == before


def test_an_extension_from_a_replaced_copy_reads_its_own_pieces():
    # a dataclasses.replace copy shares its parent's chain arrays in every
    # field it does not replace, but not the chain: it copies its own
    # fields once, so the perturbed piece is read and the parent's arrays
    # and extensions stay as they were
    p = march_long_problem()
    parent = step_interval(solve(p, 3.0), 3)
    before = _bits(parent)
    pieces = parent.pieces.copy()
    pieces[-20, 2] += 1e-3  # on [3.5, 3.525]: x(s - tau_1) of the next window reads it
    copy = replace(parent, pieces=pieces)
    got = step_interval(copy, 4)
    fresh = replace(step_interval(solve(p, 3.0), 3), pieces=pieces.copy())
    assert _bits(got) == _bits(step_interval(fresh, 4))
    assert _bits(got)[3:] != _bits(step_interval(parent, 4))[3:]
    assert _bits(parent) == before
    assert _bits(step_interval(parent, 4)) == _bits(step_interval(step_interval(solve(p, 3.0), 3), 4))


def test_an_extension_after_one_that_overflowed_is_a_fresh_chains():
    # with a = 150 the solution leaves the floating-point range at t = 4.64:
    # the failed march wrote its first window, its state and the parent's
    # last row in the chain's buffers, in place, but the parent stays the
    # tip, and the next extension overwrites them
    p = ProblemSpec(150.0, CoefficientFamily.geometric(1.0, 0.5, DelaySchedule(0.0, 0.5)), history_preset("cos"))
    parent = step_interval(solve(p, 3.5), 7)
    before = _bits(parent)
    with pytest.raises(OverflowError, match="after t = 4.6"):
        step_interval(parent, 9)
    assert _bits(parent) == before
    # what lies past the tip may be anything (a new buffer is np.empty): NaN, read, spoils every F
    chain = parent._chain
    chain.breaks[chain.rows :], chain.coeffs[chain.rows - 1, 2:], chain.coeffs[chain.rows :] = np.nan, np.nan, np.nan
    got = step_interval(parent, 8)
    assert got._chain is parent._chain  # appended in place, not copied
    assert _bits(got) == _bits(step_interval(step_interval(solve(p, 3.5), 7), 8))
    assert _bits(parent) == before


_TREE_PROBLEMS = {"period-1": march_long_problem(), "period-2": odd_delays_problem()}
_ONE_SHOT: dict = {}  # (problem name, horizon) -> _bits of one solve to it, shared by the examples


@given(
    name=st.sampled_from(sorted(_TREE_PROBLEMS)),
    h0=st.sampled_from([3.0, 3.5, 4.0]),
    moves=st.lists(st.tuples(st.integers(0, 5), st.integers(1, 3)), min_size=6, max_size=6),
)
def test_every_extension_tree_marches_to_the_one_shot_nodes(name, h0, moves):
    # six extensions, each from any trajectory built so far (the chain's tip
    # or not), 1 to 3 windows past its parent's last window: each equals one
    # solve to its horizon bit for bit, and none changes an earlier one
    problem = _TREE_PROBLEMS[name]
    tau1 = problem.family.delays.tau1
    trajs = [solve(problem, h0)]
    bits = [_bits(trajs[0])]
    for pick, reach in moves:
        parent = trajs[pick % len(trajs)]
        child = step_interval(parent, math.ceil(parent.horizon / tau1 - 1e-12) - 1 + reach)
        key = (name, child.horizon)
        if key not in _ONE_SHOT:
            _ONE_SHOT[key] = _bits(solve(problem, child.horizon))
        trajs.append(child)
        bits.append(_bits(child))
        assert bits[-1] == _ONE_SHOT[key]
        assert [_bits(traj) for traj in trajs[:-1]] == bits[:-1]


@pytest.mark.parametrize("how", ["solve", "step_interval"])
def test_a_trajectorys_arrays_are_read_only(how):
    # they are views of the chain's buffers, which later extensions write past
    p = march_long_problem()
    traj = solve(p, 3.0) if how == "solve" else step_interval(solve(p, 3.0), 3)
    arrays = (traj.grid, traj.values, traj.derivs, traj.pieces, *traj._period_state, *traj._read)
    assert len(arrays) == 9
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


def test_one_window_extensions_allocate_per_window_not_per_trajectory():
    # 64 one-window extensions from H = 1,024 (40,961 nodes): after the
    # first, which doubles the chain's table and family arrays, each one's
    # allocations peak far below one copy of the ~1.6 MB read table, and
    # the chain keeps O(window) more per extension.  Counted by tracemalloc,
    # not timed
    import tracemalloc

    traj = step_interval(solve(march_long_problem(), 1024.0), 1024)
    table = sum(arr.nbytes for arr in traj._read)
    assert table > 1.5e6
    peaks = []
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for k in range(1025, 1025 + 64):
            tracemalloc.reset_peak()
            now = tracemalloc.get_traced_memory()[0]
            traj = step_interval(traj, k)
            peaks.append(tracemalloc.get_traced_memory()[1] - now)
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert traj.horizon == 1089.0 and len(traj.grid) == 40 * 1089 + 1
    assert sum(peaks) / len(peaks) < table / 20 and max(peaks) < table / 8
    assert kept / 64 < table / 100


def test_per_point_forcing_stays_within_eps_of_a_deep_sum():
    # every node's forcing sums max(N_0, floor(s)) delays; against 200 delays
    # the discarded part is within the certified eps_forcing
    traj = solve(march_long_problem(), 32.0)
    full = forcing(traj, traj.grid, 200)
    assert np.max(np.abs(forcing(traj, traj.grid) - full)) <= traj.eps_forcing_used


@pytest.mark.parametrize(
    "family, config, horizon",
    [
        (CoefficientFamily.geometric(1.0, 0.5, DS), SolverConfig(), 40.0),
        (CoefficientFamily.power_law(1.0, 4.0, DS), SolverConfig(eps_forcing=1e-6), 90.0),
        (CoefficientFamily.geometric(0.8, 0.7, DelaySchedule(0.0, 0.5, (0.3, 0.7))), SolverConfig(), 40.0),
    ],
    ids=["geometric", "power-law", "affine-prefix"],
)
def test_caps_equal_the_truncation_at_each_points_reach(family, config, horizon):
    # the vectorised index of every point s is history._truncation's for
    # reach s, including where s + depth is a delay exactly
    phi = cos_history()
    traj = solve(ProblemSpec(-0.5, family, phi), family.delays.tau1, config)
    eps = traj.eps_forcing_used
    assert traj.n_origin == fd.history._truncation(phi, family, 0.0, eps)[0]
    taus = family.delays.tau_array(fd.history._truncation(phi, family, horizon, eps)[0])
    on_delay = taus[(taus >= phi.depth) & (taus <= horizon + phi.depth)] - phi.depth
    assert np.sum(on_delay + phi.depth == taus[np.searchsorted(taus, on_delay + phi.depth)]) >= 5
    points = np.concatenate([[0.0, horizon], on_delay, np.random.default_rng(3).uniform(0.0, horizon, 20)])
    caps = fd.stepper._caps(traj, points, taus)
    want = [fd.history._truncation(phi, family, s, eps)[0] for s in points]
    assert caps.tolist() == want
    assert min(want) == traj.n_origin < max(want)


def test_caps_of_a_finite_support_stop_at_its_index():
    # past the last nonzero b_i the floors would add only zero terms
    fam = CoefficientFamily.finite_support([0.5, 0.0, -0.25], DS)
    traj = solve(ProblemSpec(-0.5, fam, cos_history()), 3.0)
    taus = DS.tau_array(traj.n_forcing)
    points = np.linspace(0.0, 3.0, 13)
    assert traj.n_forcing == traj.n_origin == 3 < fd.history._tail_floor(traj.problem.history, fam, 0.0)
    assert fd.stepper._caps(traj, points, taus).tolist() == [3] * 13


def test_step_interval_short_circuits_when_covered():
    traj = solve(classic_problem(), 3.0)
    again = step_interval(traj, 2)
    assert again.horizon == traj.horizon
    assert np.array_equal(again.values, traj.values)


def test_step_interval_rejects_bad_k():
    # 4.5 once extended silently to 5.5 tau_1, and NaN failed inside the
    # step grid; a numpy integer is an integer
    traj = solve(classic_problem(), 1.0)
    for k, match in [(-1, ">= 0"), (4.5, "integer"), (math.nan, "integer"), ("2", "integer"), (2.0, "integer")]:
        with pytest.raises(ValueError, match=f"window index k must be (an )?{match}"):
            step_interval(traj, k)
    _assert_same_nodes(step_interval(traj, np.int64(2)), step_interval(traj, 2))


def test_nan_times_are_refused():
    # NaN passed the > guards: eval and forcing returned nan
    traj = solve(classic_problem(), 2.0)
    for t in (math.nan, np.array([0.5, math.nan])):
        with pytest.raises(ValueError, match="beyond horizon"):
            traj.eval(t)
        with pytest.raises(ValueError, match="beyond horizon"):
            forcing(traj, t)


_START_PROBLEMS = {
    "geometric": march_long_problem(),
    # a constant tail under a power law: the deep part is the zeta closed form
    "zeta": ProblemSpec(-0.5, CoefficientFamily.power_law(1.0, 3.0, DS), history_preset("constant")),
    "prefix-list": ProblemSpec(-0.4, CoefficientFamily.explicit_list([0.4, -0.3, 0.2, 0.1], 0.0, DelaySchedule(delta=1.0, prefix=(0.5, 1.2))), cos_history()),
    # N = 79 >= _MOMENT_MIN_TERMS: the cos tail enters through suffix moments
    "moments": ProblemSpec(-0.5, CoefficientFamily.geometric(1.0, 0.72, DelaySchedule(0.0, 0.1)), cos_history()),
}


@pytest.mark.parametrize("run", ["gauss4", "oracle"])
@pytest.mark.parametrize("p", list(_START_PROBLEMS.values()), ids=list(_START_PROBLEMS))
def test_start_slope_is_a_phi0_plus_the_forcing_bit_for_bit(run, p):
    # the march reads F(0) from its own arrays; it must be forcing's F(0)
    tau1 = p.family.delays.tau1
    traj = fd.oracle_solve(p, 2.0 * tau1) if run == "oracle" else solve(p, 2.0 * tau1)
    if p is _START_PROBLEMS["moments"]:
        assert traj.n_forcing >= fd.history._MOMENT_MIN_TERMS
    want = p.a * p.history.evaluate(0.0) + forcing(traj, 0.0)
    assert _same_bits(traj.derivs[0], want) and _same_bits(traj.values[0], p.history.evaluate(0.0))


def test_solve_sets_up_each_march_once(monkeypatch):
    # F(0) comes from the march's own arrays: solve never calls forcing, and
    # each march builds its delays and coefficients at most once: a chain
    # keeps them for its extensions, doubled when one needs more
    calls = []
    tau_array, b_array = DelaySchedule.tau_array, CoefficientFamily.b_array
    monkeypatch.setattr(DelaySchedule, "tau_array", lambda self, n: calls.append("tau") or tau_array(self, n))
    monkeypatch.setattr(CoefficientFamily, "b_array", lambda self, n: calls.append("b") or b_array(self, n))
    monkeypatch.setattr(fd.stepper, "forcing", lambda *args: calls.append("forcing"))
    p = march_long_problem()
    traj = solve(p, 4.0)
    assert calls == ["tau", "b"]
    step_interval(traj, 4)  # N = 34 at H = 5: the solve's 35 entries hold it
    fd.oracle_solve(p, 1.0)
    assert calls == ["tau", "b"] * 2
    chain = step_interval(solve(p, 27.0), 27)  # N = 35 at H = 28 needs 36 entries: 70 are built
    assert calls == ["tau", "b"] * 4 and len(chain._chain.taus) == 70
    step_interval(chain, 28)
    assert calls == ["tau", "b"] * 4


def test_a_step_interval_chain_certifies_from_the_memo(monkeypatch):
    # the solve's search certified N for every floor in [floor, N], so an extension there does
    # not search, and past N the search's first probe certifies: at most one bound per extension
    # (eight before the memo)
    traj = solve(march_long_problem(), 16.0)
    bound, bounds = fd.coefficients.tail_sum_bound, []
    for module in (fd.coefficients, fd.history):
        monkeypatch.setattr(module, "tail_sum_bound", lambda *a: bounds.append(a) or bound(*a))
    for k in range(16, 32):
        before = len(bounds)
        traj = step_interval(traj, k)
        assert len(bounds) - before <= 1, k
    assert traj.n_forcing == 39


def test_step_interval_refuses_oracle_trajectories():
    # the oracle records no forcing tolerance; extending it by variation of
    # constants would silently swap the RK4 reference for a solve
    power = ProblemSpec(-0.5, CoefficientFamily.power_law(1.0, 3.0, DS), history_preset("constant"))
    for traj in (fd.oracle_solve(geometric_problem(), 2.0), fd.oracle_solve(power, 2.0)):
        with pytest.raises(ValueError, match="oracle_solve"):
            step_interval(traj, 2)


# ---------------------------------------------------------------------------
# a-priori estimate certificates
# ---------------------------------------------------------------------------


def test_estimate_certificate_reads_k_as_an_integer():
    # 2.5 failed inside range() with a bare TypeError
    traj = solve(classic_problem(), 3.0)
    assert estimate_certificate(traj, np.int64(2)) == estimate_certificate(traj, 2)
    for k, match in [(2.5, "an integer"), (math.nan, "an integer"), (0, ">= 1")]:
        with pytest.raises(ValueError, match=f"window index k must be {match}"):
            estimate_certificate(traj, k)


def test_estimate_pure_exponential_bound_is_e():
    traj = solve(pure_exponential_problem(), 1.0)
    cert = estimate_certificate(traj, 1)
    # B_1 = e^{1*1} * 1 + phi1(1,1) * 0 = e, and x(1) = e meets it exactly
    assert abs(cert.bound - math.e) < 1e-12
    assert cert.valid
    assert abs(cert.observed - math.e) < 1e-9


def test_estimate_classic_chain_frozen():
    traj = solve(classic_problem(), 2.0)
    c1 = estimate_certificate(traj, 1)
    assert c1.bound == 2.0 and c1.b_chain == (2.0,)
    c2 = estimate_certificate(traj, 2)
    assert c2.b_chain == (2.0, 6.0)
    assert c2.bound == 6.0
    assert abs(c2.observed - 1.0) < 1e-12
    assert c2.valid
    assert c2.q_value == 1.0
    assert c2.constant == 6.0
    assert [n for (n, _) in c2.levels] == ["sup_norm[1]", "p[1]", "p[2]"]


def test_estimate_certificates_share_the_history_seminorms(monkeypatch):
    # p_1 and p_2 are memoized on the history, so k = 3 computes p_3 alone
    traj = solve(classic_problem(), 3.0)
    real, reaches = fd.history._truncation, []
    monkeypatch.setattr(fd.history, "_truncation", lambda *a: reaches.append(a[2]) or real(*a))
    estimate_certificate(traj, 2)
    assert reaches == [1.0, 2.0]
    estimate_certificate(traj, 3)
    assert reaches == [1.0, 2.0, 3.0]


def test_estimate_requires_covering_trajectory():
    traj = solve(classic_problem(), 1.0)
    with pytest.raises(ValueError):
        estimate_certificate(traj, 2)


def test_estimate_levels_track_deeper_sup_norm_when_needed():
    fam = CoefficientFamily.geometric(1.0, 0.5, DelaySchedule(c=0.5))
    p = ProblemSpec(0.0, fam, history_preset("exp-decay"))
    traj = solve(p, 2.0 * fam.delays.tau1)
    cert = estimate_certificate(traj, 2)
    names = [n for (n, _) in cert.levels]
    # m(2) = 2 here, so the window-2 sup norm joins the level list
    assert "sup_norm[2]" in names
    assert cert.valid


def test_estimate_json_round_trip():
    # the estimates check's report row, written as the CLI writes it
    traj = solve(classic_problem(), 2.0)
    report = _run_estimates(SimpleNamespace(traj=lambda: traj), {"k_list": [2]})
    blob = json.loads(json.dumps(report))["certificates"][0]
    assert blob.keys() == {"k", "bound", "observed", "valid", "constant", "q_value", "levels", "b_chain"}
    assert blob["valid"] is True
    assert blob["b_chain"] == [2.0, 6.0]
    assert {row["name"] for row in blob["levels"]} == {"sup_norm[1]", "p[1]", "p[2]"}


# ---------------------------------------------------------------------------
# container round trips
# ---------------------------------------------------------------------------


def test_trajectory_json_dict():
    traj = solve(classic_problem(), 1.0)
    d = traj.to_json_dict()
    assert set(d.keys()) == {"grid", "values", "derivs", "horizon"}
    assert d["horizon"] == 1.0
    assert len(d["grid"]) == len(d["values"]) == len(d["derivs"])


def test_solve_compare_and_seminorms_leave_numpy_ma_unimported():
    # np.unique imports numpy.ma on first use, memory and start-up time
    # that none of these paths needs
    code = (
        "import sys\n"
        "import infidelay as fd\n"
        "p = fd.ProblemSpec(-0.5, fd.CoefficientFamily.geometric(0.5, 0.5, fd.DelaySchedule()), fd.history_preset('cos'))\n"
        "t = fd.solve(p, 3.0)\n"
        "fd.compare_trajectories(t, fd.oracle_solve(p, 3.0))\n"
        "fd.p_seminorm(p.history, p.family, 2)\n"
        "fd.membership_in_F(p.history, p.family)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(fd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
