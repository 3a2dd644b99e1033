"""Histories, tail models, seminorms, membership, weighted norms, and L."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import infidelay as fd
from infidelay import (
    CoefficientFamily,
    ConstantTail,
    CosTail,
    DelaySchedule,
    DivergentTailError,
    ExpFormTail,
    ExpTail,
    SeminormValue,
    UnknownTailError,
    WeightEnvelopeTail,
    WeightFunction,
    cg_norm,
    check_cg_embedding,
    combine_histories,
    history_difference,
    history_from_callable,
    history_preset,
    L_functional,
    membership_in_F,
    p_seminorm,
    scale_history,
    sup_norm_k,
    tail_sum_bound,
)
from infidelay.coefficients import hurwitz_zeta
from infidelay.numerics import derivative_coeffs
from infidelay.scenario import _envelope
from conftest import random_core_history

GEO_HALF = CoefficientFamily.geometric(1.0, 0.5, DelaySchedule())
HARMONIC = CoefficientFamily.power_law(1.0, 1.0, DelaySchedule())
G2 = WeightFunction.exponential(base=2.0)
W1 = WeightFunction.constant(1.0)
LN2 = math.log(2.0)


def linear_history(depth: float = 10.0) -> fd.HistoryFunction:
    """phi(theta) = theta on [-depth, 0], frozen at -depth beyond."""
    return fd.HistoryFunction(
        [-depth, 0.0], [[-depth, 1.0, 0.0, 0.0]], ConstantTail(-depth)
    )


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_evaluate_constant_preset():
    phi = history_preset("constant")
    assert phi.evaluate(-7.3) == 1.0
    assert phi.evaluate(-123.0) == 1.0  # tail region
    assert phi.evaluate(0.0) == 1.0


def test_evaluate_linear_core_and_tail():
    phi = linear_history()
    assert phi.evaluate(-2.0) == -2.0
    assert phi.evaluate(0.0) == 0.0
    assert phi.evaluate(-50.0) == -10.0


def test_evaluate_sampled_callable_matches_function():
    phi = history_from_callable(math.cos, depth=8.0, resolution=0.05)
    assert abs(phi.evaluate(-math.pi) - math.cos(-math.pi)) < 1e-8
    thetas = np.linspace(-8.0, 0.0, 400)
    assert np.max(np.abs(phi.evaluate(thetas) - np.cos(thetas))) < 1e-6


@pytest.mark.parametrize("depth, resolution", [(8.0, 1e-12), (1e12, 1e-12), (1e12, 0.05), (math.inf, 0.05), (math.inf, math.inf), (8.0, math.nan), (math.nan, 0.05)])
def test_a_core_of_too_many_pieces_is_refused_before_any_allocation(depth, resolution):
    # resolution 1e-12 once asked np.linspace for 58 TiB
    def never(t):
        raise AssertionError("sampled a core that should be refused")

    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="must be at most 1000000 pieces"):
            history_from_callable(never, depth=depth, resolution=resolution)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@pytest.mark.parametrize("depth, resolution", [(8.0, 0.0), (8.0, -0.05), (0.0, 0.05)])
def test_sampled_core_needs_positive_depth_and_resolution(depth, resolution):
    # resolution 0 once divided by zero, and -0.05 silently gave a 2-piece core
    with pytest.raises(ValueError, match="core depth and resolution must be positive"):
        history_from_callable(math.cos, depth=depth, resolution=resolution)


def test_evaluate_rejects_future_arguments():
    phi = history_preset("constant")
    with pytest.raises(ValueError):
        phi.evaluate(0.5)
    with pytest.raises(ValueError):
        phi.evaluate(np.array([-1.0, 0.25]))


def test_evaluate_rejects_nan_arguments():
    # NaN passed the > guard and read as nan
    phi = history_preset("cos")
    for theta in (math.nan, np.array([-1.0, math.nan])):
        with pytest.raises(ValueError, match="theta must be <= 0"):
            phi.evaluate(theta)


def test_core_must_be_continuous():
    bp = [-2.0, -1.0, 0.0]
    cf = [[0.0, 0.0, 0.0, 0.0], [5.0, 0.0, 0.0, 0.0]]  # jumps 0 -> 5 at -1
    with pytest.raises(ValueError):
        fd.HistoryFunction(bp, cf, ConstantTail(0.0))


def test_core_continuity_error_names_the_first_jump():
    bp = [-3.0, -2.0, -1.0, 0.0]
    cf = [[0.0, 0.0, 0.0, 0.0], [5.0, 0.0, 0.0, 0.0], [7.0, 0.0, 0.0, 0.0]]
    with pytest.raises(ValueError, match=r"theta=-2\.0: 0\.0 vs 5\.0$"):
        fd.HistoryFunction(bp, cf, ConstantTail(0.0))


def test_tail_must_match_core_at_the_seam():
    bp = [-2.0, 0.0]
    cf = [[1.0, 0.0, 0.0, 0.0]]
    with pytest.raises(ValueError):
        fd.HistoryFunction(bp, cf, ConstantTail(3.0))
    # a tail that is NaN at the seam fails every comparison, "> tol" too
    for tail in (ConstantTail(math.nan), CosTail(1.0, math.inf), CosTail(1.0, 1.0, math.inf)):
        with pytest.raises(ValueError, match="tail does not meet the core"):
            fd.HistoryFunction([-1.0, 0.0], cf, tail)


def test_history_holds_finite_numbers():
    # a NaN fails the continuity comparison silently, and an infinite core
    # meets ConstantTail(inf); both are refused before either check
    bp, cf = [-2.0, -1.0, 0.0], [[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]
    for bad_cf, tail in (([[1.0, 0.0, 0.0, 0.0], [math.nan, 0.0, 0.0, 0.0]], ConstantTail(1.0)),
                         ([[math.inf, 0.0, 0.0, 0.0]] * 2, ConstantTail(math.inf))):
        with pytest.raises(ValueError, match="must be finite"):
            fd.HistoryFunction(bp, bad_cf, tail)
    with pytest.raises(ValueError, match="must be finite"):
        fd.HistoryFunction([-math.inf, -1.0, 0.0], cf, ConstantTail(1.0))


def test_history_arrays_are_read_only_copies():
    bp, cf = np.array([-2.0, -1.0, 0.0]), np.ones((2, 4)) * [1.0, 0.0, 0.0, 0.0]
    phi = fd.HistoryFunction(bp, cf, ConstantTail(1.0))
    cf[0, 0] = bp[0] = 5.0  # the caller's arrays stay the caller's
    assert phi.coeffs[0, 0] == 1.0 and phi.breakpoints[0] == -2.0
    with pytest.raises(ValueError):
        phi.coeffs[0, 0] = 2.0
    with pytest.raises(ValueError):
        phi.breakpoints[0] = -3.0


def test_seminorms_are_computed_once_per_history(monkeypatch):
    truncation, sup_abs = fd.history._truncation, fd.HistoryFunction.sup_abs_interval
    searches, sups = [], []
    monkeypatch.setattr(fd.history, "_truncation", lambda *a: searches.append(a[2:]) or truncation(*a))
    monkeypatch.setattr(fd.HistoryFunction, "sup_abs_interval", lambda *a: sups.append(a[1:]) or sup_abs(*a))
    phi = history_preset("cos")
    p2 = p_seminorm(phi, GEO_HALF, 2)
    assert p_seminorm(phi, GEO_HALF, 2) is p2 and p_seminorm(phi, GEO_HALF, 2, 1e-10) is p2
    assert len(searches) == 1
    # a different k, eps or family, or another history object, computes again
    other = CoefficientFamily.geometric(1.0, 0.25, DelaySchedule())
    again = [p_seminorm(phi, GEO_HALF, 3), p_seminorm(phi, GEO_HALF, 2, 1e-8), p_seminorm(phi, other, 2)]
    again.append(p_seminorm(history_preset("cos"), GEO_HALF, 2))
    assert len(searches) == 5 and all(v is not p2 for v in again)
    assert again[3] == p2
    n_sups = len(sups)
    s1 = sup_norm_k(phi, 1)
    assert sup_norm_k(phi, 1) is s1 and len(sups) == n_sups + 1
    sup_norm_k(phi, 2)
    assert len(sups) == n_sups + 2


def _counted_sup_calls(monkeypatch) -> list:
    sup_abs, calls = fd.HistoryFunction.sup_abs_interval, []
    monkeypatch.setattr(fd.HistoryFunction, "sup_abs_interval", lambda *a: calls.append(len(np.atleast_1d(a[1]))) or sup_abs(*a))
    return calls


BATCH_CASES = {
    "geometric": (lambda: history_preset("cos"), GEO_HALF, 1e-10),
    "power-law-constant-tail": (
        lambda: scale_history(1.5, history_preset("constant")), CoefficientFamily.power_law(1.0, 2.0, DelaySchedule()), 1e-10),
    "list-with-mass": (lambda: history_preset("cos"), CoefficientFamily.explicit_list([0.5, 0.25, 0.1], 0.05, DelaySchedule()), 0.1),
    "zero-mass-list": (
        lambda: history_preset("cos"), CoefficientFamily.explicit_list([0.3, -0.2, 0.0, 0.1], 0.0, DelaySchedule(delta=0.7)), 1e-10),
    "harmonic": (lambda: fd.HistoryFunction([-3.0, 0.0], [[0.0, 1.0 / 3.0, 0.0, 0.0]], ConstantTail(0.0)), HARMONIC, 1e-10),
    "harmonic-cos": (lambda: history_preset("cos"), HARMONIC, 1e-10),
}


@pytest.mark.parametrize("split", [False, True], ids=["one-call", "split"])
@pytest.mark.parametrize("case", list(BATCH_CASES))
def test_a_batch_of_seminorms_changes_no_bit(monkeypatch, case, split):
    # every p_k and sup_k of one batch equals the value computed alone on a
    # fresh, equal history, also when the cap on windows per call splits it
    make, fam, eps = BATCH_CASES[case]
    ks = range(1, 6)
    alone = [p_seminorm(make(), fam, k, eps) for k in ks]
    sizes = [len(sv.indices_used) for sv in alone]
    if split:
        monkeypatch.setattr(fd.history, "_CHUNK_TERMS", max(1, sum(sizes) // 2))
    phi, calls = make(), _counted_sup_calls(monkeypatch)
    fd.history._seminorms(phi, fam, ks, eps)
    # no call holds more windows than the cap, save one k's alone
    assert sum(calls) == sum(sizes) and all(c <= fd.history._CHUNK_TERMS or c in sizes for c in calls)
    assert len(calls) >= 2 if split and sum(sizes) else len(calls) == (sum(sizes) > 0)
    fd.history._sup_norms(phi, ks)
    assert calls[-1] == 5
    assert [p_seminorm(phi, fam, k, eps) for k in ks] == alone
    assert [sup_norm_k(phi, k) for k in ks] == [sup_norm_k(make(), k) for k in ks]
    verdicts = [sv.verdict for sv in alone]
    if case == "list-with-mass":
        assert verdicts == ["finite"] * 4 + ["inconclusive"]
    elif case == "harmonic-cos":
        assert verdicts == ["inconclusive"] + ["divergent"] * 4
    else:
        assert verdicts == ["finite"] * 5


@pytest.mark.parametrize("case", list(BATCH_CASES))
def test_the_batches_return_their_values_in_the_order_asked(case):
    make, fam, eps = BATCH_CASES[case]
    phi, ks = make(), [3, 1, np.int64(3), 2, 1]
    p_seminorm(phi, fam, 2, eps)  # one k known before the batch
    pks, sups = fd.history._seminorms(phi, fam, ks, eps), fd.history._sup_norms(phi, ks)
    assert len(pks) == len(sups) == 5 and pks[0] is pks[2] and pks[1] is pks[4]
    assert all(pk is p_seminorm(phi, fam, k, eps) for k, pk in zip(ks, pks))
    assert all(sup is sup_norm_k(phi, k) for k, sup in zip(ks, sups))
    assert fd.history._seminorms(phi, fam, [], eps) == fd.history._sup_norms(phi, []) == []


@pytest.mark.parametrize("case", list(BATCH_CASES))
def test_a_repeated_seminorm_builds_no_array_and_runs_no_search(monkeypatch, case):
    make, fam, eps = BATCH_CASES[case]
    phi = make()
    first = p_seminorm(phi, fam, 2, eps), sup_norm_k(phi, 2)
    calls = []
    for owner, name in [(DelaySchedule, "tau_array"), (CoefficientFamily, "b_array"), (fd.history, "_truncation"),
                        (fd.HistoryFunction, "sup_abs_interval")]:
        monkeypatch.setattr(owner, name, lambda *a, name=name: calls.append(name))
    assert (p_seminorm(phi, fam, 2, eps), sup_norm_k(phi, np.int64(2))) == first
    assert fd.history._seminorms(phi, fam, [2, 2], eps) == [first[0]] * 2 and fd.history._sup_norms(phi, [2]) == [first[1]]
    assert calls == []


def test_a_seminorm_family_is_one_window_sup_call(monkeypatch):
    calls = _counted_sup_calls(monkeypatch)
    phi = history_preset("cos")
    rep = membership_in_F(phi, GEO_HALF, 5)
    assert len(calls) == 1
    # the memo answers every repeat with the same objects
    again = membership_in_F(phi, GEO_HALF, 5)
    assert all(again.seminorms[k] is rep.seminorms[k] is p_seminorm(phi, GEO_HALF, k) for k in range(1, 6))
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# tail models
# ---------------------------------------------------------------------------

TAILS = [
    ConstantTail(1.5),
    CosTail(0.7, 2.0, 0.3),
    ExpTail(2.0, 0.5),
    ExpTail(0.8, -LN2),
    WeightEnvelopeTail(1.2, WeightFunction.polynomial(2), shift=1.0),
]


def test_one_model_per_tail_shape():
    # amp e^{rate theta} is an ExpTail of either sign; an envelope takes polynomial weights only
    assert history_preset("g-weight").tail == ExpTail(1.0, -LN2)
    for w in (G2, WeightFunction.constant(2.0), W1):
        with pytest.raises(ValueError, match="needs a polynomial weight"):
            WeightEnvelopeTail(1.0, w)
    for rate in (0.0, math.nan):
        with pytest.raises(ValueError, match="needs rate != 0"):
            ExpTail(1.0, rate)
    for omega in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="needs omega > 0"):
            CosTail(1.0, omega)
    # one class: at most one of sigma and omega away from 0, omega >= 0, and a phase only with omega > 0
    for fields in ((1.0, 0.5, 2.0), (1.0, 0.0, -1.0), (1.0, 0.0, 0.0, 0.3), (1.0, math.nan)):
        with pytest.raises(ValueError, match="exponential-form tail needs"):
            ExpFormTail(*fields)
    # each constructor keeps its former class's float formula, bit for bit
    thetas = np.linspace(-40.0, -6.0, 101)
    for tail, values in [
        (ConstantTail(1.5), np.full_like(thetas, 1.5)),
        (CosTail(0.7, 2.0, 0.3), 0.7 * np.cos(2.0 * thetas + 0.3)),
        (ExpTail(2.0, 0.5), 2.0 * np.exp(0.5 * thetas)),
        (ExpTail(0.8, -LN2), 0.8 * np.exp(-LN2 * thetas)),
    ]:
        assert type(tail) is ExpFormTail and np.array_equal(tail.evaluate(thetas), values)
    # a constant computes no 0 * theta, which is NaN at -inf
    assert ConstantTail(1.5).evaluate(-math.inf) == 1.5
    s = 1.3
    assert ConstantTail(1.5).shifted(s) == ConstantTail(1.5) and ConstantTail(1.5).derivative() == ConstantTail(0.0)
    assert CosTail(0.7, 2.0, 0.3).shifted(s) == CosTail(0.7, 2.0, 0.3 + 2.0 * s)
    assert CosTail(0.7, 2.0, 0.3).derivative() == CosTail(-0.7 * 2.0, 2.0, 0.3 - 0.5 * math.pi)
    assert ExpTail(2.0, -0.5).shifted(s) == ExpTail(2.0 * math.exp(-0.5 * s), -0.5)
    assert ExpTail(2.0, -0.5).derivative() == ExpTail(2.0 * -0.5, -0.5)
    assert math.copysign(1.0, ConstantTail(-2.0).derivative().amp) == 1.0


@pytest.mark.parametrize("tail", TAILS, ids=lambda t: type(t).__name__ + str(TAILS.index(t) if t in TAILS else ""))
def test_tail_envelope_atoms_are_sound(tail):
    depth = 6.0
    rng = np.random.default_rng(3)
    thetas = -depth - 40.0 * rng.random(1000)
    atoms = tail.atoms(depth)
    vals = np.abs(np.asarray(tail.evaluate(thetas), dtype=float))
    env = np.zeros_like(thetas)
    for scale, w in atoms:
        env += scale * w(thetas)
    assert np.all(vals <= env + 1e-12)


@pytest.mark.parametrize("tail", TAILS)
def test_tail_sup_abs_dominates_samples(tail):
    rng = np.random.default_rng(4)
    for _ in range(30):
        lo = -6.0 - 30.0 * rng.random()
        hi = lo + 10.0 * rng.random()
        sup = tail.sup_abs(lo, hi)
        ts = np.linspace(lo, hi, 257)
        assert np.max(np.abs(np.asarray(tail.evaluate(ts), dtype=float))) <= sup + 1e-12


def test_tail_shift_and_scale_consistency():
    # scale_history multiplies the tail's amplitude field alone, and keeps its kind
    for tail in TAILS:
        sh = tail.shifted(-0.7)
        phi = fd.HistoryFunction(np.array([-7.0, 0.0]), np.array([[float(tail.evaluate(-7.0)), 0.0, 0.0, 0.0]]), tail)
        sc = scale_history(-2.5, phi).tail
        ts = np.linspace(-40.0, -7.0, 97)
        np.testing.assert_allclose(
            np.asarray(sh.evaluate(ts)), np.asarray(tail.evaluate(ts - 0.7)), atol=1e-12
        )
        assert type(sc) is type(tail)
        np.testing.assert_allclose(
            np.asarray(sc.evaluate(ts)), -2.5 * np.asarray(tail.evaluate(ts)), atol=1e-12
        )
    diff = history_difference(history_preset("cos"), history_preset("exp-decay"))
    with pytest.raises(ValueError, match="difference tails cannot be rescaled"):
        scale_history(2.0, diff)


# ---------------------------------------------------------------------------
# sup norms over windows
# ---------------------------------------------------------------------------


def test_sup_norm_k_frozen_values():
    cosphi = history_from_callable(
        math.cos, depth=8.0, resolution=0.05, fn_prime=lambda t: -math.sin(t)
    )
    assert abs(sup_norm_k(cosphi, 1) - 1.0) < 1e-10
    assert sup_norm_k(linear_history(), 2) == 2.0
    assert abs(sup_norm_k(history_preset("exp-decay"), 5) - 1.0) < 1e-12


def test_sup_norm_k_monotone_in_k():
    phi = history_preset("g-weight")
    vals = [sup_norm_k(phi, k) for k in range(1, 7)]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


def test_sup_norm_rejects_bad_k():
    with pytest.raises(ValueError):
        sup_norm_k(history_preset("constant"), 0)


# ---------------------------------------------------------------------------
# p_k seminorms
# ---------------------------------------------------------------------------


def test_p_seminorm_geometric_brackets_closed_form():
    # constant history, b_i = 2^-i: p_k = sum_{i>=k} 2^-i = 2^(1-k)
    phi = history_preset("constant")
    for k in range(1, 6):
        sv = p_seminorm(phi, GEO_HALF, k)
        target = 2.0 ** (1 - k)
        assert sv.verdict == "finite"
        assert sv.value <= target <= sv.value + sv.truncation_bound + 1e-15
        assert abs(sv.upper() - target) <= 1e-9
        assert sv.index_first == k
        assert sv.verdict != "divergent"


def test_p_seminorm_linear_history_exact():
    # phi(theta)=theta, b_1 = 1: window sup over s in [0,1] of |phi(s-1)| = 1
    sv = p_seminorm(linear_history(), CoefficientFamily.finite_support([1.0], DelaySchedule()), 1)
    assert sv.value == 1.0
    assert sv.truncation_bound == 0.0
    assert sv.verdict == "finite"


def test_p_seminorm_harmonic_is_certified_divergent():
    for k in range(1, 6):
        sv = p_seminorm(history_preset("constant"), HARMONIC, k)
        assert sv.verdict == "divergent"
        assert sv.upper() == math.inf


def test_p_seminorm_brute_force_bracket():
    # independent recomputation of the first 60 window sups by dense sampling
    phi = history_preset("cos")
    fam = CoefficientFamily.geometric(0.7, -0.6, DelaySchedule(c=0.2, delta=0.9))
    for k in (1, 2, 3):
        sv = p_seminorm(phi, fam, k, eps_tail=1e-12)
        n0 = fd.n_index(fam, k)
        ktau = k * fam.delays.tau1
        brute = 0.0
        b = fam.b_array(60)
        for i in range(n0, 61):
            tau = fam.delays.tau(i)
            ss = np.linspace(-tau, ktau - tau, 600)
            brute += abs(b[i - 1]) * float(np.max(np.abs(phi.evaluate(ss))))
        # brute truncates at 60 and samples finitely, so it slightly undershoots
        assert brute <= sv.upper() + 1e-12
        assert brute >= sv.value - 1e-6 - abs(b[59])


def _scalar_p(phi, fam, k: int, n: int) -> float:
    """The certified head of p_k summed one window sup at a time over n_index..n.

    A constant tail under a power law adds its closed-form part past n, |c beta| zeta(p, n + 1).
    """
    coeff, taus = np.abs(fam.b_array(n)), fam.delays.tau_array(n)
    ktau = k * fam.delays.tau1
    total = 0.0
    for i in range(fd.n_index(fam, k), n + 1):
        tau = float(taus[i - 1])
        total += float(coeff[i - 1]) * phi.sup_abs_interval(-tau, min(ktau - tau, 0.0))
    if isinstance(phi.tail, ExpFormTail) and phi.tail.sigma == phi.tail.omega == 0.0 and fam.kind == "power-law":
        total += abs(phi.tail.amp * fam.beta) * hurwitz_zeta(fam.p_exponent, n + 1)[0]
    return total


SEMINORM_HISTORIES = {
    "constant": scale_history(1.7, history_preset("constant")),
    # k tau_1 omega < pi for the k below: a window sup need not reach the amplitude
    "cos-short-window": history_from_callable(
        lambda t: math.cos(0.5 * t + 0.3), 8.0, 0.05, tail=CosTail(1.0, 0.5, 0.3),
        fn_prime=lambda t: -0.5 * math.sin(0.5 * t + 0.3),
    ),
    "exp": history_preset("exp-decay"),
    "polynomial-envelope-negative-shift": history_from_callable(
        lambda t: 0.5 * (2.5 - t) ** 2, 8.0, 0.05, tail=WeightEnvelopeTail(0.5, WeightFunction.polynomial(2), -1.5),
        fn_prime=lambda t: -(2.5 - t),
    ),
    "pair-difference": history_difference(history_preset("cos"), history_preset("exp-decay")),
}


@pytest.mark.parametrize("name", list(SEMINORM_HISTORIES))
@pytest.mark.parametrize(
    "fam, eps",
    [
        (CoefficientFamily.geometric(0.7, -0.6, DelaySchedule(c=0.2, delta=0.9)), 1e-12),
        (CoefficientFamily.power_law(1.0, 5.5, DelaySchedule()), 1e-9),
    ],
    ids=["geometric", "power-law"],
)
def test_p_seminorm_tail_windows_match_a_scalar_loop(name, fam, eps):
    # the windows are one sup_abs_interval call, those below the core read
    # tail.sup_abs, summed in the same order as the scalar loop; under a
    # power law a constant tail has none, its part past the head is the
    # closed form
    phi = SEMINORM_HISTORIES[name]
    closed = name == "constant" and fam.kind == "power-law"
    for k in (1, 2, 3):
        sv = p_seminorm(phi, fam, k, eps)
        head = np.searchsorted(fam.delays.tau_array(sv.index_last), k * fam.delays.tau1 + phi.depth, side="right")
        assert sv.verdict == "finite" and (sv.index_last == head if closed else sv.index_last > head)
        assert sv.value == _scalar_p(phi, fam, k, sv.index_last), k


@pytest.mark.parametrize("preset", ["constant", "linear", "cos", "exp-decay", "g-weight"])
@pytest.mark.parametrize(
    "fam",
    [
        CoefficientFamily.geometric(0.7, -0.6, DelaySchedule(c=0.2, delta=0.9)),
        CoefficientFamily.geometric(1.0, 0.1, DelaySchedule(0.0, 0.3)),
        CoefficientFamily.power_law(1.0, 5.5, DelaySchedule()),
        CoefficientFamily.finite_support([0.3, -0.2, 0.0, 0.1], DelaySchedule(delta=0.7)),
    ],
    ids=["geometric", "geometric-short-delays", "power-law", "finite-support"],
)
def test_p_seminorm_equals_the_scalar_window_loop_bitwise(preset, fam):
    # the head windows are one sup_abs_interval call and every window is
    # summed by one cumsum from 0.0: the same additions as the scalar loop
    phi = history_preset(preset)
    verdicts = set()
    for k in (1, 2, 3, 4):
        sv = p_seminorm(phi, fam, k, 1e-10)
        verdicts.add(sv.verdict)
        if sv.verdict == "finite":
            assert sv.value == _scalar_p(phi, fam, k, sv.index_last), (k, sv.value)
    # g-weight grows like 2^tau_i, faster than two of the families decay
    assert verdicts == {"finite"} or preset == "g-weight" and verdicts == {"divergent"}


def test_p_seminorm_eps_refinement_tightens_the_bracket():
    phi = history_preset("exp-decay")
    for eps_hi, eps_lo in ((1e-4, 1e-8), (1e-6, 1e-12)):
        hi = p_seminorm(phi, GEO_HALF, 2, eps_tail=eps_hi)
        lo = p_seminorm(phi, GEO_HALF, 2, eps_tail=eps_lo)
        assert lo.value >= hi.value - 1e-15
        assert lo.upper() <= hi.upper() + 1e-15
        assert lo.index_last >= hi.index_last


@given(alpha=st.floats(min_value=-8.0, max_value=8.0), seed=st.integers(0, 50))
def test_p_seminorm_absolutely_homogeneous(alpha, seed):
    rng = np.random.default_rng(seed)
    phi = random_core_history(rng)
    eps = 1e-10
    base = p_seminorm(phi, GEO_HALF, 2, eps_tail=eps)
    scaled = p_seminorm(scale_history(alpha, phi), GEO_HALF, 2, eps_tail=eps * max(abs(alpha), 1e-300))
    assert abs(scaled.value - abs(alpha) * base.value) <= 1e-10 * max(1.0, abs(alpha) * base.value)


@given(seed=st.integers(0, 60))
def test_p_seminorm_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    phi = random_core_history(rng)
    psi = random_core_history(rng)
    eps = 1e-10
    combo = combine_histories(1.0, phi, 1.0, psi)
    lhs = p_seminorm(combo, GEO_HALF, 2, eps_tail=eps)
    a = p_seminorm(phi, GEO_HALF, 2, eps_tail=eps)
    b = p_seminorm(psi, GEO_HALF, 2, eps_tail=eps)
    assert lhs.value <= a.upper() + b.upper() + 1e-12


def test_seminorm_value_accessors():
    sv = SeminormValue(1.0, 0.5, 3, 7, "finite")
    assert list(sv.indices_used) == [3, 4, 5, 6, 7]
    assert sv.verdict != "divergent"
    empty = SeminormValue(math.inf, math.inf, 2, 0, "divergent")
    assert len(empty.indices_used) == 0
    assert empty.verdict == "divergent" and empty.upper() == math.inf


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_a_truncation_floor_past_the_cap_leaves_p_k_inconclusive():
    # delta = 1e-9 puts the floor at 8e9 delays: p_k once asked tau_array for
    # all of them (59.6 GiB); now no N below the cap certifies eps, so p_k is
    # inconclusive and solve refuses with the cap's message.  Membership's
    # eps = inf proof builds no array and still certifies phi in F
    fam = CoefficientFamily.geometric(1.0, 0.5, DelaySchedule(0.0, 1e-9))
    phi = history_preset("cos")
    tracemalloc.start()
    try:
        assert [sv.verdict for sv in fd.history._seminorms(phi, fam, [1, 2, 3], 1e-10)] == ["inconclusive"] * 3
        with pytest.raises(UnknownTailError, match="no truncation index below 10000000 certifies tolerance 1e-10"):
            fd.solve(fd.ProblemSpec(-0.5, fam, phi), 8.0)
        assert membership_in_F(phi, fam, 3).verdict == "member"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_membership_verdicts():
    phi = history_preset("constant")
    assert membership_in_F(phi, GEO_HALF).verdict == "member"
    rep = membership_in_F(phi, HARMONIC, k_max=5)
    assert rep.verdict == "not-member"
    assert all(rep.seminorms[k].verdict == "divergent" for k in range(1, 6))
    # one recorded coefficient and tail mass 0.2: every p_k <= 0.7 sup |phi|,
    # although no p_k reaches eps_tail; under a growing history nothing is certified
    listed = CoefficientFamily.explicit_list([0.5], 0.2, DelaySchedule())
    rep = membership_in_F(phi, listed)
    assert rep.verdict == "member"
    assert all(sv.verdict == "inconclusive" for sv in rep.seminorms.values())
    assert membership_in_F(history_preset("g-weight"), listed).verdict == "inconclusive"
    # b_i = i^-2: the tail sum is certified finite though p_k at eps 1e-10 is not
    assert membership_in_F(phi, CoefficientFamily.power_law(1.0, 2.0, DelaySchedule())).verdict == "member"


def test_membership_growing_history_against_matching_decay():
    # 4^-theta growth against 4^-i coefficients: windows i contribute
    # |b_i| * sup |phi| ~ 4^-i * 4^(tau_i) * const -> constant terms, so
    # the series diverges like sum of constants; brute-check partial sums grow
    phi = history_preset("g-weight")  # grows like 2^-theta
    fam = CoefficientFamily.geometric(1.0, 0.5, DelaySchedule())  # b_i = 2^-i
    # p_k terms are ~ 2^-i * 2^(tau_i - k tau_1 adjustments) = O(1): divergent
    rep = membership_in_F(phi, fam, k_max=3)
    assert rep.verdict == "not-member"


# ---------------------------------------------------------------------------
# weighted sup norm and the embedding
# ---------------------------------------------------------------------------


def test_cg_norm_frozen_values():
    assert cg_norm(history_preset("constant"), G2) == 1.0
    assert cg_norm(history_preset("cos"), G2) == 1.0
    assert cg_norm(linear_history(), W1) == 10.0
    assert abs(cg_norm(history_preset("g-weight"), G2) - 1.0) < 1e-12
    fast = history_from_callable(
        lambda t: 4.0 ** (-t),
        8.0,
        0.05,
        tail=ExpTail(1.0, -math.log(4.0)),
    )
    assert cg_norm(fast, G2) == math.inf


def test_cg_norm_dominates_samples():
    g = WeightFunction.exponential(base=2.0)
    for name in ("constant", "cos", "exp-decay", "g-weight"):
        phi = history_preset(name)
        c = cg_norm(phi, g)
        thetas = np.linspace(-30.0, 0.0, 900)
        assert np.all(np.abs(phi.evaluate(thetas)) <= c * g(thetas) + 1e-10)


def test_cg_embedding_frozen_case():
    phi = history_preset("constant")
    fam = CoefficientFamily.geometric(1.0, 0.25, DelaySchedule())
    rep = check_cg_embedding(phi, fam, G2, k_max=3)
    assert rep.applicable and rep.holds
    assert rep.cg == 1.0
    r1 = rep.rows[0]
    # lhs = p_1 = sum 4^-i = 1/3; rhs = cg * sum 4^-i * 2^i = sum 2^-i = 1
    assert abs(r1.lhs - 1.0 / 3.0) < 1e-9
    assert abs(r1.rhs - 1.0) < 1e-9
    assert all(r.holds for r in rep.rows)


def test_cg_embedding_brute_force_both_sides():
    phi = history_preset("exp-decay")
    fam = CoefficientFamily.geometric(0.9, 0.3, DelaySchedule(c=0.1, delta=0.8))
    rep = check_cg_embedding(phi, fam, G2, k_max=3)
    assert rep.applicable
    cg_brute = 0.0
    thetas = np.linspace(-60.0, 0.0, 4001)
    cg_brute = float(np.max(np.abs(phi.evaluate(thetas)) / G2(thetas)))
    assert cg_brute <= rep.cg + 1e-10
    for row in rep.rows:
        n0 = fd.n_index(fam, row.k)
        rhs_brute = rep.cg * sum(abs(fam.b_array(60)[n0 - 1 :]) * G2(-fam.delays.tau_array(60)[n0 - 1 :]))
        assert rhs_brute <= row.rhs + 1e-10
        assert row.lhs <= row.rhs + 1e-8


def test_cg_embedding_not_applicable_cases():
    # one exit for four routes: cg is nan when the weighted series cannot be
    # certified (a positive-mass list under an unbounded weight: tail_sum_bound
    # raises) or diverges (harmonic), or when cg_norm cannot be certified (the
    # 2^-theta atom of a difference tail under a constant weight); cg is
    # cg_norm's inf when phi grows faster than g
    fast = history_from_callable(
        lambda t: 4.0 ** (-t),
        8.0,
        0.05,
        tail=ExpTail(1.0, -math.log(4.0)),
    )
    quarter = CoefficientFamily.geometric(1.0, 0.25, DelaySchedule())
    unweighted = CoefficientFamily.explicit_list([0.5], 0.2, DelaySchedule())
    with pytest.raises(UnknownTailError):
        tail_sum_bound(unweighted, G2, 1)
    cases = [
        (history_preset("constant"), unweighted, G2, math.nan),
        (history_preset("constant"), HARMONIC, W1, math.nan),
        (_cos_less_g_weight(), quarter, W1, math.nan),
        (fast, quarter, G2, math.inf),
    ]
    for phi, fam, g, cg in cases:
        rep = check_cg_embedding(phi, fam, g)
        assert not rep.applicable and rep.holds is None and rep.rows == ()
        assert rep.cg == cg if math.isinf(cg) else math.isnan(rep.cg)


# ---------------------------------------------------------------------------
# the right-hand-side functional
# ---------------------------------------------------------------------------


def test_L_functional_finite_support_exact():
    classic = CoefficientFamily.finite_support([-1.0], DelaySchedule())
    lv = L_functional(history_preset("constant"), classic, 0.0)
    assert lv.value == -1.0 and lv.error_bound == 0.0
    two = fd.HistoryFunction([-8.0, 0.0], [[2.0, 0.0, 0.0, 0.0]], ConstantTail(2.0))
    lv2 = L_functional(two, CoefficientFamily.finite_support([1.0], DelaySchedule()), 2.0)
    assert lv2.value == 6.0 and lv2.error_bound == 0.0


def test_L_functional_geometric_certified():
    lv = L_functional(history_preset("constant"), GEO_HALF, 0.0)
    assert abs(lv.value - 1.0) <= lv.error_bound + 1e-15
    assert lv.error_bound <= 1e-10


def test_L_functional_error_paths():
    phi = history_preset("constant")
    with pytest.raises(DivergentTailError):
        L_functional(phi, HARMONIC, 0.0)
    with pytest.raises(UnknownTailError):
        L_functional(phi, CoefficientFamily.explicit_list([0.5], 0.2, DelaySchedule()), 0.0)


def test_L_functional_and_p_seminorm_agree_on_divergence():
    # a shifted polynomial envelope has no exact weight; divergence comes from
    # |phi| >= 1 on the tail against sum 1/i = infinity, for L as for p_1 and
    # for the solver's forcing certificate
    tail = WeightEnvelopeTail(1.0, WeightFunction.polynomial(1), 0.5)
    phi = fd.HistoryFunction([-2.0, 0.0], [[2.5, -1.0, 0.0, 0.0]], tail)
    assert p_seminorm(phi, HARMONIC, 1).verdict == "divergent"
    with pytest.raises(DivergentTailError):
        L_functional(phi, HARMONIC, 0.0)
    with pytest.raises(fd.NotInPhaseSpaceError, match="outside the phase space"):
        fd.solve(fd.ProblemSpec(0.0, HARMONIC, phi), 1.0)
    # a recorded tail mass of 0.2 above eps = 0.1: neither verdict is provable
    listed, const = CoefficientFamily.explicit_list([0.5], 0.2, DelaySchedule()), history_preset("constant")
    assert p_seminorm(const, listed, 1, eps_tail=0.1).verdict == "inconclusive"
    with pytest.raises(UnknownTailError):
        L_functional(const, listed, 0.0, 0.1)
    with pytest.raises(fd.NotInPhaseSpaceError, match="cannot certify"):
        fd.solve(fd.ProblemSpec(0.0, listed, const), 1.0, fd.SolverConfig(eps_forcing=0.1))


# 2^tau_i overflows and inf meets b_i = 0.0 without a numpy warning: each
# sum they spoil is named by its finiteness gate and refused
def test_sums_that_are_not_finite_in_floating_point_are_refused():
    # 2^-theta under b_i = 0.8 0.7^i on tau = (0.3, 0.7, then gaps of 0.5): the
    # terms fall like (0.7 sqrt 2)^i ~ 0.99^i, so N = 2,692 is certified, but at
    # tau_N ~ 1,346 the window sup 2^tau_N overflows where b_N underflows to
    # 0.0, and inf * 0.0 is NaN in p_k, L and the forcing at t = 0
    phi = history_preset("g-weight")
    fam = CoefficientFamily.geometric(0.8, 0.7, DelaySchedule(0.0, 0.5, (0.3, 0.7)))
    n0 = fd.history._truncation(phi, fam, 0.0, 1e-10)[0]
    assert n0 == 2692
    for k in (1, 2, 3):
        sv = p_seminorm(phi, fam, k)
        assert (sv.verdict, sv.value, sv.upper()) == ("inconclusive", math.inf, math.inf)
    with pytest.raises(UnknownTailError, match="not finite in floating point"):
        L_functional(phi, fam, -1.0)
    with pytest.raises(fd.NotInPhaseSpaceError, match="not finite in floating point"):
        fd.solve(fd.ProblemSpec(-1.0, fam, phi), 2.0)
    # step_interval refuses alike: a coarse-eps trajectory given the index that
    # solve at eps 1e-10 would have started from
    coarse = fd.solve(fd.ProblemSpec(-1.0, fam, phi), 1.0, fd.SolverConfig(eps_forcing=1e-3))
    with pytest.raises(fd.NotInPhaseSpaceError, match="not finite in floating point"):
        fd.step_interval(replace(coarse, n_origin=n0, eps_forcing_used=1e-10), 4)
    # the membership verdict reads the atoms alone, and the series is finite
    assert membership_in_F(phi, fam).verdict == "member"


_HALF_PERIOD = 2.0  # pi / omega for the cos tails below
_DIVERGENCE_TAILS = {
    "constant": ConstantTail(1.0),
    "constant-zero": ConstantTail(0.0),
    "cos": CosTail(1.0, math.pi / _HALF_PERIOD),
    "cos-zero": CosTail(0.0, math.pi / _HALF_PERIOD),
    "exp": ExpTail(1.0, 1.0),
    "exp-growing": ExpTail(1.0, -LN2),
    "exp-growing-zero": ExpTail(0.0, -LN2),
    "envelope-poly": WeightEnvelopeTail(1.0, WeightFunction.polynomial(2)),
    "envelope-poly-shift-down": WeightEnvelopeTail(1.0, WeightFunction.polynomial(2), -0.5),
    "envelope-poly-shift-up": WeightEnvelopeTail(1.0, WeightFunction.polynomial(2), 0.5),
    "envelope-poly-shift-zero": WeightEnvelopeTail(0.0, WeightFunction.polynomial(2), 0.5),
    "constant-level": _envelope(1.0, WeightFunction.constant(2.0), 0.3),
}
_DIVERGENCE_FAMILIES = {
    "harmonic": HARMONIC,
    "geometric": GEO_HALF,
    "listed": CoefficientFamily.explicit_list([0.5, 0.25], 0.25, DelaySchedule()),
    "power-2.5": CoefficientFamily.power_law(1.0, 2.5, DelaySchedule()),
}
_DIVERGENCE_REACHES = {
    "0": 0.0,
    "below-half-period": math.nextafter(_HALF_PERIOD, 0.0),
    "half-period": _HALF_PERIOD,
    "3-tau1": 3.0,
}
_EVERY_REACH = tuple(_DIVERGENCE_REACHES)
# (tail, family) -> the reaches at which divergence is certified; every other
# combination of the tables above, pair-difference included, is not
_CERTIFIED_DIVERGENT = {
    ("constant", "harmonic"): _EVERY_REACH,
    ("cos", "harmonic"): ("half-period", "3-tau1"),
    ("exp-growing", "harmonic"): _EVERY_REACH,
    ("exp-growing", "geometric"): _EVERY_REACH,
    ("exp-growing", "power-2.5"): _EVERY_REACH,
    ("envelope-poly", "harmonic"): _EVERY_REACH,
    ("envelope-poly", "power-2.5"): _EVERY_REACH,
    ("envelope-poly-shift-down", "harmonic"): _EVERY_REACH,
    ("envelope-poly-shift-up", "harmonic"): _EVERY_REACH,
    ("constant-level", "harmonic"): _EVERY_REACH,
}


def test_divergence_certificate_verdict_table():
    assert _DIVERGENCE_REACHES["below-half-period"] * CosTail(1.0, math.pi / _HALF_PERIOD).omega < math.pi
    histories = {
        name: fd.HistoryFunction([-4.0, 0.0], [[float(tail.evaluate(-4.0)), 0.0, 0.0, 0.0]], tail)
        for name, tail in _DIVERGENCE_TAILS.items()
    }
    histories["pair-difference"] = history_difference(history_preset("cos"), history_preset("exp-decay"))
    assert isinstance(histories["pair-difference"].tail, fd.history.PairDifferenceTail)
    got = {
        (t, f, r)
        for t, phi in histories.items()
        for f, fam in _DIVERGENCE_FAMILIES.items()
        for r, reach in _DIVERGENCE_REACHES.items()
        if fd.history._certified_divergent(phi, fam, reach)
    }
    assert got == {(t, f, r) for (t, f), reaches in _CERTIFIED_DIVERGENT.items() for r in reaches}


def test_L_functional_reads_only_its_head(monkeypatch):
    # L(phi) is the forcing at s = 0: b_i = i^-3 needs N = 70,711 here, but
    # past the 8 delays inside the core the constant tail's part is a moment,
    # so evaluate sees those 8 arguments and phi(0)
    c, a, zeta3 = 1.5, -0.5, 1.2020569031595942
    phi = scale_history(c, history_preset("constant"))
    fam = CoefficientFamily.power_law(1.0, 3.0, DelaySchedule())
    real, seen = fd.HistoryFunction.evaluate, []

    def counted(self, theta):
        seen.append(np.size(theta))
        return real(self, theta)

    monkeypatch.setattr(fd.HistoryFunction, "evaluate", counted)
    lv = L_functional(phi, fam, a, 1e-10 * c)
    assert sum(seen) <= 9
    # the certified remainder plus Higham's gamma_{N+2} times the sum of |terms|
    nu = (lv.index_last + 2) * 2.0**-53
    assert abs(lv.value - c * (a + zeta3)) <= lv.error_bound + nu / (1.0 - nu) * c * (abs(a) + zeta3)


def test_explicit_list_search_stops_at_the_recorded_mass(monkeypatch):
    # the recorded tail mass 0.2 exceeds eps = 0.1 at every truncation index
    real, calls = fd.coefficients.tail_sum_bound, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(fd.coefficients, "tail_sum_bound", counted)
    monkeypatch.setattr(fd.history, "tail_sum_bound", counted)
    fam = CoefficientFamily.explicit_list([0.5], 0.2, DelaySchedule())
    sv = p_seminorm(history_preset("constant"), fam, 1, eps_tail=0.1)
    assert sv.verdict == "inconclusive"
    assert len(calls) <= 3


@given(seed=st.integers(0, 40))
def test_L_functional_is_linear(seed):
    rng = np.random.default_rng(seed)
    phi = random_core_history(rng)
    psi = random_core_history(rng)
    a = 0.3
    lv_sum = L_functional(combine_histories(2.0, phi, -1.5, psi), GEO_HALF, a)
    lv1 = L_functional(phi, GEO_HALF, a)
    lv2 = L_functional(psi, GEO_HALF, a)
    tol = lv_sum.error_bound + 2.0 * lv1.error_bound + 1.5 * lv2.error_bound + 1e-11
    assert abs(lv_sum.value - (2.0 * lv1.value - 1.5 * lv2.value)) <= tol


# ---------------------------------------------------------------------------
# algebra on histories
# ---------------------------------------------------------------------------


def test_scale_and_combine_pointwise():
    rng = np.random.default_rng(9)
    phi = random_core_history(rng)
    psi = random_core_history(rng)
    thetas = np.linspace(-25.0, 0.0, 501)
    np.testing.assert_allclose(
        scale_history(3.0, phi).evaluate(thetas), 3.0 * phi.evaluate(thetas), atol=1e-12
    )
    combo = combine_histories(0.7, phi, -1.3, psi)
    np.testing.assert_allclose(
        combo.evaluate(thetas),
        0.7 * phi.evaluate(thetas) - 1.3 * psi.evaluate(thetas),
        atol=1e-12,
    )


def test_history_difference_of_itself_is_zero():
    phi = history_preset("cos")
    diff = history_difference(phi, phi)
    thetas = np.linspace(-40.0, 0.0, 801)
    assert np.max(np.abs(diff.evaluate(thetas))) == 0.0
    assert diff.sup_abs_interval(-12.0, 0.0) == 0.0


def test_history_difference_mismatched_grids_and_depths():
    a = history_from_callable(math.cos, depth=6.0, resolution=0.05)
    b = history_from_callable(math.cos, depth=8.0, resolution=0.07)
    diff = history_difference(a, b)
    thetas = np.linspace(-30.0, 0.0, 901)
    direct = a.evaluate(thetas) - b.evaluate(thetas)
    np.testing.assert_allclose(diff.evaluate(thetas), direct, atol=1e-12)
    # the certified interval sup dominates the sampled sup
    assert np.max(np.abs(direct)) <= diff.sup_abs_interval(-30.0, 0.0) + 1e-12


_W = 0.5 * math.pi


@pytest.mark.parametrize(
    "deep, shallow",
    [
        (history_preset("cos"), history_preset("cos", depth=float(np.nextafter(8.0, 0.0)))),
        (
            history_preset("cos"),
            history_from_callable(
                lambda t: math.cos(_W * t + 0.3), 7.9, tail=CosTail(1.0, _W, 0.3), fn_prime=lambda t: -_W * math.sin(_W * t + 0.3)
            ),
        ),
        (history_preset("g-weight"), history_preset("g-weight", depth=7.5)),
        (history_preset("g-weight"), history_preset("cos", depth=5.0)),
    ],
    ids=["one-ulp", "phase-shift", "envelope", "cos-under-envelope"],
)
def test_history_difference_strip_atom_bounds_the_strip(deep, shallow):
    # between the core depths the difference is deep's core minus shallow's tail
    thetas = np.linspace(-deep.depth, -shallow.depth, 2001)
    for h1, h2 in ((deep, shallow), (shallow, deep)):
        atoms = history_difference(h1, h2).tail.bound_atoms
        bound = sum(s * w(thetas) for s, w in atoms)
        assert np.all(np.abs(h1.evaluate(thetas) - h2.evaluate(thetas)) <= bound)
    if deep.tail == shallow.tail and deep.depth - shallow.depth < 1e-14:
        # a one-ulp strip is bounded by its gap and slopes, not by sup|core| + sup|tail| = 2
        assert atoms[0][0] < 1e-12


def test_shifted_polynomial_envelope_difference_keeps_the_shift_factor():
    # below the core the difference is 0.2 (2.5 - theta)^2, which exceeds
    # 0.2 w(theta) = 0.2 (1 - theta)^2: its atom must carry the envelope's
    # shift factor w(theta - 1.5) / w(theta), or the bounds read 33.80 and 4.4265
    w2 = WeightFunction.polynomial(2)
    h1, h2 = (
        history_from_callable(lambda t, c=c: c * (2.5 - t) ** 2, 8.0, tail=WeightEnvelopeTail(c, w2, -1.5))
        for c in (0.7, 0.5)
    )
    diff = history_difference(h1, h2)
    sampled = np.max(np.abs(diff.evaluate(np.linspace(-12.0, -10.0, 2001))))
    assert sampled > 42.0 and diff.sup_abs_interval(-12.0, -10.0) >= sampled
    p1_sampled = sum(0.5**i * np.max(np.abs(diff.evaluate(np.linspace(-i, 1.0 - i, 101)))) for i in range(1, 201))
    assert p1_sampled > 4.44 and p_seminorm(diff, GEO_HALF, 1).upper() >= p1_sampled


_ENVELOPE_WEIGHTS = [WeightFunction.constant(1.5), WeightFunction.exponential(gamma=0.3), WeightFunction.polynomial(1),
                     WeightFunction.polynomial(2), WeightFunction.polynomial(3)]
_SHIFTS = (-1.5, 0.0, 0.7)
_TAIL_PAIRS = [
    (ConstantTail(1.5), ConstantTail(-0.25)),
    (ConstantTail(2.0), ConstantTail(2.0)),
    (CosTail(0.7, 2.0, 0.3), CosTail(-0.4, 2.0, 1.1)),
    (CosTail(0.7, 2.0, 0.3), CosTail(0.2, 2.0, 0.3)),
    (ExpTail(2.0, 0.5), ExpTail(-1.0, 0.5)),
    (CosTail(0.7, 2.0, 0.3), ExpTail(2.0, 0.5)),
] + [
    (_envelope(0.7, w, s1), _envelope(s, w, s2))
    for w in _ENVELOPE_WEIGHTS
    for s1 in _SHIFTS
    for s2 in _SHIFTS
    for s in (0.5, -0.3)
] + [
    # phase gaps of pi and 2 pi
    (CosTail(1.0, 2.0, 0.3), CosTail(1.0, 2.0, 0.3 + math.pi)),
    (CosTail(1.0, 2.0, 0.3), CosTail(-1.0, 2.0, 0.3 + 2.0 * math.pi)),
    (CosTail(1.0, 2.0, 0.3), CosTail(1.0, 2.0, 0.3 + 2.0 * math.pi)),
]


@pytest.mark.parametrize("t1, t2", _TAIL_PAIRS)
def test_tail_difference_atoms_bound_every_structured_pair(t1, t2):
    depth = 6.0
    thetas = -depth - np.concatenate((np.linspace(0.0, 40.0, 2001), np.geomspace(40.0, 1000.0, 400)))
    v1, v2 = (np.asarray(t.evaluate(thetas), dtype=float) for t in (t1, t2))
    atoms = fd.history.tail_difference_atoms(t1, t2, depth)
    bound = sum((s * w(thetas) for s, w in atoms), np.zeros_like(thetas))
    assert np.all(np.abs(v1 - v2) <= bound + 1e-12 * (np.abs(v1) + np.abs(v2)))
    if isinstance(t1, ExpFormTail) and isinstance(t2, ExpFormTail) and t1.omega == t2.omega > 0.0:
        # the cosines' phase split, 3.14 and 6.28 at gaps pi and 2 pi for unit amplitudes, is capped by the triangle inequality
        assert sum(s for s, _ in atoms) <= abs(t1.amp) + abs(t2.amp)


def test_combine_histories_combines_tails_that_differ_in_amplitude():
    phi = history_preset("exp-decay")
    combo = combine_histories(0.7, phi, -1.3, scale_history(2.0, phi))
    assert combo.tail == ExpTail(0.7 - 2.6, 1.0)
    with pytest.raises(ValueError, match="differ only in amplitude"):
        combine_histories(1.0, phi, 1.0, history_preset("cos"))


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("shift", [-3.0, -1.5, 0.0, 0.7, 2.5])
def test_cg_norm_bounds_polynomial_envelopes_against_dense_samples(q, shift):
    depth = 8.0
    tail = WeightEnvelopeTail(0.6, WeightFunction.polynomial(q), shift)
    phi = history_from_callable(lambda t: float(tail.evaluate(t)), depth, 1.0, tail=tail)
    thetas = -depth - np.concatenate((np.linspace(0.0, 100.0, 2001), np.geomspace(100.0, 1e7, 2000)))
    weights = [WeightFunction.constant(1.0), WeightFunction.constant(3.0), WeightFunction.exponential(gamma=0.05),
               G2] + [WeightFunction.polynomial(d) for d in (1, 2, 3, 4)]
    for g in weights:
        with np.errstate(over="ignore"):
            ratio = np.max(np.abs(phi.evaluate(thetas)) / g(thetas))
        assert ratio <= cg_norm(phi, g) * (1.0 + 1e-12)


def test_envelope_shift_past_the_core_is_rejected_and_p1_bounds_its_samples():
    # below the core a polynomial envelope's base 1 - theta - shift stays >= 1
    # exactly when shift <= depth.  A deeper shift turns it negative there,
    # where sup_abs reads each window at its deep end: accepted, 18 of these
    # 288 histories had a p_1 bound below their dense samples (worst gap 0.525)
    taus = GEO_HALF.delays.tau_array(60)
    windows = np.minimum(-taus[:, None] + np.linspace(0.0, 1.0, 401), 0.0)
    accepted = rejected = 0
    for depth in (0.5, 1.0, 2.0, 4.0, 8.0):
        for q in (1, 2, 3):
            for shift in np.arange(-3.0, depth + 3.25, 0.5).tolist():
                tail = WeightEnvelopeTail(0.6, WeightFunction.polynomial(q), shift)
                if shift > depth:
                    with pytest.raises(ValueError, match=f"envelope shift {shift} exceeds the core depth {depth}"):
                        history_from_callable(lambda t: float(tail.evaluate(t)), depth, tail=tail)
                    rejected += 1
                    continue
                phi = history_from_callable(lambda t: float(tail.evaluate(t)), depth, tail=tail)
                sampled = float(np.sum(np.abs(GEO_HALF.b_array(60)) * np.abs(phi.evaluate(windows)).max(axis=1)))
                assert sampled <= p_seminorm(phi, GEO_HALF, 1).upper() * (1.0 + 1e-12), (depth, q, shift)
                accepted += 1
    assert (accepted, rejected) == (198, 90)


#: the weights of the dense-sample test above, and 4^-theta
_G_ALL = [WeightFunction.constant(1.0), WeightFunction.constant(3.0), WeightFunction.exponential(gamma=0.05), G2,
          WeightFunction.exponential(base=4.0)] + [WeightFunction.polynomial(d) for d in (1, 2, 3, 4)]

_ENVELOPES = [(WeightFunction.constant(2.0), 0.0)] + [
    (WeightFunction.exponential(gamma=g), 0.0) for g in (0.05, math.log(2.0), math.log(4.0))
] + [(WeightFunction.polynomial(q), s) for q in (1, 2, 3) for s in (-3.0, -1.5, 0.0, 0.7, 2.5)]


def _log_weight(w: WeightFunction, theta):
    """log w(theta) with y = 1 - theta: log level + gamma (y - 1) + degree log y, never overflowing."""
    return math.log(w.level) - w.gamma * theta + w.degree * np.log(1.0 - theta)


def _shape(w: WeightFunction) -> str:
    return "polynomial" if w.degree else "exponential" if w.gamma else "constant"


#: shifts at most the core depth, the most a HistoryFunction accepts
_ENVELOPE_CASES = [(w, s, d) for d in (0.5, 8.0, 30.0) for w, s in _ENVELOPES if s <= d]


@pytest.mark.parametrize(
    "w, shift, depth",
    _ENVELOPE_CASES,
    ids=[f"{_shape(w)}-{w.gamma:.3g}-{w.degree}-{s}-{d}" for w, s, d in _ENVELOPE_CASES],
)
def test_cg_norm_of_every_envelope_form_pair_against_dense_samples(w, shift, depth):
    # the ratio |phi|/g over [-depth - 1e7, 0], in log space below the core
    # so that no exponential overflows: cg_norm bounds every sample, and
    # where finite it is within 0.1% of the largest sample or of the limit
    # 0.6 w.level / g.level of equal shapes; where infinite the samples grow
    # without bound
    tail = _envelope(0.6, w, shift)
    phi = history_from_callable(lambda t: float(tail.evaluate(t)), depth, 1.0, tail=tail)
    core = np.linspace(-depth, 0.0, 2001)
    below = -depth - np.concatenate((np.linspace(0.0, 100.0, 2001), np.geomspace(100.0, 1e7, 2000)))
    for g in _G_ALL:
        log_ratio = math.log(0.6) + _log_weight(w, below + shift) - _log_weight(g, below)
        with np.errstate(over="ignore"):
            samples = np.concatenate((np.abs(phi.evaluate(core)) / g(core), np.exp(log_ratio)))
        cg = cg_norm(phi, g)
        assert np.all(samples <= cg * (1.0 + 1e-12)), g
        if math.isinf(cg):
            far = log_ratio[-200:]  # log_ratio[2000] is at theta = -depth - 100
            assert np.all(np.diff(far) > 0.0) and far[-1] - log_ratio[2000] > math.log(1e3), g
        else:
            limit = 0.6 * w.level / g.level if (w.gamma, w.degree) == (g.gamma, g.degree) else 0.0
            assert cg <= 1.001 * max(samples.max(), limit), g


def _cos_less_g_weight() -> fd.HistoryFunction:
    """The cos preset at depth 5 less the g-weight preset at depth 8: a difference tail with growing atoms."""
    return history_difference(history_preset("cos", depth=5.0), history_preset("g-weight"))


@pytest.mark.parametrize("g", [G2, WeightFunction.exponential(base=4.0)], ids=["2^-theta", "4^-theta"])
def test_cg_norm_of_a_difference_tail_bounds_its_samples(g):
    # the atoms (strip, 1), (1, 2^-theta) and (1, 1) sum to a finite weighted
    # sup under a weight at least as fast as 2^-theta
    diff = _cos_less_g_weight()
    assert isinstance(diff.tail, fd.history.PairDifferenceTail)
    thetas = np.concatenate((np.linspace(-5.0, 0.0, 2001), -5.0 - np.geomspace(1e-6, 1000.0, 4000)))
    with np.errstate(over="ignore"):
        samples = np.abs(diff.evaluate(thetas)) / g(thetas)
    cg = cg_norm(diff, g)
    assert math.isfinite(cg) and np.all(samples <= cg * (1.0 + 1e-12))


def test_cg_embedding_of_a_difference_tail():
    # under 2^-theta with b_i = 4^-i the embedding applies and holds; under a
    # constant or polynomial weight the 2^-theta atom has no finite weighted
    # sup, which certifies nothing, so cg_norm raises and the check does not apply
    diff = _cos_less_g_weight()
    fam = CoefficientFamily.geometric(1.0, 0.25, DelaySchedule())
    rep = check_cg_embedding(diff, fam, G2)
    assert rep.applicable and rep.holds and rep.cg == cg_norm(diff, G2)
    for g in (W1, WeightFunction.polynomial(2)):
        with pytest.raises(UnknownTailError):
            cg_norm(diff, g)
        assert not check_cg_embedding(diff, fam, g).applicable


_DERIVATIVE_TAILS = [ConstantTail(1.3), CosTail(0.7, 1.3, 0.4), ExpTail(-2.0, 0.3),
                     ConstantTail(0.8 * 2.0), ExpTail(-0.6, -LN2)] + [
    WeightEnvelopeTail(0.6, WeightFunction.polynomial(q), s) for q in (1, 2, 3) for s in (-1.5, 0.0, 0.7)
]


@pytest.mark.parametrize("tail", _DERIVATIVE_TAILS, ids=repr)
def test_tail_derivative_matches_a_central_difference(tail):
    # below a depth-8 core; the polynomial envelope's derivative feeds the
    # mean-value strip bound in history_difference
    thetas, h = np.linspace(-40.0, -8.0, 321), 1e-5
    slope = (tail.evaluate(thetas + h) - tail.evaluate(thetas - h)) / (2.0 * h)
    got = np.asarray(tail.derivative().evaluate(thetas), dtype=float)
    assert np.allclose(got, slope, rtol=1e-7, atol=1e-8)


@pytest.mark.parametrize(
    "pair",
    [
        (history_preset("cos"), history_preset("exp-decay")),
        (history_preset("cos", depth=5.0), history_preset("g-weight")),
        (history_from_callable(math.cos, depth=6.0, resolution=0.05), history_preset("cos", depth=8.0)),
    ],
    ids=["same-depth", "deeper-right", "grids-and-tails-differ"],
)
def test_sup_abs_on_window_arrays_matches_scalar_calls_bitwise(pair):
    # HistoryFunction.sup_abs_interval and PairDifferenceTail.sup_abs take
    # arrays of windows; each entry must be the one-window result
    diff = history_difference(*pair)
    assert isinstance(diff.tail, fd.history.PairDifferenceTail) and diff.tail.bound_atoms
    rng = np.random.default_rng(8)
    lo = rng.uniform(-30.0, 0.0, 200)
    hi = np.minimum(lo + rng.uniform(-1.0, 6.0, 200), 0.0)
    lo[:20] = -diff.depth - rng.uniform(0.0, 2.0, 20)  # windows across the core edge
    lo[20:40] = hi[20:40] = -diff.depth + rng.uniform(-1e-12, 1e-12, 20)
    below = hi <= -diff.depth  # where the tail model applies
    for f, lo_f, hi_f in ((diff.sup_abs_interval, lo, hi), (diff.tail.sup_abs, lo[below], hi[below])):
        want = [f(float(a), float(b)) for a, b in zip(lo_f, hi_f)]
        assert isinstance(want[0], float)
        assert f(lo_f, hi_f).tobytes() == np.array(want).tobytes()


def test_derivative_of_smooth_presets():
    phi = history_preset("cos", resolution=0.02)
    dphi = phi.derivative()
    assert dphi is not None
    w = 0.5 * math.pi
    thetas = np.linspace(-7.5, 0.0, 400)
    err = np.max(np.abs(dphi.evaluate(thetas) + w * np.sin(w * thetas)))
    assert err < 1e-4
    const = history_preset("constant")
    dconst = const.derivative()
    assert dconst is not None
    assert np.max(np.abs(dconst.evaluate(np.linspace(-20, 0, 50)))) == 0.0


def test_derivative_snaps_junctions_left_to_right():
    phi = history_preset("cos")
    bp, dcf = phi.breakpoints, derivative_coeffs(phi.coeffs)
    for j in range(len(bp) - 2):
        du = bp[j + 1] - bp[j]
        dcf[j + 1, 0] = dcf[j, 0] + du * (dcf[j, 1] + du * dcf[j, 2])
    assert np.array_equal(phi.derivative().coeffs, dcf)


def test_derivative_absent_for_kinked_core():
    # |theta+1| has a corner at -1: slopes disagree across the knot
    bp = [-2.0, -1.0, 0.0]
    cf = [[1.0, -1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]
    phi = fd.HistoryFunction(bp, cf, ConstantTail(1.0))
    assert phi.derivative() is None


# ---------------------------------------------------------------------------
# window indices, tolerances and the truncation memo
# ---------------------------------------------------------------------------


def test_sup_norm_k_reads_k_as_an_integer():
    # NaN passed the k < 1 guard and returned nan; 1.0 would find k = 1's memo entry
    phi = history_preset("cos")
    assert sup_norm_k(phi, np.int64(3)) == sup_norm_k(phi, 3)
    for k in (math.nan, 1.5, 1.0, "2"):
        with pytest.raises(ValueError, match="window index k must be an integer"):
            sup_norm_k(phi, k)
    with pytest.raises(ValueError, match="window index k must be >= 1"):
        sup_norm_k(phi, 0)


def test_p_seminorm_reads_k_as_an_integer():
    phi = history_preset("cos")
    assert p_seminorm(phi, GEO_HALF, np.int64(2)) is p_seminorm(phi, GEO_HALF, 2)
    for k in (1.5, 2.0, math.nan):
        with pytest.raises(ValueError, match="window index k must be an integer"):
            p_seminorm(phi, GEO_HALF, k)


def test_membership_reads_k_max_as_an_integer():
    # 2.5 failed inside range() with a bare TypeError
    phi = history_preset("cos")
    assert membership_in_F(phi, GEO_HALF, np.int64(3)) == membership_in_F(phi, GEO_HALF, 3)
    with pytest.raises(ValueError, match="window index k must be an integer"):
        membership_in_F(phi, GEO_HALF, 2.5)


@pytest.mark.parametrize("eps", [math.nan, 0.0, -1e-10])
def test_a_truncation_tolerance_that_is_not_positive_is_refused(eps):
    # NaN stopped the search at the floor plus one, and 0 took a bound that underflowed to 0.0 as exact
    phi = scale_history(1.5, history_preset("constant"))
    for fam in (GEO_HALF, CoefficientFamily.power_law(1.0, 3.0, DelaySchedule())):
        for call in (lambda: L_functional(phi, fam, -0.5, eps), lambda: p_seminorm(phi, fam, 2, eps),
                     lambda: membership_in_F(phi, fam, 3, eps)):
            with pytest.raises(ValueError, match="truncation tolerance eps must be positive"):
                call()
    # membership's own verdict still certifies at eps = inf
    assert membership_in_F(phi, GEO_HALF, 3).verdict == "member"


def _cos_history() -> fd.HistoryFunction:
    w = 0.5 * math.pi
    return history_from_callable(lambda t: 1.5 * math.cos(w * t + 1.0), 8.0, 0.05, tail=CosTail(1.5, w, 1.0),
                                 fn_prime=lambda t: -1.5 * w * math.sin(w * t + 1.0))


_MEMO_CASES = {
    "geometric": (GEO_HALF, _cos_history),
    "zeta": (CoefficientFamily.power_law(1.0, 3.0, DelaySchedule()), lambda: scale_history(1.5, history_preset("constant"))),
    # at 1e-10 the enclosure is too wide at the floors of reach 0 and 1, where the atoms stay and
    # no N below the cap certifies them, and fits from reach 3
    "zeta-kept": (CoefficientFamily.power_law(0.6, 1.0000076292621705, DelaySchedule()), lambda: history_preset("constant")),
    "power-law": (CoefficientFamily.power_law(1.0, 3.0, DelaySchedule()), lambda: history_preset("cos")),
    "list-mass": (CoefficientFamily.explicit_list([0.5**i for i in range(1, 41)], 1e-12, DelaySchedule()), lambda: history_preset("constant")),
    "list-zero": (CoefficientFamily.finite_support([0.3, -0.2, 0.0, 0.1, 0.0], DelaySchedule(delta=0.8)), lambda: history_preset("cos")),
    "prefix": (CoefficientFamily.geometric(0.5, 0.9, DelaySchedule(delta=1.0, prefix=(1.0, 2.5))), lambda: history_preset("cos")),
    "growing": (CoefficientFamily.geometric(0.5, 0.2, DelaySchedule()), lambda: history_preset("g-weight")),
}


def _truncation_outcome(phi, fam, reach, eps):
    try:
        return fd.history._truncation(phi, fam, reach, eps)
    except (DivergentTailError, UnknownTailError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("eps", [1e-10, 1e-6])
@pytest.mark.parametrize("case", list(_MEMO_CASES))
def test_a_memoized_truncation_equals_a_fresh_search(case, eps):
    # reaches up, down and repeated: every answer from the memo is the fresh history's, bit for bit
    fam, build = _MEMO_CASES[case]
    phi = build()
    for reach in (0.0, 1.0, 3.0, 8.0, 20.0, 40.0, 33.0, 17.0, 5.0, 2.0, 2.0, 0.0, 0.0, 60.0):
        got, fresh = _truncation_outcome(phi, fam, reach, eps), _truncation_outcome(build(), fam, reach, eps)
        assert repr(got) == repr(fresh), reach
    assert any(key[0] == "N" for key in phi._memo)
