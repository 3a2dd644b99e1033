"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every criterion asserts at its stated tolerance, so the suite
fails loudly rather than silently degrading.
"""

import math

import numpy as np

import infidelay as fd
from infidelay import (
    CoefficientFamily,
    DelaySchedule,
    ProblemSpec,
    SolverConfig,
    check_mild_solution,
    check_semigroup_law,
    check_strong_continuity,
    estimate_certificate,
    history_from_callable,
    history_preset,
    membership_in_F,
    oracle_solve,
    p_seminorm,
    scale_history,
    solve,
)
from conftest import (
    classic_problem,
    oracle_scenarios,
    random_core_history,
    random_problem,
    semigroup_scenarios,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_01_oracle_equivalence():
    worst = 0.0
    for problem in oracle_scenarios():
        horizon = 10.0 * problem.family.delays.tau1
        a = solve(problem, horizon)
        b = oracle_solve(problem, horizon)
        ts = np.linspace(0.0, horizon, 2001)
        worst = max(worst, float(np.max(np.abs(a.eval(ts) - b.eval(ts)))))
    ok = worst <= 1e-6
    report(1, ok, f"10 scenarios, max |solve - oracle| over [0, 10 tau_1] = {worst:.3e} (<= 1e-6)")
    assert ok


def test_criterion_02_analytic_pin():
    traj = solve(classic_problem(), 2.0)
    e1 = abs(traj.eval(1.0) - 0.0)
    e2 = abs(traj.eval(2.0) - (-0.5))
    ok = e1 <= 1e-8 and e2 <= 1e-8
    report(2, ok, f"classic pins |x(1)| = {e1:.3e}, |x(2)+0.5| = {e2:.3e} (<= 1e-8)")
    assert ok


def test_criterion_03_semigroup_law():
    worst = 0.0
    for problem in semigroup_scenarios():
        tau1 = problem.family.delays.tau1
        for (t, s) in ((0.5, 0.5), (1.0, 1.0), (0.3, 1.7)):
            rep = check_semigroup_law(solve(problem, t * tau1 + s * tau1), t * tau1, s * tau1, k_list=(1, 2, 3))
            worst = max(worst, rep.max_discrepancy)
    ok = worst <= 1e-6
    report(3, ok, f"5 scenarios x 3 (t,s) x k<=3, max seminorm discrepancy = {worst:.3e} (<= 1e-6)")
    assert ok


def test_criterion_04_strong_continuity():
    all_ok = True
    worst_final = 0.0
    for problem in semigroup_scenarios():
        rep = check_strong_continuity(solve(problem, 0.1), 1, [0.1, 0.01, 0.001])
        all_ok = all_ok and rep.monotone and rep.final_ok
        worst_final = max(worst_final, rep.distances[-1] / rep.threshold)
    classic = check_strong_continuity(solve(classic_problem(), 0.1), 1, [0.1, 0.01, 0.001])
    exact = max(abs(d - t) for d, t in zip(classic.distances, classic.times))
    all_ok = all_ok and exact <= 1e-9
    report(
        4,
        all_ok,
        f"5 scenarios monotone+final (worst final/threshold = {worst_final:.3f}); "
        f"classic |d(t) - t| = {exact:.3e} (<= 1e-9)",
    )
    assert all_ok


def test_criterion_05_a_priori_estimates():
    rng = np.random.default_rng(20260817)
    n_valid = 0
    worst_margin = math.inf
    for _ in range(20):
        problem = random_problem(rng)
        tau1 = problem.family.delays.tau1
        traj = solve(problem, 2.0 * tau1)
        cert = estimate_certificate(traj, 2)
        n_valid += cert.valid
        worst_margin = min(worst_margin, cert.bound - cert.observed)
    ok = n_valid == 20
    report(5, ok, f"{n_valid}/20 randomized certificates VALID, min bound-observed = {worst_margin:.3e}")
    assert ok


def test_criterion_06_mild_solution_identity():
    worst = 0.0
    for problem in semigroup_scenarios():
        tau1 = problem.family.delays.tau1
        rep = check_mild_solution(
            solve(problem, 2.0 * tau1),
            np.linspace(0.0, 2.0 * tau1, 20),
            np.linspace(-2.0 * tau1, 0.0, 20),
            tolerance=1e-6,
        )
        worst = max(worst, rep.max_residual)
    ok = worst <= 1e-6
    report(6, ok, f"5 scenarios, 20x20 (t, theta) grids, max residual = {worst:.3e} (<= 1e-6)")
    assert ok


def test_criterion_07_phase_space_membership():
    phi = history_preset("constant")
    harmonic = CoefficientFamily.power_law(1.0, 1.0, DelaySchedule())
    rep = membership_in_F(phi, harmonic, k_max=5)
    divergent_ok = rep.verdict == "not-member" and all(
        rep.seminorms[k].verdict == "divergent" for k in range(1, 6)
    )
    eps = 1e-10
    geo = CoefficientFamily.geometric(1.0, 0.5, DelaySchedule())
    bracket_ok = True
    worst_gap = 0.0
    for k in range(1, 6):
        sv = p_seminorm(phi, geo, k, eps_tail=eps)
        target = 2.0 ** (1 - k)
        inside = sv.value - 1e-15 <= target <= sv.value + sv.truncation_bound + 1e-15
        bracket_ok = bracket_ok and inside and sv.truncation_bound <= eps
        worst_gap = max(worst_gap, abs(sv.upper() - target))
    ok = divergent_ok and bracket_ok
    report(
        7,
        ok,
        f"1/i divergent at every k<=5: {divergent_ok}; 2^-i brackets 2^(1-k) "
        f"within eps_tail (worst |upper - exact| = {worst_gap:.3e})",
    )
    assert ok


def test_criterion_08_cg_embedding():
    g = fd.WeightFunction.exponential(base=2.0)
    fam = CoefficientFamily.geometric(1.0, 0.25, DelaySchedule())
    rng = np.random.default_rng(11)
    ok = True
    worst_slack = math.inf
    for _ in range(5):
        phi = random_core_history(rng)
        cg = fd.cg_norm(phi, g)
        assert math.isfinite(cg)
        for k in (1, 2, 3):
            lhs = p_seminorm(phi, fam, k).upper()
            rhs = cg * fd.tail_sum_bound(fam, g, fd.n_index(fam, k))
            ok = ok and lhs <= rhs + 1e-8
            worst_slack = min(worst_slack, rhs + 1e-8 - lhs)
    report(8, ok, f"5 random phi, k<=3: p_k <= cg * weighted tail + 1e-8 (min slack = {worst_slack:.3e})")
    assert ok


def test_criterion_09_convergence_order():
    problem = ProblemSpec(
        0.1,
        CoefficientFamily.finite_support([-0.5], DelaySchedule()),
        history_preset("cos"),
    )
    ref = solve(problem, 3.0, SolverConfig(h=0.0125))
    ts = np.linspace(0.0, 3.0, 301)

    def err(h: float) -> float:
        tr = solve(problem, 3.0, SolverConfig(h=h))
        return float(np.max(np.abs(tr.eval(ts) - ref.eval(ts))))

    e_coarse, e_fine = err(0.2), err(0.1)
    ratio = e_coarse / e_fine
    ok = ratio >= 8.0
    report(9, ok, f"halving h: error {e_coarse:.3e} -> {e_fine:.3e}, ratio = {ratio:.1f} (>= 8)")
    assert ok


def test_criterion_10_seminorm_axioms():
    fam = CoefficientFamily.geometric(0.8, 0.45, DelaySchedule())
    rng = np.random.default_rng(7)
    eps = 1e-10
    worst_rel = 0.0
    min_slack = math.inf
    for _ in range(100):
        phi = random_core_history(rng)
        psi = random_core_history(rng)
        alpha = float(rng.uniform(-5.0, 5.0))
        base = p_seminorm(phi, fam, 2, eps_tail=eps)
        scaled = p_seminorm(scale_history(alpha, phi), fam, 2, eps_tail=eps * max(abs(alpha), 1e-300))
        rel = abs(scaled.value - abs(alpha) * base.value) / max(1.0, abs(alpha) * base.value)
        worst_rel = max(worst_rel, rel)
        both = fd.combine_histories(1.0, phi, 1.0, psi)
        lhs = p_seminorm(both, fam, 2, eps_tail=eps)
        rhs_a = p_seminorm(phi, fam, 2, eps_tail=eps)
        rhs_b = p_seminorm(psi, fam, 2, eps_tail=eps)
        min_slack = min(min_slack, rhs_a.upper() + rhs_b.upper() + 2.0 * eps - lhs.value)
    ok = worst_rel <= 1e-10 and min_slack >= 0.0
    report(
        10,
        ok,
        f"100 pairs: homogeneity rel err = {worst_rel:.3e} (<= 1e-10), "
        f"triangle min slack = {min_slack:.3e} (>= 0 within 2 eps_tail)",
    )
    assert ok


def test_criterion_11_completeness_smoke():
    fam = CoefficientFamily.geometric(1.0, 0.25, DelaySchedule())
    ln2 = math.log(2.0)
    full = history_preset("g-weight", depth=12.0)
    ok = True
    last = math.inf
    for k in (1, 2, 3):
        uppers = []
        for depth in (2.0, 4.0, 6.0, 8.0, 10.0):
            trunc = history_from_callable(
                lambda t: math.exp(-ln2 * t),
                depth,
                0.05,
                fn_prime=lambda t: -ln2 * math.exp(-ln2 * t),
            )
            uppers.append(p_seminorm(fd.history_difference(trunc, full), fam, k).upper())
        ok = ok and all(b < a for a, b in zip(uppers, uppers[1:]))
        last = min(last, uppers[-1])
    report(
        11,
        ok,
        f"tail-truncation Cauchy sequence: p_k distances strictly decreasing for k<=3 "
        f"(deepest cut leaves {last:.3e})",
    )
    assert ok
