"""Closed-form tails: a constant history under a power law b_i = beta i^-p, p > 1.

The part of every delayed series past the tail floor is c beta zeta(p, n),
enclosed by coefficients.hurwitz_zeta; these tests hold the enclosure against
mpmath, the p_k, L and solve results against zeta(p), and the work done
against a count that may only fall.
"""

import math

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
    UnknownTailError,
    history_preset,
    scale_history,
)
from infidelay.coefficients import hurwitz_zeta
from infidelay.numerics import phi1

mpmath = pytest.importorskip("mpmath")  # the references are mpmath's zeta

# mpmath's Hurwitz zeta at 30 digits is off in the tenth digit at (12, 1000):
# 9.141009090781647e-35 against 9.141009090605759e-35 at 50 and 80 digits
MP = mpmath.mp.clone()
MP.dps = 50

U = 2.0**-53


def _gamma(n_terms: int, abs_sum: float) -> float:
    """Higham's gamma_{n+2} times sum|terms|: the rounding slack of an n-term bracket."""
    n = n_terms + 2
    return n * U / (1.0 - n * U) * abs_sum


@pytest.mark.parametrize("p", [1.001, 1.5, 2.0, 2.4, 2.45, 3.0, 5.5, 12.0])
def test_hurwitz_zeta_encloses_mpmath_within_16_ulps(p):
    for n in (1, 2, 9, 12, 10**3, 10**6, 10**9):
        lo, hi = hurwitz_zeta(p, n)
        ref = MP.zeta(MP.mpf(p), n)
        assert MP.mpf(lo) <= ref <= MP.mpf(hi), n
        assert hi - lo <= 16 * math.ulp(hi), n


def test_hurwitz_zeta_needs_p_above_one():
    with pytest.raises(ValueError, match="p > 1"):
        hurwitz_zeta(1.0, 3)


@pytest.mark.parametrize("p", [1e3, 1e300, 1.7e308])
def test_hurwitz_zeta_stays_finite_as_the_terms_underflow(p):
    # zeta(p, 1) = 1 + 2^-p + ... is 1 to double precision; from n = 3 on it
    # is below 3^-1000, under the smallest subnormal, which the absolute
    # allowance 2^-1000 covers
    lo, hi = hurwitz_zeta(p, 1)
    assert lo <= 1.0 <= hi and hi - lo <= 16 * math.ulp(1.0)
    for n in (3, 10**9):
        lo, hi = hurwitz_zeta(p, n)
        assert lo == 0.0 and 0.0 < hi <= 2.0**-999


@given(p=st.floats(min_value=1.0, max_value=4.0, exclude_min=True), c=st.floats(min_value=1.0, max_value=2.0))
def test_constant_tail_brackets_contain_the_zeta_references(p, c):
    # p_k = c (zeta(p) - sum_{i<k} i^-p), L = a c + c zeta(p), and on [0, 1]
    # the forcing is c zeta(p), so x(1) = c e^a + c zeta(p) (e^a - 1) / a.
    # Every verdict is certified once an enclosure 16 ulps of c zeta(p) wide
    # fits in the 1e-10 tolerances; closer to p = 1 no double can hold them
    a, eps = -0.5, 1e-10
    fam = CoefficientFamily.power_law(1.0, p, DelaySchedule())
    phi = scale_history(c, history_preset("constant"))
    zeta = MP.zeta(MP.mpf(p))
    reachable = c * 16 * math.ulp(float(zeta)) <= eps
    rep = fd.membership_in_F(phi, fam, 3, eps)
    assert rep.verdict == "member"
    for k, sv in rep.seminorms.items():
        assert sv.verdict == "finite" or not reachable and sv.verdict == "inconclusive", k
        if sv.verdict == "finite":
            ref = c * (zeta - MP.fsum(MP.mpf(i) ** -MP.mpf(p) for i in range(1, k)))
            slack = _gamma(sv.index_last - sv.index_first + 1, float(c * zeta))
            assert sv.value - slack <= ref <= sv.value + sv.truncation_bound + slack, k
    try:
        lv = fd.L_functional(phi, fam, a, eps)
    except UnknownTailError:
        assert not reachable
    else:
        ref = a * c + c * zeta
        assert abs(lv.value - ref) <= lv.error_bound + _gamma(lv.index_last + 1, float(abs(a * c) + c * zeta))
    try:
        traj = fd.solve(ProblemSpec(a, fam, phi), 1.0)
    except NotInPhaseSpaceError:
        assert not reachable
    else:
        ea = math.exp(a)
        want = c * ea + c * zeta * (ea - 1.0) / a
        assert abs(traj.eval(1.0) - want) <= traj.eps_forcing_used * phi1(a, 1.0) + 1e-12


@pytest.mark.parametrize("p", [1.5, 2.0, 2.4])
def test_slow_power_laws_solve_at_the_default_forcing_tolerance(p):
    # no integral bound below the index cap reaches 1e-10 for these p; the
    # closed form certifies the forcing at its floor index
    problem = ProblemSpec(-0.5, CoefficientFamily.power_law(1.0, p, DelaySchedule()), history_preset("constant"))
    traj = fd.solve(problem, 4.0)
    assert traj.n_forcing == fd.history._tail_floor(problem.history, problem.family, 4.0) == 11
    assert traj.eps_forcing_used == 1e-10


def test_power_law_work_stays_at_the_floor(monkeypatch):
    # a cost ratchet in counts: p = 3 from the constant history asks for no
    # coefficient or delay array longer than 64 entries (70,711 before the
    # closed form)
    asked = []
    b_array, tau_array = CoefficientFamily.b_array, DelaySchedule.tau_array
    monkeypatch.setattr(CoefficientFamily, "b_array", lambda self, n: asked.append(n) or b_array(self, n))
    monkeypatch.setattr(DelaySchedule, "tau_array", lambda self, n: asked.append(n) or tau_array(self, n))
    fam = CoefficientFamily.power_law(1.0, 3.0, DelaySchedule())
    phi = scale_history(1.5, history_preset("constant"))
    assert fd.membership_in_F(phi, fam).verdict == "member"
    traj = fd.solve(ProblemSpec(-0.5, fam, phi), 4.0)
    lv = fd.L_functional(phi, fam, -0.5)
    assert asked and max(asked) <= 64
    assert np.isfinite(traj.values).all() and math.isfinite(lv.value)


def test_a_fresh_equal_history_computes_no_new_zeta_enclosure():
    # hurwitz_zeta is memoized by value for the process: equal inputs built anew reuse every enclosure
    def run():
        fam = CoefficientFamily.power_law(1.0, 3.0, DelaySchedule())
        return fd.membership_in_F(scale_history(1.5, history_preset("constant")), fam, 5, 1.5e-10)

    first = run()
    misses = hurwitz_zeta.cache_info().misses
    assert run() == first
    assert hurwitz_zeta.cache_info().misses == misses > 0


def test_the_zeta_memo_is_bounded():
    size = hurwitz_zeta.cache_info().maxsize
    for n in range(1, size + 50):
        hurwitz_zeta(3.0, n)
    assert hurwitz_zeta.cache_info().currsize == size


def test_zeta_moment_gathers_the_per_point_values_bit_for_bit():
    # head counts with gaps and repeats take the value of their own m, as one call per point did
    m = np.array([7, 7, 3, 12, 9, 3, 20, 7])
    got = fd.history._zeta_moment(-1.7, 2.5)(np.zeros(len(m)), m, 25)
    assert got.tobytes() == (-1.7 * np.array([hurwitz_zeta(2.5, j + 1)[0] for j in m.tolist()])).tobytes()
    assert fd.history._zeta_moment(-1.7, 2.5)(np.zeros(0), m[:0], 25).shape == (0,)
