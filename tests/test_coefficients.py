"""Delay schedules, coefficient families, weights, and tail certificates."""

import copy
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from infidelay import (
    CoefficientFamily,
    DelaySchedule,
    UnknownTailError,
    WeightFunction,
    m_index,
    n_index,
    tail_sum_bound,
)
from infidelay.coefficients import KINDS, TRUNCATION_CAP, _atom_tail_search

# ---------------------------------------------------------------------------
# delay schedules
# ---------------------------------------------------------------------------


def test_default_schedule_is_integers():
    ds = DelaySchedule()
    assert [ds.tau(i) for i in (1, 2, 5)] == [1.0, 2.0, 5.0]
    assert np.array_equal(ds.tau_array(4), np.array([1.0, 2.0, 3.0, 4.0]))


def test_affine_schedule_with_prefix():
    ds = DelaySchedule(c=0.0, delta=0.7, prefix=(0.4, 0.9))
    assert ds.tau(1) == 0.4
    assert ds.tau(2) == 0.9
    assert abs(ds.tau(3) - 1.6) < 1e-15
    assert abs(ds.tau(4) - 2.3) < 1e-15


def test_schedule_validation():
    with pytest.raises(ValueError):
        DelaySchedule(delta=0.0)
    with pytest.raises(ValueError):
        DelaySchedule(prefix=(0.9, 0.4))
    with pytest.raises(ValueError):
        DelaySchedule(prefix=(-0.5,))
    with pytest.raises(ValueError):
        DelaySchedule(c=-1.0, delta=1.0)  # tau_1 = c + delta must be positive
    with pytest.raises(ValueError, match="c must be 0"):
        DelaySchedule(c=5.0, delta=1.0, prefix=(0.5,))  # once silently the schedule of c = 0


@given(
    c=st.floats(min_value=0.0, max_value=3.0),
    delta=st.floats(min_value=0.1, max_value=2.0),
    x=st.floats(min_value=0.0, max_value=50.0),
)
def test_first_index_at_least_is_minimal(c, delta, x):
    ds = DelaySchedule(c=c, delta=delta)
    n = ds.first_index_at_least(x)
    assert n >= 1
    assert ds.tau(n) >= x
    if n > 1:
        assert ds.tau(n - 1) < x


def test_first_index_at_least_scans_prefix():
    ds = DelaySchedule(c=0.0, delta=0.7, prefix=(0.4, 0.9))
    assert ds.first_index_at_least(0.0) == 1
    assert ds.first_index_at_least(0.4) == 1
    assert ds.first_index_at_least(0.5) == 2
    assert ds.first_index_at_least(1.0) == 3
    assert ds.first_index_at_least(2.0) == 4


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


def _per_form_weight(form: str, w: WeightFunction, theta):
    """w(theta) by the per-form formulas of a weight that stored its form by name."""
    th = np.asarray(theta, dtype=float)
    if form == "constant":
        out = np.full_like(th, w.level)
    elif form == "exponential":
        out = np.exp(-w.gamma * th)
    else:
        out = ((1.0 - np.atleast_1d(th)) ** w.degree).reshape(th.shape)
    if np.isscalar(theta) or th.ndim == 0:
        return float(out)
    return out


def test_weight_forms():
    w1 = WeightFunction.constant(2.0)
    assert w1(-5.0) == 2.0 and w1(0.0) == 2.0
    g = WeightFunction.exponential(base=2.0)
    assert abs(g(-3.0) - 8.0) < 1e-12
    assert g(0.0) == 1.0
    g2 = WeightFunction.exponential(gamma=math.log(2.0))
    assert abs(g2(-3.0) - 8.0) < 1e-12
    q = WeightFunction.polynomial(2)
    assert q(-3.0) == 16.0 and q(0.0) == 1.0
    # the fields pick the per-form formula's numpy operation, so every value keeps its bits
    thetas = np.concatenate((np.linspace(-60.0, 0.0, 5001), [-0.0, -1e-300]))
    cases = [("constant", WeightFunction.constant()), ("constant", w1), ("exponential", g), ("exponential", g2),
             ("exponential", WeightFunction.exponential(gamma=0.37)), ("polynomial", WeightFunction.polynomial(1)),
             ("polynomial", q), ("polynomial", WeightFunction.polynomial(3))]
    for form, w in cases:
        assert w(thetas).tobytes() == _per_form_weight(form, w, thetas).tobytes()
        scalars = [w(t) for t in thetas]
        assert all(type(v) is float for v in scalars)
        assert scalars == [_per_form_weight(form, w, t) for t in thetas]


def test_polynomial_weight_scalar_equals_array():
    # a scalar call must give the array entry bit for bit: float pow and
    # numpy's array pow can differ by an ulp
    w = WeightFunction.polynomial(3)
    thetas = -np.random.default_rng(5).uniform(0.0, 50.0, 2000)
    assert [w(t) for t in thetas] == list(w(thetas))


def test_weight_validation():
    with pytest.raises(ValueError):
        WeightFunction.constant(0.5)  # weights never dip below one
    with pytest.raises(ValueError):
        WeightFunction.exponential(gamma=-1.0)
    with pytest.raises(ValueError):
        WeightFunction.exponential(base=2.0, gamma=1.0)  # exactly one spelling
    with pytest.raises(ValueError):
        WeightFunction.polynomial(-1)
    with pytest.raises(ValueError):
        WeightFunction(degree=1.5)
    with pytest.raises(ValueError):
        WeightFunction(level=0.5, gamma=0.5)
    # every rule reads a weight as level e^{-gamma theta} (1 - theta)^degree,
    # with at most one field away from (1, 0, 0)
    for mixed in ({"level": 2.0, "gamma": 0.5}, {"degree": 2, "gamma": 0.1}, {"gamma": 0.5, "degree": 1},
                  {"level": 1.5, "degree": 1}):
        with pytest.raises(ValueError, match=r"at most one away from \(1, 0, 0\)"):
            WeightFunction(**mixed)
    assert WeightFunction.exponential(gamma=0.0) == WeightFunction.constant() == WeightFunction.polynomial(0)
    assert WeightFunction() == WeightFunction.exponential(base=1.0)


def test_weights_nondecreasing_into_past():
    for w in (
        WeightFunction.constant(1.5),
        WeightFunction.exponential(base=2.0),
        WeightFunction.polynomial(3),
    ):
        thetas = np.linspace(0.0, -20.0, 200)
        vals = w(thetas)
        assert np.all(np.diff(vals) >= -1e-12)


# ---------------------------------------------------------------------------
# window indices
# ---------------------------------------------------------------------------


def test_n_index_integer_delays():
    fam = CoefficientFamily.geometric(1.0, 0.5, DelaySchedule())
    assert n_index(fam, 1) == 1
    assert n_index(fam, 2) == 2
    assert n_index(fam, 3) == 3


def test_n_index_shifted_delays():
    fam = CoefficientFamily.geometric(1.0, 0.5, DelaySchedule(c=0.5))
    # tau_i = i + 0.5, so 2*tau_1 = 3 is first reached at tau_3 = 3.5... no:
    # tau_2 = 2.5 < 3 <= tau_3 = 3.5? tau_3 = 3.5 >= 3, tau_2 = 2.5 < 3 -> 3
    assert n_index(fam, 2) == 3


def test_n_index_monotone_in_k():
    for ds in (DelaySchedule(), DelaySchedule(c=0.3, delta=0.8), DelaySchedule(prefix=(0.2,), delta=1.1)):
        fam = CoefficientFamily.geometric(1.0, 0.5, ds)
        ns = [n_index(fam, k) for k in range(1, 12)]
        assert all(b >= a for a, b in zip(ns, ns[1:]))


def test_m_index_frozen_cases():
    fam_int = CoefficientFamily.geometric(1.0, 0.5, DelaySchedule())
    # mu = (2-1)*1 - tau_1 = 0, so the least m with -m < 0 is 1
    assert m_index(fam_int, 2) == 1
    fam_half = CoefficientFamily.geometric(1.0, 0.5, DelaySchedule(c=0.5))
    # tau_i = i + 0.5: n(2) = 3, mu = 1.5 - 2.5 = -1, least m with -m < -1 is 2
    assert m_index(fam_half, 2) == 2


def test_m_index_requires_k_at_least_two():
    fam = CoefficientFamily.geometric(1.0, 0.5, DelaySchedule())
    with pytest.raises(ValueError):
        m_index(fam, 1)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def test_family_validation():
    ds = DelaySchedule()
    with pytest.raises(ValueError):
        CoefficientFamily.geometric(1.0, 1.0, ds)
    with pytest.raises(ValueError):
        CoefficientFamily.power_law(1.0, 0.0, ds)
    with pytest.raises(ValueError):
        CoefficientFamily.explicit_list([1.0], -0.1, ds)


def test_b_values():
    ds = DelaySchedule()
    geo = CoefficientFamily.geometric(1.0, 0.5, ds)
    assert geo.b_array(3)[2] == 0.125
    assert np.allclose(geo.b_array(4), [0.5, 0.25, 0.125, 0.0625])
    alt = CoefficientFamily.geometric(2.0, -0.5, ds)
    assert alt.b_array(2).tolist() == [-1.0, 0.5]
    pl = CoefficientFamily.power_law(3.0, 2.0, ds)
    assert pl.b_array(2)[1] == 0.75
    fin = CoefficientFamily.finite_support([0.3, -0.2], ds)
    assert fin.b_array(3).tolist() == [0.3, -0.2, 0.0]
    ex = CoefficientFamily.explicit_list([0.1, 0.2], 0.05, ds)
    assert ex.b_array(2)[1] == 0.2
    with pytest.raises(UnknownTailError):
        ex.b_array(3)


def test_a_finite_support_is_the_zero_mass_list():
    ds = DelaySchedule(delta=0.7)
    fin = CoefficientFamily.finite_support([0.3, -0.2], ds)
    assert fin == CoefficientFamily.explicit_list([0.3, -0.2], 0.0, ds)
    assert fin.kind == "explicit-list"
    assert KINDS == ("geometric", "power-law", "explicit-list")
    with pytest.raises(ValueError, match="unknown family kind 'finite-support'"):
        CoefficientFamily(kind="finite-support", delays=ds, coeffs=(0.3, -0.2))


def test_a_family_hashes_its_coefficients_once():
    # memo keys hash the family on every lookup: equal families hash equal,
    # as dataclass equality needs, and a second hash() walks no coefficient.
    # A copy, or an unpickled family in another process, hashes afresh
    walked = []

    class Counted(float):
        def __hash__(self):
            walked.append(self)
            return float.__hash__(self)

    ds = DelaySchedule(delta=0.7)
    values = [0.5**i for i in range(1, 1001)]
    counted = CoefficientFamily(kind="explicit-list", delays=ds, coeffs=tuple(map(Counted, values)))
    plain = CoefficientFamily.finite_support(values, ds)
    assert counted == plain and hash(counted) == hash(plain) and len(walked) == 1000
    assert hash(counted) == hash(plain) and len(walked) == 1000
    assert hash(plain) == hash(("explicit-list", ds, tuple(values), 0.0, 0.0, 0.0, 0.0))
    assert hash(copy.copy(plain)) == hash(plain) and "_hash" not in pickle.loads(pickle.dumps(plain)).__dict__
    assert {plain: 1}[CoefficientFamily.finite_support(values, ds)] == 1
    other = CoefficientFamily.finite_support(values[:-1] + [0.0], ds)
    assert other != plain and hash(other) != hash(plain)


def test_head_abs_sum():
    geo = CoefficientFamily.geometric(1.0, -0.5, DelaySchedule())
    assert abs(geo.head_abs_sum(4) - (0.5 + 0.25 + 0.125)) < 1e-15
    assert geo.head_abs_sum(1) == 0.0


# ---------------------------------------------------------------------------
# tail certificates
# ---------------------------------------------------------------------------

W1 = WeightFunction.constant(1.0)
G2 = WeightFunction.exponential(base=2.0)


def test_tail_bound_geometric_exact():
    fam = CoefficientFamily.geometric(1.0, 0.5, DelaySchedule())
    assert abs(tail_sum_bound(fam, W1, 3) - 0.25) < 1e-15


def test_tail_bound_harmonic_divergent():
    fam = CoefficientFamily.power_law(1.0, 1.0, DelaySchedule())
    assert tail_sum_bound(fam, W1, 1) == math.inf


def test_tail_bound_geometric_against_growing_weight():
    fam = CoefficientFamily.geometric(1.0, 0.25, DelaySchedule())
    assert abs(tail_sum_bound(fam, G2, 1) - 1.0) < 1e-12


def test_tail_bound_geometric_weight_overwhelms():
    # 2^{-i} against 4^{theta} growth: ratio r = 0.5 * 4 = 2 >= 1 diverges
    fam = CoefficientFamily.geometric(1.0, 0.5, DelaySchedule())
    g4 = WeightFunction.exponential(base=4.0)
    assert tail_sum_bound(fam, g4, 1) == math.inf


def test_tail_bound_finite_support_exact_zero():
    fam = CoefficientFamily.finite_support([0.3, -0.2], DelaySchedule())
    assert tail_sum_bound(fam, G2, 3) == 0.0
    assert abs(tail_sum_bound(fam, W1, 2) - 0.2) < 1e-15


def test_tail_bound_finite_support_skips_zero_b_where_the_weight_overflows():
    # e^{800 tau} overflows from tau = 1 on: a zero b_i there adds nothing
    # (it gave 0 * inf = NaN), past the last nonzero b_i the bound is 0
    w = WeightFunction(gamma=800.0)
    fam = CoefficientFamily.finite_support([1e-200, 0.0], DelaySchedule(0.0, 0.5))
    assert tail_sum_bound(fam, w, 1) == 1e-200 * float(np.exp(400.0))
    assert tail_sum_bound(CoefficientFamily.finite_support([1e-300, 0.0], DelaySchedule()), w, 2) == 0.0


def test_tail_bound_finite_support_refuses_a_nonzero_term_that_overflows():
    # 1.0 * e^{1600} and 1.0 * e^{800} are finite but have no float value: no
    # certificate, not NaN (n = 1) nor an inf that would read as divergence (n = 2)
    w = WeightFunction(gamma=800.0)
    for coeffs, starts in (([0.0, 1.0], (1, 2)), ([1.0, 0.0], (1,))):
        fam = CoefficientFamily.finite_support(coeffs, DelaySchedule())
        for n in starts:
            with pytest.raises(UnknownTailError, match="overflows in floating point"):
                tail_sum_bound(fam, w, n)
    assert tail_sum_bound(CoefficientFamily.finite_support([0.0, 1.0], DelaySchedule()), w, 3) == 0.0


def test_tail_bound_finite_support_takes_a_product_whose_weight_alone_overflows():
    # e^{800} overflows, 1e-300 e^{800} ~ 2.7e47 does not: the bound is the
    # product from logs, above it by at most 2e-12 relative (a finite
    # product keeps its bits, as the test above pins)
    mpmath = pytest.importorskip("mpmath")
    w = WeightFunction(gamma=800.0)
    got = tail_sum_bound(CoefficientFamily.finite_support([1e-300, 0.0], DelaySchedule()), w, 1)
    exact = mpmath.mpf(1e-300) * mpmath.exp(800)
    assert exact <= got <= exact * (1 + mpmath.mpf(2e-12))


def test_tail_bound_explicit_list():
    fam = CoefficientFamily.explicit_list([0.1, 0.2], 0.05, DelaySchedule())
    w3 = WeightFunction.constant(3.0)
    assert abs(tail_sum_bound(fam, w3, 2) - (0.2 * 3.0 + 3.0 * 0.05)) < 1e-15
    with pytest.raises(UnknownTailError):
        tail_sum_bound(fam, G2, 1)
    zeroed = CoefficientFamily.explicit_list([0.1, 0.2], 0.0, DelaySchedule())
    assert tail_sum_bound(zeroed, G2, 3) == 0.0


def test_tail_bound_power_law_cases():
    ds = DelaySchedule()
    p2 = CoefficientFamily.power_law(1.0, 2.0, ds)
    # integral test: sum_{i>=n} i^-2 <= n^-2 + 1/(n-... ); just require soundness+finiteness
    b = tail_sum_bound(p2, W1, 3)
    brute = sum(1.0 / i**2 for i in range(3, 200000))
    assert brute <= b < math.inf
    assert tail_sum_bound(p2, G2, 1) == math.inf
    p_half = CoefficientFamily.power_law(1.0, 0.5, ds)
    assert tail_sum_bound(p_half, W1, 2) == math.inf
    # polynomial weight of degree q: converges iff p - q > 1
    p5 = CoefficientFamily.power_law(1.0, 5.0, ds)
    q2 = WeightFunction.polynomial(2)
    b2 = tail_sum_bound(p5, q2, 2)
    brute2 = sum(i**-5.0 * (1.0 + i) ** 2 for i in range(2, 100000))
    assert brute2 <= b2 < math.inf
    assert tail_sum_bound(p5, WeightFunction.polynomial(4), 1) == math.inf


@st.composite
def family_weight(draw):
    # an optional increasing prefix of 1 to 3 delays, each gap at least 0.05;
    # an offset c only without one
    gaps = draw(st.lists(st.floats(min_value=0.05, max_value=1.0), max_size=3))
    ds = DelaySchedule(
        c=0.0 if gaps else draw(st.floats(min_value=0.0, max_value=1.0)),
        delta=draw(st.floats(min_value=0.2, max_value=1.5)),
        prefix=tuple(itertools.accumulate(gaps)),
    )
    which = draw(st.integers(min_value=0, max_value=2))
    if which == 0:
        coeffs = draw(st.lists(st.floats(min_value=-2, max_value=2), min_size=1, max_size=5))
        fam = CoefficientFamily.finite_support(coeffs, ds)
    elif which == 1:
        fam = CoefficientFamily.geometric(
            draw(st.floats(min_value=-2, max_value=2).filter(lambda b: b != 0)),
            draw(st.floats(min_value=-0.8, max_value=0.8).filter(lambda r: abs(r) > 1e-3)),
            ds,
        )
    else:
        fam = CoefficientFamily.power_law(
            draw(st.floats(min_value=0.1, max_value=2.0)),
            draw(st.floats(min_value=1.1, max_value=4.0)),
            ds,
        )
    wkind = draw(st.integers(min_value=0, max_value=2))
    if wkind == 0:
        w = WeightFunction.constant(draw(st.floats(min_value=1.0, max_value=3.0)))
    elif wkind == 1:
        w = WeightFunction.exponential(gamma=draw(st.floats(min_value=0.01, max_value=1.0)))
    else:
        w = WeightFunction.polynomial(draw(st.integers(min_value=1, max_value=3)))
    return fam, w


#: a geometric family under a constant weight from inside its delay prefix:
#: the prefix is summed term by term, then the continuation in closed form
_PREFIX_GEOMETRIC = (CoefficientFamily.geometric(0.6, -0.95, DelaySchedule(0.0, 0.5, (0.3, 0.7))), WeightFunction.constant(2.5))
#: the same under e^{theta} with prefix delays past 1, where e^{gamma tau_i}
#: differs from e^{-gamma tau_i} and e^{gamma / tau_i}: the prefix is 56 of the 293
_PREFIX_GEOMETRIC_EXP = (CoefficientFamily.geometric(1.0, 0.5, DelaySchedule(0.0, 0.5, (0.5, 3.0, 6.0))), WeightFunction.exponential(gamma=1.0))


@given(fw=family_weight(), n=st.integers(min_value=1, max_value=30))
@example(fw=_PREFIX_GEOMETRIC, n=1)
@example(fw=_PREFIX_GEOMETRIC_EXP, n=1)
def test_tail_bound_sound_against_partial_sums(fw, n):
    fam, w = fw
    bound = tail_sum_bound(fam, w, n)
    if bound == math.inf:
        return
    top = min(n + 2000, 10000)
    taus = fam.delays.tau_array(top)
    bs = np.abs(fam.b_array(top))
    with np.errstate(over="ignore", invalid="ignore"):
        terms = bs[n - 1 :] * w(-taus[n - 1 :])
    # drop terms lost to float overflow/underflow: a partial sum over any
    # subset of the (nonnegative) terms must still sit below the certificate
    terms = terms[np.isfinite(terms)]
    partial = float(np.sum(terms))
    assert partial <= bound * (1.0 + 1e-12) + 1e-300


def test_tail_bound_of_a_term_whose_weight_overflows_is_exact():
    # 2^-1000 (1 + 1)^1100 = 2^100, though the weight 2^1100 alone overflows:
    # the log-domain term, which the partial sums above drop as overflowed
    fam = CoefficientFamily.finite_support([2.0**-1000], DelaySchedule(0.0, 1.0))
    bound = tail_sum_bound(fam, WeightFunction.polynomial(1100), 1)
    assert 2.0**100 <= bound == pytest.approx(2.0**100, rel=1e-12, abs=0.0)


@given(fw=family_weight(), n=st.integers(min_value=1, max_value=20))
@example(fw=_PREFIX_GEOMETRIC, n=1)
def test_tail_bound_monotone_in_start(fw, n):
    fam, w = fw
    b1 = tail_sum_bound(fam, w, n)
    b2 = tail_sum_bound(fam, w, n + 3)
    assert b2 <= b1 * (1.0 + 1e-12) + 1e-300


@given(
    beta=st.floats(min_value=0.1, max_value=2.0),
    rho=st.floats(min_value=0.05, max_value=0.9),
    n=st.integers(min_value=1, max_value=40),
)
def test_tail_bound_geometric_tight(beta, rho, n):
    fam = CoefficientFamily.geometric(beta, rho, DelaySchedule())
    analytic = beta * rho**n / (1.0 - rho)
    got = tail_sum_bound(fam, W1, n)
    assert abs(got - analytic) <= 1e-12 * analytic


# ---------------------------------------------------------------------------
# the truncation search for one weight: one atom (1, w) from the floor 1
# ---------------------------------------------------------------------------


def _search(fam, w, eps):
    return _atom_tail_search(fam, [(1.0, w)], 1, eps)[0]


def test_atom_tail_search_frozen_cases():
    geo = CoefficientFamily.geometric(1.0, 0.5, DelaySchedule())
    assert _search(geo, W1, 0.1) == 4
    fin = CoefficientFamily.finite_support([0.7, -0.3], DelaySchedule())
    assert _search(fin, G2, 1e-30) == 2
    quarter = CoefficientFamily.geometric(1.0, 0.25, DelaySchedule())
    assert _search(quarter, G2, 0.05) == 5


@pytest.mark.parametrize("floor", [1, 5_000_000])
def test_atom_tail_search_bisects_below_the_cap(floor):
    # doubling passes the cap (from 1 at 2^24, from 5e6 at 1e7 + 2); the
    # least N = 9e6 lies below it and is found by bisecting up to the cap
    fam = CoefficientFamily.power_law(1.0, 3.0, DelaySchedule())
    eps = tail_sum_bound(fam, W1, 9_000_001)
    assert _atom_tail_search(fam, [(1.0, W1)], floor, eps) == (9_000_000, eps)
    with pytest.raises(UnknownTailError, match="below 10000000"):
        _atom_tail_search(fam, [(1.0, W1)], floor, tail_sum_bound(fam, W1, TRUNCATION_CAP + 2))


def test_atom_tail_search_divergent():
    # the search reports no truncation; divergence is certified by tail_sum_bound
    # (and, for a history, by history._certified_divergent)
    fam = CoefficientFamily.power_law(1.0, 1.0, DelaySchedule())
    assert tail_sum_bound(fam, W1, 1) == math.inf
    with pytest.raises(UnknownTailError):
        _search(fam, W1, 0.1)


def test_atom_tail_search_unknown_for_uncertified_list():
    fam = CoefficientFamily.explicit_list([0.5], 0.2, DelaySchedule())
    with pytest.raises(UnknownTailError):
        _search(fam, W1, 0.1)  # floor 0.2 can never reach 0.1
    assert _search(fam, W1, 0.25) >= 1


@given(fw=family_weight(), eps=st.floats(min_value=1e-9, max_value=0.5))
def test_atom_tail_search_is_least(fw, eps):
    fam, w = fw
    if tail_sum_bound(fam, w, 1) == math.inf:
        return
    try:
        n = _search(fam, w, eps)
    except UnknownTailError as exc:
        # the search gives up only when the cap itself fails; any other refusal fails here
        assert "below 10000000" in str(exc)
        assert tail_sum_bound(fam, w, TRUNCATION_CAP + 1) > eps
        return
    assert tail_sum_bound(fam, w, n + 1) <= eps
    if n > 1:
        assert tail_sum_bound(fam, w, n) > eps
