"""Low-level polynomial and quadrature helpers."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from infidelay import numerics as fd_numerics
from infidelay.coefficients import WeightFunction
from infidelay.numerics import (
    GAUSS4_NODES,
    GAUSS4_WEIGHTS,
    dedupe_knots,
    derivative_coeffs,
    eval_pieces,
    hermite_coeffs,
    phi1,
    piece_index,
    shift_coeffs,
    sup_abs_pieces,
    sup_ratio_pieces,
)

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def test_quadrature_rules_normalized():
    assert abs(sum(GAUSS4_WEIGHTS) - 1.0) < 1e-15
    assert all(0.0 <= x <= 1.0 for x in GAUSS4_NODES)


def test_gauss4_exact_on_cubics():
    # the 4-point rule must integrate polynomials of degree <= 3 exactly
    for q in range(4):
        approx = sum(w * x**q for x, w in zip(GAUSS4_NODES, GAUSS4_WEIGHTS))
        assert abs(approx - 1.0 / (q + 1)) < 1e-14


def test_phi1_matches_expm1_form():
    for a in (-3.0, -1.0, -1e-3, 1e-3, 0.5, 2.0):
        for d in (0.1, 0.7, 1.0):
            assert abs(phi1(a, d) - math.expm1(a * d) / a) < 1e-14 * max(1.0, abs(math.expm1(a * d) / a))


def test_phi1_at_zero_is_length():
    assert phi1(0.0, 0.3) == 0.3
    assert phi1(0.0, 1.0) == 1.0


def test_phi1_series_branch_agrees_with_expm1():
    # just inside the series branch the two evaluation routes must coincide
    for a in (9.9e-6, -9.9e-6, 1e-7, -1e-7):
        d = 1.0
        direct = math.expm1(a * d) / a
        assert abs(phi1(a, d) - direct) <= 1e-13 * abs(direct)


@given(x0=finite, m0=finite, x1=finite, m1=finite, dt=st.floats(min_value=0.01, max_value=5.0))
def test_hermite_roundtrip(x0, m0, x1, m1, dt):
    c = hermite_coeffs(x0, m0, x1, m1, dt)

    def p(u):
        return c[0] + u * (c[1] + u * (c[2] + u * c[3]))

    def dp(u):
        return c[1] + u * (2 * c[2] + u * 3 * c[3])

    scale = max(1.0, abs(x0), abs(x1), abs(m0) * dt, abs(m1) * dt)
    assert abs(p(0.0) - x0) <= 1e-12 * scale
    assert abs(p(dt) - x1) <= 1e-9 * scale
    assert abs(dp(0.0) - m0) <= 1e-12 * scale / dt
    assert abs(dp(dt) - m1) <= 1e-9 * scale / dt


def _shift_row(c, du):
    """One row re-centred by du, the scalar reference for shift_coeffs."""
    if du == 0.0:
        return c.copy()
    c0, c1, c2, c3 = c
    return np.array([c0 + du * (c1 + du * (c2 + du * c3)), c1 + du * (2.0 * c2 + du * 3.0 * c3), c2 + 3.0 * c3 * du, c3])


def test_shift_coeffs_matches_the_per_row_formula_bitwise():
    rng = np.random.default_rng(11)
    coeffs = rng.normal(size=(200, 4))
    coeffs[:5] = -0.0  # signed zeros must survive a zero shift
    du = rng.uniform(-2.0, 2.0, size=200)
    du[::7] = 0.0
    got = shift_coeffs(coeffs, du)
    want = np.array([_shift_row(c, d) for c, d in zip(coeffs, du)])
    assert got.tobytes() == want.tobytes()


def test_shifted_rows_evaluate_the_original_cubics():
    rng = np.random.default_rng(12)
    coeffs = rng.normal(size=(50, 4))
    du = rng.uniform(0.0, 1.0, size=50)
    shifted = shift_coeffs(coeffs, du)
    breaks = 4.0 * np.arange(51.0)  # pieces wide enough that u + du stays inside each
    scale = 1.0 + 8.0 * np.abs(coeffs).sum(axis=1)
    for u in (0.0, 0.3, 0.9):
        want = eval_pieces(breaks, coeffs, breaks[:-1] + (u + du))
        got = eval_pieces(breaks, shifted, breaks[:-1] + u)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)


@pytest.mark.parametrize("dt", [1e-155, 2.8e-103, math.nan, np.array([0.5, 1e-120])])
def test_hermite_refuses_a_width_whose_cube_is_not_normal(dt):
    with pytest.raises(ValueError, match="normal cube"):
        hermite_coeffs(0.0, 0.0, 1.0, 0.0, dt)


def test_hermite_rejects_bad_width():
    try:
        hermite_coeffs(0.0, 0.0, 1.0, 0.0, 0.0)
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError for zero width")


def test_eval_pieces_matches_manual_horner():
    breaks = np.array([0.0, 1.0, 3.0])
    coeffs = np.array([[1.0, 2.0, 0.0, 0.0], [3.0, -1.0, 0.5, 0.0]])
    assert eval_pieces(breaks, coeffs, 0.5) == 1.0 + 2.0 * 0.5
    u = 2.5 - 1.0
    assert eval_pieces(breaks, coeffs, 2.5) == 3.0 - u + 0.5 * u * u
    # at an interior knot the right piece owns the point
    assert eval_pieces(breaks, coeffs, 1.0) == 3.0
    assert eval_pieces(breaks, derivative_coeffs(coeffs), 0.25) == 2.0
    # points outside the span clamp to the end pieces
    assert eval_pieces(breaks, coeffs, -0.5) == 1.0 + 2.0 * -0.5
    u = 4.0 - 1.0
    assert eval_pieces(breaks, coeffs, 4.0) == 3.0 - u + 0.5 * u * u
    # the derivative of c0 + c1 u + c2 u^2 + c3 u^3 is c1 + 2 c2 u + 3 c3 u^2
    assert np.array_equal(
        derivative_coeffs(coeffs), np.array([[2.0, 0.0, 0.0, 0.0], [-1.0, 1.0, 0.0, 0.0]])
    )
    cubic = np.array([[1.0, 2.0, 3.0, 4.0]])
    assert np.array_equal(derivative_coeffs(cubic), np.array([[2.0, 6.0, 12.0, 0.0]]))


#: piece widths down to the narrowest a merged knot can leave
_PIECE_WIDTHS = st.sampled_from([1e-12, 2.0**-40, 1e-3, 0.025, 0.3, 1.0, 7.5])


@given(data=st.data())
def test_piece_index_is_the_searchsorted_index(data):
    # the bisection and the guess search (np.interp, truncated, corrected
    # once) must give searchsorted's index on every key: random keys in any
    # order, each breakpoint and its float neighbours, keys far outside the
    # span, +-inf, NaN and +-0, for breaks with one entry per piece (the read
    # table) or one more, and for 0-d, 1-d and 2-d keys
    breaks = data.draw(st.floats(-50.0, 50.0)) + np.cumsum([0.0] + data.draw(st.lists(_PIECE_WIDTHS, min_size=1, max_size=40)))
    n = len(breaks) - data.draw(st.integers(0, 1))
    drawn = data.draw(st.lists(st.floats(breaks[0] - 2.0, breaks[-1] + 2.0), max_size=30))
    near = np.concatenate((breaks, np.nextafter(breaks, -np.inf), np.nextafter(breaks, np.inf)))
    keys = np.concatenate((drawn, near, [np.inf, -np.inf, np.nan, 0.0, -0.0, breaks[0] - 1e3, breaks[-1] + 1e3]))
    keys = data.draw(st.permutations(keys.tolist()))
    keys = np.array(keys if len(keys) % 2 == 0 else keys + [breaks[0]])
    # tiled past _BISECT_KEYS, the keys take the guess search
    tiled = np.tile(keys, fd_numerics._BISECT_KEYS // len(keys) + 1)
    assert tiled.size > fd_numerics._BISECT_KEYS >= keys.size
    for x in (keys, keys.reshape(2, -1), tiled, tiled.reshape(2, -1)):
        got, want = piece_index(breaks, n, x), np.searchsorted(breaks[1:n], x, side="right")
        assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)
    for v in keys[:8].tolist():
        assert piece_index(breaks, n, v) == np.searchsorted(breaks[1:n], v, side="right")
        assert np.shape(piece_index(breaks, n, np.float64(v))) == ()


@given(data=st.data())
def test_sup_abs_pieces_dominates_dense_sampling(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    breaks = np.linspace(-2.0, 0.0, n + 1)
    coeffs = np.array(
        [[data.draw(finite) for _ in range(4)] for _ in range(n)]
    )
    sup = sup_abs_pieces(breaks, coeffs, -2.0, 0.0)
    xs = np.linspace(-2.0, 0.0, 2001)
    dense = max(abs(eval_pieces(breaks, coeffs, x)) for x in xs)
    assert sup >= dense - 1e-12
    # the sup is attained, so it can only exceed the dense maximum by the
    # variation between adjacent samples, bounded through the derivative
    length = 2.0 / n
    slope_cap = max(
        abs(c[1]) + 2 * abs(c[2]) * length + 3 * abs(c[3]) * length**2 for c in coeffs
    )
    du = xs[1] - xs[0]
    assert sup <= dense + slope_cap * du + 1e-12


def test_sup_abs_pieces_interior_max():
    # |u(1-u)| on [0,1] as a cubic with zero cubic term: max 0.25 at u=1/2
    breaks = np.array([0.0, 1.0])
    coeffs = np.array([[0.0, 1.0, -1.0, 0.0]])
    assert abs(sup_abs_pieces(breaks, coeffs, 0.0, 1.0) - 0.25) < 1e-15
    # restricted window that excludes the critical point
    assert abs(sup_abs_pieces(breaks, coeffs, 0.0, 0.25) - 0.25 * 0.75) < 1e-15


def _loop_sup_abs_pieces(breaks, coeffs, lo, hi):
    """The per-piece scalar loop sup_abs_pieces replaced, kept as its reference."""

    def piece_sup(c, u_lo, u_hi):
        c0, c1, c2, c3 = (float(v) for v in c)

        def val(u):
            return abs(c0 + u * (c1 + u * (c2 + u * c3)))

        best = max(val(u_lo), val(u_hi))
        a2, a1, a0 = 3.0 * c3, 2.0 * c2, c1
        if a2 == 0.0:
            if a1 != 0.0 and u_lo < -a0 / a1 < u_hi:
                best = max(best, val(-a0 / a1))
        else:
            disc = a1 * a1 - 4.0 * a2 * a0
            if disc >= 0.0:
                sq = math.sqrt(disc)
                for u in ((-a1 + sq) / (2.0 * a2), (-a1 - sq) / (2.0 * a2)):
                    if u_lo < u < u_hi:
                        best = max(best, val(u))
        return best

    lo, hi = max(lo, float(breaks[0])), min(hi, float(breaks[-1]))
    if hi < lo:
        return 0.0
    n = len(coeffs)
    j_lo = min(max(int(np.searchsorted(breaks, lo, side="right")) - 1, 0), n - 1)
    j_hi = min(max(int(np.searchsorted(breaks, hi, side="right")) - 1, 0), n - 1)
    best = 0.0
    for j in range(j_lo, j_hi + 1):
        b = float(breaks[j])
        u_lo, u_hi = max(lo, b) - b, min(hi, float(breaks[j + 1])) - b
        if u_hi >= u_lo:
            best = max(best, piece_sup(coeffs[j], u_lo, u_hi))
    return best


def test_sup_abs_pieces_on_interval_arrays_matches_scalar_calls_and_the_piece_loop_bitwise():
    rng = np.random.default_rng(21)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        breaks = np.cumsum(np.concatenate(([rng.uniform(-6.0, 0.0)], rng.uniform(0.05, 1.5, n))))
        coeffs = rng.normal(size=(n, 4)) * rng.choice([1e-3, 1.0, 50.0], size=(n, 4))
        coeffs[rng.random(n) < 0.3, 3] = 0.0  # quadratic pieces: one critical point
        coeffs[rng.random(n) < 0.2, 2:] = 0.0  # linear pieces: none
        lo = rng.uniform(breaks[0] - 2.0, breaks[-1] + 2.0, 40)  # some wholly outside the span
        hi = lo + rng.uniform(-1.0, 4.0, 40)  # some reversed, hence empty
        lo[:6] = rng.choice(breaks, 6)
        hi[:3] = lo[:3]  # single points on breakpoints
        got = sup_abs_pieces(breaks, coeffs, lo, hi)
        scalar = [sup_abs_pieces(breaks, coeffs, float(a), float(b)) for a, b in zip(lo, hi)]
        loop = [_loop_sup_abs_pieces(breaks, coeffs, float(a), float(b)) for a, b in zip(lo, hi)]
        assert isinstance(scalar[0], float)
        assert got.tobytes() == np.array(scalar).tobytes() == np.array(loop).tobytes()
        assert np.all(got[hi < np.maximum(lo, breaks[0])] == 0.0)
    assert sup_abs_pieces(breaks, coeffs, np.zeros(0), np.zeros(0)).shape == (0,)


def test_sup_ratio_pieces_matches_dense_sampling_under_each_weight_form():
    # constant 2, exp(-0.7 x) and (1 - x)**3, each read through its own fields;
    # piece by piece, so that interior critical points decide most of the sups
    rng = np.random.default_rng(21)
    breaks = np.concatenate([np.sort(rng.uniform(-6.0, -0.1, 19)), [0.0]])
    vals, slopes = rng.uniform(-2.0, 2.0, (2, 20)) * [[1.0], [8.0]]
    coeffs = np.column_stack(hermite_coeffs(vals[:-1], slopes[:-1], vals[1:], slopes[1:], np.diff(breaks)))
    for weight in (WeightFunction.constant(2.0), WeightFunction.exponential(gamma=0.7), WeightFunction.polynomial(3)):
        for j in range(len(coeffs)):
            piece = (breaks[j : j + 2], coeffs[j : j + 1])
            got = sup_ratio_pieces(*piece, weight)
            xs = np.linspace(breaks[j], breaks[j + 1], 20001)
            sampled = float(np.max(np.abs(eval_pieces(*piece, xs)) / weight(xs)))
            assert sampled <= got * (1.0 + 1e-12)
            assert got <= sampled * (1.0 + 1e-8)


def _loop_sup_ratio_pieces(breaks, coeffs, weight):
    """The per-piece np.roots loop sup_ratio_pieces replaced, kept as its reference."""
    delta, beta = float(weight.degree > 0), weight.gamma + weight.degree
    best = 0.0
    for j, (c0, c1, c2, c3) in enumerate(coeffs.tolist()):
        s, du = float(breaks[j]), float(breaks[j + 1] - breaks[j])
        alpha = 1.0 - delta * s
        roots = np.roots([
            (beta - 3.0 * delta) * c3,
            3.0 * alpha * c3 + (beta - 2.0 * delta) * c2,
            2.0 * alpha * c2 + (beta - delta) * c1,
            alpha * c1 + beta * c0,
        ])
        scale = max(1.0, float(np.max(np.abs(roots), initial=0.0)))
        cands = [0.0, du] + [float(r.real) for r in roots if abs(r.imag) <= 1e-10 * scale and 0.0 < r.real < du]
        best = max(best, max(abs(c0 + u * (c1 + u * (c2 + u * c3))) / float(weight(s + u)) for u in cands))
    return best


def test_sup_ratio_pieces_equals_the_per_piece_roots_loop_bit_for_bit():
    # random cores whose zero coefficients lower a piece's critical cubic at
    # either end (c3 = 0, c0 = c1 = 0, whole pieces 0; a degree-3 weight
    # cancels the leading term of every piece), under every weight shape
    rng = np.random.default_rng(28)
    weights = [WeightFunction.constant(1.0), WeightFunction.constant(2.5)]
    weights += [WeightFunction.exponential(gamma=g) for g in (0.3, 1.7)]
    weights += [WeightFunction.polynomial(q) for q in (1, 2, 3, 4)]
    for _ in range(60):
        n = int(rng.integers(1, 13))
        breaks = np.concatenate([np.sort(rng.uniform(-8.0, -0.05, n)), [0.0]])
        coeffs = rng.normal(0.0, 2.0, (n, 4)) * (rng.random((n, 4)) < 0.7)
        coeffs[rng.random(n) < 0.15] = 0.0
        for weight in weights:
            want = _loop_sup_ratio_pieces(breaks, coeffs, weight)
            assert sup_ratio_pieces(breaks, coeffs, weight).hex() == want.hex()
            # piece by piece too, so that no piece's value hides behind the max
            for j in range(n):
                piece = (breaks[j : j + 2], coeffs[j : j + 1], weight)
                assert sup_ratio_pieces(*piece).hex() == _loop_sup_ratio_pieces(*piece).hex()


def test_dedupe_knots_merges_nearby():
    out = dedupe_knots(np.array([0.0, 1.0, 1.0 + 1e-15, 2.0]))
    assert len(out) == 3
