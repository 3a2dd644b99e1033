"""Low-level numerical helpers shared across the package.

The 4-point Gauss-Legendre rule on [0, 1], the phi1 function (expm1(z)/z
with a stable small-z branch), cubic Hermite coefficients, and evaluation /
exact (weighted) sup-norm of piecewise cubic polynomials stored in local
coordinates.

Piecewise convention used everywhere in this package: a function on
[breaks[0], breaks[-1]] is stored as an (m, 4) array of local coefficients
(c0, c1, c2, c3), where piece j covers [breaks[j], breaks[j+1]] and

    value(x) = c0 + c1*u + c2*u**2 + c3*u**3,   u = x - breaks[j].

Because the coefficients are local to the left endpoint, translating all
breakpoints leaves the coefficient array unchanged.  That property is what
lets trajectory segments be spliced into shifted history functions without
any refitting error.

The convention is applied in this module only.  piece_index finds the
piece of a point, derivative_coeffs differentiates the pieces, shift_coeffs
re-centres them, hermite_coeffs fits them from node values and slopes (in
two parts: hermite_steps, the grid part, forms each step's dt, dt**2 and
dt**3 and refuses a step whose cube is not a normal float; hermite_terms,
the part that needs the values, forms c2 and c3 from those powers, so a
caller that fits many windows on one grid, as the march does, pays for the
powers and the refusal once), and the evaluators build on these:
eval_pieces evaluates, as eval_located at piece_index's pieces (a
derivative is eval_pieces of derivative_coeffs; a caller that finds its
pieces ahead, as the march's plan does, calls eval_located itself),
sup_abs_pieces takes the exact sup of |p| over one
interval or arrays of intervals in one array pass, and
sup_ratio_pieces the exact sup of |p|/w under a WeightFunction w, whose
shape it reads from w's own fields, also in one array pass (np.roots of each
piece's critical cubic, reproduced bit for bit by one np.linalg.eigvals call
per group of companion matrices).  One use of the format's arithmetic
stays outside on purpose: the left-to-right junction snap in
HistoryFunction.derivative, whose running sum makes the constructor's
continuity check hold exactly.
"""

from __future__ import annotations

import math

import numpy as np

# 4-point Gauss-Legendre rule mapped from [-1, 1] to [0, 1].
_GL4_X = (0.3399810435848563, 0.8611363115940526)
_GL4_W = (0.6521451548625461, 0.34785484513745385)

GAUSS4_NODES = np.array(
    [
        0.5 * (1.0 - _GL4_X[1]),
        0.5 * (1.0 - _GL4_X[0]),
        0.5 * (1.0 + _GL4_X[0]),
        0.5 * (1.0 + _GL4_X[1]),
    ]
)
GAUSS4_WEIGHTS = np.array(
    [
        0.5 * _GL4_W[1],
        0.5 * _GL4_W[0],
        0.5 * _GL4_W[0],
        0.5 * _GL4_W[1],
    ]
)


def phi1(a: float, d: float) -> float:
    """Return integral_0^d exp(a*s) ds = (exp(a*d) - 1)/a, stable for a*d -> 0.

    For |a*d| below 1e-5 the ratio is evaluated through its Taylor
    polynomial to avoid cancellation; expm1 already handles moderate
    arguments well, so the series branch is only a guard for the
    division by a tiny ``a``.
    """
    z = a * d
    if abs(z) < 1e-5:
        return d * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))
    return math.expm1(z) / a


#: least positive normal float and the largest finite one
_TINY, _HUGE = float(np.finfo(float).tiny), float(np.finfo(float).max)


def normal_cube(dt) -> bool:
    """Whether every step dt (a float or an array) has dt*dt*dt a finite normal float, as hermite_coeffs divides by."""
    dt3 = dt * dt * dt
    return bool((np.isfinite(dt3) & (dt3 >= _TINY)).all())


def hermite_steps(t0, t1) -> tuple:
    """The grid part of hermite_coeffs: (dt, dt**2, dt**3) of the steps dt = t1 - t0.

    t1 is a float or an array, t0 a float or an array of t1's shape.
    ValueError, naming the first bad step's start, unless every dt**3 is a
    normal float (about 2.8e-103 <= dt <= 5.6e102), as the fit divides by
    it.  A caller with many fits on one grid, as the march's plan is,
    computes this once and hands hermite_terms its slices.
    """
    dt = t1 - t0
    dt2 = dt * dt
    dt3 = dt2 * dt
    # dt3 is normal iff it lies in [_TINY, _HUGE]; a NaN fails both ends
    if not (np.minimum.reduce(dt3, axis=None) >= _TINY and np.maximum.reduce(dt3, axis=None) <= _HUGE):
        i, at = np.argmin((dt3 >= _TINY) & (dt3 <= _HUGE)), np.broadcast_to(t0, np.shape(dt)).flat
        raise ValueError(f"a Hermite step needs a normal cube dt**3 (about 2.8e-103 <= dt <= 5.6e102): the step from t = {at[i]} has dt = {np.ravel(dt)[i]}")
    return dt, dt2, dt3


def hermite_terms(x0, m0, x1, m1, steps: tuple) -> tuple:
    """The cubic terms (c2, c3) of hermite_coeffs, the steps' powers read from hermite_steps."""
    dt, dt2, dt3 = steps
    A = x1 - x0 - m0 * dt
    Bdt = (m1 - m0) * dt
    return (3.0 * A - Bdt) / dt2, (Bdt - 2.0 * A) / dt3


def hermite_coeffs(x0: float, m0: float, x1: float, m1: float, dt: float) -> tuple[float, float, float, float]:
    """Cubic Hermite interpolant on [0, dt] in local coordinates.

    Matches value x0 and slope m0 at u=0, value x1 and slope m1 at u=dt.
    Returns (c0, c1, c2, c3) with p(u) = c0 + c1 u + c2 u^2 + c3 u^3:
    hermite_terms on hermite_steps(0.0, dt).  The arguments may also be
    equal-length arrays, one entry per piece; each entry then gets exactly
    the scalar result, and ValueError unless each step has a normal_cube.
    """
    return (x0, m0, *hermite_terms(x0, m0, x1, m1, hermite_steps(0.0, dt)))


#: most keys for which piece_index bisects each key; the guess search wins
#: beyond (200 sorted keys on a 1,500-break table: 4 us against 12 us)
_BISECT_KEYS = 1024


def piece_index(breaks: np.ndarray, n_pieces: int, x):
    """Index of the piece whose [breaks[j], breaks[j+1]) holds x, clamped to [0, n_pieces - 1].

    A point on a breakpoint belongs to the piece starting there; points
    left of breaks[0] or right of the last piece go to the end pieces.  The
    index is the count of interior breakpoints at or left of x, as
    np.searchsorted(breaks[1:n_pieces], x, side="right") gives it (NaN last).
    Up to _BISECT_KEYS keys take that search itself.  More take a guess
    search: np.interp tries the previous key's piece before it bisects, so a
    key next to the last one costs O(1); its interpolated index is truncated,
    and corrected where it rounded up onto the next piece.
    """
    x = np.asarray(x, dtype=float)
    if n_pieces < 2:
        return np.zeros(x.shape, dtype=np.intp)
    if x.size <= _BISECT_KEYS:
        return breaks[1:n_pieces].searchsorted(x, side="right")
    # fmin sends NaN, and only NaN, to the last piece
    idx = np.fmin(np.interp(x, breaks[1:n_pieces], np.arange(1.0, n_pieces), left=0.0), n_pieces - 1).astype(np.intp)
    idx -= (idx > 0) & (x < breaks[idx])
    return idx


def derivative_coeffs(coeffs: np.ndarray) -> np.ndarray:
    """Local coefficients of each piece's derivative (a quadratic: column 3 is 0)."""
    dcf = np.zeros_like(coeffs)
    dcf[:, 0] = coeffs[:, 1]
    dcf[:, 1] = 2.0 * coeffs[:, 2]
    dcf[:, 2] = 3.0 * coeffs[:, 3]
    return dcf


def shift_coeffs(coeffs: np.ndarray, du: np.ndarray) -> np.ndarray:
    """Every row re-centred at its own u = du[j] (an exact polynomial identity).

    Row j of the result holds the local coefficients of the cubic
    u -> coeffs[j](u + du[j]).  Rows with du[j] == 0 are returned unchanged,
    so signed zeros survive.
    """
    du = np.asarray(du, dtype=float)
    c0, c1, c2, c3 = coeffs.T
    shifted = np.column_stack(
        (
            c0 + du * (c1 + du * (c2 + du * c3)),
            c1 + du * (2.0 * c2 + du * 3.0 * c3),
            c2 + 3.0 * c3 * du,
            c3,
        )
    )
    return np.where((du == 0.0)[:, None], coeffs, shifted)


def eval_located(coeffs: np.ndarray, idx, u):
    """The cubics of pieces idx at their local coordinates u: c0 + u*(c1 + u*(c2 + u*c3)).

    Vectorized Horner on one row gather (take along axis 0, cheaper than
    one gather per column up to some 10^4 points), in place on the c3 * u
    product; a float sum or product does not depend on the order of its two
    operands, so the bits are those of the nested expression.
    """
    rows = coeffs.take(idx, axis=0)
    out = rows[..., 3] * u
    for k in (2, 1):
        out += rows[..., k]
        out *= u
    out += rows[..., 0]
    return out


def eval_pieces(breaks: np.ndarray, coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate a piecewise cubic at points x (assumed inside [breaks[0], breaks[-1]]).

    Points outside the span are clamped to the nearest piece; callers are
    responsible for domain checks.  eval_located at piece_index's pieces.
    """
    x = np.asarray(x, dtype=float)
    idx = piece_index(breaks, len(coeffs), x)
    return eval_located(coeffs, idx, x - breaks[idx])


def sup_abs_pieces(breaks: np.ndarray, coeffs: np.ndarray, lo, hi):
    """Exact sup of |piecewise cubic| over [lo, hi] intersected with the span (0.0 if empty).

    lo and hi are one interval's ends (the result is a float) or equal-shape
    arrays of intervals, all done in one array pass over the (interval,
    piece) pairs they cover.  Each pair takes |cubic| at its two ends and at
    the closed-form roots of the derivative 3 c3 u^2 + 2 c2 u + c1 strictly
    inside, so the result is exact up to roundoff (no sampling grid).
    """
    shape = np.shape(lo)
    lo = np.maximum(np.ravel(lo), breaks[0])
    hi = np.minimum(np.ravel(hi), breaks[-1])
    j_lo = piece_index(breaks, len(coeffs), lo)
    count = np.where(hi < lo, 0, piece_index(breaks, len(coeffs), hi) - j_lo + 1)
    which = np.repeat(np.arange(len(lo)), count)
    j = np.arange(len(which)) + np.repeat(j_lo - (np.cumsum(count) - count), count)
    left = breaks[j]
    u_lo = np.maximum(lo[which], left) - left
    u_hi = np.minimum(hi[which], breaks[j + 1]) - left
    c0, c1, c2, c3 = coeffs[j].T
    a2, a1 = 3.0 * c3, 2.0 * c2
    with np.errstate(all="ignore"):
        # a linear derivative has one root; no root is a nan or an infinity
        sq = np.sqrt(a1 * a1 - 4.0 * a2 * c1)
        u = np.array((u_lo, u_hi, np.where(a2 == 0.0, -c1 / a1, np.nan), (-a1 + sq) / (2.0 * a2), (-a1 - sq) / (2.0 * a2)))
        # a root outside (u_lo, u_hi) falls back to u_lo, already a candidate
        u[2:] = np.where((u_lo < u[2:]) & (u[2:] < u_hi), u[2:], u_lo)
        vals = np.abs(c0 + u * (c1 + u * (c2 + u * c3))).max(axis=0)
    best = np.zeros(len(lo))
    np.maximum.at(best, which, vals)
    return float(best[0]) if shape == () else best.reshape(shape)


def sup_ratio_pieces(breaks: np.ndarray, coeffs: np.ndarray, weight) -> float:
    """Exact sup of |p(x)| / weight(x) over the span, for a WeightFunction weight.

    Every weight has weight'/weight = -beta / (1 - delta x), with
    (delta, beta) = (1, q) for (1 - x)**q and (0, gamma) for exp(-gamma x)
    (and (0, 0) for a constant), read from its own fields.  On piece j, with
    u = x - breaks[j] and alpha = 1 - delta breaks[j], the ratio's critical
    points are the real roots of the cubic (alpha - delta u) p'(u) + beta p(u).
    Each piece takes the ratio at its two ends and at those roots strictly
    inside, so the result is exact up to roundoff.  All pieces are one array
    pass: the cubics' rows are grouped by their count of leading and trailing
    zero coefficients, and each group's companion matrices go through one
    np.linalg.eigvals call, so every root equals np.roots of its own row bit
    for bit; a root counts as real when |Im r| <= 1e-10 max(1, max |r|).
    """
    delta, beta = float(weight.degree > 0), weight.gamma + weight.degree
    s, du = breaks[:-1], np.diff(breaks)
    alpha = 1.0 - delta * s
    c0, c1, c2, c3 = coeffs.T
    cubic = np.column_stack((
        (beta - 3.0 * delta) * c3,
        3.0 * alpha * c3 + (beta - 2.0 * delta) * c2,
        2.0 * alpha * c2 + (beta - delta) * c1,
        alpha * c1 + beta * c0,
    ))
    nonzero = cubic != 0.0
    first = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), 4)
    last = 4 - nonzero[:, ::-1].argmax(axis=1)
    u = np.zeros((len(coeffs), 5))  # both ends, then up to three roots; a rejected root falls back to u = 0
    u[:, 1] = du
    for i, j in set(zip(first.tolist(), last.tolist())):
        n = j - i - 1  # the degree left once the zero ends are stripped
        if n < 1:
            continue
        rows = np.flatnonzero((first == i) & (last == j))
        companion = np.zeros((len(rows), n, n))
        companion[:, 1:, :-1] = np.eye(n - 1)
        companion[:, 0, :] = -cubic[rows, i + 1 : j] / cubic[rows, i : i + 1]
        roots = np.linalg.eigvals(companion)
        scale = np.maximum(1.0, np.abs(roots).max(axis=1))[:, None]
        real = (np.abs(roots.imag) <= 1e-10 * scale) & (0.0 < roots.real) & (roots.real < du[rows, None])
        u[rows, 2 : 2 + n] = np.where(real, roots.real, 0.0)
    c0, c1, c2, c3 = coeffs.T[:, :, None]
    return float(np.max(np.abs(c0 + u * (c1 + u * (c2 + u * c3))) / weight(s[:, None] + u)))


#: knots at most this far apart are one knot
_KNOT_TOL = 1e-12


def dedupe_knots(values: np.ndarray) -> np.ndarray:
    """Sort and merge knots within _KNOT_TOL (keeping the first of each cluster)."""
    v = np.sort(np.asarray(values, dtype=float))
    if len(v) == 0:
        return v
    keep = [v[0]]
    for x in v[1:]:
        if x - keep[-1] > _KNOT_TOL:
            keep.append(x)
    return np.array(keep)
