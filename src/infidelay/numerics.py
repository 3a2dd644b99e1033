"""Low-level numerical helpers shared across the package.

Quadrature tables, the phi1 function (expm1(z)/z with a stable small-z
branch), cubic Hermite coefficients, and evaluation / exact sup-norm of
piecewise cubic polynomials stored in local coordinates.

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
re-centres them, hermite_coeffs fits them from node values and slopes, and
the evaluators (eval_pieces, eval_pieces_derivative, sup_abs_pieces) build
on these.  Two uses of the format's arithmetic stay outside on purpose:
history._core_weighted_sup, whose critical points depend on the weight g in
sup |phi|/g, and the left-to-right junction snap in
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

SIMPSON_NODES = np.array([0.0, 0.5, 1.0])
SIMPSON_WEIGHTS = np.array([1.0 / 6.0, 4.0 / 6.0, 1.0 / 6.0])

#: name -> (nodes, weights) on the reference interval [0, 1]
QUAD_RULES = {
    "gauss4": (GAUSS4_NODES, GAUSS4_WEIGHTS),
    "simpson": (SIMPSON_NODES, SIMPSON_WEIGHTS),
}


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


def hermite_coeffs(x0: float, m0: float, x1: float, m1: float, dt: float) -> tuple[float, float, float, float]:
    """Cubic Hermite interpolant on [0, dt] in local coordinates.

    Matches value x0 and slope m0 at u=0, value x1 and slope m1 at u=dt.
    Returns (c0, c1, c2, c3) with p(u) = c0 + c1 u + c2 u^2 + c3 u^3.
    The arguments may also be equal-length arrays, one entry per piece;
    each entry then gets exactly the scalar result.
    """
    if np.any(np.asarray(dt) <= 0.0):
        raise ValueError(f"hermite_coeffs needs dt > 0, got {dt}")
    A = x1 - x0 - m0 * dt
    B = m1 - m0
    c2 = (3.0 * A - B * dt) / (dt * dt)
    c3 = (B * dt - 2.0 * A) / (dt * dt * dt)
    return (x0, m0, c2, c3)


def piece_index(breaks: np.ndarray, n_pieces: int, x):
    """Index of the piece whose [breaks[j], breaks[j+1]) holds x, clamped to [0, n_pieces - 1].

    A point on a breakpoint belongs to the piece starting there; points
    left of breaks[0] or right of the last piece go to the end pieces.
    """
    return np.clip(np.searchsorted(breaks, x, side="right") - 1, 0, n_pieces - 1)


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


def eval_pieces(breaks: np.ndarray, coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate a piecewise cubic at points x (assumed inside [breaks[0], breaks[-1]]).

    Points outside the span are clamped to the nearest piece; callers are
    responsible for domain checks.  Vectorized Horner evaluation.
    """
    x = np.asarray(x, dtype=float)
    idx = piece_index(breaks, len(coeffs), x)
    u = x - breaks[idx]
    c = coeffs[idx]
    return c[..., 0] + u * (c[..., 1] + u * (c[..., 2] + u * c[..., 3]))


def eval_pieces_derivative(breaks: np.ndarray, coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate the derivative of a piecewise cubic at points x."""
    x = np.asarray(x, dtype=float)
    idx = piece_index(breaks, len(coeffs), x)
    u = x - breaks[idx]
    c = coeffs[idx]
    return c[..., 1] + u * (2.0 * c[..., 2] + u * 3.0 * c[..., 3])


def _piece_sup_abs(c: np.ndarray, u_lo: float, u_hi: float) -> float:
    """Exact sup of |cubic| on [u_lo, u_hi] in the local coordinate of one piece."""
    c0, c1, c2, c3 = float(c[0]), float(c[1]), float(c[2]), float(c[3])

    def val(u: float) -> float:
        return abs(c0 + u * (c1 + u * (c2 + u * c3)))

    best = max(val(u_lo), val(u_hi))
    # interior critical points: roots of 3 c3 u^2 + 2 c2 u + c1
    a2 = 3.0 * c3
    a1 = 2.0 * c2
    a0 = c1
    if a2 == 0.0:
        if a1 != 0.0:
            u = -a0 / a1
            if u_lo < u < u_hi:
                best = max(best, val(u))
    else:
        disc = a1 * a1 - 4.0 * a2 * a0
        if disc >= 0.0:
            sq = math.sqrt(disc)
            for u in ((-a1 + sq) / (2.0 * a2), (-a1 - sq) / (2.0 * a2)):
                if u_lo < u < u_hi:
                    best = max(best, val(u))
    return best


def sup_abs_pieces(breaks: np.ndarray, coeffs: np.ndarray, lo: float, hi: float) -> float:
    """Exact sup of |piecewise cubic| over [lo, hi] intersected with the span.

    Uses endpoint values plus closed-form critical points of each cubic, so
    the result is exact up to roundoff (no sampling grid).
    """
    lo = max(lo, float(breaks[0]))
    hi = min(hi, float(breaks[-1]))
    if hi < lo:
        return 0.0
    j_lo = int(piece_index(breaks, len(coeffs), lo))
    j_hi = int(piece_index(breaks, len(coeffs), hi))
    best = 0.0
    for j in range(j_lo, j_hi + 1):
        u_lo = max(lo, float(breaks[j])) - float(breaks[j])
        u_hi = min(hi, float(breaks[j + 1])) - float(breaks[j])
        if u_hi < u_lo:
            continue
        best = max(best, _piece_sup_abs(coeffs[j], u_lo, u_hi))
    return best


def dedupe_knots(values: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Sort and merge knots closer than tol (keeping the first of each cluster)."""
    v = np.sort(np.asarray(values, dtype=float))
    if len(v) == 0:
        return v
    keep = [v[0]]
    for x in v[1:]:
        if x - keep[-1] > tol:
            keep.append(x)
    return np.array(keep)
