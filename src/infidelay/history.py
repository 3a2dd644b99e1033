"""History functions on (-infty, 0] and the phase-space seminorm machinery.

A history is stored as an exact piecewise cubic core on [-depth, 0] plus a
structured analytic tail model for theta <= -depth: an ExpFormTail
amp e^{sigma theta} cos(omega theta + phase), whose settings are the
constant, cosine and exponential tails (ConstantTail, CosTail and ExpTail
build them), a polynomial envelope, or a difference of two histories.  Tail models carry
enough structure to certify sup bounds, weighted envelopes ("atoms"), and
in favorable cases exact pointwise lower bounds; that is what turns the
infinite sums below into finitely checkable quantities.

Seminorms:

  sup_norm_k(phi, k)   = sup{|phi(theta)| : theta in [-k, 0]}
  p_seminorm(phi, F, k) = sum_{i >= n(k)} sup{|b_i phi(s - tau_i)| : s in [0, k*tau_1]}

where n(k) is the first delay index reaching depth k*tau_1.  A history
belongs to the solution phase space iff every p_k is finite.  p_seminorm
returns a certified value/remainder pair, a certificate of divergence, or
an explicit "inconclusive" verdict -- never a silent guess, nor a NaN.  A
caller needing several k makes one batch call (_sup_norms, _seminorms: one
sup_abs_interval call, split past _CHUNK_TERMS windows), which returns them.

Every delay series (p_k, membership, L, the solver's forcing) is certified
by one call, _truncation(phi, family, reach, eps): the atom search from
_tail_floor, and divergence only from _certified_divergent, through the
tail's one lower envelope lower_atom(reach).  Every delayed sum (the
forcing F, and L as a x(0) + F(0)) is evaluated by one function,
_delayed_sums.  A constant tail c under a power law b_i = beta i^-p with
p > 1 (_zeta_tail) has its deep part in closed form, c beta zeta(p, n),
enclosed by coefficients.hurwitz_zeta: _truncation then stops at the tail
floor, and p_k and the delayed sums add that part past their heads.
hurwitz_zeta is memoized by value for the process; phi._memo holds ("sup", k),
("p", family, k, eps) and _truncation's search ("N", family, eps, atoms left).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .coefficients import (
    CoefficientFamily,
    DivergentTailError,
    NotInPhaseSpaceError,
    UnknownTailError,
    WeightFunction,
    _atom_tail_search,
    hurwitz_zeta,
    n_index,
    tail_sum_bound,
)
from .numerics import dedupe_knots, derivative_coeffs, eval_located, eval_pieces, hermite_coeffs, piece_index, shift_coeffs, sup_abs_pieces, sup_ratio_pieces

_CONST1 = WeightFunction.constant(1.0)

Atom = tuple[float, WeightFunction]


# ---------------------------------------------------------------------------
# tail models
#
# Every model takes sup_abs(lo, hi) over one window or over arrays of
# windows.  lower_atom(reach) returns (ell, w) with sup |tail| >= ell * w(-tau)
# over every window [-tau, reach - tau] below the core, or None.
# ---------------------------------------------------------------------------


def _per_window(lo, sups):
    """sups as a float for one window, as an array shaped like lo otherwise."""
    if np.ndim(lo) == 0:
        return float(sups)
    return np.broadcast_to(sups, np.shape(lo)).astype(float)


def _ratio_sup(scale: float, w: WeightFunction, shift: float, g: WeightFunction, depth: float) -> float:
    """sup over theta <= -depth of scale * w(theta + shift) / g(theta) in closed form; math.inf when unbounded.

    With y = 1 - theta every weight is level e^{gamma (y - 1)} y^degree (gamma
    or degree 0), and only a polynomial w is shifted.  The log-ratio grows
    like dgamma y + dq ln y, so the ratio is unbounded exactly when
    (dgamma, dq) > (0, 0) and scale != 0.  Otherwise its sup is the largest
    of the value at -depth, the value at the log-ratio's one critical point
    when that lies below -depth, and, at (dgamma, dq) = (0, 0), the limit.
    """
    dgamma, dq = w.gamma - g.gamma, w.degree - g.degree
    if (dgamma, dq) > (0.0, 0):
        return math.inf if scale != 0.0 else 0.0
    if (dgamma, dq) == (0.0, 0):
        return max(scale * w(shift - depth) / g(-depth), scale * w.level / g.level)
    # the log-ratio's slope dgamma + w.degree/(y - shift) - g.degree/y vanishes only at y = 1 - theta_star
    theta_star = 1.0 - shift + dq / dgamma if dgamma != 0.0 else 1.0 + g.degree * shift / dq
    return max(scale * w(th + shift) / g(th) for th in (-depth, min(theta_star, -depth)))


@dataclass(frozen=True)
class ExpFormTail:
    """phi(theta) = amp e^{sigma theta} cos(omega theta + phase) below the core.

    A constant is sigma = omega = 0, a cosine sigma = 0 < omega, and an
    exponential omega = 0 != sigma, decaying into the past for sigma > 0 and
    growing for sigma < 0.  Each method keeps one float formula per case.
    """

    amp: float
    sigma: float = 0.0
    omega: float = 0.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        if not (self.omega >= 0.0 and math.isfinite(self.sigma) and (self.sigma == 0.0 or self.omega == 0.0)
                and (self.phase == 0.0 or self.omega > 0.0)):
            raise ValueError(f"an exponential-form tail needs omega >= 0, a finite sigma, sigma or omega 0 "
                             f"and phase 0 unless omega > 0, got {self}")

    def evaluate(self, theta):
        th = np.asarray(theta, dtype=float)
        if self.omega > 0.0:
            return self.amp * np.cos(self.omega * th + self.phase)
        if self.sigma != 0.0:
            return self.amp * np.exp(self.sigma * th)
        return np.full_like(th, self.amp)

    def sup_abs(self, lo, hi):
        if self.omega > 0.0:
            # an extremum of cos sits at omega*theta + phase = j*pi, and some j
            # lies in [x_lo, x_hi] exactly when floor(x_hi) >= x_lo
            x_lo = (self.omega * lo + self.phase) / math.pi
            peak = (self.omega * hi + self.phase) / math.pi // 1 >= x_lo
            ends = np.maximum(np.abs(self.evaluate(lo)), np.abs(self.evaluate(hi)))
            return _per_window(lo, np.where(peak, abs(self.amp), ends))
        if self.sigma == 0.0:
            return _per_window(lo, abs(self.amp))
        return _per_window(lo, abs(self.amp) * np.exp(self.sigma * np.asarray(hi if self.sigma > 0.0 else lo)))

    def lower_atom(self, reach: float) -> Optional[Atom]:
        # a window at least a half-period long holds a cosine's extremum, and
        # a growing tail is exactly its atom, so its sup is at least the value at -tau_i;
        # for sigma <= 0 the one atom does not depend on the depth
        if self.sigma > 0.0 or (self.omega > 0.0 and not reach * self.omega >= math.pi):
            return None
        return self.atoms(reach)[0]

    def atoms(self, depth: float) -> list[Atom]:
        if self.sigma > 0.0:
            return [(abs(self.amp) * math.exp(-self.sigma * depth), _CONST1)]
        return [(abs(self.amp), WeightFunction(gamma=-self.sigma) if self.sigma else _CONST1)]

    def derivative(self):
        if self.omega > 0.0:
            return replace(self, amp=-self.amp * self.omega, phase=self.phase - 0.5 * math.pi)
        # a constant's derivative is +0.0, not amp * 0.0
        return replace(self, amp=self.amp * self.sigma) if self.sigma else ExpFormTail(0.0)

    def shifted(self, s: float) -> "ExpFormTail":
        if self.omega > 0.0:
            return replace(self, phase=self.phase + self.omega * s)
        return replace(self, amp=self.amp * math.exp(self.sigma * s)) if self.sigma else self


def ConstantTail(value: float) -> ExpFormTail:
    """phi(theta) = value below the core."""
    return ExpFormTail(value)


def CosTail(amp: float, omega: float, phase: float = 0.0) -> ExpFormTail:
    """phi(theta) = amp cos(omega theta + phase), omega > 0."""
    if not omega > 0.0:
        raise ValueError(f"oscillating tail needs omega > 0, got {omega}")
    return ExpFormTail(amp, 0.0, omega, phase)


def ExpTail(amp: float, rate: float) -> ExpFormTail:
    """phi(theta) = amp e^{rate theta}, rate != 0: decays into the past for rate > 0, grows for rate < 0."""
    if not abs(rate) > 0.0:
        raise ValueError(f"exponential tail needs rate != 0, got {rate}")
    return ExpFormTail(amp, rate)


@dataclass(frozen=True)
class WeightEnvelopeTail:
    """phi(theta) = amp * w(theta + shift) for a polynomial weight w.

    The shift is at most the core depth (HistoryFunction rejects more):
    below the core |phi| >= |amp| and grows into the past.  _ratio_sup
    gives its atom's shift factor and its sup against any weight.
    """

    amp: float
    weight: WeightFunction
    shift: float = 0.0

    def __post_init__(self) -> None:
        if self.weight.degree == 0:
            raise ValueError(f"an envelope tail needs a polynomial weight (an ExpFormTail otherwise), got {self.weight}")

    def evaluate(self, theta):
        return self.amp * np.asarray(self.weight(np.asarray(theta, dtype=float) + self.shift), dtype=float)

    def sup_abs(self, lo, hi):
        # weights are nondecreasing into the past
        return _per_window(lo, abs(self.amp) * self.weight(np.asarray(lo) + self.shift))

    def lower_atom(self, reach: float) -> Optional[Atom]:
        # |phi| is nondecreasing into the past, so a window's sup is its value
        # at -tau_i: exactly |amp| w(-tau_i) when unshifted, and at least
        # |amp| since every weight is >= 1
        return (abs(self.amp), self.weight if self.shift == 0.0 else _CONST1)

    def atoms(self, depth: float) -> list[Atom]:
        return [(abs(self.amp) * _ratio_sup(1.0, self.weight, self.shift, self.weight, depth), self.weight)]

    def derivative(self):
        q = self.weight.degree
        if q == 1:
            return ConstantTail(-self.amp)
        return WeightEnvelopeTail(-q * self.amp, WeightFunction.polynomial(q - 1), self.shift)

    def shifted(self, s: float) -> "WeightEnvelopeTail":
        return WeightEnvelopeTail(self.amp, self.weight, self.shift + s)


@dataclass(frozen=True, eq=False)
class PairDifferenceTail:
    """Tail of a difference history h_left - h_right.

    Evaluation delegates to the two full histories (which remain valid
    everywhere), so this works even when their core depths differ.  The
    certified envelope atoms are precomputed by the constructor path in
    :func:`history_difference` and are valid for theta <= -depth.
    """

    left: "HistoryFunction"
    right: "HistoryFunction"
    depth: float
    bound_atoms: tuple[Atom, ...]

    def evaluate(self, theta):
        return self.left.evaluate(theta) - self.right.evaluate(theta)

    def sup_abs(self, lo, hi):
        triangle = self.left.sup_abs_interval(lo, hi) + self.right.sup_abs_interval(lo, hi)
        if not self.bound_atoms:
            return triangle
        # the atoms certify |diff| <= sum scale*w below -depth, and every
        # weight form is nondecreasing into the past, so w peaks at lo
        from_atoms = sum(s * w(lo) for s, w in self.bound_atoms)
        below = np.asarray(hi) <= -self.depth + 1e-12
        return _per_window(lo, np.where(below, np.minimum(triangle, from_atoms), triangle))

    def lower_atom(self, reach: float) -> Optional[Atom]:
        return None

    def atoms(self, depth: float) -> list[Atom]:
        return list(self.bound_atoms)

    def derivative(self):
        return None

    def shifted(self, s: float):
        raise ValueError("difference tails cannot be time-shifted")


def _combine_tails(alpha: float, t1, beta: float, t2):
    """alpha*t1 + beta*t2 as one tail of their kind, or None.

    Two tails combine when they differ only in their amplitude field amp; a
    PairDifferenceTail never does.  With alpha = 1 and beta = -1 the new
    amplitude is exactly the difference of the two.
    """
    if isinstance(t1, PairDifferenceTail) or type(t2) is not type(t1) or replace(t2, amp=t1.amp) != t1:
        return None
    return replace(t1, amp=alpha * t1.amp + beta * t2.amp)


def tail_difference_atoms(t1, t2, depth: float) -> tuple[Atom, ...]:
    """Certified nonzero atoms bounding |t1(theta) - t2(theta)| for theta <= -depth.

    Tails that combine (_combine_tails: one kind, differing only in
    amplitude) take their difference tail's own atoms.  Cosine tails of one
    omega and different phases, and envelopes of one polynomial weight with
    different nonnegative shifts, split off the amplitude difference; the
    cosines' atom is capped by the triangle inequality's |a1| + |a2|.
    Anything else falls back to the triangle inequality over both tails' atoms.
    """
    diff = _combine_tails(1.0, t1, -1.0, t2)
    if diff is not None:
        atoms = diff.atoms(depth)
    elif isinstance(t1, ExpFormTail) and isinstance(t2, ExpFormTail) and t1.omega == t2.omega > 0.0:
        # a1 cos(x+p1) - a2 cos(x+p2) = (a1-a2) cos(x+p1) + a2 (cos(x+p1)-cos(x+p2))
        split = abs(t1.amp - t2.amp) + abs(t2.amp) * abs(t1.phase - t2.phase)
        atoms = [(min(split, abs(t1.amp) + abs(t2.amp)), _CONST1)]
    elif (isinstance(t1, WeightEnvelopeTail) and isinstance(t2, WeightEnvelopeTail)
          and t1.weight == t2.weight and min(t1.shift, t2.shift) >= 0.0):
        # a mean-value bound on the shift difference: |(1-th-s1)^q - (1-th-s2)^q| <= q (1-th)^{q-1} |s1-s2|
        q = t1.weight.degree
        atoms = [(abs(t1.amp - t2.amp), t1.weight),
                 (abs(t2.amp) * q * abs(t1.shift - t2.shift), WeightFunction.polynomial(q - 1))]
    else:
        atoms = t1.atoms(depth) + t2.atoms(depth)
    return tuple((s, w) for (s, w) in atoms if s != 0.0)


# ---------------------------------------------------------------------------
# the history function itself
# ---------------------------------------------------------------------------


_CONT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class HistoryFunction:
    """Piecewise cubic core on [breakpoints[0], 0] plus an analytic tail.

    breakpoints: strictly increasing, finite, last entry exactly 0.0.
    coeffs: shape (len(breakpoints)-1, 4), finite local coefficients per
            piece (value(x) = c0 + c1 u + ... with u = x - left breakpoint).
    tail:   model valid for theta <= breakpoints[0]; must agree with the
            core value at the junction to within the continuity tolerance.

    Both arrays are stored as read-only copies, so a history never changes
    after construction.  That is what lets sup_norm_k and p_seminorm keep
    each value they compute in the history's own memo, keyed by their
    arguments, and return it on a repeated call; nothing is shared between
    history objects.
    """

    breakpoints: np.ndarray
    coeffs: np.ndarray
    tail: object
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        bp = np.array(self.breakpoints, dtype=float)
        cf = np.array(self.coeffs, dtype=float)
        bp.flags.writeable = cf.flags.writeable = False
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "coeffs", cf)
        if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(cf))):
            raise ValueError("breakpoints and coefficients must be finite")
        if bp.ndim != 1 or len(bp) < 2:
            raise ValueError("need at least two breakpoints")
        if bp[-1] != 0.0:
            raise ValueError(f"last breakpoint must be exactly 0.0, got {bp[-1]}")
        if np.any(np.diff(bp) <= 0.0):
            raise ValueError("breakpoints must be strictly increasing")
        if cf.shape != (len(bp) - 1, 4):
            raise ValueError(f"coefficient array must be {(len(bp) - 1, 4)}, got {cf.shape}")
        # continuity across interior breakpoints
        v_end = eval_located(cf, np.arange(len(cf) - 1), np.diff(bp)[:-1])
        v_next = cf[1:, 0]
        bad = np.flatnonzero(np.abs(v_end - v_next) > np.maximum(_CONT_TOL, _CONT_TOL * np.abs(v_next)))
        if len(bad):
            j = bad[0]
            raise ValueError(f"core is discontinuous at theta={bp[j + 1]}: {v_end[j]} vs {v_next[j]}")
        if isinstance(self.tail, WeightEnvelopeTail) and self.tail.shift > -bp[0]:
            raise ValueError(f"envelope shift {self.tail.shift} exceeds the core depth {-bp[0]}")
        v_core = cf[0, 0]
        with np.errstate(invalid="ignore"):  # a tail that is not finite here is refused below
            v_tail = float(self.tail.evaluate(float(bp[0])))
        tol = max(_CONT_TOL, _CONT_TOL * abs(v_core))
        if not abs(v_core - v_tail) <= tol:
            raise ValueError(
                f"tail does not meet the core at theta={bp[0]}: core {v_core} vs tail {v_tail}"
            )

    @property
    def depth(self) -> float:
        return -float(self.breakpoints[0])

    def evaluate(self, theta):
        th = np.asarray(theta, dtype=float)
        if not (th <= 1e-12).all():  # NaN fails too
            raise ValueError(f"history arguments theta must be <= 0, got max {th.max()}")
        out = self.read(self.breakpoints, self.coeffs, np.minimum(np.atleast_1d(th), 0.0))
        return float(out[0]) if th.ndim == 0 else out

    def read(self, breaks: np.ndarray, coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Values at the 1-d array x of a table that starts with this core: one eval_pieces, the tail below."""
        below = x < breaks[0]
        count = np.count_nonzero(below)
        if count == 0:
            return eval_pieces(breaks, coeffs, x)
        if count == len(x):
            return self.tail.evaluate(x)
        out = np.empty_like(x)
        out[~below] = eval_pieces(breaks, coeffs, x[~below])
        out[below] = self.tail.evaluate(x[below])
        return out

    def sup_abs_interval(self, lo, hi):
        """Sup of |phi| over [lo, hi] (hi <= 0, 0.0 if empty); exact on the core.

        lo and hi are one window's ends (the result is a float) or equal-shape
        arrays of windows, each part one array call: sup_abs_pieces on the
        core, and the tail's sup_abs when some window reaches below the core.
        """
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        if np.any(hi > 1e-12):
            raise ValueError(f"history intervals must end at <= 0, got {hi.max()}")
        hi = np.minimum(hi, 0.0)
        b0 = self.breakpoints[0]
        best = sup_abs_pieces(self.breakpoints, self.coeffs, np.maximum(lo, b0), hi)
        below = (lo < b0) & (lo <= hi)
        if np.any(below):
            best = np.where(below, np.maximum(best, self.tail.sup_abs(lo, np.minimum(hi, b0))), best)
        return float(best) if lo.ndim == 0 else best

    def derivative(self) -> Optional["HistoryFunction"]:
        """Exact derivative history, or None when phi is not C^1.

        The core derivative is the piecewise quadratic of the stored
        cubics; it must be continuous across breakpoints and match the
        tail's derivative at the junction, else None.
        """
        bp = self.breakpoints
        cf = self.coeffs
        scale = max(1.0, float(np.max(np.abs(cf))))
        dcf = derivative_coeffs(cf)
        du = np.diff(bp)[:-1]
        rise = du * (dcf[:-1, 1] + du * dcf[:-1, 2])
        if np.any(np.abs(dcf[:-1, 0] + rise - dcf[1:, 0]) > 1e-9 * scale):
            return None
        dtail = self.tail.derivative()
        if dtail is None:
            return None
        if abs(float(dtail.evaluate(float(bp[0]))) - dcf[0, 0]) > 1e-9 * scale:
            return None
        # snap the tiny float defects so the constructor's strict check passes;
        # the running sum adds left to right, as the piece-by-piece recurrence does
        dcf[:, 0] = np.cumsum(np.concatenate(([dcf[0, 0]], rise)))
        try:
            return HistoryFunction(bp, dcf, dtail)
        except ValueError:
            return None


# ---------------------------------------------------------------------------
# delayed sums
# ---------------------------------------------------------------------------

#: largest (points x head) argument block _delayed_sums evaluates at once, and most windows per _seminorms call
_CHUNK_TERMS = 65536

#: fewest delays for which the delayed sums use tail moments: on 200-point
#: windows the split was slower than the full head at N = 40 and faster at N = 80
_MOMENT_MIN_TERMS = 64


def _is_constant(tail) -> bool:
    """Whether tail is an exponential-form tail with sigma = omega = 0, a constant amp."""
    return isinstance(tail, ExpFormTail) and tail.sigma == tail.omega == 0.0


def _zeta_tail(phi: HistoryFunction, family: CoefficientFamily) -> Optional[tuple[float, float]]:
    """(c beta, p) when the deep sums are c beta zeta(p, n): a constant tail c under a power law with p > 1."""
    if _is_constant(phi.tail) and family.kind == "power-law" and family.p_exponent > 1.0:
        return phi.tail.amp * family.beta, family.p_exponent
    return None


def _zeta_moment(cb: float, p: float):
    """tail_sums(s, m, cap) = cb zeta(p, m + 1), the lower ends of the memoized enclosures gathered over [min m, max m]; no cap."""
    def tail_sums(s, m, cap):
        lo, hi = (int(m.min()), int(m.max())) if m.size else (0, -1)
        zeta = np.array([hurwitz_zeta(p, j + 1)[0] for j in range(lo, hi + 1)])
        return cb * zeta[m - lo]
    return tail_sums


def _tail_sums(phi: HistoryFunction, family: CoefficientFamily, taus: np.ndarray, bs: np.ndarray):
    """phi's tail moment tail_sums(s, m, cap) over the delays (see _delayed_sums), or None."""
    closed = _zeta_tail(phi, family)
    if closed is not None:
        return _zeta_moment(*closed)
    tail = phi.tail
    # e^{kappa tau_N} and e^{-kappa tau_N} must stay normal floats
    if not isinstance(tail, ExpFormTail) or len(taus) < _MOMENT_MIN_TERMS or abs(tail.sigma) * taus[-1] > 700.0:
        return None
    # tail(theta) = Re(amp e^{kappa theta + i phase}); a constant or exponential takes real exponentials
    kappa, i_phase = (complex(tail.sigma, tail.omega), 1j * tail.phase) if tail.omega > 0.0 else (tail.sigma, 0.0)
    # suffix[j] = sum_{i > j} b_i e^{-kappa tau_i}, accumulated from the last delay down; suffix[N] = 0
    terms = bs * np.exp(-kappa * taus)
    suffix = np.concatenate((np.cumsum(terms[::-1])[::-1], np.zeros(1, dtype=terms.dtype)))
    # a point with tail terms has s < tau_N; one without takes e^0 times 0
    return lambda s, m, cap: (tail.amp * np.exp(kappa * np.where(m < cap, s, 0.0) + i_phase) * (suffix[m] - suffix[cap])).real


def _delayed_sums(values_at, phi: HistoryFunction, points: np.ndarray, taus: np.ndarray, bs: np.ndarray, tail_sums, caps) -> np.ndarray:
    """F(s) = sum_{i <= cap} b_i x(s - tau_i) at every s in points, in one batch.

    values_at maps an array of arguments to x there: the trajectory with
    history phi (the solver's forcing), or phi.evaluate itself, which makes
    L(phi) = a phi(0) + F(0).  tail_sums is _tail_sums(phi, family, taus,
    bs), built once per march, forcing or L call.  caps <= len(taus) is each
    point's last delay index (stepper._caps), or one int for every point.

    Each point s splits its delays at m = min(#{i : tau_i <= s + depth},
    cap), one sorted search: the head i <= m, whose arguments s - tau_i
    reach phi's core or the solution, reads values_at term by term.  The
    tail m < i <= cap reads only phi's analytic tail (an argument that
    rounds across the core's edge is read on the other side, where tail and
    core agree within the continuity tolerance).  An ExpFormTail is
    Re(amp e^{kappa theta + i phase}) with kappa = sigma + i omega, so its
    part is one moment from suffix sums over the delays:

        Re(amp e^{kappa s + i phase} (S[m] - S[cap])),  S[j] = sum_{i > j} b_i e^{-kappa tau_i}

    A constant tail under a power law with p > 1 (_zeta_tail) instead takes
    c beta zeta(p, m + 1), the whole series over (m, infinity), at every cap:
    no suffix sums.  Every other tail (an envelope's binomial moments
    sum b_i tau_i^j would cancel badly at large tau), every tail below
    _MOMENT_MIN_TERMS delays and every kappa with |Re kappa| tau_N > 700 keep
    every delay up to the cap in the head.  The head's arguments are evaluated in chunks of
    points of at most _CHUNK_TERMS terms, each read as one delay-major block
    (one row per delay, so neighbouring arguments are neighbouring points
    and numerics.piece_index's guess search is O(1) per argument), then
    transposed into a C-contiguous (points x delays) block.  A chunk whose
    points share one head count is summed by one np.vecdot against the
    leading coefficients, which takes the same BLAS dot product per row as
    np.dot; a mixed chunk takes one np.vecdot per head count.  The split
    depends on s and its cap alone, so a point's value does not depend on
    the batch it is evaluated in.  A sum that is not finite in floating
    point raises UnknownTailError.
    """
    heads = np.full(len(points), caps)
    out = np.zeros(len(points))
    if tail_sums is not None:
        heads = np.minimum(np.searchsorted(taus, points + phi.depth, side="right"), heads)
        out = tail_sums(points, heads, caps)
    rows = max(1, _CHUNK_TERMS // max(1, int(heads.max(initial=0))))
    with np.errstate(over="ignore", invalid="ignore"):  # a spoiled sum is named below
        for r0 in range(0, len(points), rows):
            m = heads[r0 : r0 + rows]
            w = int(m.max())
            args = points[None, r0 : r0 + rows] - taus[:w, None]
            # each row's dot must read a contiguous row: a strided one sums in another order
            vals = np.ascontiguousarray(values_at(args.ravel()).reshape(args.shape).T)
            if m.min() == w:
                out[r0 : r0 + rows] += np.vecdot(vals, bs[:w])
            else:
                for k in set(m.tolist()):
                    rows_k = np.flatnonzero(m == k)
                    out[r0 + rows_k] += np.vecdot(vals[rows_k, :k], bs[:k])
            del args, vals  # at large N one chunk is a row; free it before the next
    if not np.all(np.isfinite(out)):
        raise UnknownTailError("a delayed sum is not finite in floating point")
    return out


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


# each of the ceil(depth / resolution) pieces costs fn calls and 7 floats,
# so 10^6 pieces take at least 56 MB and seconds of Python: far past the 160
# of the presets, and a mistyped resolution is refused before it asks for TiB
_MAX_CORE_PIECES = 1_000_000


def history_from_callable(
    fn, depth: float, resolution: float = 0.05, tail=None, fn_prime=None
) -> HistoryFunction:
    """Sample fn on [-depth, 0] into a cubic Hermite core.

    Node values and slopes are taken exactly from fn / fn_prime (centered
    differences when fn_prime is missing), so the core is the standard
    Hermite interpolant with O(resolution^4) error.  ValueError, before
    anything is allocated, unless depth and resolution are positive and
    ceil(depth / resolution) is at most _MAX_CORE_PIECES.
    """
    if depth <= 0.0 or resolution <= 0.0:
        raise ValueError(f"core depth and resolution must be positive, got {depth} and {resolution}")
    if not depth / resolution <= _MAX_CORE_PIECES:  # NaN and inf fail too
        raise ValueError(f"core depth / resolution must be at most {_MAX_CORE_PIECES} pieces, got {depth} / {resolution}")
    m = max(2, int(math.ceil(depth / resolution)))
    bp = np.linspace(-depth, 0.0, m + 1)
    bp[-1] = 0.0
    vals = np.array([float(fn(t)) for t in bp])
    if fn_prime is not None:
        slopes = np.array([float(fn_prime(t)) for t in bp])
    else:
        # centered differences, one-sided at the theta=0 end where fn is undefined
        hstep = max(1e-6, 1e-6 * depth)
        slopes = np.empty_like(vals)
        for j, t in enumerate(bp):
            r = min(t + hstep, 0.0)
            l = r - 2.0 * hstep
            slopes[j] = (float(fn(r)) - float(fn(l))) / (r - l)
    cf = np.column_stack(hermite_coeffs(vals[:-1], slopes[:-1], vals[1:], slopes[1:], np.diff(bp)))
    if tail is None:
        tail = ConstantTail(vals[0])
    return HistoryFunction(bp, cf, tail)


def history_preset(name: str, depth: float = 8.0, resolution: float = 0.05) -> HistoryFunction:
    """Named reference histories used by the command line and the tests.

    constant   phi = 1 everywhere (exact)
    linear     phi = 1 + theta on the core, frozen at 1 - depth below (exact)
    cos        phi = cos(pi*theta/2), matching oscillating tail
    exp-decay  phi = exp(theta), matching decaying tail
    g-weight   phi = 2**(-theta), matching growing exponential tail
    """
    if name == "constant":
        return HistoryFunction(
            np.array([-depth, 0.0]), np.array([[1.0, 0.0, 0.0, 0.0]]), ConstantTail(1.0)
        )
    if name == "linear":
        return HistoryFunction(
            np.array([-depth, 0.0]),
            np.array([[1.0 - depth, 1.0, 0.0, 0.0]]),
            ConstantTail(1.0 - depth),
        )
    if name == "cos":
        w = 0.5 * math.pi
        return history_from_callable(
            lambda t: math.cos(w * t),
            depth,
            resolution,
            tail=CosTail(1.0, w, 0.0),
            fn_prime=lambda t: -w * math.sin(w * t),
        )
    if name == "exp-decay":
        return history_from_callable(
            math.exp, depth, resolution, tail=ExpTail(1.0, 1.0), fn_prime=math.exp
        )
    if name == "g-weight":
        ln2 = math.log(2.0)
        return history_from_callable(
            lambda t: math.exp(-ln2 * t),
            depth,
            resolution,
            tail=ExpTail(1.0, -ln2),
            fn_prime=lambda t: -ln2 * math.exp(-ln2 * t),
        )
    raise ValueError(f"unknown history preset {name!r}")


def scale_history(alpha: float, phi: HistoryFunction) -> HistoryFunction:
    """alpha*phi: the core's coefficients and the tail's amplitude field amp times alpha."""
    if isinstance(phi.tail, PairDifferenceTail):
        raise ValueError("difference tails cannot be rescaled")
    tail = replace(phi.tail, amp=float(alpha) * phi.tail.amp)
    return HistoryFunction(phi.breakpoints.copy(), float(alpha) * phi.coeffs, tail)


def combine_histories(
    alpha: float, h1: HistoryFunction, beta: float, h2: HistoryFunction
) -> HistoryFunction:
    """alpha*h1 + beta*h2 for histories sharing a breakpoint grid.

    The tails must combine (_combine_tails): two tails of one kind that
    differ only in amplitude, for example two exponential tails of one rate.
    """
    if not np.array_equal(h1.breakpoints, h2.breakpoints):
        raise ValueError("combine_histories needs identical breakpoint grids")
    tail = _combine_tails(alpha, h1.tail, beta, h2.tail)
    if tail is None:
        raise ValueError("combine_histories needs tails that differ only in amplitude")
    return HistoryFunction(h1.breakpoints.copy(), alpha * h1.coeffs + beta * h2.coeffs, tail)


def _materialize_constant(phi: HistoryFunction, new_depth: float) -> HistoryFunction:
    """Extend a constant-tailed core to new_depth > its depth with one exact flat piece."""
    bp = np.concatenate([[-new_depth], phi.breakpoints])
    row = np.array([[phi.tail.amp, 0.0, 0.0, 0.0]])
    return HistoryFunction(bp, np.concatenate([row, phi.coeffs]), phi.tail)


def history_difference(h1: HistoryFunction, h2: HistoryFunction) -> HistoryFunction:
    """The history h1 - h2, exact on the common core.

    Both cores are re-centered onto the union grid via exact Taylor shifts
    (on equal grids every shift is 0 and the coefficients subtract
    directly).  Depth mismatches are removed exactly when the shallower tail
    is constant.  At equal depths, tails that combine (_combine_tails)
    subtract into one tail; any remaining tail pair is wrapped in a
    PairDifferenceTail carrying certified envelope atoms.
    """
    a, b = h1, h2
    if a.depth != b.depth:
        if a.depth < b.depth and _is_constant(a.tail):
            a = _materialize_constant(a, b.depth)
        elif b.depth < a.depth and _is_constant(b.tail):
            b = _materialize_constant(b, a.depth)

    depth = min(a.depth, b.depth)
    inner_a = a.breakpoints[(a.breakpoints > -depth + 1e-12) & (a.breakpoints < -1e-12)]
    inner_b = b.breakpoints[(b.breakpoints > -depth + 1e-12) & (b.breakpoints < -1e-12)]
    bp = np.concatenate([[-depth], dedupe_knots(np.concatenate([inner_a, inner_b])), [0.0]])
    # pick source pieces by the segment midpoint: union knots merged
    # within 1e-12 may sit a few ulp before a side's own knot, and a
    # left-endpoint lookup would then extrapolate the previous piece
    mid = 0.5 * (bp[:-1] + bp[1:])
    ia, ib = (piece_index(h.breakpoints, len(h.coeffs), mid) for h in (a, b))
    cf = shift_coeffs(a.coeffs[ia], bp[:-1] - a.breakpoints[ia]) - shift_coeffs(
        b.coeffs[ib], bp[:-1] - b.breakpoints[ib]
    )

    ta, tb = a.tail, b.tail
    if a.depth == b.depth:
        tail = _combine_tails(1.0, ta, -1.0, tb)
        if tail is None:
            tail = PairDifferenceTail(a, b, depth, tail_difference_atoms(ta, tb, depth))
    else:
        # the strip [-deep.depth, -depth] between the cores: deep's core against shallow's tail
        deep, shallow = (a, b) if a.depth > b.depth else (b, a)
        strip = deep.sup_abs_interval(-deep.depth, -depth) + shallow.tail.sup_abs(-deep.depth, -depth)
        dtail = shallow.tail.derivative()
        if dtail is not None:
            # mean-value bound from the gap at -depth, tight on a thin strip
            gap = abs(deep.evaluate(-depth) - float(shallow.tail.evaluate(-depth)))
            slope = sup_abs_pieces(deep.breakpoints, derivative_coeffs(deep.coeffs), -deep.depth, -depth)
            strip = min(strip, gap + (deep.depth - depth) * (slope + dtail.sup_abs(-deep.depth, -depth)))
        atoms: tuple[Atom, ...] = tail_difference_atoms(ta, tb, deep.depth)
        if strip != 0.0:
            atoms = ((strip, _CONST1),) + atoms
        tail = PairDifferenceTail(a, b, depth, atoms)
    return HistoryFunction(bp, cf, tail)


# ---------------------------------------------------------------------------
# seminorms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeminormValue:
    """Certified evaluation of one p_k seminorm.

    value covers delay indices [index_first, index_last]; the discarded
    remainder is certified <= truncation_bound.  verdict is "finite",
    "divergent" (a certificate, not a hunch), or "inconclusive".
    """

    value: float
    truncation_bound: float
    index_first: int
    index_last: int
    verdict: str

    def upper(self) -> float:
        if self.verdict != "finite":
            return math.inf
        return self.value + self.truncation_bound

    @property
    def indices_used(self) -> range:
        return range(self.index_first, self.index_last + 1)  # empty when index_last < index_first


def _window_index(k, least: int = 1) -> int:
    """k as an int >= least; numpy integers pass, as operator.index reads them, and anything else is a ValueError."""
    try:
        k = operator.index(k)
    except TypeError:
        raise ValueError(f"window index k must be an integer, got {k!r}") from None
    if k < least:
        raise ValueError(f"window index k must be >= {least}, got {k}")
    return k


def sup_norm_k(phi: HistoryFunction, k: int) -> float:
    """Exact sup of |phi| over [-k, 0]: _sup_norms of the one k."""
    return _sup_norms(phi, [k])[0]


def _sup_norms(phi: HistoryFunction, ks) -> list[float]:
    """sup_norm_k(phi, k) for every k in ks, in order; the windows [-k, 0] not in phi._memo under ("sup", k) are one sup_abs_interval call."""
    ks = list(map(_window_index, ks))
    new = [k for k in dict.fromkeys(ks) if ("sup", k) not in phi._memo]
    if new:
        sups = phi.sup_abs_interval(-np.array(new, dtype=float), np.zeros(len(new)))
        phi._memo.update(zip([("sup", k) for k in new], sups.tolist()))
    return [phi._memo["sup", k] for k in ks]


def _tail_floor(phi: HistoryFunction, family: CoefficientFamily, reach: float) -> int:
    """Last delay index whose arguments over [0, reach] may leave phi's tail.

    Beyond it tau_i >= reach + depth, so every argument s - tau_i with s in
    [0, reach] lies in the tail region, where the envelope atoms apply.
    """
    return family.delays.first_index_at_least(reach + phi.depth) - 1


def _certified_divergent(phi: HistoryFunction, family: CoefficientFamily, reach: float) -> bool:
    """True only with a proof that sum_i |b_i| sup_{s in [0, reach]} |phi(s - tau_i)| = infinity.

    The tail's lower atom (ell, w) bounds each window sup past the tail floor
    from below by ell * w(-tau_i) (p_k: reach k*tau_1; L: 0), so a nonzero
    ell and a weighted coefficient series certified divergent prove it.
    """
    atom = phi.tail.lower_atom(reach)
    if atom is None or atom[0] == 0.0:
        return False
    try:
        return math.isinf(tail_sum_bound(family, atom[1], _tail_floor(phi, family, reach) + 1))
    except UnknownTailError:
        return False


def _truncation(phi: HistoryFunction, family: CoefficientFamily, reach: float, eps: float) -> tuple[int, float]:
    """Certified (N, remainder) of sum_i b_i phi(s - tau_i) over s in [0, reach] to eps.

    The atom search from _tail_floor(phi, family, reach).  When the deep
    sums have a closed form (_zeta_tail) whose enclosure of
    c beta zeta(p, floor + 1) is within eps wide, the callers add the deep
    part past the head themselves, so no atom is left to search: N is the
    floor and the remainder that width.  When the search's N passes a
    positive-mass list's L stored coefficients (a zero-mass list's never
    does) and tau_{L+1} >= reach, the unstored terms read phi and sum to
    at most mass * sup |phi|: N is L and the remainder that bound, once it
    is within eps.  When the search fails, or N still passes the
    stored coefficients, raises DivergentTailError if _certified_divergent
    holds, UnknownTailError from the search's error otherwise; both are
    NotInPhaseSpaceErrors.  eps must be positive (inf asks for membership).
    The atom search is memoized on phi as (floor, N, bound) under
    ("N", family, eps, whether atoms are left): its bound falls as the start
    grows, so a later floor in [floor, N] takes that N and bound unsearched;
    past N the first probe succeeds, and the lower floor's entry stays.
    """
    if not eps > 0.0:  # NaN fails too
        raise ValueError(f"truncation tolerance eps must be positive, got {eps}")
    floor, atoms, width = _tail_floor(phi, family, reach), phi.tail.atoms(phi.depth), 0.0
    closed = _zeta_tail(phi, family)
    if closed is not None:
        lo, hi = hurwitz_zeta(closed[1], floor + 1)
        if abs(closed[0]) * (hi - lo) <= eps:
            atoms, width = [], abs(closed[0]) * (hi - lo)
    try:
        key = ("N", family, eps, bool(atoms))
        low, N, rem = phi._memo.get(key, (math.inf, 0, 0.0))
        if not low <= floor <= N:
            N, rem = _atom_tail_search(family, atoms, floor, eps)
            if floor < low:
                phi._memo[key] = floor, N, rem
        L, mass = len(family.coeffs), family.tail_abs_bound
        if family.kind == "explicit-list" and N > L and family.delays.tau(L + 1) >= reach:
            # every unstored argument s - tau_i <= reach - tau_{L+1} reads phi
            unstored = mass * cg_norm(phi, _CONST1)
            if unstored <= eps:
                N, rem = L, unstored
        if family.kind == "explicit-list":
            family.b_array(N)
        return N, rem + width
    except UnknownTailError as exc:
        if _certified_divergent(phi, family, reach):
            raise DivergentTailError("the delayed series is certified divergent: the history is outside the phase space") from exc
        raise UnknownTailError(f"cannot certify a truncation of the delayed series to eps={eps}: {exc}") from exc


def p_seminorm(
    phi: HistoryFunction, family: CoefficientFamily, k: int, eps_tail: float = 1e-10
) -> SeminormValue:
    """Certified evaluation of p_k(phi) for the given coefficient family.

    The finitely many window sups [-tau_i, min(k tau_1 - tau_i, 0)] up to a
    certified truncation index are one sup_abs_interval call, exact on the
    core and the tail's sup_abs below it, summed in index order; beyond it
    the contribution is bounded by the tail's envelope atoms pushed through
    the family's weighted tail sums.  A sum that is not finite in floating
    point is "inconclusive".  It is _seminorms of the one k, so a repeated
    call returns the same object.
    """
    return _seminorms(phi, family, [k], eps_tail)[0]


def _seminorms(phi: HistoryFunction, family: CoefficientFamily, ks, eps_tail: float) -> list[SeminormValue]:
    """p_seminorm(phi, family, k, eps_tail) for every k >= 1 in ks, in order, in one pass.

    A k not in phi._memo under ("p", family, k, eps_tail) takes its own
    _truncation.  The windows of the finite ones go, in order, into
    sup_abs_interval calls of at most _CHUNK_TERMS windows (a k with more
    takes a call alone; tau_array is read once, b_array once per call after
    its sups, so no call holds more than p_k did alone), and each k sums its
    own segment from 0.0 in index order.  A window's sup does not depend on
    its call, so no value depends on the batch.
    """
    ks, d, runs = list(map(_window_index, ks)), family.delays, []
    for k in [k for k in dict.fromkeys(ks) if ("p", family, k, eps_tail) not in phi._memo]:
        n0 = n_index(family, k)
        try:
            runs.append((k, n0, *_truncation(phi, family, k * d.tau1, eps_tail)))
        except NotInPhaseSpaceError as exc:
            phi._memo["p", family, k, eps_tail] = SeminormValue(math.inf, math.inf, n0, 0, "divergent" if isinstance(exc, DivergentTailError) else "inconclusive")
    if runs:
        taus, closed = d.tau_array(max(N for _, _, N, _ in runs)), _zeta_tail(phi, family)
    while runs:
        ends = np.cumsum([max(0, N - n0 + 1) for _, n0, N, _ in runs])
        cut = max(1, int(np.searchsorted(ends, _CHUNK_TERMS, side="right")))
        group, runs = runs[:cut], runs[cut:]
        lo = -np.concatenate([taus[n0 - 1 : N] for _, n0, N, _ in group])
        with np.errstate(over="ignore", invalid="ignore"):  # a spoiled sum is named below
            sups = phi.sup_abs_interval(lo, np.minimum(np.repeat([k * d.tau1 for k, *_ in group], np.diff(ends[:cut], prepend=0)) + lo, 0.0))
            bs = np.abs(family.b_array(max(N for _, _, N, _ in group)))
            totals = [float(np.cumsum(np.concatenate(([0.0], part * bs[n0 - 1 : N])))[-1])
                      for (_, n0, N, _), part in zip(group, np.split(sups, ends[: cut - 1]))]
        del lo, sups, bs  # at large N a group is one k: free its arrays before the next
        for (k, n0, N, rem), total in zip(group, totals):
            if closed is not None:  # every window past N sees the constant c
                total += abs(closed[0]) * hurwitz_zeta(closed[1], N + 1)[0]
            phi._memo["p", family, k, eps_tail] = SeminormValue(total, rem, n0, N, "finite") if math.isfinite(total) else SeminormValue(math.inf, math.inf, n0, 0, "inconclusive")
    return [phi._memo["p", family, k, eps_tail] for k in ks]


@dataclass(frozen=True)
class MembershipReport:
    """Phase-space membership verdict for all k, with the p_k for k = 1..k_max.

    The verdict does not depend on k_max, which only chooses the reported
    seminorms.
    """

    seminorms: dict
    verdict: str  # "member" | "not-member" | "inconclusive"


def membership_in_F(
    phi: HistoryFunction, family: CoefficientFamily, k_max: int = 5, eps_tail: float = 1e-10
) -> MembershipReport:
    """Whether every p_k(phi) is finite, with p_1..p_{k_max} as evidence.

    "member" when _truncation at reach 0 succeeds for eps = inf: the tail
    sum past that floor bounds the tail of every p_k past that k's floor,
    and the terms below a floor are finitely many finite ones.
    "not-member" when a reported p_k is certified divergent, "inconclusive"
    otherwise.  k_max only chooses which values are reported; p_1..p_{k_max}
    are one _seminorms pass, one sup_abs_interval call up to _CHUNK_TERMS windows.
    """
    ks = range(1, _window_index(k_max, 0) + 1)
    per_k = dict(zip(ks, _seminorms(phi, family, ks, eps_tail)))
    try:
        _truncation(phi, family, 0.0, math.inf)
        overall = "member"
    except NotInPhaseSpaceError:
        overall = "not-member" if any(v.verdict == "divergent" for v in per_k.values()) else "inconclusive"
    return MembershipReport(per_k, overall)


# ---------------------------------------------------------------------------
# weighted sup norms and the embedding test
# ---------------------------------------------------------------------------


def _tail_weighted_sup(tail, g: WeightFunction, depth: float) -> float:
    """Certified sup of |tail(theta)|/g(theta) over theta <= -depth.

    An envelope tail takes _ratio_sup of its weight and shift, exact, so
    math.inf certifies unboundedness.  Any other tail sums _ratio_sup over
    its atoms, an upper bound (exact for constant and exponential tails); an
    infinite sum certifies nothing and raises UnknownTailError, except for a
    growing exponential tail, whose one atom is exactly |tail|.
    """
    if isinstance(tail, WeightEnvelopeTail):
        return _ratio_sup(abs(tail.amp), tail.weight, tail.shift, g, depth)
    total = sum((_ratio_sup(s, w, 0.0, g, depth) for s, w in tail.atoms(depth)), 0.0)
    if math.isinf(total) and not (isinstance(tail, ExpFormTail) and tail.sigma < 0.0):
        raise UnknownTailError(f"the atoms of tail {type(tail).__name__} bound no finite weighted sup")
    return total


def cg_norm(phi: HistoryFunction, g: WeightFunction) -> float:
    """sup over theta <= 0 of |phi(theta)|/g(theta); math.inf when unbounded.

    The larger of sup_ratio_pieces on the core and _tail_weighted_sup.
    """
    tail_part = _tail_weighted_sup(phi.tail, g, phi.depth)
    if math.isinf(tail_part):
        return math.inf
    return max(sup_ratio_pieces(phi.breakpoints, phi.coeffs, g), tail_part)


@dataclass(frozen=True)
class CgRow:
    k: int
    lhs: float
    rhs: float
    holds: bool


@dataclass(frozen=True)
class CgEmbeddingReport:
    """Checks p_k(phi) <= cg_norm(phi) * sum_{i>=n(k)} |b_i| g(-tau_i)."""

    applicable: bool
    holds: Optional[bool]
    cg: float
    rows: tuple


def check_cg_embedding(
    phi: HistoryFunction,
    family: CoefficientFamily,
    g: WeightFunction,
    k_max: int = 3,
    tol: float = 1e-8,
    eps_tail: float = 1e-10,
) -> CgEmbeddingReport:
    """Verify the weighted-norm domination of the p_k seminorms.

    Not applicable, with no rows, unless cg is finite: nan when the weighted
    series diverges or it or cg_norm is uncertifiable, inf when phi is not in C_g.
    """
    try:
        cg = math.nan if math.isinf(tail_sum_bound(family, g, 1)) else cg_norm(phi, g)
    except UnknownTailError:
        cg = math.nan
    if not math.isfinite(cg):
        return CgEmbeddingReport(False, None, cg, ())
    rows = []
    all_hold = True
    for k, sv in enumerate(_seminorms(phi, family, range(1, k_max + 1), eps_tail), 1):
        lhs = sv.upper()
        rhs = cg * tail_sum_bound(family, g, n_index(family, k))
        ok = lhs <= rhs + tol
        all_hold = all_hold and ok
        rows.append(CgRow(k, lhs, rhs, ok))
    return CgEmbeddingReport(True, all_hold, cg, tuple(rows))


# ---------------------------------------------------------------------------
# the right-hand-side functional
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LValue:
    """L(phi) = a*phi(0) + sum_i b_i phi(-tau_i), certified to error_bound."""

    value: float
    error_bound: float
    index_last: int


def L_functional(
    phi: HistoryFunction, family: CoefficientFamily, a: float, eps: float = 1e-10
) -> LValue:
    """Evaluate the right-hand side functional at phi with a certified remainder.

    The delayed series is the forcing at s = 0, summed by _delayed_sums with
    phi.evaluate as the solution.  Raises DivergentTailError when it is
    certified to diverge absolutely (phi is then outside the functional's
    domain), UnknownTailError when no finite truncation can be certified
    or the delayed sum is not finite in floating point; both are
    NotInPhaseSpaceErrors.
    """
    N, rem = _truncation(phi, family, 0.0, eps)
    taus, bs = family.delays.tau_array(N), family.b_array(N)
    f0 = _delayed_sums(phi.evaluate, phi, np.zeros(1), taus, bs, _tail_sums(phi, family, taus, bs), N)[0]
    return LValue(float(a * phi.evaluate(0.0) + f0), rem, N)
