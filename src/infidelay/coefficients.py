"""Delay schedules, coefficient families, and certified tail-sum bounds.

The model problem is the scalar equation

    x'(t) = a x(t) + sum_i b_i x(t - tau_i),    i = 1, 2, 3, ...

with strictly increasing positive delays tau_i -> infinity.  This module
owns the data describing the pair (b_i, tau_i) and everything that can be
certified about weighted tails

    T(n) = sum_{i >= n} |b_i| w(-tau_i)

without evaluating infinitely many terms.

Contract for :func:`tail_sum_bound`: the return value is a certified upper
bound for T(n).  A return of ``math.inf`` is a *certificate of divergence*
of the true series (not a failed bound), and :class:`UnknownTailError` is
raised when the stored data decides neither way.  Downstream code relies on
this trichotomy, so every branch below is a closed-form argument, never a
sampled heuristic.

:func:`_atom_tail_search` is the one certified truncation search, over a
history's envelope atoms; history._truncation (the seminorms, membership,
L, the forcing and the oracle) is its one caller.
:func:`hurwitz_zeta` encloses the one exact tail value, zeta(p, n), once per (p, n).
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, fields

import numpy as np

TRUNCATION_CAP = 10_000_000


class NotInPhaseSpaceError(Exception):
    """A delayed series that cannot be certified, or one certified divergent.

    For a history's own series: the history is outside the phase space F,
    or it cannot be shown inside it.  The subclass says which.
    """


class UnknownTailError(NotInPhaseSpaceError):
    """The stored family data cannot certify a bound or divergence."""


class DivergentTailError(NotInPhaseSpaceError):
    """A certified-divergent series was used where convergence is required."""


def _require_finite(obj, names: tuple[str, ...]) -> None:
    """ValueError naming the first field of obj (a number or a tuple of numbers) that is not finite."""
    for name in names:
        if not np.all(np.isfinite(getattr(obj, name))):
            raise ValueError(f"{type(obj).__name__}.{name} must be finite, got {getattr(obj, name)}")


@dataclass(frozen=True)
class DelaySchedule:
    """Strictly increasing positive delays tau_1 < tau_2 < ... -> infinity.

    Two storage modes share one type:

    * pure arithmetic: tau_i = c + i*delta (prefix empty), or
    * an explicit positive increasing prefix (tau_1..tau_P) continued
      arithmetically with gap delta beyond the last listed delay (c = 0).
    """

    c: float = 0.0
    delta: float = 1.0
    prefix: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        _require_finite(self, ("c", "delta", "prefix"))
        if not (self.delta > 0.0):
            raise ValueError(f"delay gap must be positive, got delta={self.delta}")
        if self.prefix:
            if self.c != 0.0:
                raise ValueError(f"a delay prefix fixes the continuation, so c must be 0, got c={self.c}")
            vals = self.prefix
            if vals[0] <= 0.0:
                raise ValueError(f"delays must be positive, got tau_1={vals[0]}")
            for a, b in zip(vals, vals[1:]):
                if b <= a:
                    raise ValueError(f"delay prefix must be strictly increasing, got {a} then {b}")
        else:
            if self.c + self.delta <= 0.0:
                raise ValueError(
                    f"first delay c+delta must be positive, got {self.c + self.delta}"
                )

    @property
    def tau1(self) -> float:
        return self.tau(1)

    def _offset(self) -> float:
        """Arithmetic continuation writes tau_i = offset + i*delta for i > len(prefix)."""
        if self.prefix:
            return self.prefix[-1] - len(self.prefix) * self.delta
        return self.c

    def tau(self, i: int) -> float:
        if i < 1:
            raise ValueError(f"delay index must be >= 1, got {i}")
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        return self._offset() + i * self.delta

    def tau_array(self, n: int) -> np.ndarray:
        """First n delays as an array (tau_1..tau_n)."""
        if n < 0:
            raise ValueError(f"length must be >= 0, got {n}")
        npre = min(len(self.prefix), n)
        out = self._offset() + np.arange(npre + 1.0, n + 1) * self.delta
        return np.concatenate((self.prefix[:npre], out)) if npre else out

    def first_index_at_least(self, x: float) -> int:
        """Least index i with tau_i >= x.  Exact despite float rounding.

        The float delays off + i * delta never decrease as i grows, so past
        the prefix a search gallops from the guess ceil((x - off) / delta)
        to a bracket and bisects it: O(log) steps even where many
        neighbouring delays round to one float.
        """
        prefix = self.prefix
        if prefix and prefix[-1] >= x:
            return bisect.bisect_left(prefix, x) + 1
        off, delta, first = self._offset(), self.delta, len(prefix) + 1
        hi = max(first, math.ceil((x - off) / delta))
        lo, step = hi - 1, 1
        # gallop until hi holds and lo fails (or is first - 1), then bisect
        while off + hi * delta < x:
            lo, hi, step = hi, hi + step, 2 * step
        while lo >= first and off + lo * delta >= x:
            lo, hi, step = lo - step, lo, 2 * step
        lo = max(lo, first - 1)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if off + mid * delta >= x:
                hi = mid
            else:
                lo = mid
        return hi


@dataclass(frozen=True)
class WeightFunction:
    """A weight w(theta) = level * exp(-gamma*theta) * (1 - theta)**degree on (-infty, 0].

    At most one field leaves its identity value (1, 0, 0), so every weight
    is a constant level >= 1, an exponential with gamma > 0 or a polynomial
    with integer degree >= 1: all are >= 1 on theta <= 0 and nondecreasing
    into the past.
    """

    level: float = 1.0
    gamma: float = 0.0
    degree: int = 0

    def __post_init__(self) -> None:
        ranges = self.level >= 1.0 and self.gamma >= 0.0 and self.degree >= 0 and float(self.degree).is_integer()
        if not ranges or (self.level != 1.0) + (self.gamma != 0.0) + (self.degree != 0) > 1:
            raise ValueError(f"a weight needs level >= 1, gamma >= 0, an integer degree >= 0 and at most one away from (1, 0, 0), got {self}")

    @classmethod
    def constant(cls, level: float = 1.0) -> "WeightFunction":
        return cls(level=float(level))

    @classmethod
    def exponential(cls, gamma: float | None = None, base: float | None = None) -> "WeightFunction":
        """exp(-gamma*theta); equivalently base**(-theta) when base is given."""
        if (gamma is None) == (base is None):
            raise ValueError("give exactly one of gamma or base")
        return cls(gamma=math.log(base) if base is not None else float(gamma))

    @classmethod
    def polynomial(cls, degree: int) -> "WeightFunction":
        return cls(degree=int(degree))

    def __call__(self, theta):
        th = np.asarray(theta, dtype=float)
        if self.gamma != 0.0:
            out = np.exp(-self.gamma * th)
        elif self.degree != 0:  # a scalar takes the array pow too, so scalar and array calls agree bit for bit
            out = ((1.0 - np.atleast_1d(th)) ** self.degree).reshape(th.shape)
        else:
            out = np.full_like(th, self.level)
        if np.isscalar(theta) or th.ndim == 0:
            return float(out)
        return out


KINDS = ("geometric", "power-law", "explicit-list")


@dataclass(frozen=True)
class CoefficientFamily:
    """The coefficient sequence (b_i) attached to a delay schedule.

    Kinds:
      * geometric:      b_i = beta * rho**i with |rho| < 1
      * power-law:      b_i = beta * i**(-p_exponent), p_exponent > 0
      * explicit-list:  b_i = coeffs[i-1] for i <= len(coeffs); beyond the list
        only the unweighted mass bound sum_{i>L}|b_i| <= tail_abs_bound is known;
        a finite support is the list whose mass is 0 (finite_support)
    """

    kind: str
    delays: DelaySchedule
    coeffs: tuple[float, ...] = ()
    beta: float = 0.0
    rho: float = 0.0
    p_exponent: float = 0.0
    tail_abs_bound: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        _require_finite(self, ("coeffs", "beta", "rho", "p_exponent", "tail_abs_bound"))
        if self.kind == "geometric" and not (abs(self.rho) < 1.0):
            raise ValueError(f"geometric family needs |rho| < 1, got {self.rho}")
        if self.kind == "power-law" and not (self.p_exponent > 0.0):
            raise ValueError(f"power-law family needs p > 0, got {self.p_exponent}")
        if self.kind == "explicit-list" and self.tail_abs_bound < 0.0:
            raise ValueError(f"tail mass bound must be >= 0, got {self.tail_abs_bound}")

    def __hash__(self) -> int:
        """The dataclass hash of the fields, computed once: every memo key holding a family hashes it."""
        if "_hash" not in self.__dict__:
            object.__setattr__(self, "_hash", hash(tuple(getattr(self, f.name) for f in fields(self))))
        return self.__dict__["_hash"]

    def __getstate__(self) -> dict:
        # a str hashes differently in another process: a copy or an unpickled family hashes afresh
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    @classmethod
    def finite_support(cls, coeffs, delays: DelaySchedule) -> "CoefficientFamily":
        return cls.explicit_list(coeffs, 0.0, delays)

    @classmethod
    def geometric(cls, beta: float, rho: float, delays: DelaySchedule) -> "CoefficientFamily":
        return cls(kind="geometric", delays=delays, beta=float(beta), rho=float(rho))

    @classmethod
    def power_law(cls, beta: float, p: float, delays: DelaySchedule) -> "CoefficientFamily":
        return cls(kind="power-law", delays=delays, beta=float(beta), p_exponent=float(p))

    @classmethod
    def explicit_list(cls, coeffs, tail_abs_bound: float, delays: DelaySchedule) -> "CoefficientFamily":
        return cls(
            kind="explicit-list",
            delays=delays,
            coeffs=tuple(float(v) for v in coeffs),
            tail_abs_bound=float(tail_abs_bound),
        )

    def b_array(self, n: int) -> np.ndarray:
        """First n coefficients (b_1..b_n); a zero-mass list pads exact zeros past its end."""
        if self.kind == "explicit-list":
            if self.tail_abs_bound > 0.0 and n > len(self.coeffs):
                raise UnknownTailError(
                    f"explicit-list family stores {len(self.coeffs)} coefficients, asked for {n}"
                )
            out = np.zeros(n)
            m = min(n, len(self.coeffs))
            out[:m] = self.coeffs[:m]
            return out
        idx = np.arange(1.0, n + 1)
        if self.kind == "geometric":
            out = self.beta * abs(self.rho) ** idx
            if self.rho < 0.0:
                out[::2] *= -1.0  # b_i = beta |rho|^i (-1)^i: flipping the sign of a product is exact
            return out
        return self.beta * idx ** (-self.p_exponent)

    def head_abs_sum(self, n_exclusive: int) -> float:
        """sum_{i < n} |b_i| (empty sum for n <= 1)."""
        if n_exclusive <= 1:
            return 0.0
        return float(np.sum(np.abs(self.b_array(n_exclusive - 1))))


def n_index(family: CoefficientFamily, k: int) -> int:
    """Least n with tau_n >= k*tau_1: the first delay reaching depth k*tau_1."""
    if k < 1:
        raise ValueError(f"window index k must be >= 1, got {k}")
    return family.delays.first_index_at_least(k * family.delays.tau1)


def m_index(family: CoefficientFamily, k: int) -> int:
    """Depth index for window k >= 2.

    With n = n_index(family, k) and mu = (k-1)*tau_1 - tau_{n-1}, this is the
    least positive integer m with -m < mu.  It measures how far into the
    history the deepest sub-threshold delay reaches relative to window k.
    When n == 1 there is no sub-threshold delay and the value degenerates
    to 1.
    """
    if k < 2:
        raise ValueError(f"m_index is defined for k >= 2, got {k}")
    n = n_index(family, k)
    if n == 1:
        return 1
    mu = (k - 1) * family.delays.tau1 - family.delays.tau(n - 1)
    return max(1, math.floor(-mu) + 1)


def _ratio_cap(delays: DelaySchedule) -> float:
    """Certified C with 1 + tau_i <= C * i for every i >= 1.

    Over the prefix the ratios are checked term by term.  On the arithmetic
    continuation tau_i = off + i*delta the ratio delta + (1+off)/i is monotone
    in i, so its sup is attained at the first continuation index or in the
    limit delta.
    """
    cands = [delays.delta]
    for j, t in enumerate(delays.prefix, start=1):
        cands.append((1.0 + t) / j)
    j0 = len(delays.prefix) + 1
    cands.append((1.0 + delays.tau(j0)) / j0)
    return max(cands)


def tail_sum_bound(family: CoefficientFamily, weight: WeightFunction, n_start: int) -> float:
    """Certified upper bound for sum_{i >= n_start} |b_i| * weight(-tau_i).

    Returns math.inf exactly when the true series is provably divergent.
    Raises UnknownTailError when the stored data certifies neither a finite
    bound nor divergence: an explicit list of positive mass under an
    unbounded weight, or a zero-mass list (summed over its nonzero b_i)
    with a term that overflows in floating point.  With y = 1 + tau_i
    every weight is level e^{gamma (y - 1)} y^q (gamma or q zero), and the
    rule reads those fields, level joining |beta| first.  A geometric family
    sums its prefix delays term by term and its arithmetic continuation in
    closed form under q = 0, and is dominated by a slower geometric under
    q > 0.  A power law diverges under gamma > 0 or p - q <= 1, and is
    otherwise bounded by its first term plus an integral.
    """
    n = int(n_start)
    if n < 1:
        raise ValueError(f"tail start index must be >= 1, got {n}")
    w = weight
    d = family.delays
    q = w.degree

    if family.kind == "explicit-list" and family.tail_abs_bound == 0.0:
        L = len(family.coeffs)
        if n > L:
            return 0.0
        taus = d.tau_array(L)[n - 1 :]
        b = np.abs(np.array(family.coeffs[n - 1 :]))
        # only the nonzero b_i: a zero one times a weight that overflows is 0 * inf
        with np.errstate(over="ignore", invalid="ignore"):
            terms = b * np.asarray(w(-taus))
            big = (b != 0.0) & np.isinf(terms)
            # where the weight alone overflows, exp(log|b_i| + log w(-tau_i)), widened by
            # 1e-12 for the exponent's rounding (below 1e-12 while the product is finite)
            log_w = math.log(w.level) + w.gamma * taus[big] + q * np.log1p(taus[big])
            terms[big] = np.exp(np.log(b[big]) + log_w) * (1.0 + 1e-12)
            total = float(np.sum(np.where(b != 0.0, terms, 0.0)))
        if not math.isfinite(total):
            raise UnknownTailError("a nonzero term b_i w(-tau_i) of the finite support overflows in floating point")
        return total

    if family.kind == "explicit-list":
        if (w.gamma, q) != (0.0, 0):
            raise UnknownTailError(
                "explicit-list tail mass is only an unweighted bound; cannot certify it under an unbounded weight"
            )
        L = len(family.coeffs)
        out = w.level * family.tail_abs_bound
        if n <= L:
            out += float(np.sum(np.abs(np.array(family.coeffs[n - 1 :]))) * w.level)
        return out

    if family.beta == 0.0:
        return 0.0
    ab = w.level * abs(family.beta)

    if family.kind == "geometric":
        r0 = abs(family.rho)
        if r0 == 0.0:
            return 0.0
        if q == 0:
            P = len(d.prefix)
            total = 0.0
            for i in range(n, P + 1):
                total += ab * r0**i * math.exp(w.gamma * d.tau(i))
            r = r0 * math.exp(w.gamma * d.delta)
            if r >= 1.0:
                # terms do not even tend to zero along the continuation
                return math.inf
            return total + ab * math.exp(w.gamma * d._offset()) * r ** max(n, P + 1) / (1.0 - r)
        # (1+tau_i)^q <= (C_tau * i)^q, then dominate i^q r0^i by
        # C_star * r'^i with r' = (1+r0)/2 < 1
        r_prime = 0.5 * (1.0 + r0)
        rho_star = r0 / r_prime
        x_star = q / (-math.log(rho_star))
        c_star = rho_star if x_star <= 1.0 else x_star**q * math.exp(-q)
        return ab * _ratio_cap(d) ** q * c_star * r_prime**n / (1.0 - r_prime)

    # power-law: b_i = beta * i^{-p}; e^{gamma tau_i} outgrows any i^{-p}, and
    # (1+tau_i)^q ~ (delta i)^q leaves terms ~ i^{q-p}
    s = family.p_exponent - q
    if w.gamma > 0.0 or s <= 1.0:
        return math.inf
    c_tau = _ratio_cap(d) if q else 1.0
    return ab * c_tau**q * (float(n) ** (-s) + float(n) ** (1.0 - s) / (s - 1.0))


#: B_2j / (2j)! for j = 1..7 (DLMF Table 24.2.1)
_BERNOULLI = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160, -691 / 1307674368000, 1 / 74724249600)


@functools.lru_cache(maxsize=256)
def hurwitz_zeta(p: float, n: int) -> tuple[float, float]:
    """Outward-rounded enclosure (lo, hi) of zeta(p, n) = sum_{i >= n} i^-p, for p > 1 and n >= 1.

    Euler-Maclaurin at m >= n (DLMF 2.10.1): the head sum_{n <= i < m} i^-p,
    the integral m^(1-p)/(p-1), the half term m^-p/2 and six corrections
    T_j = B_2j/(2j)! (p)_(2j-1) m^(1-p-2j).  x^-p is completely monotone, so
    the remainder lies between 0 and the first omitted term T_7 (DLMF 25.11,
    2.10.iii).  math.fsum rounds the sum once; a term computed with k
    roundings (a pow counts two, and 1 - p, p - 1 are exact) is off by at
    most gamma_k ~ k u times its size.  The allowance adds these up, with
    2^-1000 for underflow, and both ends then move one ulp outward, which
    also covers the O(u^2) rest of gamma_k.  Memoized by value for the process: the last 256 (p, n).
    """
    if not p > 1.0:
        raise ValueError(f"zeta(p, n) needs p > 1, got {p}")
    # from m = 2p + 24, T_7 is below 2^-53 of the sum for p <= 12; past n + 4096 every term underflows
    m = max(n, math.ceil(min(2.0 * p + 24.0, n + 4096.0)))
    x = float(m) ** -p
    main = [float(i) ** -p for i in range(n, m)] + [float(m) ** (1.0 - p) / (p - 1.0), 0.5 * x]
    corr, g = [], p * x / m  # (p)_(2j-1) m^(1-p-2j), its factors below 1 unless it underflowed
    for j, bc in enumerate(_BERNOULLI, 1):  # T_j takes 6j roundings
        corr.append(bc * g)
        g = g * ((p + (2 * j - 1)) / m) * ((p + 2 * j) / m)
    s = math.fsum(main + corr[:-1])
    err = 2.0**-53 * (abs(s) + 3.0 * math.fsum(main) + math.fsum(6 * j * abs(t) for j, t in enumerate(corr, 1))) + 2.0**-1000
    return max(0.0, math.nextafter(s - err, -math.inf)), math.nextafter(s + corr[-1] + err, math.inf)


def _atom_tail_search(
    family: CoefficientFamily, atoms: list[tuple[float, WeightFunction]], n_floor: int, eps: float
) -> tuple[int, float]:
    """Least N >= n_floor with sum_s s * tail_sum_bound(family, w, N+1) <= eps over atoms (s, w).

    Called by history._truncation only (eps = inf asks for membership).
    Doubling, then bisection.  Returns (N, achieved_bound).  For an
    explicit list with zero recorded mass (a finite support), n_floor is
    first lowered to the last nonzero b_i, where the remainder is exactly
    0.  Raises UnknownTailError when an atom bound is infinite or not
    certifiable, when an explicit list's recorded tail mass alone
    exceeds eps, or when no N below TRUNCATION_CAP certifies eps, a floor
    past the cap included.  eps = inf builds no array of N, so a floor past
    the cap still answers membership.
    """
    live = [(s, w) for (s, w) in atoms if s != 0.0]
    if family.kind == "explicit-list" and family.tail_abs_bound == 0.0:
        n_floor = min(n_floor, max((i for i, b in enumerate(family.coeffs, 1) if b != 0.0), default=0))

    def tb(n: int) -> float:
        total = 0.0
        for s, w in live:
            t = tail_sum_bound(family, w, n)
            if math.isinf(t):
                raise UnknownTailError("atom-weighted tail bound is infinite")
            total += s * t
        return total

    if n_floor > TRUNCATION_CAP and eps < math.inf:
        raise UnknownTailError(f"no truncation index below {TRUNCATION_CAP} certifies tolerance {eps}")
    first = tb(n_floor + 1)
    if first <= eps:
        return n_floor, first
    if family.kind == "explicit-list":
        # tb past the list, and its least value: live weights are constant here, or tb raised
        floor = sum(s * (w.level * family.tail_abs_bound) for s, w in live)
        if floor > eps:
            raise UnknownTailError(f"recorded tail mass bound {floor} exceeds target {eps}; no truncation is certifiable")
    lo, hi = n_floor, n_floor + 1
    while (bound := tb(hi + 1)) > eps:
        if hi >= TRUNCATION_CAP:
            raise UnknownTailError(f"no truncation index below {TRUNCATION_CAP} certifies tolerance {eps}")
        lo, hi = hi, min(2 * hi, TRUNCATION_CAP)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (t := tb(mid + 1)) <= eps:
            hi, bound = mid, t
        else:
            lo = mid
    return hi, bound
