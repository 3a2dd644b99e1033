"""The benchmark's workloads: seeded inputs, the fixed op list, and the checks.

A workload object draws its parameters from the seed once.  Every pass calls
``build()`` for fresh input objects, then runs ``ops()`` in order; each op is
one public call into infidelay, made through a module attribute looked up at
call time, so the tracer's wrappers see it.  ``check()`` compares the pass's
results with independent references and names every op that failed.

The parameter ranges keep the truncation indices and node counts the same for
every seed, so a seed changes values but not the amount of work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil

import numpy as np

import infidelay
import infidelay.cli

# unit roundoff of IEEE double precision
U = 2.0**-53


def _rounding_allowance(n_terms: int, abs_sum: float) -> float:
    """Worst-case error of an n-term float sum of products (Higham's gamma_n).

    The library's brackets certify the series truncation only; the head sum
    itself is computed in floating point, so a bracket is checked against the
    exact value after widening each side by this amount.
    """
    n = n_terms + 2
    return n * U / (1.0 - n * U) * abs_sum


class MarchLong:
    """Long horizons at a small truncation index: the march dominates.

    Geometric family b_i = 0.5^i on tau_i = i with a cosine history; N sits at
    its floor index, so neither the oracle nor tail moments are involved.
    """

    name = "march-long"
    horizons = (8.0, 16.0, 32.0)
    chain_start = 16.0
    chain_windows = range(16, 32)

    def __init__(self, seed: int, root: str):
        rng = random.Random(seed)
        self.a = rng.uniform(-0.6, -0.4)
        self.amp = rng.uniform(1.0, 2.0)
        self.phase = rng.uniform(0.0, 2.0 * math.pi)

    def build(self) -> dict:
        amp, phase, w = self.amp, self.phase, 0.5 * math.pi
        phi = infidelay.history_from_callable(
            lambda t: amp * math.cos(w * t + phase),
            8.0,
            0.05,
            tail=infidelay.CosTail(amp, w, phase),
            fn_prime=lambda t: -amp * w * math.sin(w * t + phase),
        )
        family = infidelay.CoefficientFamily.geometric(1.0, 0.5, infidelay.DelaySchedule(0.0, 1.0))
        return {"problem": infidelay.ProblemSpec(self.a, family, phi)}

    def ops(self, inputs: dict) -> list:
        prob = inputs["problem"]
        out = [(f"solve.H{h:g}", lambda st, h=h: infidelay.solve(prob, h)) for h in self.horizons]
        prev = f"chain.solve.H{self.chain_start:g}"
        out.append((prev, lambda st: infidelay.solve(prob, self.chain_start)))
        for k in self.chain_windows:
            name = f"chain.step_interval.k{k}"
            out.append((name, lambda st, k=k, prev=prev: infidelay.step_interval(st[prev], k)))
            prev = name
        return out

    def check(self, inputs: dict, st: dict) -> tuple[dict, dict]:
        fails: dict = {}
        last = f"chain.step_interval.k{self.chain_windows[-1]}"
        one_shot = st.get("solve.H32")
        chain = st.get(last)
        if one_shot is not None and chain is not None:
            if len(chain.grid) != len(one_shot.grid):
                fails.setdefault(last, []).append(
                    f"chain has {len(chain.grid)} nodes, one-shot H=32 has {len(one_shot.grid)}"
                )
            else:
                gap = max(
                    float(np.max(np.abs(chain.grid - one_shot.grid))),
                    float(np.max(np.abs(chain.values - one_shot.values))),
                )
                if not gap <= 1e-12:
                    fails.setdefault(last, []).append(f"chain end differs from one-shot H=32 by {gap:.3e}")
        short = st.get("solve.H8")
        if one_shot is not None and short is not None:
            gap = float(np.max(np.abs(one_shot.eval(short.grid) - short.values)))
            if not gap <= 1e-9:
                fails.setdefault("solve.H32", []).append(f"H=32 differs from H=8 on [0, 8] by {gap:.3e}")
        prob = inputs["problem"]
        lv = infidelay.L_functional(prob.history, prob.family, prob.a)
        for name in [f"solve.H{h:g}" for h in self.horizons] + [f"chain.solve.H{self.chain_start:g}"]:
            traj = st.get(name)
            if traj is None:
                continue
            gap = abs(float(traj.derivs[0]) - lv.value)
            if not gap <= lv.error_bound + traj.eps_forcing_used:
                fails.setdefault(name, []).append(
                    f"derivs[0] differs from L(phi) by {gap:.3e} > {lv.error_bound + traj.eps_forcing_used:.3e}"
                )
        return fails, {}


class DeepTail:
    """Slowly decaying power laws: every forcing evaluation and seminorm is O(N).

    b_i = i^-p on tau_i = i with the constant history c.  Tolerances are taken
    relative to the history scale c (the convention the solver already uses
    for its forcing tolerance), which keeps every truncation index fixed
    across seeds: N = 70,711 for p = 3.

    The checks need mpmath.  So that the worker's peak memory holds no
    checker, ``record()`` copies a pass's floats and verdicts out of the
    results, and the worker runs ``verify()`` on them after it has read its
    peak memory.
    """

    name = "deep-tail"

    def __init__(self, seed: int, root: str):
        rng = random.Random(seed)
        self.a = rng.uniform(-0.6, -0.4)
        self.c = rng.uniform(1.0, 2.0)
        self.eps = 1e-10 * self.c
        self._refs = None

    def build(self) -> dict:
        phi = infidelay.scale_history(self.c, infidelay.history_preset("constant"))
        delays = infidelay.DelaySchedule(0.0, 1.0)
        fams = {p: infidelay.CoefficientFamily.power_law(1.0, float(p), delays) for p in (1, 2, 3)}
        return {"phi": phi, "families": fams}

    def ops(self, inputs: dict) -> list:
        phi, fams, a, eps = inputs["phi"], inputs["families"], self.a, self.eps
        cfg = infidelay.SolverConfig(eps_tail_seminorm=eps)
        return [
            ("membership.p3", lambda st: infidelay.membership_in_F(phi, fams[3], 5, eps)),
            ("solve.p3.H4", lambda st: infidelay.solve(infidelay.ProblemSpec(a, fams[3], phi), 4.0, cfg)),
            ("L.p3", lambda st: infidelay.L_functional(phi, fams[3], a, eps)),
            ("membership.p2", lambda st: infidelay.membership_in_F(phi, fams[2], 5, eps)),
            ("membership.p1", lambda st: infidelay.membership_in_F(phi, fams[1], 5, eps)),
        ]

    def refs(self):
        """zeta(p) and the partial sums sum_{i<k} i^-p, at 30 digits."""
        if self._refs is None:
            import mpmath

            mp = mpmath.mp.clone()
            mp.dps = 30
            zeta = {p: mp.zeta(p) for p in (2, 3)}
            heads = {p: [mp.fsum(mp.mpf(i) ** -p for i in range(1, k)) for k in range(1, 7)] for p in (2, 3)}
            self._refs = (mp, zeta, heads)
        return self._refs

    def record(self, st: dict) -> dict:
        """The floats and verdicts verify() needs, copied out of a pass's results."""
        rec: dict = {}
        for p in (3, 2, 1):
            rep = st.get(f"membership.p{p}")
            if rep is not None:
                rec[f"membership.p{p}"] = (
                    rep.verdict,
                    [(k, sv.verdict, sv.value, sv.truncation_bound, sv.index_last - sv.index_first + 1)
                     for k, sv in rep.seminorms.items()],
                )
        lv = st.get("L.p3")
        if lv is not None:
            rec["L.p3"] = (lv.value, lv.error_bound, lv.index_last)
        traj = st.get("solve.p3.H4")
        if traj is not None:
            rec["solve.p3.H4"] = float(traj.eval(1.0))
        return rec

    def verify(self, rec: dict) -> tuple[dict, dict]:
        mp, zeta, heads = self.refs()
        fails: dict = {}
        c, a = mp.mpf(self.c), mp.mpf(self.a)
        misses = 0
        for p in (3, 2):
            name = f"membership.p{p}"
            if name not in rec:
                continue
            verdict, seminorms = rec[name]
            if p == 3 and verdict != "member":
                fails.setdefault(name, []).append(f"verdict {verdict!r}, expected 'member'")
            if p == 2 and verdict not in ("member", "inconclusive"):
                fails.setdefault(name, []).append(f"verdict {verdict!r} for a convergent series")
            for k, sv_verdict, value, trunc, n_terms in seminorms:
                if sv_verdict != "finite":
                    continue
                ref = c * (zeta[p] - heads[p][k - 1])
                lo, hi = mp.mpf(value), mp.mpf(value) + mp.mpf(trunc)
                slack = _rounding_allowance(n_terms, float(c * zeta[p]))
                if not lo <= ref <= hi:
                    misses += 1
                if not lo - slack <= ref <= hi + slack:
                    fails.setdefault(name, []).append(f"p_{k} bracket [{value!r}, +{trunc!r}] misses {mp.nstr(ref, 17)}")
        if "L.p3" in rec:
            value, error_bound, index_last = rec["L.p3"]
            ref = a * c + c * zeta[3]
            slack = _rounding_allowance(index_last + 1, float(abs(a * c) + c * zeta[3]))
            dev = abs(mp.mpf(value) - ref)
            if dev > error_bound:
                misses += 1
            if not dev <= error_bound + slack:
                fails.setdefault("L.p3", []).append(
                    f"L bracket {value!r} +- {error_bound!r} misses a*c + c*zeta(3) by {mp.nstr(dev, 5)}"
                )
        if "solve.p3.H4" in rec:
            ea = math.exp(self.a)
            want = self.c * ea + self.c * float(zeta[3]) * (ea - 1.0) / self.a
            gap = abs(rec["solve.p3.H4"] - want)
            if not gap <= 1e-8:
                fails.setdefault("solve.p3.H4", []).append(f"x(1) off the closed form by {gap:.3e}")
        if "membership.p1" in rec and rec["membership.p1"][0] != "not-member":
            fails.setdefault("membership.p1", []).append(f"verdict {rec['membership.p1'][0]!r}, expected 'not-member'")
        return fails, {"history.bracket_rounding_misses": misses}

    def check(self, inputs: dict, st: dict) -> tuple[dict, dict]:
        return self.verify(self.record(st))


class ScenarioSuite:
    """The five bundled scenarios through the command line, in process, serially.

    The seed does not apply: the inputs are the shipped scenario files.
    """

    name = "scenario-suite"
    scenarios = ("affine-delays", "cg-embedding", "classic-delay", "geometric-l1", "harmonic-divergent")

    def __init__(self, seed: int, root: str):
        self.out = os.path.join(root, ".bench_out", f"{self.name}-{os.getpid()}")
        self.digests: dict = {}

    def build(self) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        return {}

    def _run(self, name: str) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = infidelay.cli.main(["run", name, "--out", self.out])
        return code, buf.getvalue()

    def ops(self, inputs: dict) -> list:
        return [(name, lambda st, name=name: self._run(name)) for name in self.scenarios]

    def check(self, inputs: dict, st: dict) -> tuple[dict, dict]:
        fails: dict = {}
        total_bytes = 0
        for name in self.scenarios:
            if name not in st:
                continue
            code, printed = st[name]
            if code != 0:
                fails.setdefault(name, []).append(f"exit code {code}: {printed.strip()}")
            folder = os.path.join(self.out, name)
            try:
                with open(os.path.join(folder, "summary.json")) as fh:
                    summary = json.load(fh)
            except (OSError, ValueError) as exc:
                fails.setdefault(name, []).append(f"summary.json unreadable: {exc}")
                continue
            flags = [summary.get("passed")] + [c.get("passed") for c in summary.get("checks", [])]
            if not all(f is True for f in flags):
                fails.setdefault(name, []).append("a passed flag in summary.json is not true")
            digests = {}
            for fname in sorted(os.listdir(folder)):
                with open(os.path.join(folder, fname), "rb") as fh:
                    data = fh.read()
                total_bytes += len(data)
                digests[fname] = hashlib.sha256(data).hexdigest()
            first = self.digests.setdefault(name, digests)
            if digests != first:
                changed = sorted(f for f in set(first) | set(digests) if first.get(f) != digests.get(f))
                fails.setdefault(name, []).append(f"reports differ from the first pass: {', '.join(changed)}")
        return fails, {"scenario.report_bytes": total_bytes}

    def close(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(self.out))


WORKLOADS = {w.name: w for w in (MarchLong, DeepTail, ScenarioSuite)}
