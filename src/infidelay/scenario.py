"""Scenario files: a JSON description of one problem plus a list of checks.

Schema (all floats unless noted):

    {
      "name": "classic-delay",
      "problem": {
        "a": 0.0,
        "family": {
          "kind": "finite-support" | "geometric" | "power-law" | "explicit-list",
          "coeffs": [..],            # finite-support / explicit-list
          "beta": .., "rho": ..,     # geometric
          "p": ..,                   # power-law
          "tail_abs_bound": ..,      # explicit-list
          "tau": {"c": 0.0, "delta": 1.0, "prefix": [..]}
        },
        "history": {"preset": "constant", "depth": 8.0, "resolution": 0.05}
                   # or {"core": {"breakpoints": [...], "coeffs": [[c0,c1,c2,c3],..]},
                   #     "tail": {"kind": "constant", "value": ..}
                   #             | {"kind": "cos", "amp": .., "omega": .., "phase": ..}
                   #             | {"kind": "exp-decay", "amp": .., "rate": ..}
                   #             | {"kind": "g-envelope", "scale": .., "shift": ..,
                   #                "weight": {"form": "exponential", "base": 2.0}}}
      },
      "horizon": 10.0,
      "solver": {"h": .., "eps_forcing": .., "eps_tail_seminorm": ..},
      "checks": ["solve", {"name": "membership", "expect": "member"}, ...]
    }

Every object takes only the keys shown for it (a family, tail or weight
only those of its kind or form; the weight forms are {"form": "constant",
"level"}, {"form": "exponential", "base" or "gamma"} and {"form":
"polynomial", "degree"}); any other key is a schema error at that key.  The
solver keys are optional and default in SolverConfig.

Check parameters (all optional; any other key is a schema error):

    solve              expect, expect_points [{"t", "x", "tol"}, ..]
    seminorms          k_max (p_1..p_kmax)
    membership         k_max, expect
    semigroup-law      t, s (t + s <= horizon), k_list, tolerance
    strong-continuity  k, times (strictly decreasing, in (0, horizon]), threshold
    mild-solution      t_grid (in [0, horizon]), theta_grid (<= 0), tolerance
    estimates          k_list (default 1..min(3, floor(horizon / tau_1)))
    cg-embedding       weight {"form", ..}, k_max, tolerance, expect
    oracle-compare     tolerance, h_fine

Schema problems, check parameters included, raise ScenarioError at the
file:line of the key at fault; check failures are ordinary results.  Runners write one
JSON report per check plus a summary, all deterministic (sorted keys, no
timestamps, atomic replace).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .coefficients import (
    CoefficientFamily,
    DelaySchedule,
    DivergentTailError,
    TruncationDepthError,
    UnknownTailError,
    WeightFunction,
)
from .history import (
    ConstantTail,
    CosTail,
    ExpTail,
    HistoryFunction,
    WeightEnvelopeTail,
    check_cg_embedding,
    membership_in_F,
    p_seminorm,
    sup_norm_k,
)
from .oracle import compare_trajectories, oracle_solve
from .semigroup import (
    check_mild_solution,
    check_semigroup_law,
    check_strong_continuity,
)
from .stepper import (
    NotInPhaseSpaceError,
    ProblemSpec,
    SolverConfig,
    estimate_certificate,
    solve,
)


class ScenarioError(Exception):
    """Schema problem in a scenario file, formatted as path:line: message."""

    def __init__(self, message: str, path: str = "<scenario>", line: int = 1):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line
        self.bare_message = message


def _parse_with_lines(raw: str) -> tuple[object, dict]:
    """json.loads(raw), and a map from id(container) to (container, line, {key or entry index: line}).

    json.decoder.JSONObject and JSONArray run under the pure-Python scanner,
    with the value scanner they are given wrapped to note where values start.
    """
    spots: dict = {}

    def line(pos: int) -> int:
        return raw.count("\n", 0, pos) + 1

    def noting(scan_once, starts: list):
        def scan(s, idx):
            starts.append(idx)
            return scan_once(s, idx)

        return scan

    def parse_object(s_and_end, strict, scan_once, object_hook, object_pairs_hook, memo):
        starts: list = []
        pairs, end = json.decoder.JSONObject(s_and_end, strict, noting(scan_once, starts), None, list, memo)
        obj = dict(pairs)
        # a key's closing quote is the last one before its value; a repeated key keeps its last value and line
        keys = {k: line(raw.rfind('"', 0, i)) for (k, _), i in zip(pairs, starts)}
        spots[id(obj)] = (obj, line(s_and_end[1]), keys)
        return obj, end

    def parse_array(s_and_end, scan_once):
        starts: list = []
        values, end = json.decoder.JSONArray(s_and_end, noting(scan_once, starts))
        spots[id(values)] = (values, line(s_and_end[1]), dict(enumerate(map(line, starts))))
        return values, end

    decoder = json.JSONDecoder()
    decoder.parse_object, decoder.parse_array = parse_object, parse_array
    decoder.scan_once = json.scanner.py_make_scanner(decoder)
    return decoder.decode(raw), spots


class _Anchored:
    """Field access over a parsed scenario with errors anchored at the key at fault.

    lines is load_scenario's map of every parsed object and list to its line
    and those of its keys or entries; an object it does not hold (a default,
    or data not read from a file) anchors at line 1.
    """

    def __init__(self, lines: Optional[dict], path: str):
        self.lines = dict(lines or {})
        self.path = path

    def line(self, obj, key=None) -> int:
        """Line of obj[key], or of obj itself when key is None or not in obj."""
        container, own, keys = self.lines.get(id(obj), (None, 1, {}))
        return keys.get(key, own) if container is obj else 1

    def fail(self, message: str, obj, key=None) -> ScenarioError:
        return ScenarioError(message, self.path, self.line(obj, key))

    def _typed(self, v, types, label: str, obj, key, items=object):
        """v = obj[key] must be of types and a list's entries of items; floats at any list depth must be finite."""
        if not isinstance(v, types):
            tn = types.__name__ if isinstance(types, type) else "/".join(t.__name__ for t in types)
            raise self.fail(f"{label} must be {tn}, got {type(v).__name__}", obj, key)
        if isinstance(v, float) and not math.isfinite(v):
            raise self.fail(f"{label} must be finite, got {v}", obj, key)
        if isinstance(v, list):
            for i, x in enumerate(v):
                self._typed(x, items, f"{label} entry", v, i)
        return v

    def need(self, obj: dict, key: str, types, where: str, items=object):
        if key not in obj:
            raise self.fail(f"missing required key {key!r} in {where}", obj)
        return self._typed(obj[key], types, f"{where}.{key}", obj, key, items)

    def opt(self, obj: dict, key: str, types, default, items=object):
        if key not in obj:
            return default
        return self._typed(obj[key], types, key, obj, key, items)

    def only(self, obj: dict, keys: str, where: str) -> None:
        """Every key of obj must be one of the space-separated keys: the ones read from obj."""
        allowed = keys.split()
        for key in obj:
            if key not in allowed:
                raise self.fail(f"unknown key {key!r} in {where}", obj, key)


_NUM = (int, float)

# the keys each kind or form reads besides "kind" / "form"
_WEIGHT_KEYS = {"constant": "level", "exponential": "base gamma", "polynomial": "degree"}
_FAMILY_KEYS = {"finite-support": "coeffs", "geometric": "beta rho", "power-law": "beta p", "explicit-list": "coeffs tail_abs_bound"}
_TAIL_KEYS = {"constant": "value", "cos": "amp omega phase", "exp-decay": "amp rate", "g-envelope": "scale weight shift"}


def _build_weight(cfg: dict, anch: _Anchored) -> WeightFunction:
    form = anch.need(cfg, "form", str, "weight")
    if form not in _WEIGHT_KEYS:
        raise anch.fail(f"unknown weight form {form!r}", cfg, "form")
    anch.only(cfg, "form " + _WEIGHT_KEYS[form], "weight")
    try:
        if form == "constant":
            return WeightFunction.constant(float(anch.opt(cfg, "level", _NUM, 1.0)))
        if form == "exponential":
            return WeightFunction.exponential(anch.opt(cfg, "gamma", _NUM, None), anch.opt(cfg, "base", _NUM, None))
        return WeightFunction.polynomial(int(anch.need(cfg, "degree", _NUM, "weight")))
    except ValueError as exc:
        raise anch.fail(f"weight: {exc}", cfg) from exc


def _build_family(cfg: dict, anch: _Anchored) -> CoefficientFamily:
    kind = anch.need(cfg, "kind", str, "family")
    if kind not in _FAMILY_KEYS:
        raise anch.fail(f"unknown family kind {kind!r}", cfg, "kind")
    anch.only(cfg, "kind tau " + _FAMILY_KEYS[kind], "family")
    tau_cfg = anch.need(cfg, "tau", dict, "family")
    anch.only(tau_cfg, "c delta prefix", "tau")
    try:
        delays = DelaySchedule(
            c=float(anch.opt(tau_cfg, "c", _NUM, 0.0)),
            delta=float(anch.opt(tau_cfg, "delta", _NUM, 1.0)),
            prefix=tuple(float(v) for v in anch.opt(tau_cfg, "prefix", list, [])),
        )
        if kind == "finite-support":
            return CoefficientFamily.finite_support(anch.need(cfg, "coeffs", list, "family"), delays)
        if kind == "geometric":
            return CoefficientFamily.geometric(
                float(anch.need(cfg, "beta", _NUM, "family")),
                float(anch.need(cfg, "rho", _NUM, "family")),
                delays,
            )
        if kind == "power-law":
            return CoefficientFamily.power_law(
                float(anch.need(cfg, "beta", _NUM, "family")),
                float(anch.need(cfg, "p", _NUM, "family")),
                delays,
            )
        return CoefficientFamily.explicit_list(
            anch.need(cfg, "coeffs", list, "family"),
            float(anch.need(cfg, "tail_abs_bound", _NUM, "family")),
            delays,
        )
    except (TypeError, ValueError) as exc:
        raise anch.fail(str(exc), cfg) from exc


def _build_tail(cfg: dict, anch: _Anchored):
    kind = anch.need(cfg, "kind", str, "tail")
    if kind not in _TAIL_KEYS:
        raise anch.fail(f"unknown tail kind {kind!r}", cfg, "kind")
    anch.only(cfg, "kind " + _TAIL_KEYS[kind], "tail")
    if kind == "constant":
        return ConstantTail(float(anch.need(cfg, "value", _NUM, "tail")))
    if kind == "cos":
        return CosTail(
            float(anch.need(cfg, "amp", _NUM, "tail")),
            float(anch.need(cfg, "omega", _NUM, "tail")),
            float(anch.opt(cfg, "phase", _NUM, 0.0)),
        )
    if kind == "exp-decay":
        return ExpTail(
            float(anch.need(cfg, "amp", _NUM, "tail")),
            float(anch.need(cfg, "rate", _NUM, "tail")),
        )
    return WeightEnvelopeTail(
        float(anch.need(cfg, "scale", _NUM, "tail")),
        _build_weight(anch.need(cfg, "weight", dict, "tail"), anch),
        float(anch.opt(cfg, "shift", _NUM, 0.0)),
    )


def _build_history(cfg: dict, anch: _Anchored) -> HistoryFunction:
    from .history import history_preset

    if "preset" in cfg:
        anch.only(cfg, "preset depth resolution", "history")
        name = anch.need(cfg, "preset", str, "history")
        try:
            return history_preset(
                name,
                depth=float(anch.opt(cfg, "depth", _NUM, 8.0)),
                resolution=float(anch.opt(cfg, "resolution", _NUM, 0.05)),
            )
        except ValueError as exc:
            raise anch.fail(str(exc), cfg, "preset") from exc
    anch.only(cfg, "core tail", "history")
    core = anch.need(cfg, "core", dict, "history")
    anch.only(core, "breakpoints coeffs", "history.core")
    tail_cfg = anch.need(cfg, "tail", dict, "history")
    bp = anch.need(core, "breakpoints", list, "history.core")
    coef = anch.need(core, "coeffs", list, "history.core")
    try:
        return HistoryFunction(np.array(bp, dtype=float), np.array(coef, dtype=float), _build_tail(tail_cfg, anch))
    except ValueError as exc:
        raise anch.fail(str(exc), cfg, "core") from exc


def _build_solver(cfg: dict, anch: _Anchored) -> SolverConfig:
    anch.only(cfg, "h eps_forcing eps_tail_seminorm", "solver")
    try:
        return SolverConfig(**{key: float(anch.need(cfg, key, _NUM, "solver")) for key in cfg})
    except ValueError as exc:
        raise anch.fail(str(exc), cfg) from exc


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


class _Ctx:
    """Shared lazy state for one scenario run."""

    def __init__(self, problem: ProblemSpec, horizon: float, solver: SolverConfig, tol_scale: float, anch: _Anchored):
        self.problem = problem
        self.horizon = horizon
        self.solver = solver
        self.tol_scale = tol_scale
        self.anch = anch
        self.files: dict = {}  # report file name -> JSON data, or a writer taking the path
        self._traj = None

    def traj(self):
        if self._traj is None:
            self._traj = solve(self.problem, self.horizon, self.solver)
        return self._traj


def _sv_dict(sv) -> dict:
    return {**asdict(sv), "upper": sv.upper()}


def _run_solve(ctx: _Ctx, p: dict) -> dict:
    anch = ctx.anch
    expect = anch.opt(p, "expect", str, None)
    points = anch.opt(p, "expect_points", list, [], items=dict)
    for pt in points:
        anch.only(pt, "t x tol", "expect_points")
    pins = [(anch.need(pt, "t", _NUM, "expect_points"), anch.need(pt, "x", _NUM, "expect_points"), anch.opt(pt, "tol", _NUM, 1e-8))
            for pt in points]
    try:
        traj = ctx.traj()
    except NotInPhaseSpaceError as exc:
        return {"passed": expect == "not-in-phase-space", "error": str(exc), "expect": expect}
    ctx.files["trajectory.csv"] = traj.write_csv
    ctx.files["trajectory.json"] = traj.to_json_dict()
    points = []
    ok = True
    for t, want, tol in pins:
        t, want, tol = float(t), float(want), float(tol) * ctx.tol_scale
        got = traj.eval(t)
        hit = abs(got - want) <= tol
        ok = ok and hit
        points.append({"t": t, "want": want, "got": got, "tol": tol, "ok": hit})
    return {
        "passed": ok,
        "horizon": traj.horizon,
        "n_nodes": int(len(traj.grid)),
        "n_forcing": traj.n_forcing,
        "points": points,
    }


def _run_seminorms(ctx: _Ctx, p: dict) -> dict:
    k_max = int(ctx.anch.opt(p, "k_max", _NUM, 3))
    eps = ctx.solver.eps_tail_seminorm
    rows = []
    for k in range(1, k_max + 1):
        sv = p_seminorm(ctx.problem.history, ctx.problem.family, k, eps)
        rows.append({"k": k, "sup_norm": sup_norm_k(ctx.problem.history, k), "p": _sv_dict(sv)})
    return {"passed": True, "rows": rows}


def _run_membership(ctx: _Ctx, p: dict) -> dict:
    k_max = int(ctx.anch.opt(p, "k_max", _NUM, 5))
    expect = ctx.anch.opt(p, "expect", str, "member")
    rep = membership_in_F(ctx.problem.history, ctx.problem.family, k_max, ctx.solver.eps_tail_seminorm)
    return {
        "passed": rep.verdict == expect,
        "verdict": rep.verdict,
        "expect": expect,
        "per_k": {str(k): _sv_dict(v) for k, v in rep.seminorms.items()},
    }


def _run_semigroup_law(ctx: _Ctx, p: dict) -> dict:
    anch, tau1 = ctx.anch, ctx.problem.family.delays.tau1
    t = float(anch.opt(p, "t", _NUM, 0.75 * tau1))
    s = float(anch.opt(p, "s", _NUM, 1.25 * tau1))
    k_list = [int(k) for k in anch.opt(p, "k_list", list, [1, 2, 3], items=_NUM)]
    tol = float(anch.opt(p, "tolerance", _NUM, 1e-6)) * ctx.tol_scale
    if t + s > ctx.horizon:
        raise anch.fail(f"t + s must be at most the horizon {ctx.horizon}, got {t + s}", p, "s" if "s" in p else "t")
    rep = check_semigroup_law(ctx.traj(), t, s, k_list)
    out = asdict(rep)
    out["tolerance"] = tol
    out["passed"] = rep.max_discrepancy <= tol
    return out


def _run_strong_continuity(ctx: _Ctx, p: dict) -> dict:
    anch, tau1 = ctx.anch, ctx.problem.family.delays.tau1
    k = int(anch.opt(p, "k", _NUM, 2))
    default = [0.1 * tau1, 0.01 * tau1, 0.001 * tau1]
    times = [float(v) for v in anch.opt(p, "times", list, default, items=_NUM)]
    if not times or times[-1] <= 0.0 or any(b >= a for a, b in zip(times, times[1:])):
        raise anch.fail(f"times must be strictly decreasing and positive, got {times}", p, "times")
    if times[0] > ctx.horizon:
        raise anch.fail(f"times must be at most the horizon {ctx.horizon}, got {times[0]}", p, "times")
    thr = anch.opt(p, "threshold", _NUM, None)
    rep = check_strong_continuity(ctx.traj(), k, times, thr if thr is None else float(thr))
    out = asdict(rep)
    out["passed"] = rep.passed
    return out


def _run_mild_solution(ctx: _Ctx, p: dict) -> dict:
    anch, tau1 = ctx.anch, ctx.problem.family.delays.tau1
    span = min(ctx.horizon, 2.0 * tau1)
    ts = [float(v) for v in anch.opt(p, "t_grid", list, list(np.linspace(0.0, span, 5)), items=_NUM)]
    thetas = [float(v) for v in anch.opt(p, "theta_grid", list, [-2.0 * tau1, -tau1, -0.5 * tau1, -0.1 * tau1, 0.0], items=_NUM)]
    if not ts or min(ts) < 0.0 or max(ts) > ctx.horizon:
        raise anch.fail(f"t_grid must be a nonempty list of times in [0, {ctx.horizon}], got {ts}", p, "t_grid")
    if not thetas or max(thetas) > 0.0:
        raise anch.fail(f"theta_grid must be a nonempty list of values <= 0, got {thetas}", p, "theta_grid")
    tol = float(anch.opt(p, "tolerance", _NUM, 1e-6)) * ctx.tol_scale
    rep = check_mild_solution(ctx.traj(), ts, thetas, tol)
    out = asdict(rep)
    out["passed"] = rep.passed
    return out


def _run_estimates(ctx: _Ctx, p: dict) -> dict:
    k_top = min(3, int(math.floor(ctx.horizon / ctx.problem.family.delays.tau1 + 1e-12)))
    k_list = [int(k) for k in ctx.anch.opt(p, "k_list", list, range(1, k_top + 1), items=_NUM)]
    traj = ctx.traj()
    certs = [estimate_certificate(traj, k) for k in k_list]
    return {
        "passed": all(c.valid for c in certs),
        "certificates": [c.to_json_dict() for c in certs],
    }


def _run_cg_embedding(ctx: _Ctx, p: dict) -> dict:
    anch = ctx.anch
    g = _build_weight(anch.opt(p, "weight", dict, {"form": "exponential", "base": 2.0}), anch)
    k_max = int(anch.opt(p, "k_max", _NUM, 3))
    tol = float(anch.opt(p, "tolerance", _NUM, 1e-8)) * ctx.tol_scale
    expect = anch.opt(p, "expect", str, "holds")
    rep = check_cg_embedding(ctx.problem.history, ctx.problem.family, g, k_max, tol, ctx.solver.eps_tail_seminorm)
    if not rep.applicable:
        passed = expect == "not-applicable"
    else:
        passed = bool(rep.holds) if expect == "holds" else expect == "any"
    return {
        "passed": passed,
        "applicable": rep.applicable,
        "holds": rep.holds,
        "cg_norm": rep.cg,
        "expect": expect,
        "rows": [asdict(r) for r in rep.rows],
    }


def _run_oracle_compare(ctx: _Ctx, p: dict) -> dict:
    anch = ctx.anch
    tol = float(anch.opt(p, "tolerance", _NUM, 1e-6)) * ctx.tol_scale
    h_fine = anch.opt(p, "h_fine", _NUM, None)
    traj = ctx.traj()
    ref = oracle_solve(ctx.problem, ctx.horizon, h_fine)
    diff = compare_trajectories(traj, ref, (0.0, ctx.horizon))
    return {"passed": diff <= tol, "max_difference": diff, "tolerance": tol, "oracle_h": ref.h_used, "oracle_n_trunc": ref.n_forcing}


CHECKS = [  # (name, description, runner, its parameter names)
    ("solve", "integrate the problem and pin optional reference points", _run_solve, "expect expect_points"),
    ("seminorms", "evaluate the sup and p seminorms of the history", _run_seminorms, "k_max"),
    ("membership", "phase-space membership verdict for the history", _run_membership, "k_max expect"),
    ("semigroup-law", "compare S_t S_s phi with S_{t+s} phi in the seminorms", _run_semigroup_law, "t s k_list tolerance"),
    ("strong-continuity", "distance of S_t phi from phi as t decreases to 0", _run_strong_continuity, "k times threshold"),
    ("mild-solution", "integral form of the equation driven by the functional L", _run_mild_solution, "t_grid theta_grid tolerance"),
    ("estimates", "a-priori window bounds against observed sups", _run_estimates, "k_list"),
    ("cg-embedding", "weighted-norm domination of the p seminorms", _run_cg_embedding, "weight k_max tolerance expect"),
    ("oracle-compare", "agreement with the independent RK4 integrator", _run_oracle_compare, "tolerance h_fine"),
]

CHECK_RUNNERS = {name: fn for name, _, fn, _ in CHECKS}
CHECK_PARAMS = {name: params.split() for name, _, _, params in CHECKS}


def list_checks() -> list[tuple[str, str]]:
    """The supported checks as (name, description) pairs."""
    return [(name, desc) for name, desc, _, _ in CHECKS]


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def _write_json(path: str, data) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True, allow_nan=True)
        fh.write("\n")
    os.replace(tmp, path)


def _safe_name(name: str) -> str:
    out = "".join(ch if ch.isalnum() or ch in "-_" else "-" for ch in name)
    return out or "scenario"


@dataclass(frozen=True)
class ScenarioResult:
    name: str
    passed: bool
    check_results: tuple
    out_dir: str


def load_scenario(path: str) -> tuple[dict, dict]:
    """Parse a scenario file into its data and the lines of its keys; raises ScenarioError with a line anchor."""
    with open(path) as fh:
        raw = fh.read()
    try:
        data, lines = _parse_with_lines(raw)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON: {exc.msg}", path, exc.lineno) from exc
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object", path, 1)
    return data, lines


def run_scenario(
    data: dict,
    out_root: str,
    lines: Optional[dict] = None,
    path: str = "<scenario>",
    tolerance_scale: float = 1.0,
) -> ScenarioResult:
    """Validate, run every listed check, and write the report tree.

    Raises ScenarioError for schema problems, at the key's line from
    load_scenario's lines (else line 1), before anything is written; check
    failures only lower the result's passed flag.
    """
    anch = _Anchored(lines, path)
    anch.only(data, "name problem horizon solver checks", "scenario")
    name = anch.need(data, "name", str, "scenario")
    prob_cfg = anch.need(data, "problem", dict, "scenario")
    anch.only(prob_cfg, "a family history", "problem")
    horizon = float(anch.need(data, "horizon", _NUM, "scenario"))
    if not horizon > 0.0:
        raise anch.fail(f"horizon must be positive, got {horizon}", data, "horizon")
    checks_cfg = anch.need(data, "checks", list, "scenario")
    a = float(anch.need(prob_cfg, "a", _NUM, "problem"))
    family = _build_family(anch.need(prob_cfg, "family", dict, "problem"), anch)
    history = _build_history(anch.need(prob_cfg, "history", dict, "problem"), anch)
    solver = _build_solver(anch.opt(data, "solver", dict, {}), anch)

    normalized = []
    for i, entry in enumerate(checks_cfg):
        if isinstance(entry, str):
            # the parameters of a bare name anchor at the name
            cname, params = entry, {}
            anch.lines[id(params)] = (params, anch.line(checks_cfg, i), {})
        elif isinstance(entry, dict) and isinstance(entry.get("name"), str):
            cname, params = entry["name"], entry
        else:
            raise anch.fail(f"check entries must be a name or an object with a name, got {entry!r}", checks_cfg, i)
        if cname not in CHECK_RUNNERS:
            raise anch.fail(f"unknown check {cname!r}", checks_cfg, i)
        for key in params:
            if key != "name" and key not in CHECK_PARAMS[cname]:
                raise anch.fail(f"unknown parameter {key!r} of check {cname!r}", params, key)
        normalized.append((cname, params))

    ctx = _Ctx(ProblemSpec(a, family, history), horizon, solver, tolerance_scale, anch)
    results = []
    for idx, (cname, params) in enumerate(normalized, start=1):
        try:
            res = CHECK_RUNNERS[cname](ctx, params)
        except (NotInPhaseSpaceError, DivergentTailError, UnknownTailError, TruncationDepthError, ValueError) as exc:
            res = {"passed": False, "error": f"{type(exc).__name__}: {exc}"}
        fname = f"{idx:02d}-{cname}.json"
        ctx.files[fname] = res
        results.append({"name": cname, "passed": bool(res.get("passed", False)), "file": fname})

    passed = all(r["passed"] for r in results)
    summary = {
        "name": name,
        "passed": passed,
        "checks": results,
        "horizon": horizon,
        "tolerance_scale": tolerance_scale,
        "scenario": data,
    }
    ctx.files["summary.json"] = summary
    outdir = os.path.join(out_root, _safe_name(name))
    os.makedirs(outdir, exist_ok=True)
    for fname, content in ctx.files.items():
        if callable(content):
            content(os.path.join(outdir, fname))
        else:
            _write_json(os.path.join(outdir, fname), content)
    return ScenarioResult(name, passed, tuple(r["name"] for r in results), outdir)
