"""Scenario files: a JSON description of one problem plus a list of checks.

Schema (all floats unless noted):

    {
      "name": "classic-delay",
      "problem": {
        "a": 0.0,
        "family": {
          "kind": "finite-support" | "geometric" | "power-law" | "explicit-list",
          "coeffs": [..],            # finite-support (loads as explicit-list, tail_abs_bound 0) / explicit-list
          "beta": .., "rho": ..,     # geometric
          "p": ..,                   # power-law
          "tail_abs_bound": ..,      # explicit-list
          "tau": {"c": 0.0, "delta": 1.0, "prefix": [..]}   # c stays 0 with a prefix
        },
        "history": {"preset": "constant", "depth": 8.0, "resolution": 0.05}
                   # or {"core": {"breakpoints": [...], "coeffs": [[c0,c1,c2,c3],..]},
                   #     "tail": {"kind": "constant", "value": ..}
                   #             | {"kind": "cos", "amp": .., "omega": .. (> 0), "phase": ..}
                   #             | {"kind": "exp-decay", "amp": .., "rate": .. (> 0)}
                   #             | {"kind": "g-envelope", "scale": .., "shift": .. (<= core depth),
                   #                "weight": {"form": "exponential", "base": 2.0}}}
                   # constant, cos and exp-decay load as an ExpFormTail; a g-envelope is a WeightEnvelopeTail
                   # under a polynomial weight and otherwise the exponential or constant ExpFormTail it equals
      },
      "horizon": 10.0,               # > 0, with a normal float cube (numerics.normal_cube)
      "solver": {"h": .., "eps_forcing": .., "eps_tail_seminorm": ..},
      "checks": ["solve", {"name": "membership", "expect": "member"}, ...]
    }

Each object is read by its key table (_SCENARIO, _FAMILY, _TAU, _PRESET or
_CORE, _TAIL, _WEIGHT, the solver's, each check's in CHECKS): every key's
type, default or requiredness, and list entry type; "kind" or "form" picks a
family, tail or weight row.  Any other key is a schema error at that key.
A key with no default there is passed on only when given.

Check parameters (all optional, all type- and range-checked before the first check runs;
every k, k_max and k_list entry is >= 1, every k_list nonempty, every t, s, tolerance,
threshold and point tol >= 0; a point's t may be <= 0, where x = phi(t), but not past the horizon):

    solve              expect (not-in-phase-space), expect_points [{t (<= horizon), x, tol}, ..]
    seminorms          k_max (p_1..p_kmax)
    membership         k_max, expect (member, not-member or inconclusive)
    semigroup-law      t, s (t + s <= horizon), k_list, tolerance
    strong-continuity  k, times (strictly decreasing, 0 < t <= horizon; default [0.1, 0.01, 0.001] * min(tau_1, horizon)), threshold
    mild-solution      t_grid (in [0, horizon]), theta_grid (<= 0), tolerance
    estimates          k_list (each k * tau_1 <= horizon; default 1..min(3, floor(horizon / tau_1)))
    cg-embedding       weight (an object as in a g-envelope tail), k_max, tolerance, expect (holds, not-applicable or any)
    oracle-compare     tolerance, h_fine (> 0)

Schema problems, check parameters included, raise ScenarioError at the
file:line of the key at fault; check failures are ordinary results.  Runners write one
JSON report per check, trajectory.json (the solve's nodes, Trajectory.to_json_dict)
and a summary, all deterministic and with no timestamps: each the bytes of
json.dumps(report, indent=2, sort_keys=True, allow_nan=True) and a newline (NaN and
Infinity as those tokens), encoded whole, then written in one piece to a temp file
that atomically replaces its path (_write_report).  The nodes as comma-separated
t,x,xprime rows in a text file out are three lines of numpy away:

    d = json.load(open("trajectory.json"))
    rows = np.column_stack((d["grid"], d["values"], d["derivs"]))
    np.savetxt(out, rows, delimiter=",", header="t,x,xprime", comments="")
"""

from __future__ import annotations

import bisect
import json
import math
import os
import re
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .coefficients import (
    CoefficientFamily,
    DelaySchedule,
    NotInPhaseSpaceError,
    WeightFunction,
)
from .history import (
    ConstantTail,
    CosTail,
    ExpFormTail,
    ExpTail,
    HistoryFunction,
    WeightEnvelopeTail,
    _seminorms,
    _sup_norms,
    check_cg_embedding,
    history_preset,
    membership_in_F,
)
from .numerics import PAST_END, SAME_TIME, normal_cube
from .oracle import compare_trajectories, oracle_solve
from .semigroup import (
    check_mild_solution,
    check_semigroup_law,
    check_strong_continuity,
)
from .stepper import (
    ProblemSpec,
    SolverConfig,
    estimate_certificate,
    solve,
)


class ScenarioError(Exception):
    """Schema problem in a scenario file, formatted as path:line: message."""

    def __init__(self, message: str, path: str = "<scenario>", line: int = 1):
        super().__init__(f"{path}:{line}: {message}")


#: deepest nesting of objects and arrays a scenario file may have: the
#: pure-Python scanner below recurses about three frames per level, so this
#: stays well inside Python's default recursion limit of 1000 (a scenario
#: nests five levels; RFC 8259 section 9 lets a parser limit the depth)
_MAX_NESTING = 100

#: a JSON string (one left open runs to the end of the text, where the
#: scanner reports it), or one bracket outside strings, and the depth each changes by
_BRACKETS = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"?|[][{}]', re.DOTALL)
_NESTING_STEP = {"[": 1, "{": 1, "]": -1, "}": -1}


def _parse_with_lines(raw: str) -> tuple[object, dict]:
    """json.loads(raw), and a map from id(container) to (container, line, {key or entry index: line}).

    json.decoder.JSONObject and JSONArray run under the pure-Python scanner,
    with the value scanner they are given wrapped to note where values start;
    a start's line is a binary search in the newline offsets, listed once.
    A bracket that opens a level past _MAX_NESTING is a JSONDecodeError at
    its position, found before the scanner runs by one regular-expression
    pass, which a text of at most _MAX_NESTING opening brackets skips.
    """
    depth = 0
    for token in _BRACKETS.finditer(raw) if raw.count("[") + raw.count("{") > _MAX_NESTING else ():
        depth += _NESTING_STEP.get(token.group(), 0)
        if depth > _MAX_NESTING:
            raise json.JSONDecodeError(f"nested deeper than {_MAX_NESTING} levels", raw, token.start())
    spots: dict = {}
    newlines = [m.start() for m in re.finditer("\n", raw)]

    def line(pos: int) -> int:
        return bisect.bisect_left(newlines, pos) + 1

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
    """Reads a parsed scenario by key tables, with errors anchored at the key at fault.

    lines is load_scenario's map of every parsed object and list to its line
    and those of its keys or entries; an object it does not hold (a default,
    or data not read from a file) anchors at line 1.
    """

    def __init__(self, lines: Optional[dict], path: str):
        self.lines = dict(lines or {})
        self.path = path

    def line(self, obj, *keys) -> int:
        """Line of the first of obj[key] for keys that obj holds, else of obj itself."""
        container, own, lines = self.lines.get(id(obj), (None, 1, {}))
        if container is not obj:
            return 1
        return next((lines[key] for key in keys if key in lines), own)

    def fail(self, message: str, obj, *keys) -> ScenarioError:
        return ScenarioError(message, self.path, self.line(obj, *keys))

    def read(self, obj: dict, keys, where: str, ctx=None) -> dict:
        """The values of obj by a key table; the result anchors like obj.

        keys maps each key to (type, default, entry types by list depth..),
        or is a pair (selector, {value: key table}) whose row obj[selector]
        picks.  A default is _REQUIRED, None (an absent key is left out of the
        result), a value, or a function of the run context ctx; it is checked
        like a given value.  Unknown keys, missing required keys and values of
        the wrong type raise ScenarioError.
        """
        if isinstance(keys, tuple):
            pick, rows = keys
            keys = {pick: (str, _REQUIRED)}
            choice = self._entry(obj, pick, keys[pick], where, ctx)
            if choice not in rows:
                raise self.fail(f"unknown {where} {pick} {choice!r}", obj, pick)
            keys.update(rows[choice])
        for key in obj:
            if key not in keys:
                raise self.fail(f"unknown key {key!r} in {where}", obj, key)
        out = {key: self._entry(obj, key, spec, where, ctx)
               for key, spec in keys.items() if key in obj or spec[1] is not None}
        self.lines[id(out)] = (out, *self.lines.get(id(obj), (None, 1, {}))[1:])
        return out

    def _entry(self, obj: dict, key: str, spec: tuple, where: str, ctx):
        kind, default, *items = spec
        if key in obj:
            value = obj[key]
        elif default is _REQUIRED:
            raise self.fail(f"missing required key {key!r} in {where}", obj)
        else:
            value = default(ctx) if callable(default) else default
        return self._typed(value, kind, f"{where}.{key}", obj, key, *items)

    def _typed(self, v, kind, label: str, obj, key, items=object, *deeper):
        """v = obj[key] checked against kind, a list's entries against items, theirs against deeper[0]..

        kind is a class (float takes an int and gives a float), a key table
        (read into a dict) or a builder(obj, anch) of an object, whose
        ValueError anchors at that object.  Floats at any list depth must be
        finite; a bool is no float or int.
        """
        cls = kind if isinstance(kind, type) else dict
        if not isinstance(v, (int, float) if cls is float else cls) or isinstance(v, bool) and cls is not bool:
            raise self.fail(f"{label} must be {cls.__name__}, got {type(v).__name__}", obj, key)
        if isinstance(v, float) and not math.isfinite(v):
            raise self.fail(f"{label} must be finite, got {v}", obj, key)
        if isinstance(v, list):
            return [self._typed(x, items, f"{label} entry", v, i, *deeper) for i, x in enumerate(v)]
        if isinstance(kind, (dict, tuple)):
            return self.read(v, kind, label)
        if not isinstance(kind, type):
            try:
                return kind(v, self)
            except ValueError as exc:
                raise self.fail(f"{label}: {exc}", v) from exc
        return float(v) if kind is float else v


_REQUIRED = object()
_NUM = (float, _REQUIRED)
_OPT_NUM = (float, None)  # passed on only when given, so the callee's default holds
_NUMS = (list, _REQUIRED, float)

_WEIGHT = ("form", {
    "constant": {"level": _OPT_NUM},
    "exponential": {"base": _OPT_NUM, "gamma": _OPT_NUM},
    "polynomial": {"degree": (int, _REQUIRED)},
})


def _build_weight(cfg: dict, anch: _Anchored) -> WeightFunction:
    v = anch.read(cfg, _WEIGHT, "weight")
    # each form names the WeightFunction constructor that takes its keys
    return getattr(WeightFunction, v.pop("form"))(**v)


_TAIL = ("kind", {
    "constant": {"value": _NUM},
    "cos": {"amp": _NUM, "omega": _NUM, "phase": _OPT_NUM},
    "exp-decay": {"amp": _NUM, "rate": _NUM},
    "g-envelope": {"scale": _NUM, "weight": (_build_weight, _REQUIRED), "shift": _OPT_NUM},
})


def _envelope(scale: float, weight: WeightFunction, shift: float = 0.0):
    """scale * weight(theta + shift) as the one tail model of its shape: an envelope only for a polynomial weight."""
    if weight.degree:
        return WeightEnvelopeTail(scale, weight, shift)
    # level is 1 unless gamma is 0, and 0.0 - gamma keeps sigma +0.0 then
    return ExpFormTail(scale * weight.level * math.exp(-weight.gamma * shift), 0.0 - weight.gamma)


def _build_tail(cfg: dict, anch: _Anchored):
    v = anch.read(cfg, _TAIL, "tail")
    kind = v.pop("kind")
    if kind == "exp-decay" and not v["rate"] > 0.0:
        raise ValueError(f"decaying tail needs rate > 0, got {v['rate']}")
    return {"constant": ConstantTail, "cos": CosTail, "exp-decay": ExpTail, "g-envelope": _envelope}[kind](**v)


_TAU = {"c": _OPT_NUM, "delta": _OPT_NUM, "prefix": (list, None, float)}
_FAMILY = ("kind", {kind: {"tau": (_TAU, _REQUIRED), **row} for kind, row in {
    "finite-support": {"coeffs": _NUMS},
    "geometric": {"beta": _NUM, "rho": _NUM},
    "power-law": {"beta": _NUM, "p": _NUM},
    "explicit-list": {"coeffs": _NUMS, "tail_abs_bound": _NUM},
}.items()})


def _build_family(cfg: dict, anch: _Anchored) -> CoefficientFamily:
    v = anch.read(cfg, _FAMILY, "family")
    tau = v.pop("tau")
    if "prefix" in tau:
        tau["prefix"] = tuple(tau["prefix"])
    # each kind names the CoefficientFamily constructor that takes its keys
    return getattr(CoefficientFamily, v.pop("kind").replace("-", "_"))(**v, delays=DelaySchedule(**tau))


_PRESET = {"preset": (str, _REQUIRED), "depth": _OPT_NUM, "resolution": _OPT_NUM}
_CORE = {"core": ({"breakpoints": _NUMS, "coeffs": (list, _REQUIRED, list, float)}, _REQUIRED), "tail": (_build_tail, _REQUIRED)}


def _build_history(cfg: dict, anch: _Anchored) -> HistoryFunction:
    if "preset" in cfg:
        v = anch.read(cfg, _PRESET, "history")
        return history_preset(v.pop("preset"), **v)
    v = anch.read(cfg, _CORE, "history")
    return HistoryFunction(np.array(v["core"]["breakpoints"]), np.array(v["core"]["coeffs"], dtype=float), v["tail"])


def _build_solver(cfg: dict, anch: _Anchored) -> SolverConfig:
    return SolverConfig(**anch.read(cfg, {"h": _OPT_NUM, "eps_forcing": _OPT_NUM, "eps_tail_seminorm": _OPT_NUM}, "solver"))


_SCENARIO = {
    "name": (str, _REQUIRED),
    "problem": ({"a": _NUM, "family": (_build_family, _REQUIRED), "history": (_build_history, _REQUIRED)}, _REQUIRED),
    "horizon": _NUM,
    "solver": (_build_solver, {}),
    "checks": (list, _REQUIRED),
}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


class _Ctx:
    """Shared lazy state for one scenario run."""

    def __init__(self, problem: ProblemSpec, horizon: float, solver: SolverConfig, tol_scale: float, anch: _Anchored):
        self.problem = problem
        self.horizon = horizon
        self.tau1 = problem.family.delays.tau1
        self.solver = solver
        self.tol_scale = tol_scale
        self.anch = anch
        self.files: dict = {}  # report file name -> JSON data

    def traj(self):
        return solve(self.problem, self.horizon, self.solver)  # the history's memo returns one object per run


def _sv_dict(sv) -> dict:
    return {**asdict(sv), "upper": sv.upper()}


# each runner takes the run context and its check's parameters as read by its key table in CHECKS
def _run_solve(ctx: _Ctx, p: dict) -> dict:
    try:
        traj = ctx.traj()
    except NotInPhaseSpaceError as exc:
        return {"passed": p.get("expect") == "not-in-phase-space", "error": str(exc), "expect": p.get("expect")}
    ctx.files["trajectory.json"] = traj.to_json_dict()
    points = []
    for pt in p["expect_points"]:
        got, tol = traj.eval(pt["t"]), pt["tol"] * ctx.tol_scale
        points.append({"t": pt["t"], "want": pt["x"], "got": got, "tol": tol, "ok": abs(got - pt["x"]) <= tol})
    return {
        "passed": "expect" not in p and all(pt["ok"] for pt in points),
        "horizon": traj.horizon,
        "n_nodes": int(len(traj.grid)),
        "n_forcing": traj.n_forcing,
        "points": points,
    }


def _run_seminorms(ctx: _Ctx, p: dict) -> dict:
    phi, family, eps, ks = ctx.problem.history, ctx.problem.family, ctx.solver.eps_tail_seminorm, range(1, p["k_max"] + 1)
    pks = _seminorms(phi, family, ks, eps)
    rows = [{"k": k, "sup_norm": sup, "p": _sv_dict(pk)} for k, sup, pk in zip(ks, _sup_norms(phi, ks), pks)]
    return {"passed": True, "rows": rows}


def _run_membership(ctx: _Ctx, p: dict) -> dict:
    rep = membership_in_F(ctx.problem.history, ctx.problem.family, p["k_max"], ctx.solver.eps_tail_seminorm)
    return {
        "passed": rep.verdict == p["expect"],
        "verdict": rep.verdict,
        "expect": p["expect"],
        "per_k": {str(k): _sv_dict(v) for k, v in rep.seminorms.items()},
    }


def _run_semigroup_law(ctx: _Ctx, p: dict) -> dict:
    rep = check_semigroup_law(ctx.traj(), p["t"], p["s"], p["k_list"])
    tol = p["tolerance"] * ctx.tol_scale
    return {**asdict(rep), "tolerance": tol, "passed": rep.max_discrepancy <= tol}


def _run_strong_continuity(ctx: _Ctx, p: dict) -> dict:
    rep = check_strong_continuity(ctx.traj(), p["k"], p["times"], p.get("threshold"))
    return {**asdict(rep), "passed": rep.passed}


def _run_mild_solution(ctx: _Ctx, p: dict) -> dict:
    rep = check_mild_solution(ctx.traj(), p["t_grid"], p["theta_grid"], p["tolerance"] * ctx.tol_scale)
    return {**asdict(rep), "passed": rep.passed}


#: check keys whose value, or each entry of whose list, must be at least this
_LEAST = {"k": 1, "k_list": 1, "k_max": 1, "t": 0.0, "s": 0.0, "tolerance": 0.0, "threshold": 0.0}
#: the expect values of each check that takes one
_EXPECT = {
    "solve": ("not-in-phase-space",),
    "membership": ("member", "not-member", "inconclusive"),
    "cg-embedding": ("holds", "not-applicable", "any"),
}


def _check_ranges(ctx: _Ctx, cname: str, p: dict) -> None:
    """Raise ScenarioError at the key at fault when a check parameter leaves its range or what the horizon allows."""
    H, fail = ctx.horizon, ctx.anch.fail
    for key, least in _LEAST.items():
        if any(v < least for v in np.atleast_1d(p.get(key, []))):
            raise fail(f"{key} must be at least {least}, got {p[key]}", p, key)
    for pt in p.get("expect_points", []):
        if pt["t"] > H:
            raise fail(f"t must be at most the horizon {H}, got {pt['t']}", pt, "t")
        if pt["tol"] < 0.0:
            raise fail(f"tol must be at least 0, got {pt['tol']}", pt, "tol")
    if p.get("h_fine", 1.0) <= 0.0:
        raise fail(f"h_fine must be positive, got {p['h_fine']}", p, "h_fine")
    if "expect" in p and p["expect"] not in _EXPECT[cname]:
        raise fail(f"expect must be one of {', '.join(_EXPECT[cname])}, got {p['expect']!r}", p, "expect")
    if p.get("k_list") == []:
        raise fail(f"k_list must be nonempty, got [] (horizon {H}, tau_1 {ctx.tau1})", p, "k_list")
    if cname == "estimates" and max(p["k_list"]) * ctx.tau1 > H + PAST_END * ctx.tau1:
        raise fail(f"k_list entries k must have k * tau_1 at most the horizon {H}, got {p['k_list']}", p, "k_list")
    if cname == "semigroup-law" and p["t"] + p["s"] > H:
        raise fail(f"t + s must be at most the horizon {H}, got {p['t'] + p['s']}", p, "s", "t")
    if cname == "strong-continuity":
        times = p["times"]
        if not times or times[-1] <= 0.0 or any(b >= a for a, b in zip(times, times[1:])):
            raise fail(f"times must be strictly decreasing and positive, got {times}", p, "times")
        if times[0] > H:
            raise fail(f"times must be at most the horizon {H}, got {times[0]}", p, "times")
    if cname == "mild-solution":
        ts, thetas = p["t_grid"], p["theta_grid"]
        if not ts or min(ts) < 0.0 or max(ts) > H:
            raise fail(f"t_grid must be a nonempty list of times in [0, {H}], got {ts}", p, "t_grid")
        if not thetas or max(thetas) > 0.0:
            raise fail(f"theta_grid must be a nonempty list of values <= 0, got {thetas}", p, "theta_grid")


def _run_estimates(ctx: _Ctx, p: dict) -> dict:
    traj = ctx.traj()
    certs = [estimate_certificate(traj, k) for k in p["k_list"]]
    return {
        "passed": all(c.valid for c in certs),
        "certificates": [{**asdict(c), "levels": [{"name": n, "value": v} for n, v in c.levels]} for c in certs],
    }


def _run_cg_embedding(ctx: _Ctx, p: dict) -> dict:
    tol, expect = p["tolerance"] * ctx.tol_scale, p["expect"]
    rep = check_cg_embedding(ctx.problem.history, ctx.problem.family, p["weight"], p["k_max"], tol, ctx.solver.eps_tail_seminorm)
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
    tol = p["tolerance"] * ctx.tol_scale
    traj = ctx.traj()
    ref = oracle_solve(ctx.problem, ctx.horizon, p.get("h_fine"))
    diff = compare_trajectories(traj, ref, (0.0, ctx.horizon))
    return {"passed": diff <= tol, "max_difference": diff, "tolerance": tol, "oracle_h": ref.h_used, "oracle_n_trunc": ref.n_forcing}


CHECKS = {  # name: (description, runner, parameter key table); a default may be a function of the run context
    "solve": ("integrate the problem and pin optional reference points", _run_solve, {
        "expect": (str, None),
        "expect_points": (list, [], {"t": _NUM, "x": _NUM, "tol": (float, 1e-8)}),
    }),
    "seminorms": ("evaluate the sup and p seminorms of the history", _run_seminorms, {"k_max": (int, 3)}),
    "membership": ("phase-space membership verdict for the history", _run_membership, {
        "k_max": (int, 5),
        "expect": (str, "member"),
    }),
    "semigroup-law": ("compare S_t S_s phi with S_{t+s} phi in the seminorms", _run_semigroup_law, {
        "t": (float, lambda c: 0.75 * c.tau1),
        "s": (float, lambda c: 1.25 * c.tau1),
        "k_list": (list, [1, 2, 3], int),
        "tolerance": (float, 1e-6),
    }),
    "strong-continuity": ("distance of S_t phi from phi as t decreases to 0", _run_strong_continuity, {
        "k": (int, 2),
        "times": (list, lambda c: [f * min(c.tau1, c.horizon) for f in (0.1, 0.01, 0.001)], float),
        "threshold": (float, None),
    }),
    "mild-solution": ("integral form of the equation driven by the functional L", _run_mild_solution, {
        "t_grid": (list, lambda c: list(np.linspace(0.0, min(c.horizon, 2.0 * c.tau1), 5)), float),
        "theta_grid": (list, lambda c: [-2.0 * c.tau1, -c.tau1, -0.5 * c.tau1, -0.1 * c.tau1, 0.0], float),
        "tolerance": (float, 1e-6),
    }),
    "estimates": ("a-priori window bounds against observed sups", _run_estimates, {
        "k_list": (list, lambda c: list(range(1, min(3, int(math.floor(c.horizon / c.tau1 + SAME_TIME))) + 1)), int),
    }),
    "cg-embedding": ("weighted-norm domination of the p seminorms", _run_cg_embedding, {
        "weight": (_build_weight, {"form": "exponential", "base": 2.0}),
        "k_max": (int, 3),
        "tolerance": (float, 1e-8),
        "expect": (str, "holds"),
    }),
    "oracle-compare": ("agreement with the independent RK4 integrator", _run_oracle_compare, {
        "tolerance": (float, 1e-6),
        "h_fine": (float, None),
    }),
}

CHECK_RUNNERS = {name: fn for name, (_, fn, _) in CHECKS.items()}


def list_checks() -> list[tuple[str, str]]:
    """The supported checks as (name, description) pairs."""
    return [(name, desc) for name, (desc, _, _) in CHECKS.items()]


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def _is_float_list(v) -> bool:
    """A nonempty list of exact Python floats, the one value _encode hands to json's C encoder."""
    return type(v) is list and len(v) > 0 and set(map(type, v)) == {float}


def _encode(data) -> str:
    """json.dumps(data, indent=2, sort_keys=True, allow_nan=True), byte for byte.

    Only a dict with str keys and a top-level float list (a trajectory's grid,
    values and derivs) is encoded by parts: each such list by the C encoder,
    whose item separator carries indent=2's line break and indentation, and
    every other value by json.dumps, re-indented one level (a JSON string
    holds no raw newline).  Anything else is dumped whole.
    """
    if not (type(data) is dict and any(map(_is_float_list, data.values())) and all(type(k) is str for k in data)):
        return json.dumps(data, indent=2, sort_keys=True, allow_nan=True)
    parts = []
    for key, v in sorted(data.items()):
        if _is_float_list(v):
            body = "[\n    " + json.dumps(v, separators=(",\n    ", ": "))[1:-1] + "\n  ]"
        else:
            body = json.dumps(v, indent=2, sort_keys=True, allow_nan=True).replace("\n", "\n  ")
        parts.append(f"{json.dumps(key)}: {body}")
    return "{\n  " + ",\n  ".join(parts) + "\n}"


def _write_report(path: str, data) -> None:
    """Encode one report whole (_encode and a newline), then write a temp file that replaces path."""
    text = (_encode(data) + "\n").encode()
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(text)
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
    """Parse a scenario file into its data and the lines of its keys; raises ScenarioError with a line anchor.

    The file is read as UTF-8 (RFC 8259), with text mode's universal newlines;
    a byte that is not UTF-8 is refused at its line.
    """
    with open(path, "rb") as fh:
        blob = fh.read()

    def text(end: int) -> str:
        return blob[:end].decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")

    try:
        raw = text(len(blob))
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"not UTF-8: byte 0x{blob[exc.start]:02x} at offset {exc.start}", path, text(exc.start).count("\n") + 1) from exc
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
    failures only lower the result's passed flag.  ValueError unless
    tolerance_scale is finite and positive (inf would pass every check).
    """
    if not 0.0 < tolerance_scale < math.inf:
        raise ValueError(f"tolerance scale must be finite and positive, got {tolerance_scale}")
    anch = _Anchored(lines, path)
    v = anch.read(data, _SCENARIO, "scenario")
    name, horizon = v["name"], v["horizon"]
    if not normal_cube(horizon):
        raise anch.fail(f"horizon must be positive with a normal float cube, got {horizon}", data, "horizon")
    ctx = _Ctx(ProblemSpec(**v["problem"]), horizon, v["solver"], tolerance_scale, anch)

    checks_cfg, checks = data["checks"], []
    for i, entry in enumerate(checks_cfg):
        if isinstance(entry, str):
            # the parameters of a bare name anchor at the name
            cname, params = entry, {}
            anch.lines[id(params)] = (params, anch.line(checks_cfg, i), {})
        elif isinstance(entry, dict) and isinstance(entry.get("name"), str):
            cname, params = entry["name"], entry
        else:
            raise anch.fail(f"check entries must be a name or an object with a name, got {entry!r}", checks_cfg, i)
        if cname not in CHECKS:
            raise anch.fail(f"unknown check {cname!r}", checks_cfg, i)
        checks.append((cname, anch.read(params, {"name": (str, None), **CHECKS[cname][2]}, cname, ctx)))
        _check_ranges(ctx, cname, checks[-1][1])

    results = []
    for idx, (cname, params) in enumerate(checks, start=1):
        try:
            res = CHECK_RUNNERS[cname](ctx, params)
        except (NotInPhaseSpaceError, OverflowError, ValueError) as exc:
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
        _write_report(os.path.join(outdir, fname), content)
    return ScenarioResult(name, passed, tuple(r["name"] for r in results), outdir)
