"""Spans and counts at infidelay's module boundaries, recorded from outside.

``Tracer.install()`` replaces each traced function at every module attribute
that refers to it (and the entries of ``scenario.CHECK_RUNNERS``) with a
wrapper that records a span; ``uninstall()`` puts the originals back.  Nothing
in ``src/`` is edited.  A name that does not exist is skipped and the metrics
built on it are reported as absent, so the tracer keeps working when a later
change merges or removes a function.

A span is ``[name, start, end, parent, op, info]``: ``parent`` is the index of
the enclosing span (-1 at the top of an op), ``op`` the benchmark op it ran
under, and ``info`` the counts read from its arguments and return value (None
when they could not be read).  Spans stay in memory until the pass ends;
the worker writes those of its first traced pass out with ``write_spans``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time

import numpy as np

LAYERS = ("coefficients", "history", "stepper", "oracle", "semigroup", "scenario", "cli")


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


# (module, attribute) -> counts read from (args, kwargs, return value)
TARGETS = {
    ("coefficients", "tail_sum_bound"): None,
    ("history", "_atom_tail_search"): lambda a, k, r: {"n_floor": int(_arg(a, k, 2, "n_floor")), "n": int(r[0])},
    ("history", "p_seminorm"): lambda a, k, r: {"indices": len(r.indices_used), "verdict": r.verdict},
    ("history", "L_functional"): None,
    ("history", "history_difference"): None,
    ("stepper", "solve"): lambda a, k, r: {
        "horizon": float(_arg(a, k, 1, "horizon")),
        "nodes": len(r.grid),
        "n_forcing": int(r.n_forcing),
    },
    ("stepper", "step_interval"): None,
    ("stepper", "_delayed_values"): lambda a, k, r: {"terms": int(np.size(r))},
    ("oracle", "_delayed_values"): lambda a, k, r: {"terms": int(np.size(r))},
    ("oracle", "oracle_solve"): lambda a, k, r: {"steps": len(r.grid) - 1},
    ("oracle", "compare_trajectories"): None,
    ("semigroup", "apply_semigroup"): None,
    ("semigroup", "check_semigroup_law"): None,
    ("semigroup", "check_strong_continuity"): None,
    ("semigroup", "check_mild_solution"): None,
    ("scenario", "run_scenario"): None,
    ("cli", "main"): None,
}

CHECK_NAMES = (
    "solve",
    "seminorms",
    "membership",
    "semigroup-law",
    "strong-continuity",
    "mild-solution",
    "estimates",
    "cg-embedding",
    "oracle-compare",
)


class Tracer:
    def __init__(self):
        self.modules = {}
        for layer in LAYERS:
            try:
                self.modules[layer] = importlib.import_module(f"infidelay.{layer}")
            except ImportError:
                pass
        self.sites = [("infidelay", importlib.import_module("infidelay"))] + list(self.modules.items())
        self.present: set = set()
        self.spans: list = []
        self.op = None
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, name, fn, extract):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                ret = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                span[1] = t0
                stack.pop()
            if extract is not None:
                try:
                    span[5] = extract(args, kwargs, ret)
                except Exception:
                    span[5] = None
            return ret

        return traced

    def _patch(self, obj, key, value, item=False):
        old = obj[key] if item else getattr(obj, key)
        self._patches.append((obj, key, old, item))
        if item:
            obj[key] = value
        else:
            setattr(obj, key, value)

    def install(self) -> None:
        for (layer, attr), extract in TARGETS.items():
            module = self.modules.get(layer)
            fn = getattr(module, attr, None) if module is not None else None
            if not callable(fn):
                continue
            name = f"{layer}.{attr}"
            wrapper = self._wrap(name, fn, extract)
            self.present.add(name)
            for site_name, site in self.sites:
                for key, value in list(vars(site).items()):
                    # a site that TARGETS names on its own gets its own span name
                    if value is fn and ((site_name, key) == (layer, attr) or (site_name, key) not in TARGETS):
                        self._patch(site, key, wrapper)
        runners = getattr(self.modules.get("scenario"), "CHECK_RUNNERS", None)
        if isinstance(runners, dict):
            for cname, fn in list(runners.items()):
                name = f"scenario.check.{cname}"
                self._patch(runners, cname, self._wrap(name, fn, None), item=True)
                self.present.add(name)

    def uninstall(self) -> None:
        while self._patches:
            obj, key, old, item = self._patches.pop()
            if item:
                obj[key] = old
            else:
                setattr(obj, key, old)

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self.op = None


class _Absent(Exception):
    """A metric's span or count does not exist in this version of the code."""


class _View:
    """Per-name aggregates of one pass's spans."""

    def __init__(self, spans: list, present: set):
        self.spans = spans
        self.present = present
        n = len(spans)
        self.dur = [s[2] - s[1] for s in spans]
        covered = [0.0] * n
        for i, s in enumerate(spans):
            if s[3] >= 0:
                covered[s[3]] += self.dur[i]
        self.self_t = [d - c for d, c in zip(self.dur, covered)]
        self.by_name: dict = {}
        for i, s in enumerate(spans):
            self.by_name.setdefault(s[0], []).append(i)

    def need(self, *names):
        missing = [n for n in names if n not in self.present]
        if missing:
            raise _Absent(", ".join(missing))

    def idx(self, name):
        self.need(name)
        return self.by_name.get(name, [])

    def calls(self, name):
        return len(self.idx(name))

    def self_s(self, name):
        return sum(self.self_t[i] for i in self.idx(name))

    def incl_s(self, name):
        return sum(self.dur[i] for i in self.idx(name))

    def info(self, i, key):
        info = self.spans[i][5]
        if info is None or key not in info:
            raise _Absent(f"{self.spans[i][0]} {key}")
        return info[key]

    def total(self, name, key):
        return sum(self.info(i, key) for i in self.idx(name))

    def parent_name(self, i):
        p = self.spans[i][3]
        return self.spans[p][0] if p >= 0 else None


def _ratio(num, den):
    return num / den if den else 0.0


def _bounds_per_search(v):
    searches = v.idx("history._atom_tail_search")
    v.need("coefficients.tail_sum_bound")
    bounds = sum(1 for i in v.idx("coefficients.tail_sum_bound") if v.parent_name(i) == "history._atom_tail_search")
    return _ratio(bounds, len(searches))


def _inconclusive_frac(v):
    idx = v.idx("history.p_seminorm")
    return _ratio(sum(1 for i in idx if v.info(i, "verdict") == "inconclusive"), len(idx))


def _resolve_frac(v):
    v.need("stepper.solve")
    ext = v.idx("stepper.step_interval")
    resolved = {v.spans[i][3] for i in v.idx("stepper.solve")}
    return _ratio(sum(1 for i in ext if i in resolved), len(ext))


def _certify_s(v):
    v.need("stepper.solve", "stepper.step_interval")
    idx = [*v.idx("history.p_seminorm"), *v.idx("history._atom_tail_search")]
    return sum(v.dur[i] for i in idx if v.parent_name(i) in ("stepper.solve", "stepper.step_interval"))


def _widest_solve(v):
    """The solve with the most nodes and its forcing certification."""
    idx = v.idx("stepper.solve")
    if not idx:
        return None, None
    top = max(idx, key=lambda i: v.info(i, "nodes"))
    cert = [i for i in v.idx("history._atom_tail_search") if v.spans[i][3] == top]
    if not cert:
        raise _Absent("forcing certification under stepper.solve")
    return top, cert[-1]


def _n_forcing(v):
    top, _ = _widest_solve(v)
    return 0 if top is None else v.info(top, "n_forcing")


def _n_floor(v):
    top, cert = _widest_solve(v)
    return 0 if top is None else v.info(cert, "n_floor")


def _point_term_frac(v):
    top, cert = _widest_solve(v)
    return 0.0 if top is None else _ratio(v.info(cert, "n_floor"), v.info(top, "n_forcing"))


def _solve_s(horizon):
    def metric(v):
        times = [v.dur[i] for i in v.idx("stepper.solve") if v.spans[i][3] < 0 and v.info(i, "horizon") == horizon]
        return statistics.median(times) if times else 0.0

    return metric


def _calls(span):
    return {f"{span}.calls": ("count", "lower", "count", lambda v: v.calls(span))}


def _self(span):
    return {f"{span}.self_s": ("s", "lower", "time", lambda v: v.self_s(span))}


def _per(unit, scale, time_of, span, key):
    """A time per counted unit of work, e.g. microseconds per node."""
    return (unit, "lower", "time", lambda v: scale * _ratio(time_of(v, span), v.total(span, key)))


# name -> (unit, better, kind, function of a _View); "count" metrics are exact
# and taken from the first traced pass, "time" metrics are medians over passes
METRICS = {
    **_calls("coefficients.tail_sum_bound"),
    **_self("coefficients.tail_sum_bound"),
    **_calls("history._atom_tail_search"),
    **_self("history._atom_tail_search"),
    "history._atom_tail_search.bounds_per_search": ("ratio", "lower", "count", _bounds_per_search),
    **_calls("history.p_seminorm"),
    **_self("history.p_seminorm"),
    "history.p_seminorm.indices": ("count", "lower", "count", lambda v: v.total("history.p_seminorm", "indices")),
    "history.p_seminorm.inconclusive_frac": ("ratio", "lower", "count", _inconclusive_frac),
    **_calls("history.L_functional"),
    **_self("history.L_functional"),
    **_self("history.history_difference"),
    **_calls("stepper.solve"),
    **_self("stepper.solve"),
    **_calls("stepper.step_interval"),
    **_self("stepper.step_interval"),
    "stepper.step_interval.resolve_frac": ("ratio", "lower", "count", _resolve_frac),
    "stepper.certify_s": ("s", "lower", "time", _certify_s),
    **_calls("stepper._delayed_values"),
    **_self("stepper._delayed_values"),
    "stepper._delayed_values.ns_per_term": _per("ns", 1e9, _View.self_s, "stepper._delayed_values", "terms"),
    "stepper.delayed_terms": ("count", "lower", "count", lambda v: v.total("stepper._delayed_values", "terms")),
    "stepper.nodes": ("count", "lower", "count", lambda v: v.total("stepper.solve", "nodes")),
    "stepper.us_per_node": _per("us", 1e6, _View.incl_s, "stepper.solve", "nodes"),
    "stepper.solve_s.H8": ("s", "lower", "time", _solve_s(8.0)),
    "stepper.solve_s.H16": ("s", "lower", "time", _solve_s(16.0)),
    "stepper.solve_s.H32": ("s", "lower", "time", _solve_s(32.0)),
    "stepper.n_forcing": ("count", "lower", "count", _n_forcing),
    "stepper.n_floor": ("count", "lower", "count", _n_floor),
    "stepper.point_term_frac": ("ratio", "higher", "count", _point_term_frac),
    **_calls("oracle.oracle_solve"),
    **_self("oracle.oracle_solve"),
    **_self("oracle._delayed_values"),
    "oracle.steps": ("count", "lower", "count", lambda v: v.total("oracle.oracle_solve", "steps")),
    "oracle.us_per_step": _per("us", 1e6, _View.incl_s, "oracle.oracle_solve", "steps"),
    **_self("oracle.compare_trajectories"),
    **_calls("semigroup.apply_semigroup"),
    **_self("semigroup.apply_semigroup"),
    **_self("semigroup.check_semigroup_law"),
    **_self("semigroup.check_strong_continuity"),
    **_self("semigroup.check_mild_solution"),
    **{
        f"scenario.check.{c}.s": ("s", "lower", "time", lambda v, c=c: v.incl_s(f"scenario.check.{c}"))
        for c in CHECK_NAMES
    },
    **_self("scenario.run_scenario"),
    **_self("cli.main"),
}

# counts the workloads' checks produce, measured outside the library
CHECK_COUNTS = {
    "scenario.report_bytes": ("B", "lower"),
    "history.bracket_rounding_misses": ("count", "lower"),
}


def write_spans(spans: list, path: str) -> None:
    """One JSON array per span: name, start and end (s from the first span), parent, op, counts."""
    t0 = spans[0][1] if spans else 0.0
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        for name, start, end, parent, op, info in spans:
            fh.write(json.dumps([name, start - t0, end - t0, parent, op, info]) + "\n")


def pass_metrics(spans: list, present: set) -> tuple[dict, list]:
    """Every span metric of one pass, and the names that are absent."""
    view = _View(spans, present)
    values, absent = {}, []
    for name, (_, _, _, fn) in METRICS.items():
        try:
            values[name] = fn(view)
        except _Absent:
            absent.append(name)
    return values, absent


def combine(per_pass: list) -> dict:
    """Counts from the first traced pass, times as medians over the passes."""
    out = {}
    for name, value in per_pass[0].items():
        kind = METRICS[name][2] if name in METRICS else "count"
        out[name] = value if kind == "count" else statistics.median(p[name] for p in per_pass)
    return out
