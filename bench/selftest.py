#!/usr/bin/env python3
"""Self-test of the benchmark's checks and counts.  Run from the repository root:

    python3 bench/selftest.py

Fault injection runs one real pass of each workload, confirms that its checks
pass, then corrupts one result at a time and requires the check to count the
right op as failed: a perturbed node value, a bracket that misses zeta(3), a
flipped verdict (also through the worker's end-of-run deep-tail checks), a
changed report byte, and an op that raises.

Count repeatability runs the traced benchmark twice per workload with the
same seed and requires every exact count to come out identical.
"""

from __future__ import annotations

import dataclasses
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 7


def _pass(wl):
    inputs = wl.build()
    state = {}
    for name, op in wl.ops(inputs):
        state[name] = op(state)
    return inputs, state


def _expect(label, fails, op, results):
    ok = op in fails
    results.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} fault: {label} -> {op} {'counted failed' if ok else 'NOT counted'}")


def fault_injection(root: str) -> list:
    import workloads
    import worker

    results = []

    ml = workloads.MarchLong(SEED, root)
    inputs, st = _pass(ml)
    fails, _ = ml.check(inputs, st)
    results.append(not fails)
    print(f"{'PASS' if not fails else 'FAIL'} control: march-long checks pass {fails or ''}")
    last = "chain.step_interval.k31"
    bad = st[last].values.copy()
    bad[len(bad) // 2] += 1e-9
    _expect("perturbed node value", ml.check(inputs, {**st, last: dataclasses.replace(st[last], values=bad)})[0], last, results)
    bad = st["solve.H8"].derivs.copy()
    bad[0] += 1e-6
    _expect("perturbed derivs[0]", ml.check(inputs, {**st, "solve.H8": dataclasses.replace(st["solve.H8"], derivs=bad)})[0], "solve.H8", results)

    dt = workloads.DeepTail(SEED, root)
    inputs, st = _pass(dt)
    fails, _ = dt.check(inputs, st)
    results.append(not fails)
    print(f"{'PASS' if not fails else 'FAIL'} control: deep-tail checks pass {fails or ''}")
    lv = st["L.p3"]
    shifted = dataclasses.replace(lv, value=lv.value + 10 * lv.error_bound)
    _expect("L bracket misses zeta(3)", dt.check(inputs, {**st, "L.p3": shifted})[0], "L.p3", results)
    rep = st["membership.p3"]
    sv = rep.seminorms[2]
    seminorms = {**rep.seminorms, 2: dataclasses.replace(sv, value=sv.value - 10 * sv.truncation_bound)}
    _expect("p_2 bracket misses zeta(3)", dt.check(inputs, {**st, "membership.p3": dataclasses.replace(rep, seminorms=seminorms)})[0], "membership.p3", results)
    flipped = dataclasses.replace(st["membership.p1"], verdict="member")
    _expect("flipped p=1 verdict", dt.check(inputs, {**st, "membership.p1": flipped})[0], "membership.p1", results)
    flipped = dataclasses.replace(st["membership.p2"], verdict="not-member")
    _expect("flipped p=2 verdict", dt.check(inputs, {**st, "membership.p2": flipped})[0], "membership.p2", results)
    traj = st["solve.p3.H4"]
    bad = traj.pieces.copy()
    bad[:, 0] += 1e-7
    _expect("perturbed x(1)", dt.check(inputs, {**st, "solve.p3.H4": dataclasses.replace(traj, pieces=bad)})[0], "solve.p3.H4", results)

    ss = workloads.ScenarioSuite(SEED, root)
    try:
        inputs, st = _pass(ss)
        fails, _ = ss.check(inputs, st)
        results.append(not fails)
        print(f"{'PASS' if not fails else 'FAIL'} control: scenario-suite checks pass {fails or ''}")
        report = os.path.join(ss.out, "classic-delay", "01-solve.json")
        with open(report, "rb") as fh:
            data = bytearray(fh.read())
        data[len(data) // 2] ^= 0x01
        with open(report, "wb") as fh:
            fh.write(data)
        _expect("changed report byte", ss.check(inputs, st)[0], "classic-delay", results)
        _expect("non-zero exit code", ss.check(inputs, {**st, "geometric-l1": (1, "FAIL")})[0], "geometric-l1", results)
    finally:
        ss.close()

    class Raising(workloads.DeepTail):
        def ops(self, inputs):
            ops = super().ops(inputs)
            ops[2] = (ops[2][0], lambda st: 1 / 0)
            return ops

    _expect("op raises", worker.run_pass(Raising(SEED, root))["fails"], "L.p3", results)

    class Flipped(workloads.DeepTail):
        def ops(self, inputs):
            ops = super().ops(inputs)
            name, op = ops[4]
            ops[4] = (name, lambda st: dataclasses.replace(op(st), verdict="member"))
            return ops

    # the worker checks deep-tail results only at the end of its run
    wl = Flipped(SEED, root)
    flipped_pass = worker.run_pass(wl)
    worker.finish_checks(wl, [flipped_pass])
    _expect("flipped p=1 verdict, checked at the end of a run", flipped_pass["fails"], "membership.p1", results)
    return results


def count_repeat(root: str, seconds: float) -> list:
    import run
    import tracer

    exact = {m for m, spec in tracer.METRICS.items() if spec[2] == "count"} | set(tracer.CHECK_COUNTS)
    results = []
    for name in run.WORKLOADS:
        first, second = (run.run_workload(name, SEED, seconds, 1, root)[1] for _ in range(2))
        diff = sorted(m for m in exact if first.get(m) != second.get(m))
        results.append(not diff)
        shown = ", ".join(f"{m}={first[m][0]:g}" for m in sorted(exact) if m in first and first[m][0])
        print(f"{'PASS' if not diff else 'FAIL'} counts repeat: {name} {'differ: ' + ', '.join(diff) if diff else shown}")
    return results


def main() -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "infidelay", "__init__.py")):
        print("error: run from the repository root (no src/infidelay here)", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, os.path.join(root, "src")]
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"  # before numpy loads
    results = fault_injection(root) + count_repeat(root, 0.0)
    print(f"{sum(results)} of {len(results)} self-checks passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
