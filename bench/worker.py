"""One workload in one fresh process; started by run.py, not by hand.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Prints ``READY`` once infidelay is imported and the seeded inputs are built,
so the parent can time set-up from process start.  Then it runs a cold pass,
warm passes until ``--seconds`` have gone (at least ``MIN_PASSES``), checks
every pass, and prints one JSON line with the timings.  ``--setup-only`` runs
only the calibration kernel after READY and prints the process's speed scale.

After every op the calibration kernel of bench/calibrate.py runs for about
``CAL_SHARE`` of the op's time, outside the op's timing.  Each op's wall time
is also given scaled to the reference speed, by the mean kernel times just
before and just after it.

With ``--trace 1`` the warm passes alternate untraced and traced; the traced
ones yield the per-layer metrics, and the spans of the first one are written
to ``.bench_out/spans-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

import calibrate

MIN_PASSES = 2
MIN_TRACE_PASSES = 2
CAL_SHARE = 0.05
SETUP_CAL_REPS = 30
# stop starting passes this long after process start, whatever --seconds says
HARD_STOP_S = 120.0


def run_pass(wl, tracer=None, cal=None) -> dict:
    inputs = wl.build()
    ops = wl.ops(inputs)
    gc.collect()
    state, errors, lat, scaled = {}, {}, [], []
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        after = cal.run(2) if cal is not None else []
        for name, op in ops:
            if tracer is not None:
                tracer.op = name
            t0 = time.perf_counter()
            try:
                state[name] = op(state)
            except Exception as exc:  # a failing op is counted, not fatal
                errors[name] = [f"raised {type(exc).__name__}: {exc}"]
            lat.append(time.perf_counter() - t0)
            if cal is None:
                scaled.append(lat[-1])
                continue
            # the kernel samples on each side of the op stand for the speed during it
            before = after
            after = cal.run(max(2, round(CAL_SHARE * lat[-1] / calibrate.REF_KERNEL_S)))
            kernel_s = (statistics.fmean(before) + statistics.fmean(after)) / 2
            scaled.append(lat[-1] * calibrate.REF_KERNEL_S / kernel_s)
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = {"seconds": sum(lat), "ops": lat, "scaled_ops": scaled}
    if hasattr(wl, "record"):  # checked by finish_checks, once peak memory is read
        out["record"] = wl.record(state)
        fails, counts = {}, {}
    else:
        fails, counts = wl.check(inputs, state)
    for name, msgs in errors.items():
        fails.setdefault(name, []).extend(msgs)
    return dict(out, fails=fails, counts=counts)


def finish_checks(wl, passes: list) -> None:
    """Run the checks that run_pass left to the end."""
    for p in passes:
        if "record" in p:
            fails, counts = wl.verify(p.pop("record"))
            for name, msgs in fails.items():
                p["fails"].setdefault(name, []).extend(msgs)
            p["counts"].update(counts)


def measure(wl, args, root: str, t_start: float, cal) -> list:
    """The cold pass, then warm passes; traced ones carry their layer metrics."""
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    passes = [dict(run_pass(wl, cal=cal), cold=True, traced=False)]
    t_warm = time.perf_counter()
    while True:
        warm = passes[1:]
        done = time.perf_counter() - t_warm >= args.seconds
        if args.trace:
            n_plain = sum(not p["traced"] for p in warm)
            n_traced = len(warm) - n_plain
            if done and min(n_plain, n_traced) >= MIN_TRACE_PASSES:
                break
            traced = n_traced < n_plain
        else:
            if done and len(warm) >= MIN_PASSES:
                break
            traced = False
        late = time.perf_counter() - t_start > HARD_STOP_S
        if late and warm and (not args.trace or min(n_plain, n_traced) >= 1):
            break
        passes.append(dict(run_pass(wl, tracer if traced else None, cal), cold=False, traced=traced))
        if traced:
            last = passes[-1]
            last["layer"], last["absent"] = tracing.pass_metrics(tracer.spans, tracer.present)
            if not any(p.get("layer") for p in passes[:-1]):
                tracing.write_spans(tracer.spans, os.path.join(root, ".bench_out", f"spans-{args.workload}.jsonl"))
            tracer.reset()
    return passes


def main() -> int:
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    root = os.getcwd()
    import infidelay

    src = os.path.join(root, "src", "infidelay")
    if os.path.realpath(os.path.dirname(infidelay.__file__)) != os.path.realpath(src):
        print(f"infidelay imported from {infidelay.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, root)
    try:
        wl.build()
        print("READY", flush=True)
        cal = calibrate.Calibration()
        if args.setup_only:
            cal.run(SETUP_CAL_REPS)
            print(json.dumps({"scale": cal.scale()}), flush=True)
            return 0
        passes = measure(wl, args, root, t_start, cal)
    finally:
        close = getattr(wl, "close", None)
        if close is not None:
            close()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finish_checks(wl, passes)
    failed_ops = {}
    attempted = 0
    for i, p in enumerate(passes):
        attempted += len(p["ops"])
        for name, msgs in p["fails"].items():
            failed_ops.setdefault(f"pass{i}:{name}", msgs)
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "attempted": attempted,
        "failed": len(failed_ops),
        "failures": failed_ops,
        "passes": [{k: p[k] for k in ("seconds", "ops", "scaled_ops", "cold", "traced")} for p in passes],
        "peak_rss_mb": peak_rss_mb,
        "scale": cal.scale(),
        "kernel_s": cal.mean_s(),
    }
    if args.trace:
        import tracer as tracing

        traced = [p for p in passes if p["traced"]]
        plain = [sum(p["scaled_ops"]) for p in passes[1:] if not p["traced"]]
        layer = tracing.combine([dict(p["layer"], **p["counts"]) for p in traced])
        layer["trace_overhead_frac"] = statistics.median(sum(p["scaled_ops"]) for p in traced) / statistics.median(plain) - 1.0
        for name in tracing.CHECK_COUNTS:
            layer.setdefault(name, 0)
        out["layer"] = layer
        out["absent"] = sorted(set().union(*(p["absent"] for p in traced)))
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
