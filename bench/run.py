#!/usr/bin/env python3
"""infidelay's benchmark: time certified results from outside the library.

Run from the repository root:

    python3 bench/run.py --workload march-long --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

Workloads: march-long, deep-tail, scenario-suite (``all`` runs them one after
another).  Each runs in its own single-threaded process (bench/worker.py);
set-up is timed over several fresh processes and reported as the median.
Every end-to-end time is wall time scaled to a reference machine speed by
the calibration kernel of bench/calibrate.py; wall times are printed too.
With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of the
traced run.  Lines before it print every metric by name with its unit, and
name every op whose result failed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("march-long", "deep-tail", "scenario-suite")
# fresh processes per run, each timed to READY for setup_s; the middle one
# also runs the cold pass and the warm passes
SETUP_PROCESSES = 7
DEADLINE_S = 170.0  # a run of one workload ends within this, or fails

END_TO_END = {
    "pass_s": "s",
    "cold_pass_s": "s",
    "op_p50_s": "s",
    "op_max_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def _env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _start(args: list, root: str, deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker and return it with its set-up time (start to READY)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=_env(root), stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else ""
        setup = time.perf_counter() - t0
        if line.strip() != "READY":
            raise BenchError(f"worker did not get ready: {' '.join(args)}")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, setup


def _finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: int, root: str) -> tuple[dict, dict]:
    """Run one workload; return (worker report, metrics by name -> (value, unit))."""
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", name, "--seed", str(seed)]
    setups = []
    modes = ["--setup-only"] * (SETUP_PROCESSES - 1)
    modes.insert(len(modes) // 2, None)
    for mode in [None] if trace else modes:
        flags = [mode] if mode else ["--seconds", str(seconds), "--trace", str(trace)]
        proc, setup = _start([*base, *flags], root, deadline)
        rep = json.loads(_finish(proc, deadline).strip().splitlines()[-1])
        setups.append(setup * rep["scale"])
        if mode is None:
            report = rep
    if trace:
        import tracer

        units = {**{m: spec[0] for m, spec in tracer.METRICS.items()}, **{m: u for m, (u, _) in tracer.CHECK_COUNTS.items()}}
        units["trace_overhead_frac"] = "ratio"
        metrics = {m: (v, units[m]) for m, v in report["layer"].items()}
    else:
        cold = report["passes"][0]["scaled_ops"]
        warm = [p["scaled_ops"] for p in report["passes"][1:]]
        values = {
            "pass_s": statistics.median(sum(ops) for ops in warm),
            "cold_pass_s": sum(cold),
            "op_p50_s": statistics.median(t for ops in warm for t in ops),
            "op_max_s": statistics.median(max(ops) for ops in warm),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        metrics = {m: (values[m], END_TO_END[m]) for m in END_TO_END}
    return report, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "infidelay", "__init__.py")):
        print("error: run from the repository root (no src/infidelay here)", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import calibrate

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    merged, attempted, failed = {}, 0, 0
    for name in names:
        try:
            report, metrics = run_workload(name, args.seed, args.seconds, args.trace, root)
        except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"error: {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        attempted += report["attempted"]
        failed += report["failed"]
        for op, msgs in report["failures"].items():
            print(f"{name} FAILED {op}: {'; '.join(msgs)}")
        passes = report["passes"]
        print(f"{name} failed_frac {report['failed'] / report['attempted']:.6g} ratio "
              f"({report['failed']} of {report['attempted']} ops; {len(passes) - 1} warm passes)")
        if not args.trace:
            print(f"{name} wall time: cold pass {passes[0]['seconds']:.4g} s, warm pass "
                  f"{statistics.median(p['seconds'] for p in passes[1:]):.4g} s (median); "
                  f"calibration kernel {report['kernel_s'] * 1e3:.3g} ms against {calibrate.REF_KERNEL_S * 1e3:g} ms")
        for metric, (value, unit) in metrics.items():
            print(f"{name} {metric} {value:.6g} {unit}")
        for metric in report.get("absent", []):
            print(f"{name} {metric} absent")
        prefix = f"{name}." if len(names) > 1 else ""
        merged.update({prefix + m: {"value": v, "unit": u} for m, (v, u) in metrics.items()})
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": merged}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
