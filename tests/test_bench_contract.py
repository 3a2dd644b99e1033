"""The benchmark's workloads still run against the library's public API.

One pass of every workload in bench/workloads.py at the benchmark's seed; a
library change that makes an op raise, or a check fail, shows here rather
than as failed ops in a benchmark run.  One traced pass of each shows a
renamed or bypassed traced function, which would leave a per-layer metric
absent from the traced run.  One traced run of bench/run.py per workload
shows that the line it prints last is a strict-JSON result: a per-layer
ratio that turns NaN or inf would spoil it.
"""

import json
import math
import os
import subprocess
import sys

import pytest

pytest.importorskip("mpmath")  # the deep-tail checks compare against mpmath's zeta

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_pass_has_no_failed_op(name, tmp_path):
    wl = workloads.WORKLOADS[name](733, str(tmp_path))
    try:
        inputs = wl.build()
        state, raised = {}, {}
        for op_name, op in wl.ops(inputs):
            try:
                state[op_name] = op(state)
            except Exception as exc:  # counted as a failed op, as the worker does
                raised[op_name] = f"{type(exc).__name__}: {exc}"
        fails, _ = wl.check(inputs, state)
    finally:
        getattr(wl, "close", lambda: None)()
    assert raised == {}
    assert fails == {}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_traced_pass_reports_every_layer_metric(name, tmp_path):
    wl = workloads.WORKLOADS[name](733, str(tmp_path))
    tr = tracer.Tracer()
    try:
        inputs = wl.build()
        state = {}
        tr.install()
        try:
            for op_name, op in wl.ops(inputs):
                tr.op = op_name
                state[op_name] = op(state)
        finally:
            tr.uninstall()
    finally:
        getattr(wl, "close", lambda: None)()
    values, absent = tracer.pass_metrics(tr.spans, tr.present)
    assert absent == []
    assert all(math.isfinite(v) for v in values.values())
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        per_layer = {m["name"] for m in json.load(fh)["per_layer"]}
    assert per_layer - set(tracer.CHECK_COUNTS) - {"trace_overhead_frac"} <= set(values)


def _refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_deep_tail_run_ends_in_a_strict_json_result(name, tmp_path):
    # every workload (the name is deep-tail's, the first); run from a root
    # of symlinks, so the run's .bench_out/ lands in tmp_path
    for sub in ("src", "bench"):
        os.symlink(os.path.abspath(os.path.join(ROOT, sub)), tmp_path / sub)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", name, "--trace", "1", "--seconds", "0.3"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=_refuse_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert [line for line in proc.stdout.splitlines() if line.endswith(" absent")] == []
