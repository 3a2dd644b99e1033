"""The benchmark's workloads still run against the library's public API.

One pass of every workload in bench/workloads.py at the benchmark's seed; a
library change that makes an op raise, or a check fail, shows here rather
than as failed ops in a benchmark run.
"""

import os
import sys

import pytest

pytest.importorskip("mpmath")  # the deep-tail checks compare against mpmath's zeta

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
import workloads  # noqa: E402


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
