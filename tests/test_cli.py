"""Command line: scenario running, exit codes, determinism, and output layout."""

import copy
import filecmp
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import infidelay
from infidelay.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_SCHEMA_ERROR, bundled_scenario_names, main
from infidelay.scenario import _parse_with_lines

BUNDLED = {
    "classic-delay",
    "harmonic-divergent",
    "geometric-l1",
    "cg-embedding",
    "affine-delays",
    "power-law-slow",
}


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_bundled_names_complete():
    assert set(bundled_scenario_names()) == BUNDLED


def test_version(capsys):
    code, out = run_cli(["version"], capsys)
    assert code == EXIT_OK
    assert out.strip() == "0.1.0"


def test_checks_catalog(capsys):
    code, out = run_cli(["checks"], capsys)
    assert code == EXIT_OK
    names = [line.split()[0] for line in out.strip().splitlines()]
    assert names == [
        "solve",
        "seminorms",
        "membership",
        "semigroup-law",
        "strong-continuity",
        "mild-solution",
        "estimates",
        "cg-embedding",
        "oracle-compare",
    ]


def test_all_bundled_scenarios_pass(tmp_path, capsys):
    code, out = run_cli(["run", *sorted(BUNDLED), "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    lines = [l for l in out.strip().splitlines() if l]
    assert len(lines) == len(BUNDLED)
    assert all(l.startswith("PASS") for l in lines)
    assert list(tmp_path.rglob("*.tmp")) == []


def test_classic_scenario_outputs(tmp_path, capsys):
    code, _ = run_cli(["run", "classic-delay", "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    scen_dir = tmp_path / "classic-delay"
    summary = json.loads((scen_dir / "summary.json").read_text())
    assert summary["passed"] is True
    assert [c["name"] for c in summary["checks"]] == [
        "solve",
        "seminorms",
        "membership",
        "semigroup-law",
        "strong-continuity",
        "mild-solution",
        "estimates",
        "cg-embedding",
        "oracle-compare",
    ]
    assert all(c["passed"] for c in summary["checks"])
    # the trajectory lands x(1) = 0 for the unit-delay problem, in its one file
    traj = json.loads((scen_dir / "trajectory.json").read_text())
    j = int(np.argmin(np.abs(np.array(traj["grid"]) - 1.0)))
    assert abs(traj["grid"][j] - 1.0) < 1e-12
    assert abs(traj["values"][j]) < 1e-6
    assert not (scen_dir / "trajectory.csv").exists()


def test_divergent_scenario_reports_refutation(tmp_path, capsys):
    code, out = run_cli(["run", "harmonic-divergent", "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    assert out.startswith("PASS")
    blob = json.loads((tmp_path / "harmonic-divergent" / "02-membership.json").read_text())
    assert blob["verdict"] == "not-member"


def test_missing_tau_is_a_schema_error(tmp_path, capsys):
    cfg = {
        "name": "no-tau",
        "problem": {
            "a": 0.0,
            "family": {"kind": "finite-support", "coeffs": [-1.0]},
            "history": {"preset": "constant"},
        },
        "horizon": 2.0,
        "checks": ["solve"],
    }
    path = tmp_path / "no-tau.json"
    path.write_text(json.dumps(cfg, indent=2))
    code, out = run_cli(["run", str(path), "--out", str(tmp_path / "out")], capsys)
    assert code == EXIT_SCHEMA_ERROR
    assert "tau" in out
    assert f"{path}:" in out  # anchored at a line of the offending file


def test_invalid_json_is_a_schema_error_with_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "name": "broken",\n  "problem": [,]\n}\n')
    code, out = run_cli(["run", str(path), "--out", str(tmp_path / "out")], capsys)
    assert code == EXIT_SCHEMA_ERROR
    assert f"{path}:3" in out


def test_a_byte_that_is_not_utf8_is_a_schema_error_at_its_line(tmp_path, capsys):
    # once a UnicodeDecodeError traceback; a scenario file is UTF-8 (RFC 8259)
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{\r\n  "name": "caf\xc3\xa9",\r\n  "problem": "na\xefve"\n}\n')
    code = main(["run", str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == EXIT_SCHEMA_ERROR
    assert f"{path}:3: not UTF-8: byte 0xef" in captured.out
    assert "Traceback" not in captured.out + captured.err
    assert _files_under(tmp_path / "out") == []


def test_a_scenario_nested_too_deeply_is_a_schema_error_at_its_line(tmp_path, capsys):
    # once a RecursionError traceback from the pure-Python scanner
    path = tmp_path / "deep.json"
    path.write_text('{\n  "name": "deep",\n  "problem": ' + "[" * 5000 + "]" * 5000 + "\n}\n")
    code = main(["run", str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == EXIT_SCHEMA_ERROR
    assert f"{path}:3: invalid JSON: nested deeper than 100 levels" in captured.out
    assert "Traceback" not in captured.out + captured.err
    assert _files_under(tmp_path / "out") == []
    # a hundred levels parse, and brackets inside strings do not nest
    data, _ = _parse_with_lines('{"name": "' + "[{" * 200 + '\\"]", "x": ' + "[" * 99 + "]" * 99 + "}")
    assert data["name"] == "[{" * 200 + '"]'
    # brackets after a string left open are its text: the scanner names the string
    with pytest.raises(json.JSONDecodeError, match="Unterminated string"):
        _parse_with_lines('{"name": "' + "[" * 200)


class _CountingText(str):
    """A str that adds up the span of text each count() call scans."""

    scanned = 0

    def count(self, sub, start=0, end=None):
        self.scanned += max(0, min(len(self), len(self) if end is None else end) - start)
        return super().count(sub, start, end)


def _core_scenario(pieces: int) -> dict:
    core = {"breakpoints": [(j - pieces) / 100 for j in range(pieces + 1)], "coeffs": [[1.0, 0.0, 0.0, 0.0]] * pieces}
    return {
        "name": "long-core",
        "problem": {
            "a": -0.5,
            "family": {"kind": "finite-support", "coeffs": [-1.0], "tau": {"delta": 1.0}},
            "history": {"core": core, "tail": {"kind": "constant", "value": 1.0}},
        },
        "horizon": 1.0,
        "checks": ["solve"],
    }


def test_the_line_map_scans_the_text_a_bounded_number_of_times():
    # once a count of the newlines before every key and entry: quadratic in the text
    raw = _CountingText(json.dumps(_core_scenario(2000), indent=2))
    data, spots = _parse_with_lines(raw)
    assert raw.scanned <= 3 * len(raw)
    # indent 2 puts each row's four entries and brackets on six lines, below the key's line
    key = str.count(raw, "\n", 0, raw.index('"coeffs"', raw.index('"core"'))) + 1
    rows = spots[id(data["problem"]["history"]["core"]["coeffs"])]
    assert rows[1] == key and rows[2] == {j: key + 1 + 6 * j for j in range(2000)}


def test_a_schema_error_deep_in_a_long_core_names_its_line(tmp_path, capsys):
    cfg = _core_scenario(8000)
    cfg["problem"]["history"]["core"]["coeffs"][-1] = [True, 0.0, 0.0, 0.0]
    text = json.dumps(cfg, indent=2)
    path = tmp_path / "long-core.json"
    path.write_text(text)
    line = text[: text.index("true")].count("\n") + 1
    code, out = run_cli(["run", str(path), "--out", str(tmp_path / "out")], capsys)
    assert code == EXIT_SCHEMA_ERROR
    assert f"{path}:{line}: history.core.coeffs entry entry must be float, got bool" in out


def test_unknown_check_is_a_schema_error(tmp_path, capsys):
    cfg = {
        "name": "bad-check",
        "problem": {
            "a": 0.0,
            "family": {"kind": "finite-support", "coeffs": [-1.0], "tau": {"delta": 1.0}},
            "history": {"preset": "constant"},
        },
        "horizon": 2.0,
        "checks": ["does-not-exist"],
    }
    path = tmp_path / "bad-check.json"
    path.write_text(json.dumps(cfg, indent=2))
    code, out = run_cli(["run", str(path), "--out", str(tmp_path / "out")], capsys)
    assert code == EXIT_SCHEMA_ERROR
    assert "does-not-exist" in out


def _set_tau_prefix(cfg):
    cfg["problem"]["family"]["tau"]["prefix"] = ["x", 0.9]


def _set_coeff_null(cfg):
    cfg["problem"]["family"]["coeffs"][0] = None


def _set_tau_delta(cfg):
    cfg["problem"]["family"]["tau"]["delta"] = -1


def _set_a_nan(cfg):
    cfg["problem"]["a"] = math.nan


def _set_h_zero(cfg):
    cfg["solver"] = {"h": 0}


def _set_eps_forcing_negative(cfg):
    cfg["solver"] = {"eps_forcing": -1}


def _set_eps_forcing_zero(cfg):
    cfg["solver"] = {"eps_forcing": 0}


def _set_eps_tail_seminorm_zero(cfg):
    cfg["solver"] = {"eps_tail_seminorm": 0}


def _params(cfg, name):
    """The parameter object of the named check, appended if the scenario lacks the check."""
    cfg["checks"] = [c if isinstance(c, dict) else {"name": c} for c in cfg["checks"]]
    for entry in cfg["checks"]:
        if entry["name"] == name:
            return entry
    cfg["checks"].append({"name": name})
    return cfg["checks"][-1]


def _set_point_without_x(cfg):
    _params(cfg, "solve")["expect_points"] = [{"t": 1.0}]


def _set_points_string(cfg):
    _params(cfg, "solve")["expect_points"] = "abc"


def _set_k_list_null(cfg):
    _params(cfg, "estimates")["k_list"] = [None]


def _set_k_max_null(cfg):
    _params(cfg, "seminorms")["k_max"] = None


def _set_t_grid_null(cfg):
    _params(cfg, "mild-solution")["t_grid"] = [None]


def _set_t_grid_empty(cfg):
    _params(cfg, "mild-solution")["t_grid"] = []


def _set_t_grid_negative(cfg):
    _params(cfg, "mild-solution")["t_grid"] = [-1.0]


def _set_theta_grid_empty(cfg):
    _params(cfg, "mild-solution")["theta_grid"] = []


def _set_theta_grid_positive(cfg):
    _params(cfg, "mild-solution")["theta_grid"] = [0.5]


def _set_times_increasing(cfg):
    _params(cfg, "strong-continuity")["times"] = [0.1, 0.2]


def _set_weight_string(cfg):
    _params(cfg, "cg-embedding")["weight"] = "exp"


def _set_coeffs_nan(cfg):
    cfg["problem"]["family"]["coeffs"][0] = math.nan


def _set_a_false(cfg):
    # a JSON boolean is no number, though Python's bool is an int
    cfg["problem"]["a"] = False


def _set_k_max_true(cfg):
    _params(cfg, "seminorms")["k_max"] = True


def _set_coeffs_true(cfg):
    cfg["problem"]["family"]["coeffs"][1] = True


def _files_under(root):
    return [os.path.join(d, f) for d, _, fs in os.walk(root) for f in fs]


def _set_weight_base_zero(cfg):
    _params(cfg, "cg-embedding")["weight"] = {"form": "exponential", "base": 0}


def _set_weight_degree_negative(cfg):
    _params(cfg, "cg-embedding")["weight"] = {"form": "polynomial", "degree": -1}


def _set_oracle_tolerance_string(cfg):
    # "tolerance" is also a key of the earlier mild-solution entry
    _params(cfg, "oracle-compare")["tolerance"] = "x"


def _set_law_past_horizon(cfg):
    _params(cfg, "semigroup-law")["s"] = 6.0  # t + s = 6.3, horizon 6


def _set_times_past_horizon(cfg):
    _params(cfg, "strong-continuity")["times"] = [7.0, 0.1]


def _set_t_grid_past_horizon(cfg):
    _params(cfg, "mild-solution")["t_grid"] = [0.0, 7.0]


def _set_tolerence(cfg):
    _params(cfg, "mild-solution")["tolerence"] = 1e-6


def _set_horizn(cfg):
    cfg["horizn"] = 6.0


def _set_drift(cfg):
    cfg["problem"]["drift"] = 0.1


def _set_delt(cfg):
    cfg["problem"]["family"]["tau"]["delt"] = 0.5


def _set_rho_on_finite_support(cfg):
    cfg["problem"]["family"]["rho"] = 0.5


def _set_depht(cfg):
    cfg["problem"]["history"]["depht"] = 4.0


def _set_core_tail_valu(cfg):
    core = {"breakpoints": [-1.0, 0.0], "coeffs": [[1.0, 0.0, 0.0, 0.0]]}
    cfg["problem"]["history"] = {"core": core, "tail": {"kind": "constant", "value": 1.0, "valu": 1.0}}


def _set_eps_forcng(cfg):
    cfg["solver"] = {"eps_forcng": 1e-9}


def _set_solver_quad(cfg):
    cfg["solver"] = {"quad": "simpson"}


def _set_weight_bse(cfg):
    _params(cfg, "cg-embedding")["weight"] = {"form": "exponential", "base": 2.0, "bse": 3.0}


def _set_point_tl(cfg):
    _params(cfg, "solve")["expect_points"] = [{"t": 1.0, "x": 0.0, "tl": 1e-8}]


def _set_oracle_n_trunc(cfg):
    _params(cfg, "oracle-compare")["n_trunc"] = 40


def _set_problem_kind(cfg):
    # "kind" is also a key of the earlier family object
    cfg["problem"]["kind"] = "x"


def _set_second_point_tol(cfg):
    # the first entry has a "tol" of its own
    _params(cfg, "solve")["expect_points"] = [{"t": 1.0, "x": 0.0, "tol": 1e-8}, {"t": 2.0, "x": 0.0, "tol": "x"}]


def _set_cos_tail_omega_zero(cfg):
    core = {"breakpoints": [-1.0, 0.0], "coeffs": [[1.0, 0.0, 0.0, 0.0]]}
    cfg["problem"]["history"] = {"core": core, "tail": {"kind": "cos", "amp": 1.0, "omega": 0.0}}


def _set_horizon_cube_subnormal(cfg):
    # 1e-110 cubed is subnormal: no step of the march could be fitted
    cfg["horizon"] = 1e-110


def _set_tail_without_kind(cfg):
    core = {"breakpoints": [-1.0, 0.0], "coeffs": [[1.0, 0.0, 0.0, 0.0]]}
    cfg["problem"]["history"] = {"core": core, "tail": {"value": 1.0}}


def _set_estimates_k_max(cfg):
    _params(cfg, "estimates")["k_max"] = 2


def _set_k_max_fraction(cfg):
    # a whole-number key is not truncated
    _params(cfg, "seminorms")["k_max"] = 2.5


def _set_weight_degree_fraction(cfg):
    _params(cfg, "cg-embedding")["weight"] = {"form": "polynomial", "degree": 2.5}


def _set_core_coeff_null(cfg):
    # a null core coefficient is an error, not a NaN in the history
    core = {"breakpoints": [-1.0, 0.0], "coeffs": [[None, 0.0, 0.0, 0.0]]}
    cfg["problem"]["history"] = {"core": core, "tail": {"kind": "constant", "value": 1.0}}


def _set_resolution_zero(cfg):
    # once a ZeroDivisionError traceback
    cfg["problem"]["history"]["resolution"] = 0


def _set_resolution_negative(cfg):
    # once a silent 2-piece core
    cfg["problem"]["history"]["resolution"] = -0.05


def _set_resolution_too_fine(cfg):
    # once a 58 TiB allocation in np.linspace
    cfg["problem"]["history"].update(depth=8.0, resolution=1e-12)


def _set_continuity_k_zero(cfg):
    _params(cfg, "strong-continuity")["k"] = 0


def _set_continuity_threshold_negative(cfg):
    _params(cfg, "strong-continuity")["threshold"] = -0.1


def _set_estimates_k_list_zero(cfg):
    _params(cfg, "estimates")["k_list"] = [0]


def _set_law_k_list_zero(cfg):
    _params(cfg, "semigroup-law")["k_list"] = [0]


def _set_estimates_k_list_empty(cfg):
    # once a passing check with no certificates
    _params(cfg, "estimates")["k_list"] = []


def _set_law_k_list_empty(cfg):
    # once a passing check with no rows and max_discrepancy 0
    _params(cfg, "semigroup-law")["k_list"] = []


def _set_estimates_k_past_horizon(cfg):
    # once a solve that ran and then failed the check, exiting 1 (tau_1 = 0.4, horizon 6)
    _params(cfg, "estimates")["k_list"] = [1, 16]


def _set_law_t_negative(cfg):
    _params(cfg, "semigroup-law")["t"] = -0.5  # t + s = 0 is within the horizon


def _set_oracle_h_fine_negative(cfg):
    _params(cfg, "oracle-compare")["h_fine"] = -0.1


def _set_mild_tolerance_negative(cfg):
    _params(cfg, "mild-solution")["tolerance"] = -1


def _set_seminorms_k_max_zero(cfg):
    # once a passing check with no rows
    _params(cfg, "seminorms")["k_max"] = 0


def _set_membership_expect_unknown(cfg):
    _params(cfg, "membership")["expect"] = "banana"


def _set_solve_expect_unknown(cfg):
    # once passed: a successful solve read no expect
    _params(cfg, "solve")["expect"] = "banana"


def _set_tau_c_with_prefix(cfg):
    # once silently ignored beside the prefix
    cfg["problem"]["family"]["tau"]["c"] = 5.0


def _set_point_tol_negative(cfg):
    # once a check that could never pass, exiting 1
    _params(cfg, "solve")["expect_points"] = [{"t": 1.0, "x": 0.0, "tol": 1e-8}, {"t": 2.0, "x": 0.0, "tol": -1.0}]


def _set_point_past_horizon(cfg):
    # once a solve that ran and failed with "evaluation beyond horizon", exiting 1
    _params(cfg, "solve")["expect_points"] = [{"t": 1.0, "x": 0.0, "tol": 1e-8}, {"t": 7.0, "x": 0.0}]


def _problem(cfg):
    return cfg["problem"]


# each mutator's anchor: the (container, key) whose line the error must name,
# a missing key being anchored at the object that lacks it
_ANCHORS = {
    _set_tau_prefix: lambda c: (_problem(c)["family"]["tau"]["prefix"], 0),
    _set_coeff_null: lambda c: (_problem(c)["family"]["coeffs"], 0),
    _set_tau_delta: lambda c: (_problem(c), "family"),
    _set_a_nan: lambda c: (_problem(c), "a"),
    _set_h_zero: lambda c: (c, "solver"),
    _set_eps_forcing_negative: lambda c: (c, "solver"),
    _set_eps_forcing_zero: lambda c: (c, "solver"),
    _set_eps_tail_seminorm_zero: lambda c: (c, "solver"),
    _set_point_without_x: lambda c: (_params(c, "solve")["expect_points"], 0),
    _set_points_string: lambda c: (_params(c, "solve"), "expect_points"),
    _set_k_list_null: lambda c: (_params(c, "estimates")["k_list"], 0),
    _set_k_max_null: lambda c: (_params(c, "seminorms"), "k_max"),
    _set_t_grid_null: lambda c: (_params(c, "mild-solution")["t_grid"], 0),
    _set_t_grid_empty: lambda c: (_params(c, "mild-solution"), "t_grid"),
    _set_t_grid_negative: lambda c: (_params(c, "mild-solution"), "t_grid"),
    _set_theta_grid_empty: lambda c: (_params(c, "mild-solution"), "theta_grid"),
    _set_theta_grid_positive: lambda c: (_params(c, "mild-solution"), "theta_grid"),
    _set_times_increasing: lambda c: (_params(c, "strong-continuity"), "times"),
    _set_weight_string: lambda c: (_params(c, "cg-embedding"), "weight"),
    _set_coeffs_nan: lambda c: (_problem(c)["family"]["coeffs"], 0),
    _set_weight_base_zero: lambda c: (_params(c, "cg-embedding"), "weight"),
    _set_weight_degree_negative: lambda c: (_params(c, "cg-embedding"), "weight"),
    _set_oracle_tolerance_string: lambda c: (_params(c, "oracle-compare"), "tolerance"),
    _set_law_past_horizon: lambda c: (_params(c, "semigroup-law"), "s"),
    _set_times_past_horizon: lambda c: (_params(c, "strong-continuity"), "times"),
    _set_t_grid_past_horizon: lambda c: (_params(c, "mild-solution"), "t_grid"),
    _set_tolerence: lambda c: (_params(c, "mild-solution"), "tolerence"),
    _set_horizn: lambda c: (c, "horizn"),
    _set_drift: lambda c: (_problem(c), "drift"),
    _set_delt: lambda c: (_problem(c)["family"]["tau"], "delt"),
    _set_rho_on_finite_support: lambda c: (_problem(c)["family"], "rho"),
    _set_depht: lambda c: (_problem(c)["history"], "depht"),
    _set_core_tail_valu: lambda c: (_problem(c)["history"]["tail"], "valu"),
    _set_eps_forcng: lambda c: (c["solver"], "eps_forcng"),
    _set_solver_quad: lambda c: (c["solver"], "quad"),
    _set_weight_bse: lambda c: (_params(c, "cg-embedding")["weight"], "bse"),
    _set_point_tl: lambda c: (_params(c, "solve")["expect_points"][0], "tl"),
    _set_oracle_n_trunc: lambda c: (_params(c, "oracle-compare"), "n_trunc"),
    _set_problem_kind: lambda c: (_problem(c), "kind"),
    _set_second_point_tol: lambda c: (_params(c, "solve")["expect_points"][1], "tol"),
    _set_tail_without_kind: lambda c: (_problem(c)["history"], "tail"),
    _set_cos_tail_omega_zero: lambda c: (_problem(c)["history"], "tail"),
    _set_horizon_cube_subnormal: lambda c: (c, "horizon"),
    _set_estimates_k_max: lambda c: (_params(c, "estimates"), "k_max"),
    _set_k_max_fraction: lambda c: (_params(c, "seminorms"), "k_max"),
    _set_weight_degree_fraction: lambda c: (_params(c, "cg-embedding")["weight"], "degree"),
    _set_core_coeff_null: lambda c: (_problem(c)["history"]["core"]["coeffs"][0], 0),
    _set_resolution_zero: lambda c: (_problem(c), "history"),
    _set_resolution_negative: lambda c: (_problem(c), "history"),
    _set_resolution_too_fine: lambda c: (_problem(c), "history"),
    _set_continuity_k_zero: lambda c: (_params(c, "strong-continuity"), "k"),
    _set_continuity_threshold_negative: lambda c: (_params(c, "strong-continuity"), "threshold"),
    _set_estimates_k_list_zero: lambda c: (_params(c, "estimates"), "k_list"),
    _set_law_k_list_zero: lambda c: (_params(c, "semigroup-law"), "k_list"),
    _set_estimates_k_list_empty: lambda c: (_params(c, "estimates"), "k_list"),
    _set_law_k_list_empty: lambda c: (_params(c, "semigroup-law"), "k_list"),
    _set_estimates_k_past_horizon: lambda c: (_params(c, "estimates"), "k_list"),
    _set_law_t_negative: lambda c: (_params(c, "semigroup-law"), "t"),
    _set_oracle_h_fine_negative: lambda c: (_params(c, "oracle-compare"), "h_fine"),
    _set_mild_tolerance_negative: lambda c: (_params(c, "mild-solution"), "tolerance"),
    _set_seminorms_k_max_zero: lambda c: (_params(c, "seminorms"), "k_max"),
    _set_membership_expect_unknown: lambda c: (_params(c, "membership"), "expect"),
    _set_solve_expect_unknown: lambda c: (_params(c, "solve"), "expect"),
    _set_tau_c_with_prefix: lambda c: (_problem(c), "family"),
    _set_point_tol_negative: lambda c: (_params(c, "solve")["expect_points"][1], "tol"),
    _set_point_past_horizon: lambda c: (_params(c, "solve")["expect_points"][1], "t"),
    _set_a_false: lambda c: (_problem(c), "a"),
    _set_k_max_true: lambda c: (_params(c, "seminorms"), "k_max"),
    _set_coeffs_true: lambda c: (_problem(c)["family"]["coeffs"], 1),
}


def _anchor_line(cfg, locate):
    """The line json.dumps(cfg, indent=2) puts the anchored key or entry on.

    A marker in place of its value leaves every line before it where it was.
    """
    probe = copy.deepcopy(cfg)
    container, key = locate(probe)
    container[key] = "@anchor@"
    return next(i for i, ln in enumerate(json.dumps(probe, indent=2).splitlines(), start=1) if '"@anchor@"' in ln)


@pytest.mark.parametrize(
    "mutate",
    [
        _set_tau_prefix,
        _set_coeff_null,
        _set_tau_delta,
        _set_a_nan,
        _set_h_zero,
        _set_eps_forcing_negative,
        _set_eps_forcing_zero,
        _set_eps_tail_seminorm_zero,
        _set_point_without_x,
        _set_points_string,
        _set_k_list_null,
        _set_k_max_null,
        _set_t_grid_null,
        _set_t_grid_empty,
        _set_t_grid_negative,
        _set_theta_grid_empty,
        _set_theta_grid_positive,
        _set_times_increasing,
        _set_weight_string,
        _set_coeffs_nan,
        _set_weight_base_zero,
        _set_weight_degree_negative,
        _set_oracle_tolerance_string,
        _set_law_past_horizon,
        _set_times_past_horizon,
        _set_t_grid_past_horizon,
        _set_tolerence,
        _set_horizn,
        _set_drift,
        _set_delt,
        _set_rho_on_finite_support,
        _set_depht,
        _set_core_tail_valu,
        _set_eps_forcng,
        _set_solver_quad,
        _set_weight_bse,
        _set_point_tl,
        _set_oracle_n_trunc,
        _set_problem_kind,
        _set_second_point_tol,
        _set_tail_without_kind,
        _set_cos_tail_omega_zero,
        _set_horizon_cube_subnormal,
        _set_estimates_k_max,
        _set_k_max_fraction,
        _set_weight_degree_fraction,
        _set_core_coeff_null,
        _set_resolution_zero,
        _set_resolution_negative,
        _set_resolution_too_fine,
        _set_continuity_k_zero,
        _set_continuity_threshold_negative,
        _set_estimates_k_list_zero,
        _set_law_k_list_zero,
        _set_estimates_k_list_empty,
        _set_law_k_list_empty,
        _set_estimates_k_past_horizon,
        _set_law_t_negative,
        _set_oracle_h_fine_negative,
        _set_mild_tolerance_negative,
        _set_seminorms_k_max_zero,
        _set_membership_expect_unknown,
        _set_solve_expect_unknown,
        _set_tau_c_with_prefix,
        _set_point_tol_negative,
        _set_point_past_horizon,
        _set_a_false,
        _set_k_max_true,
        _set_coeffs_true,
    ],
)
def test_invalid_values_are_schema_errors(tmp_path, capsys, mutate):
    import importlib.resources as res

    cfg = json.loads((res.files("infidelay") / "scenarios" / "affine-delays.json").read_text())
    mutate(cfg)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(cfg, indent=2))
    code = main(["run", str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == EXIT_SCHEMA_ERROR
    assert f"{path}:" in captured.out
    assert "<params>" not in captured.out
    assert "Traceback" not in captured.out + captured.err
    assert _files_under(tmp_path / "out") == []
    line = int(captured.out.split(f"{path}:")[1].split(":")[0])
    assert line == _anchor_line(cfg, _ANCHORS[mutate]), captured.out


@pytest.mark.parametrize(
    "mutate, message",
    [
        (_set_a_false, "problem.a must be float, got bool"),
        (_set_k_max_true, "k_max must be int, got bool"),
        (_set_coeffs_true, "coeffs entry must be float, got bool"),
    ],
)
def test_a_boolean_is_not_a_number(tmp_path, capsys, mutate, message):
    import importlib.resources as res

    cfg = json.loads((res.files("infidelay") / "scenarios" / "affine-delays.json").read_text())
    mutate(cfg)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(cfg, indent=2))
    code, out = run_cli(["run", str(path), "--out", str(tmp_path / "out")], capsys)
    assert code == EXIT_SCHEMA_ERROR and message in out, out


def test_power_law_oracle_compare_passes_at_default_parameters(tmp_path, capsys):
    # b_i = i^-3 from a constant history: the solve certifies N = 8, the tail
    # floor, with the closed-form part past it, and the oracle must sum the
    # same certified series, not a fixed head of it
    cfg = {
        "name": "power-law-oracle",
        "problem": {
            "a": -0.5,
            "family": {"kind": "power-law", "beta": 1.0, "p": 3.0, "tau": {"delta": 1.0}},
            "history": {"preset": "constant"},
        },
        "horizon": 1.0,
        "checks": ["solve", "oracle-compare"],
    }
    path = tmp_path / "power-law-oracle.json"
    path.write_text(json.dumps(cfg, indent=2))
    code, _ = run_cli(["run", str(path), "--out", str(tmp_path / "out")], capsys)
    blob = json.loads((tmp_path / "out" / "power-law-oracle" / "02-oracle-compare.json").read_text())
    assert code == EXIT_OK, blob
    assert blob["oracle_n_trunc"] == 8 and blob["max_difference"] <= blob["tolerance"] == 1e-6


_G2 = {"form": "exponential", "base": 2.0}
# an explicit core per tail kind, each meeting its tail at the core's first breakpoint
_EXPLICIT_CORES = {
    "constant": ([-1.0, 0.0], [[1.0, 0.0, 0.0, 0.0]], {"kind": "constant", "value": 1.0}),
    "cos": ([-2.0, 0.0], [[-1.0, 1.0, 0.0, 0.0]], {"kind": "cos", "amp": 1.0, "omega": 0.5 * math.pi}),
    "exp-decay": ([-1.0, 0.0], [[math.exp(-1.0), 1.0 - math.exp(-1.0), 0.0, 0.0]], {"kind": "exp-decay", "amp": 1.0, "rate": 1.0}),
    "g-envelope": ([-1.0, 0.0], [[2.0, -1.0, 0.0, 0.0]], {"kind": "g-envelope", "scale": 1.0, "weight": _G2}),
}


@pytest.mark.parametrize("kind", list(_EXPLICIT_CORES))
def test_explicit_core_scenarios_run(tmp_path, capsys, kind):
    breakpoints, coeffs, tail = _EXPLICIT_CORES[kind]
    cfg = {
        "name": "explicit-core",
        "problem": {
            "a": 0.1,
            "family": {"kind": "geometric", "beta": 1.0, "rho": 0.25, "tau": {"c": 0.0, "delta": 1.0}},
            "history": {"core": {"breakpoints": breakpoints, "coeffs": coeffs}, "tail": tail},
        },
        "horizon": 2.0,
        "checks": [
            "solve",
            {"name": "membership", "expect": "member"},
            {"name": "cg-embedding", "weight": _G2, "expect": "holds"},
        ],
    }
    path = tmp_path / "explicit-core.json"
    path.write_text(json.dumps(cfg, indent=2))
    code, out = run_cli(["run", str(path), "--out", str(tmp_path / "out")], capsys)
    assert code == EXIT_OK, out
    scen = tmp_path / "out" / "explicit-core"
    assert json.loads((scen / "02-membership.json").read_text())["verdict"] == "member"
    assert json.loads((scen / "03-cg-embedding.json").read_text())["holds"] is True


@pytest.mark.parametrize("q", [1, 2])
def test_envelope_shifted_past_the_core_is_a_schema_error(tmp_path, capsys, q):
    # 0.6 (1 - theta - 3)^q turns negative below a core of depth 0.5; accepted,
    # p_1 read 0.75 (q = 1) and 1.575 (q = 2) against sampled sums 0.90 and 1.725
    cfg = {
        "name": "deep-shift",
        "problem": {
            "a": 0.0,
            "family": {"kind": "geometric", "beta": 1.0, "rho": 0.5, "tau": {"c": 0.0, "delta": 1.0}},
            "history": {
                "core": {"breakpoints": [-0.5, 0.0], "coeffs": [[0.6 * (-1.5) ** q, 0.0, 0.0, 0.0]]},
                "tail": {"kind": "g-envelope", "scale": 0.6, "shift": 3.0, "weight": {"form": "polynomial", "degree": q}},
            },
        },
        "horizon": 1.0,
        "checks": ["seminorms"],
    }
    path = tmp_path / "deep-shift.json"
    path.write_text(json.dumps(cfg, indent=2))
    code, out = run_cli(["run", str(path), "--out", str(tmp_path / "out")], capsys)
    assert code == EXIT_SCHEMA_ERROR
    assert re.search(rf"{re.escape(str(path))}:\d+: scenario\.problem\.history: envelope shift 3\.0 exceeds the core depth 0\.5", out)


@pytest.mark.parametrize("rate", [0.0, -1.0])
def test_exp_decay_tail_without_a_positive_rate_is_a_schema_error(tmp_path, capsys, rate):
    # ExpTail takes either sign, but a scenario's exp-decay tail stays decaying
    cfg = {
        "name": "growing-exp-decay",
        "problem": {
            "a": 0.0,
            "family": {"kind": "geometric", "beta": 1.0, "rho": 0.25, "tau": {"c": 0.0, "delta": 1.0}},
            "history": {
                "core": {"breakpoints": [-1.0, 0.0], "coeffs": [[math.exp(-rate), 0.0, 0.0, 0.0]]},
                "tail": {"kind": "exp-decay", "amp": 1.0, "rate": rate},
            },
        },
        "horizon": 1.0,
        "checks": ["seminorms"],
    }
    path = tmp_path / "growing-exp-decay.json"
    path.write_text(json.dumps(cfg, indent=2))
    code, out = run_cli(["run", str(path), "--out", str(tmp_path / "out")], capsys)
    assert code == EXIT_SCHEMA_ERROR
    assert re.search(rf"{re.escape(str(path))}:\d+: .*tail: decaying tail needs rate > 0, got {rate}", out), out


def test_g_envelope_of_a_constant_or_exponential_weight_keeps_its_values():
    # a shifted envelope of these weights was scale e^{-gamma shift} w(theta);
    # it now loads as the constant or growing ExpFormTail it equals, bit for bit,
    # with sigma +0.0 under a constant weight
    from infidelay.scenario import _Anchored, _build_tail

    thetas = np.linspace(-40.0, -8.0, 33)
    for weight, tail, values in [
        ({"form": "constant", "level": 2.0}, infidelay.ConstantTail(0.6 * 2.0), 0.6 * np.full_like(thetas, 2.0)),
        (
            {"form": "exponential", "gamma": 0.3},
            infidelay.ExpTail(0.6 * math.exp(-0.3 * 0.7), -0.3),
            0.6 * math.exp(-0.3 * 0.7) * np.exp(-0.3 * thetas),
        ),
    ]:
        got = _build_tail({"kind": "g-envelope", "scale": 0.6, "shift": 0.7, "weight": weight}, _Anchored(None, "<test>"))
        assert got == tail and np.array_equal(got.evaluate(thetas), values)
        assert math.copysign(1.0, got.sigma) == math.copysign(1.0, tail.sigma)

def _bundled_cfg(name):
    import importlib.resources as res

    return json.loads((res.files("infidelay") / "scenarios" / f"{name}.json").read_text())


def _solves_before_exit(cfg, tmp_path, capsys, monkeypatch) -> list:
    """Run cfg through the CLI, assert it exits 2, and return the scenario.solve calls made first."""
    from infidelay import scenario

    solves = []
    real_solve = scenario.solve
    monkeypatch.setattr(scenario, "solve", lambda *args, **kwargs: solves.append(args) or real_solve(*args, **kwargs))
    path = tmp_path / "late-error.json"
    path.write_text(json.dumps(cfg, indent=2))
    code, out = run_cli(["run", str(path), "--out", str(tmp_path / "out")], capsys)
    assert code == EXIT_SCHEMA_ERROR, out
    return solves


def test_a_type_error_in_the_last_check_stops_before_any_check_runs(tmp_path, capsys, monkeypatch):
    cfg = _bundled_cfg("affine-delays")
    _set_oracle_tolerance_string(cfg)
    assert cfg["checks"][-1]["name"] == "oracle-compare"
    assert _solves_before_exit(cfg, tmp_path, capsys, monkeypatch) == []


@pytest.mark.parametrize(
    "extra",
    [
        {"name": "semigroup-law", "t": 5.0, "s": 5.0},
        {"name": "strong-continuity", "times": [99.0, 0.1]},
        {"name": "mild-solution", "t_grid": [0.0, 99.0]},
        {"name": "oracle-compare", "h_fine": -0.1},
        {"name": "estimates", "k_list": [1, 9]},
    ],
    ids=["law-t-plus-s", "continuity-times", "mild-t-grid", "oracle-h-fine", "estimates-k-tau1"],
)
def test_a_horizon_range_error_in_the_last_check_stops_before_any_check_runs(extra, tmp_path, capsys, monkeypatch):
    # geometric-l1 has horizon 8 and runs solve first; each extra check asks past it
    cfg = _bundled_cfg("geometric-l1")
    cfg["checks"].append(extra)
    assert _solves_before_exit(cfg, tmp_path, capsys, monkeypatch) == []


def _run_cfg(cfg, tmp_path, capsys) -> tuple:
    path = tmp_path / "short.json"
    path.write_text(json.dumps(cfg, indent=2))
    code, out = run_cli(["run", str(path), "--out", str(tmp_path / "out")], capsys)
    return code, out, path


def test_a_bare_estimates_below_tau1_is_a_schema_error_at_its_entry(tmp_path, capsys):
    # its default k_list 1..floor(horizon / tau_1) is empty: once a passing check with no certificates
    cfg = _bundled_cfg("classic-delay")
    cfg["horizon"], cfg["checks"] = 0.5, ["solve", "estimates"]
    code, out, path = _run_cfg(cfg, tmp_path, capsys)
    assert code == EXIT_SCHEMA_ERROR
    assert f"{path}:{_anchor_line(cfg, lambda c: (c['checks'], 1))}: k_list must be nonempty" in out, out
    assert _files_under(tmp_path / "out") == []


def test_a_bare_strong_continuity_fits_its_times_to_a_short_horizon(tmp_path, capsys):
    # the default times are [0.1, 0.01, 0.001] * min(tau_1, horizon): once 0.1 tau_1 = 0.1, past the horizon, exiting 2
    cfg = _bundled_cfg("classic-delay")
    cfg["horizon"], cfg["checks"] = 0.05, ["strong-continuity"]
    code, out, _ = _run_cfg(cfg, tmp_path, capsys)
    assert code == EXIT_OK, out
    report = json.loads((tmp_path / "out" / "classic-delay" / "01-strong-continuity.json").read_text())
    assert report["times"] == [0.1 * 0.05, 0.01 * 0.05, 0.001 * 0.05]
    assert report["passed"] is True


@pytest.mark.parametrize("name, code", [("harmonic-divergent", EXIT_OK), ("classic-delay", EXIT_CHECK_FAILED)])
def test_solve_expecting_refusal_passes_only_when_refused(tmp_path, capsys, name, code):
    # b_i = 1/i diverges from the constant history, so the solve is refused;
    # classic-delay solves, and a refusal that did not happen is a failure
    cfg = _bundled_cfg(name)
    cfg["checks"] = [{"name": "solve", "expect": "not-in-phase-space"}]
    path = tmp_path / "refusal.json"
    path.write_text(json.dumps(cfg, indent=2))
    assert run_cli(["run", str(path), "--out", str(tmp_path / "out")], capsys)[0] == code


def test_docstring_check_rows_name_the_keys_of_each_check():
    # the "Check parameters" rows of the scenario module docstring restate CHECKS:
    # each row names its check's keys and those of its entry tables, parentheses aside
    from infidelay import scenario

    rows = scenario.__doc__.split("Check parameters")[1].split("\n\n")[1].splitlines()
    named = {}
    for row in rows:
        cname, rest = row.split(None, 1)
        stripped = 1
        while stripped:
            rest, stripped = re.subn(r"\([^()]*\)", "", rest)
        named[cname] = set(re.findall(r"[a-z_]+", rest))

    def keys_of(table):
        return set(table) | {key for spec in table.values() for t in spec[2:] if isinstance(t, dict) for key in t}

    assert named == {name: keys_of(table) for name, (_, _, table) in scenario.CHECKS.items()}


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [leaf for key, child in items for leaf in _leaf_paths(child, path + (key,))]


FUZZ_SITES = [(name, path) for name in sorted(BUNDLED) for path in _leaf_paths(_bundled_cfg(name))]


@settings(max_examples=25)
@given(
    site=st.sampled_from(FUZZ_SITES),
    value=st.sampled_from([None, "x", math.nan, -1, 0, [], {}]),
)
def test_fuzzed_bundled_scenarios_exit_with_a_code(site, value):
    # one leaf of a bundled scenario replaced: a report, a check failure or a schema error
    name, path = site
    cfg = _bundled_cfg(name)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        scen = os.path.join(tmp, "fuzzed.json")
        with open(scen, "w") as fh:
            json.dump(cfg, fh, indent=2)
        code = main(["run", scen, "--out", os.path.join(tmp, "out")])
        written = _files_under(os.path.join(tmp, "out"))
    assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_SCHEMA_ERROR)
    if code == EXIT_SCHEMA_ERROR:
        assert written == []


def test_unknown_scenario_name_lists_bundled(tmp_path, capsys):
    code, out = run_cli(["run", "no-such-scenario", "--out", str(tmp_path)], capsys)
    assert code == EXIT_SCHEMA_ERROR
    assert "classic-delay" in out


def test_check_failure_exits_one(tmp_path, capsys):
    cfg = {
        "name": "wrong-pin",
        "problem": {
            "a": 0.0,
            "family": {"kind": "finite-support", "coeffs": [-1.0], "tau": {"delta": 1.0}},
            "history": {"preset": "constant"},
        },
        "horizon": 2.0,
        "checks": [
            {
                "name": "solve",
                "expect_points": [{"t": 1.0, "x": 0.75, "tol": 1e-8}],
            }
        ],
    }
    path = tmp_path / "wrong-pin.json"
    path.write_text(json.dumps(cfg, indent=2))
    code, out = run_cli(["run", str(path), "--out", str(tmp_path / "out")], capsys)
    assert code == EXIT_CHECK_FAILED
    assert out.startswith("FAIL")


def test_an_overflowing_solution_fails_its_checks(tmp_path, capsys):
    # the solution passes 1.8e308 before t = 1: each check that solves
    # reports the OverflowError, and no report holds an infinite node
    cfg = {
        "name": "overflow",
        "problem": {
            "a": 800.0,
            "family": {"kind": "finite-support", "coeffs": [1.0], "tau": {"delta": 1.0}},
            "history": {"preset": "constant"},
        },
        "horizon": 1.5,
        "checks": ["solve", "oracle-compare"],
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(cfg, indent=2))
    code, out = run_cli(["run", str(path), "--out", str(tmp_path / "out")], capsys)
    assert code == EXIT_CHECK_FAILED and out.startswith("FAIL")
    for name in ("01-solve.json", "02-oracle-compare.json"):
        report = json.loads((tmp_path / "out" / "overflow" / name).read_text())
        assert report["passed"] is False
        assert report["error"].startswith("OverflowError: the solution leaves the floating-point range after t = ")


@pytest.mark.parametrize("horizon, solver", [(1e9, {}), (8.0, {"h": 1e-300})], ids=["long-horizon", "tiny-h"])
def test_a_march_too_long_to_hold_fails_its_checks(tmp_path, capsys, horizon, solver):
    # each march is refused before it allocates: the checks that solve fail
    # with the step count, the others run, and nothing ends in a traceback
    cfg = {
        "name": "too-long",
        "problem": {
            "a": 0.0,
            "family": {"kind": "finite-support", "coeffs": [-1.0], "tau": {"delta": 1.0}},
            "history": {"preset": "constant"},
        },
        "horizon": horizon,
        "solver": solver,
        "checks": ["solve", "seminorms", "oracle-compare"],
    }
    path = tmp_path / "too-long.json"
    path.write_text(json.dumps(cfg, indent=2))
    code, out = run_cli(["run", str(path), "--out", str(tmp_path / "out")], capsys)
    assert code == EXIT_CHECK_FAILED and out.startswith("FAIL") and "Traceback" not in out
    reports = [json.loads((tmp_path / "out" / "too-long" / name).read_text()) for name in ("01-solve.json", "02-seminorms.json", "03-oracle-compare.json")]
    assert [r["passed"] for r in reports] == [False, True, False]
    for report in (reports[0], reports[2]):
        assert re.match(r"ValueError: a march from t = 0\.0 to .* takes up to .* steps, more than 1000000", report["error"])


def test_delays_that_round_together_end_in_refused_checks(tmp_path, capsys):
    # delta = 1e-300: the floor's search once stepped through ~1e301 indices,
    # and the floor past the cap certifies no truncation
    cfg = json.loads((Path(infidelay.__file__).parent / "scenarios" / "geometric-l1.json").read_text())
    cfg["name"] = "dense-delays"
    cfg["problem"]["family"]["tau"] = {"c": 0.0, "delta": 1e-300}
    cfg["checks"] = ["solve", "seminorms", {"name": "membership", "expect": "member"}]
    path = tmp_path / "dense-delays.json"
    path.write_text(json.dumps(cfg, indent=2))
    code, out = run_cli(["run", str(path), "--out", str(tmp_path / "out")], capsys)
    assert code == EXIT_CHECK_FAILED and "Traceback" not in out
    solved = json.loads((tmp_path / "out" / "dense-delays" / "01-solve.json").read_text())
    assert solved["passed"] is False and "no truncation index below 10000000" in solved["error"]
    seminorms = json.loads((tmp_path / "out" / "dense-delays" / "02-seminorms.json").read_text())
    assert [row["p"]["verdict"] for row in seminorms["rows"]] == ["inconclusive"] * 3


def test_tolerance_scale_rescues_tight_pins(tmp_path, capsys):
    cfg = {
        "name": "tight",
        "problem": {
            "a": 0.0,
            "family": {"kind": "finite-support", "coeffs": [-1.0], "tau": {"delta": 1.0}},
            "history": {"preset": "constant"},
        },
        "horizon": 2.0,
        "checks": [
            {"name": "solve", "expect_points": [{"t": 2.0, "x": -0.5, "tol": 1e-18}]}
        ],
    }
    path = tmp_path / "tight.json"
    path.write_text(json.dumps(cfg, indent=2))
    code, _ = run_cli(["run", str(path), "--out", str(tmp_path / "o1")], capsys)
    assert code == EXIT_CHECK_FAILED
    code2, _ = run_cli(
        ["run", str(path), "--out", str(tmp_path / "o2"), "--tolerance-scale", "1e12"],
        capsys,
    )
    assert code2 == EXIT_OK


def _wrong_pin_scenario(tmp_path) -> Path:
    """classic-delay's problem with one check that pins x(1) = 5.0; the solve gives 0.0."""
    cfg = {
        "name": "wrong-pin",
        "problem": {
            "a": 0.0,
            "family": {"kind": "finite-support", "coeffs": [-1.0], "tau": {"delta": 1.0}},
            "history": {"preset": "constant"},
        },
        "horizon": 2.0,
        "checks": [{"name": "solve", "expect_points": [{"t": 1.0, "x": 5.0, "tol": 1e-8}]}],
    }
    path = tmp_path / "wrong-pin.json"
    path.write_text(json.dumps(cfg, indent=2))
    return path


@pytest.mark.parametrize("scale", ["inf", "nan", "0", "-1"])
def test_tolerance_scale_must_be_finite_and_positive(tmp_path, capsys, scale):
    # inf would pass every tolerance check, nan or a scale <= 0 fail every one
    from infidelay.scenario import load_scenario, run_scenario

    path = _wrong_pin_scenario(tmp_path)
    code, out = run_cli(["run", str(path), "--out", str(tmp_path / "ok")], capsys)
    assert code == EXIT_CHECK_FAILED and out.startswith("FAIL")
    code, out = run_cli(["run", str(path), "--out", str(tmp_path / "out"), "--tolerance-scale", scale], capsys)
    assert code == EXIT_SCHEMA_ERROR
    assert "--tolerance-scale must be finite and positive" in out
    assert not (tmp_path / "out").exists()
    data, lines = load_scenario(str(path))
    with pytest.raises(ValueError, match="must be finite and positive"):
        run_scenario(data, str(tmp_path / "lib"), lines, str(path), tolerance_scale=float(scale))
    assert not (tmp_path / "lib").exists()


def test_directory_batch_and_jobs(tmp_path, capsys):
    import importlib.resources as res

    src = res.files("infidelay") / "scenarios"
    batch = tmp_path / "batch"
    batch.mkdir()
    for name in ("classic-delay.json", "harmonic-divergent.json"):
        (batch / name).write_text((src / name).read_text())
    code, out = run_cli(["run", str(batch), "--out", str(tmp_path / "out")], capsys)
    assert code == EXIT_OK
    assert len(out.strip().splitlines()) == 2
    code2, out2 = run_cli(["run", str(tmp_path / "empty-missing")], capsys)
    assert code2 == EXIT_SCHEMA_ERROR


def test_an_unwritable_out_is_an_error_and_the_run_goes_on(tmp_path, capsys):
    # once a NotADirectoryError traceback after every check had run, and exit 1
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(["run", "classic-delay", "harmonic-divergent", "--out", str(blocker)])
    captured = capsys.readouterr()
    assert code == EXIT_SCHEMA_ERROR and "Traceback" not in captured.out + captured.err
    assert [line.split(":")[0] for line in captured.out.splitlines()] == ["error", "error"]
    # a report directory that is a file stops that scenario only
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "classic-delay").write_text("")
    code, out = run_cli(["run", "classic-delay", "harmonic-divergent", "--out", str(tmp_path / "out")], capsys)
    lines = out.splitlines()
    assert code == EXIT_SCHEMA_ERROR and len(lines) == 2
    assert lines[0].startswith("error: ") and "classic-delay" in lines[0] and lines[1].startswith("PASS harmonic-divergent")


def test_a_directory_named_like_a_scenario_is_not_read(tmp_path, capsys):
    # once an IsADirectoryError traceback: a batch directory runs its regular files only
    import importlib.resources as res

    batch = tmp_path / "batch"
    (batch / "x.json").mkdir(parents=True)
    (batch / "classic-delay.json").write_text((res.files("infidelay") / "scenarios" / "classic-delay.json").read_text())
    code, out = run_cli(["run", str(batch), "--out", str(tmp_path / "out")], capsys)
    assert code == EXIT_OK
    assert out.startswith("PASS classic-delay") and len(out.strip().splitlines()) == 1
    (batch / "classic-delay.json").unlink()
    code, out = run_cli(["run", str(batch), "--out", str(tmp_path / "out")], capsys)
    assert code == EXIT_SCHEMA_ERROR
    assert "contains no .json scenario files" in out


def test_reruns_are_byte_identical(tmp_path, capsys):
    for sub in ("r1", "r2"):
        code, _ = run_cli(["run", "geometric-l1", "--out", str(tmp_path / sub)], capsys)
        assert code == EXIT_OK
    d1, d2 = tmp_path / "r1" / "geometric-l1", tmp_path / "r2" / "geometric-l1"
    files = sorted(p.name for p in d1.iterdir())
    assert files == sorted(p.name for p in d2.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(d1, d2, files, shallow=False)
    assert mismatch == [] and errors == []
    assert set(match) == set(files)
    # every bundled report, byte for byte, as recorded in report_digests.json
    pinned = json.loads((Path(__file__).parent / "report_digests.json").read_text())
    if pinned["numpy"] != np.__version__:
        pytest.skip(f"report digests were recorded under numpy {pinned['numpy']}, not {np.__version__}")
    code, _ = run_cli(["run", str(Path(infidelay.__file__).parent / "scenarios"), "--out", str(tmp_path / "all")], capsys)
    assert code == EXIT_OK
    assert list((tmp_path / "all").rglob("*.tmp")) == []
    reports = sorted(p for p in (tmp_path / "all").rglob("*") if p.is_file())
    got = {p.relative_to(tmp_path / "all").as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in reports}
    assert got == pinned["sha256"]


def test_classic_delay_as_a_zero_mass_list_reports_the_same(tmp_path, capsys):
    # a finite support is the explicit list with tail_abs_bound 0, so the
    # twin's reports match byte for byte; only summary.json echoes the family
    cfg = json.loads((Path(infidelay.__file__).parent / "scenarios" / "classic-delay.json").read_text())
    cfg["problem"]["family"].update(kind="explicit-list", tail_abs_bound=0.0)
    twin = tmp_path / "twin.json"
    twin.write_text(json.dumps(cfg))
    assert run_cli(["run", "classic-delay", "--out", str(tmp_path / "finite")], capsys)[0] == EXIT_OK
    assert run_cli(["run", str(twin), "--out", str(tmp_path / "listed")], capsys)[0] == EXIT_OK
    d1, d2 = tmp_path / "finite" / "classic-delay", tmp_path / "listed" / "classic-delay"
    files = sorted(p.name for p in d1.iterdir())
    assert files == sorted(p.name for p in d2.iterdir())
    _, mismatch, errors = filecmp.cmpfiles(d1, d2, files, shallow=False)
    assert (mismatch, errors) == (["summary.json"], [])


def test_out_env_override(tmp_path, capsys, monkeypatch):
    target = tmp_path / "env-dir"
    monkeypatch.setenv("INFIDELAY_OUT", str(target))
    code, _ = run_cli(["run", "classic-delay", "--out", str(tmp_path / "ignored")], capsys)
    assert code == EXIT_OK
    assert (target / "classic-delay" / "summary.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_console_entry_point_runs():
    # the child imports infidelay from wherever this process found it
    src = str(Path(infidelay.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "infidelay.cli", "version"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"


def test_a_pin_at_or_before_zero_reads_the_history(tmp_path, capsys):
    # x(t) = phi(t) for t <= 0, so such a pin is legal; classic-delay's history is the constant 1
    cfg = _bundled_cfg("classic-delay")
    cfg["checks"] = [{"name": "solve", "expect_points": [{"t": 0.0, "x": 1.0}, {"t": -2.5, "x": 1.0}]}]
    path = tmp_path / "pins.json"
    path.write_text(json.dumps(cfg, indent=2))
    code, out = run_cli(["run", str(path), "--out", str(tmp_path / "out")], capsys)
    assert code == EXIT_OK, out


_EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308, 0.1, -1e-300]
_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(_EDGE_FLOATS)
_text = st.text(st.characters(exclude_categories=("Cs",)), max_size=6) | st.sampled_from(
    ["", "\x00\x1f\n\t\"\\", "\u00e9t\u00e9", "\u2603\U0001f600", "\x7f\u0085"]
)
_scalars = st.none() | st.booleans() | st.integers(-(10**20), 10**20) | _floats | _text
_float_lists = st.lists(_floats, max_size=4)
_np_float_lists = st.lists(_floats.map(np.float64), min_size=1, max_size=3)


def _keyed(values):
    """Dicts whose keys are all str, int, float or bool (json sorts keys of one type)."""
    return (
        st.dictionaries(_text, values, max_size=4)
        | st.dictionaries(st.integers(-5, 5), values, max_size=3)
        | st.dictionaries(st.floats(allow_nan=False), values, max_size=3)
        | st.dictionaries(st.booleans(), values, max_size=2)
    )


_values = st.recursive(
    _scalars | _float_lists | _np_float_lists,
    lambda inner: st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple) | _keyed(inner),
    max_leaves=12,
)
# a report-like dict: str keys, top-level float lists (one-element ones among them) beside anything else
_reports = st.dictionaries(_text, _float_lists | st.lists(_floats, min_size=1, max_size=1) | _np_float_lists | _values, max_size=6)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(_reports | _values)
@example(
    {
        "grid": _EDGE_FLOATS,
        "one": [2.5],
        "np": [np.float64(0.5), np.float64(-0.0)],
        "nested": {"\u00e9\x01": [(), {}, [], None, True, 3, (1.0, math.inf)]},
        "horizon": 10.0,
    }
)
@example({1: [1.0], 2: [-0.0]})
def test_report_encoding_is_json_dumps_byte_for_byte(x):
    from infidelay.scenario import _encode

    assert _encode(x) + "\n" == json.dumps(x, indent=2, sort_keys=True, allow_nan=True) + "\n"


def test_only_exact_float_lists_take_the_c_encoder():
    from infidelay.scenario import _is_float_list

    assert _is_float_list([1.0]) and _is_float_list([math.nan, -0.0, 5e-324])
    for v in ([], [np.float64(1.0)], [1.0, np.float64(2.0)], [1.0, 2], [True], (1.0, 2.0), np.array([1.0])):
        assert not _is_float_list(v)


def test_a_failed_report_write_leaves_no_file(tmp_path):
    from infidelay.scenario import _write_report

    p = tmp_path / "r.json"
    for data in ({"a": 1.0, "n": np.int64(3)}, {"grid": [0.0, 1.0], "n": np.int64(3)}):
        with pytest.raises(TypeError):
            _write_report(str(p), data)
        assert list(tmp_path.iterdir()) == []


def test_the_cached_parser_answers_as_a_fresh_one(tmp_path, capsys):
    from infidelay.cli import _build_parser

    calls = [
        ["run", "classic-delay", "--out", str(tmp_path)],
        ["checks"],
        ["version"],
        ["run", "classic-delay", "--no-such-flag"],
        ["run", "classic-delay", "--out", str(tmp_path)],
    ]

    def outcomes(fresh):
        got = []
        for argv in calls:
            if fresh:
                _build_parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
            captured = capsys.readouterr()
            got.append((code, captured.out, captured.err))
        return got

    fresh, cached = outcomes(True), outcomes(False)
    assert cached == fresh
    assert [g[0] for g in cached] == [EXIT_OK, EXIT_OK, EXIT_OK, ("exit", EXIT_SCHEMA_ERROR), EXIT_OK]
    assert _build_parser() is _build_parser()
