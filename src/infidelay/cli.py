"""Command-line front end.

    infidelay run SCENARIO [SCENARIO ...] [--out DIR] [--tolerance-scale X]
    infidelay checks
    infidelay version

SCENARIO is a path to a scenario JSON file, a directory of them, or a
bundled scenario name (``infidelay checks`` lists checks; bundled names
are the basenames under the package's ``scenarios/`` directory, e.g.
``classic-delay``).  Scenarios run one after another in the given order.

Exit codes: 2 for schema errors and for a scenario that cannot be found,
read or written (the run goes on with the next one), 1 when any check
failed, 0 otherwise.
The INFIDELAY_OUT environment variable overrides --out.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from importlib import resources

from . import __version__
from .scenario import ScenarioError, list_checks, load_scenario, run_scenario

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_SCHEMA_ERROR = 2


def bundled_scenario_names() -> list[str]:
    root = resources.files("infidelay").joinpath("scenarios")
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def _resolve_scenarios(arg: str) -> list[str]:
    """A path, a directory's regular *.json files, or a bundled scenario name."""
    if os.path.isdir(arg):
        found = sorted(
            p for p in (os.path.join(arg, f) for f in os.listdir(arg)) if p.endswith(".json") and os.path.isfile(p)
        )
        if not found:
            raise FileNotFoundError(f"directory {arg!r} contains no .json scenario files")
        return found
    if os.path.exists(arg):
        return [arg]
    base = arg if arg.endswith(".json") else arg + ".json"
    candidate = resources.files("infidelay").joinpath("scenarios", base)
    if candidate.is_file():
        return [str(candidate)]
    raise FileNotFoundError(
        f"no scenario file {arg!r} and no bundled scenario of that name "
        f"(bundled: {', '.join(bundled_scenario_names())})"
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then kept: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="infidelay",
        description="Method-of-steps solver and semigroup checks for scalar "
        "linear equations with infinitely many discrete delays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run scenario files and write report trees")
    run_p.add_argument("scenarios", nargs="+", metavar="SCENARIO", help="scenario JSON path or bundled name")
    run_p.add_argument("--out", default="out", help="output root directory (default: ./out; env INFIDELAY_OUT overrides)")
    run_p.add_argument("--tolerance-scale", type=float, default=1.0, help="multiply every check tolerance by this factor")

    sub.add_parser("checks", help="list supported checks")
    sub.add_parser("version", help="print the package version")
    return parser


def _run_one(path: str, out_root: str, tol_scale: float) -> tuple[str, int]:
    """Returns (message, exit_code_contribution)."""
    try:
        data, lines = load_scenario(path)
        result = run_scenario(data, out_root, lines=lines, path=path, tolerance_scale=tol_scale)
    except ScenarioError as exc:
        return (f"schema error: {exc}", EXIT_SCHEMA_ERROR)
    except OSError as exc:  # the file cannot be read, or its reports written
        return (f"error: {exc}", EXIT_SCHEMA_ERROR)
    status = "PASS" if result.passed else "FAIL"
    return (
        f"{status} {result.name}: {len(result.check_results)} checks -> {result.out_dir}",
        EXIT_OK if result.passed else EXIT_CHECK_FAILED,
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "version":
        print(__version__)
        return EXIT_OK

    if args.command == "checks":
        for name, desc in list_checks():
            print(f"{name:18s} {desc}")
        return EXIT_OK

    if not 0.0 < args.tolerance_scale < float("inf"):
        print(f"error: --tolerance-scale must be finite and positive, got {args.tolerance_scale}")
        return EXIT_SCHEMA_ERROR
    out_root = os.environ.get("INFIDELAY_OUT", args.out)
    paths: list[str] = []
    worst = EXIT_OK
    for arg in args.scenarios:
        try:
            paths.extend(_resolve_scenarios(arg))
        except FileNotFoundError as exc:
            print(f"error: {exc}")
            worst = EXIT_SCHEMA_ERROR
    for path in paths:
        message, code = _run_one(path, out_root, args.tolerance_scale)
        print(message)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
