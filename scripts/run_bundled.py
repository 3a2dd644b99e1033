#!/usr/bin/env python3
"""Run every bundled scenario and print a one-line verdict per check.

Usage:
    python3 scripts/run_bundled.py [--out DIR]

Exit status mirrors the command line tool: 0 all passed, 1 a check
failed, 2 a scenario file was malformed.
"""

import argparse
import sys

from infidelay.cli import bundled_scenario_names, main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out", help="output root directory")
    args = parser.parse_args()
    names = bundled_scenario_names()
    print(f"running {len(names)} bundled scenarios -> {args.out}/")
    return cli_main(["run", *names, "--out", args.out])


if __name__ == "__main__":
    sys.exit(main())
