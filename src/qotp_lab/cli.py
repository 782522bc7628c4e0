"""Command-line entry point.

    qotp-lab <command> --config <file.json> [--seed N] [--out dir]

Exit codes: 0 = all checks pass, 1 = some check fails, 2 = bad config, or
an output directory that cannot be made or a report that cannot be
written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .harness import COMMANDS, emit_report, run_experiment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qotp-lab",
        description="trap-code authentication and quantum one-time programs")
    parser.add_argument("command", choices=list(COMMANDS))
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="64-bit root seed (overrides config)")
    parser.add_argument("--out", default="out", help="output directory")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    config = {}
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return 2
        if not isinstance(config, dict):
            print("configuration error: the config must be a JSON object",
                  file=sys.stderr)
            return 2
    if args.seed is not None:
        config["seed"] = args.seed
    config.setdefault("seed", 1)

    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    try:
        report, csv_text = run_experiment(args.command, config)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        paths = emit_report(report, args.out, csv_text)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    for check in report.checks:
        verdict = "PASS" if check["pass"] else "FAIL"
        print(f"[{verdict}] {check['name']}: value={check['value']} "
              f"bound={check['bound']} ({check['mode']})")
    print(f"report: {paths['report']}")
    return 0 if report.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
