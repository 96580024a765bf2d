"""Command-line front end.

    ergolab run <config.json> [--out DIR] [--format json|csv] [--seed N] [--jobs N]
    ergolab presets list
    ergolab verify-all [--out DIR] [--format json|csv] [--seed N] [--jobs N]

Output directory precedence: --out, then the config's "out" key, then the
ERGOLAB_OUT environment variable, then the current directory. Exit status:
0 all rows passed, 1 some row failed (including horizon exhaustion inside
an experiment), 2 config parse/validation error. Cases run one after another
in declared order; --jobs is still parsed and must be >= 1, but it is ignored.
"""

from __future__ import annotations

import argparse
import os
import sys

from .scenarios import (
    ConfigError,
    Report,
    builtin_corpus,
    load_scenario,
    run_scenario,
    write_report,
)
from .spaces import PRESETS

__all__ = ["main"]

_OUT_ENV = "ERGOLAB_OUT"


def _resolve_out(cli_out: str | None, config_out: str | None) -> str:
    return cli_out or config_out or os.environ.get(_OUT_ENV) or "."


def _summarize(report: Report, path: str, verbose_rows: bool) -> None:
    total = len(report.rows)
    passed = sum(1 for row in report.rows if row["passed"])
    name = report.scenario["name"]
    if verbose_rows:
        for ordinal, row in enumerate(report.rows):
            status = "PASS" if row["passed"] else "FAIL"
            note = f" ({row['note']})" if row.get("note") else ""
            print(f"{status} {name}#{ordinal}{note}")
    summary = "all passed" if passed == total else f"{total - passed} FAILED"
    print(f"{name}: {passed}/{total} rows passed ({summary}) -> {path}")
    for ordinal, row in enumerate(report.rows):
        if not row["passed"] and not verbose_rows:
            note = f" ({row['note']})" if row.get("note") else ""
            print(f"  FAIL row {ordinal}{note}: "
                  + ", ".join(f"{k}={v}" for k, v in row.items() if k != "note"))


def _run_all(scenarios, args: argparse.Namespace, verbose_rows: bool) -> bool:
    """Run each scenario, write its report and summarize it; True when every row passed."""
    ok = True
    for scenario in scenarios:
        report = run_scenario(scenario)
        path = write_report(report, _resolve_out(args.out, scenario.out), args.format)
        _summarize(report, path, verbose_rows)
        ok = ok and report.all_passed
    return ok


def _cmd_run(args: argparse.Namespace) -> int:
    return 0 if _run_all([load_scenario(args.config, seed_override=args.seed)], args, False) else 1


def _cmd_presets_list(args: argparse.Namespace) -> int:
    for name in sorted(PRESETS):
        print(f"{name:10s} {PRESETS[name]}")
    return 0


def _cmd_verify_all(args: argparse.Namespace) -> int:
    ok = _run_all(builtin_corpus(args.seed), args, True)
    print("verify-all:", "OK" if ok else "FAILED")
    return 0 if ok else 1


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None,
                        help=f"output directory (default: config 'out', then ${_OUT_ENV}, then '.')")
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        help="report format (default: json)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
    parser.add_argument("--jobs", type=int, default=1,
                        help="ignored: cases run serially in declared order (must be >= 1)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ergolab",
        description="Scenario-driven experiments over ergodic averages: "
                    "fluctuation counts, variation, metastability, dyadic "
                    "decompositions, and convexity audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario config")
    run_p.add_argument("config", help="path to a JSON scenario config")
    _add_run_options(run_p)
    run_p.set_defaults(func=_cmd_run)

    presets_p = sub.add_parser("presets", help="inspect shipped space presets")
    presets_sub = presets_p.add_subparsers(dest="presets_command", required=True)
    presets_list = presets_sub.add_parser("list", help="list preset names")
    presets_list.set_defaults(func=_cmd_presets_list)

    verify_p = sub.add_parser("verify-all", help="run the built-in scenario corpus")
    _add_run_options(verify_p)
    verify_p.set_defaults(func=_cmd_verify_all)

    args = parser.parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise ConfigError("--jobs must be >= 1")
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
