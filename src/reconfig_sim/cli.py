"""Command line front end.

Exit codes: 0 on success, 1 for file or validation problems, 2 for usage
errors.  Scenario arguments name either a file on disk or a bundled
scenario such as seq2 or corpus/q03.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import harness
from .emulator import emit_trace, execute_schedule
from .harness import SweepSpec, format_ms, run_sweep
from .model import Scenario, identity_schedule, schedule_from_doc
from .optimizer import STRATEGIES, optimize, outcome_document


class _CliError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reconfig-sim",
        description="Emulate and optimize query sequences on a reconfigurable "
                    "streaming accelerator.")
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="emulate one scenario and print its timing")
    simulate.add_argument("scenario")
    simulate.add_argument("--schedule", help="JSON schedule file; default runs the written order")
    simulate.add_argument("--trace", help="write a span trace to this file")
    simulate.set_defaults(run=_cmd_simulate)

    opt = sub.add_parser("optimize", help="plan a schedule and report the outcome")
    opt.add_argument("scenario")
    opt.add_argument("--strategy", default="auto", choices=STRATEGIES)
    opt.add_argument("--out", help="write the full outcome document to this file")
    opt.set_defaults(run=_cmd_optimize)

    sweep = sub.add_parser("sweep", help="emulate strategies across an axis, writing CSV")
    sweep.add_argument("scenario")
    sweep.add_argument("--axis", required=True, choices=list(harness.SWEEP_AXES))
    sweep.add_argument("--values", required=True, help="comma-separated axis values")
    sweep.add_argument("--strategies", default=",".join(harness.STRATEGY_ORDER),
                       help="comma-separated subset of " + ",".join(harness.STRATEGY_ORDER))
    sweep.add_argument("--out", required=True, help="CSV output path")
    sweep.set_defaults(run=_cmd_sweep)

    corpus = sub.add_parser("corpus", help="work with the bundled scenarios")
    corpus.add_argument("action", choices=["verify", "list"])
    corpus.set_defaults(run=_cmd_corpus)
    return parser


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(f"cannot read {path}: {exc}") from exc


def _load_scenario_arg(name: str) -> Scenario:
    if Path(name).is_file():
        text = _read(name)
    else:
        try:
            text = harness.bundled_text(name)
        except FileNotFoundError:
            raise _CliError(f"scenario not found: {name} (not a file or bundled name)") from None
    return harness.load_scenario(text)


def _write(path: str, text: str):
    try:
        Path(path).write_text(text, encoding="utf-8", newline="")
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc}") from exc


def _cmd_simulate(args) -> int:
    s = _load_scenario_arg(args.scenario)
    if args.schedule:
        text = _read(args.schedule)
        try:
            doc = json.loads(text)
        # JSONDecodeError, an integer past the int-string limit, or nesting too deep
        except (ValueError, RecursionError) as exc:
            raise _CliError(f"{args.schedule}: invalid JSON: {exc}") from exc
        schedule = schedule_from_doc(s, doc)
    else:
        schedule = identity_schedule(s)
    report = execute_schedule(s, schedule)
    if args.trace:
        _write(args.trace, emit_trace(report))
    print("per_query_ms=" + ",".join(format_ms(v) for v in report.per_query_ms))
    print("total_ms=" + format_ms(report.total_ms))
    return 0


def _cmd_optimize(args) -> int:
    s = _load_scenario_arg(args.scenario)
    outcome = optimize(s, args.strategy)
    print(f"strategy={outcome.strategy}")
    print("total_ms=" + format_ms(outcome.total_ms))
    print("improvement_pct=" + format_ms(outcome.improvement_pct))
    if args.out:
        _write(args.out, json.dumps(outcome_document(s, outcome), indent=2) + "\n")
    return 0


def _parse_values(raw: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in raw.split(","))
    except ValueError:
        raise _CliError(f"invalid --values: {raw!r}") from None


def _cmd_sweep(args) -> int:
    s = _load_scenario_arg(args.scenario)
    strategies = tuple(part for part in args.strategies.split(",") if part)
    spec = SweepSpec(axis=args.axis, values=_parse_values(args.values), strategies=strategies)
    _write(args.out, run_sweep(s, spec))
    return 0


def _cmd_corpus(args) -> int:
    if args.action == "list":
        for name in harness.bundled_names():
            print(name)
        return 0
    failed = False
    for name, problems in harness.verify_corpus():
        if problems:
            failed = True
            print(f"{name}: FAIL")
            for problem in problems:
                print(f"  {problem}")
        else:
            print(f"{name}: ok")
    return 1 if failed else 0


def cli_dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except (_CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
