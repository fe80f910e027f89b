"""Command-line front end: run a program, emit its IR, or benchmark."""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .context import parse_concrete_assignment, parse_feed
from .errors import CongoError, ReadError
from .interpreter import CachePolicy, DispatchMode, RunConfig, run
from .lowering import compile_source, format_ir

_MODES = {"event": DispatchMode.EVENT, "direct": DispatchMode.DIRECT}
_CACHES = {"none": CachePolicy.NONE, "guard": CachePolicy.EPOCH_GUARD}


def _build_parser(argv: List[str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="congo", description="ConGo language tools")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a .congo program")
    run_p.add_argument("file", help="program file")
    run_p.add_argument("--entry", default="main", help="entry function (default main)")
    run_p.add_argument("--dispatch", choices=sorted(_MODES), default="event")
    run_p.add_argument("--cache", choices=sorted(_CACHES), default="none")
    run_p.add_argument("--decision-maker", default="default",
                       help="registered decision maker name")
    run_p.add_argument("--set", dest="assignments", action="append", default=[],
                       metavar="Ctx.key=val", type=parse_concrete_assignment,
                       help="seed a concrete context value (repeatable)")
    run_p.add_argument("--feed", help="file of Ctx.key=val lines applied before the run")
    run_p.add_argument("--trace-bus", action="store_true",
                       help="print bus deliveries to stderr")
    run_p.add_argument("--emit-ir", action="store_true",
                       help="print the variant tables instead of executing")

    bench_p = sub.add_parser("bench", help="run the micro-benchmarks")
    if "bench" not in argv:  # not a bench run: skip importing the harness
        return parser
    from .bench import BENCHMARK_NAMES

    bench_p.add_argument("--json", dest="json_out", metavar="FILE",
                         help="also write results as JSON")
    bench_p.add_argument("--mode", choices=sorted(_MODES), default="event")
    bench_p.add_argument("--cache", choices=sorted(_CACHES), default="none")
    bench_p.add_argument("--benchmarks", nargs="+", choices=BENCHMARK_NAMES,
                         default=list(BENCHMARK_NAMES))
    bench_p.add_argument("--warmup", type=int, default=5)
    bench_p.add_argument("--measure", type=int, default=10)
    bench_p.add_argument("--duration", type=float, default=1.0,
                         help="seconds per iteration")
    bench_p.add_argument("--check", action="store_true",
                         help="run the throughput ordering checks instead")
    return parser


def _print_error(exc: CongoError) -> None:
    span = getattr(exc, "span", None)
    if span is not None:
        sys.stderr.write(f"ERROR {exc.kind} at {span}: {exc.message}\n")
    else:
        sys.stderr.write(f"ERROR {exc.kind}: {exc.message}\n")


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        reason = exc.strerror
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8 text ({exc.reason} at byte {exc.start})"
    raise ReadError(f"cannot read {path}: {reason}")


def _cmd_run(args: argparse.Namespace) -> int:
    trace = (lambda line: sys.stderr.write(line + "\n")) if args.trace_bus else None
    try:
        source = _read_text(args.file)
        initial = list(args.assignments)
        if args.feed:
            initial.extend(parse_feed(_read_text(args.feed)))
        lowered = compile_source(source, file=args.file)
        if args.emit_ir:
            print(format_ir(lowered))
            return 0
        config = RunConfig(
            dispatch_mode=_MODES[args.dispatch],
            cache_policy=_CACHES[args.cache],
            decision_maker=args.decision_maker,
            initial_values=tuple(initial),
            trace=trace,
        )
        run(lowered, entry=args.entry, config=config)
    except CongoError as exc:
        _print_error(exc)
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import (
        BenchConfig, format_table, results_payload, run_benchmarks, run_property_checks,
    )

    status, checks = 0, None
    try:
        if args.check:
            report = run_property_checks(
                iter_duration=args.duration,
                warmup_iters=args.warmup,
                measure_iters=args.measure,
            )
            print(report.format())
            results, checks = list(report.results.values()), report.checks
            status = 0 if report.all_passed else 1
        else:
            results = run_benchmarks(BenchConfig(
                warmup_iters=args.warmup,
                measure_iters=args.measure,
                iter_duration=args.duration,
                mode=_MODES[args.mode],
                cache=_CACHES[args.cache],
                benchmarks=tuple(args.benchmarks),
            ))
        print(format_table(results))
        if args.json_out:
            try:
                with open(args.json_out, "w", encoding="utf-8") as handle:
                    json.dump(results_payload(results, checks), handle, indent=2)
                    handle.write("\n")
            except OSError as exc:
                raise ReadError(f"cannot write {args.json_out}: {exc.strerror}") from None
    except ValueError as exc:
        sys.stderr.write(f"ERROR BenchConfig: {exc}\n")
        return 2
    except CongoError as exc:
        _print_error(exc)
        return 1
    return status


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_bench(args)


if __name__ == "__main__":
    sys.exit(main())
