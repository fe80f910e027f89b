"""Out-of-tree benchmark of ConGo's dispatch path and front end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload steady_context --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

The program is built from ``src/`` of the same checkout and driven only
through its public API.  One client thread drives a closed loop: a tick is
one ``Runtime.call("tick", ...)``, and the next starts when it returns.  Only
the runtime being measured carries traffic, so at most two threads are busy
(the client and that runtime's bus dispatcher).

Every timed metric is in *reference seconds*: the CPU time of the whole
process (``time.process_time``, every thread), which leaves out the time
the hypervisor steals, multiplied by the host's speed during that window,
which ``hostspeed`` measures right before and right after it.  So the
load other guests put on a shared host is divided out; see ``hostspeed``.

Every workload runs the same schedule on its own seeded program: several
set-ups, one warm-up round, then rounds of ``PASSES`` passes (one window
per dispatch configuration, in alternating order, and one more set-up),
plus one compile of a seeded large module (the front-end window).
``gc.collect()`` runs before each window and GC stays on inside it.  The process pins itself to one CPU first, so
the client and the bus thread hand off on one core.  Each metric is the
median over windows (``setup_s``: over set-ups).  With ``--trace 1``
untraced and traced windows alternate and the per-layer numbers come from
the traced ones.  The last line of stdout is one JSON object; a fuller
record goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _import_program() -> None:
    """Put this checkout's ``src/`` first on the path; refuse any other congo."""
    src = ROOT / "src"
    if not (src / "congo" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ConGo sources at {src}")
    sys.path.insert(0, str(src))


_import_program()

import congo  # noqa: E402
from congo import (  # noqa: E402
    CachePolicy,
    CongoError,
    DefaultDecisionMaker,
    DispatchMode,
    RunConfig,
    Runtime,
    lower,
    parse,
    register_decision_maker,
    tokenize,
)
from congo.errors import DecisionTimeoutError  # noqa: E402

import hostspeed  # noqa: E402
import programs  # noqa: E402
import tracing  # noqa: E402

if Path(congo.__file__).resolve().parent != ROOT / "src" / "congo":
    sys.exit(f"perfbench: imported congo from {congo.__file__}, not this checkout")

CONFIGS = ("event_none", "direct_none", "event_guard", "direct_guard")
MODES = {"event": DispatchMode.EVENT, "direct": DispatchMode.DIRECT}
CACHES = {"none": CachePolicy.NONE, "guard": CachePolicy.EPOCH_GUARD}


# Why each workload is here is recorded in BENCHMARK.json; the value says
# whether its ticks write the context.
WORKLOADS = {"steady_context": False, "context_churn": True}
# set-ups before the first window; each round then adds one more sample
SETUPS = 3
# a round is PASSES passes over the four configurations, one tick window
# each, then one compile of the large module
PASSES = 2
TICK_WINDOW = 0.4
WARMUP_WINDOW = 0.25
# declarations beside the tick program in the compiled module: ~66k tokens
FRONTEND_DECLS = 2200


def summary(values: List[float]) -> Dict[str, float]:
    """The median, reported as the value, with its quartiles and sample count."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"value": median, "median": median, "q1": q1, "q3": q3, "n": len(values),
            "samples": list(values)}


def pin_to_one_cpu() -> None:
    """Keep every thread of this process on one CPU.

    Threads inherit the affinity, so this runs before any runtime starts.
    Left free, the bus thread wakes on either CPU, and event-mode tick
    rates then differ by up to 1.7x from one process to the next.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Counters:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.timeouts: Dict[str, int] = {c: 0 for c in CONFIGS}


def compile_program(source: str, t: Optional[tracing.Tracer] = None):
    """tokenize -> parse -> lower, each wrapped when tracing."""
    lex, par, low = tokenize, parse, lower
    if t is not None:
        lex = t.wrap(tracing.TOKENIZE, tokenize)
        par = t.wrap(tracing.PARSE, parse)
        low = t.wrap(tracing.LOWER, lower)
    tokens = lex(source)
    ast = par(tokens)
    return tokens, ast, low(ast)


class Side:
    """The four started runtimes of one set-up, ready for their first tick."""

    def __init__(self, program: programs.TickProgram, dm_factory: Callable,
                 t: Optional[tracing.Tracer] = None):
        self.runtimes: Dict[str, Runtime] = {}
        self.calls: Dict[str, Callable] = {}
        self.args: Dict[str, list] = {}
        factory = dm_factory if t is None else \
            (lambda: tracing.TracingDecisionMaker(dm_factory(), t))
        register_decision_maker(programs.DM_NAME, factory)
        objs = {}
        try:
            with hostspeed.Stopwatch() as watch:
                _, _, lowered = compile_program(program.source)
                for config in CONFIGS:
                    mode, cache = config.split("_")
                    runtime = self.runtimes[config] = Runtime(lowered, RunConfig(
                        dispatch_mode=MODES[mode], cache_policy=CACHES[cache],
                        decision_maker=factory(), initial_values=program.initial_values,
                    )).start()
                    if t is not None:
                        t.instrument(runtime)
                    objs[config] = runtime.call("setup")
            self.seconds = watch.seconds
        except BaseException:
            self.shutdown()
            raise
        finally:
            register_decision_maker(programs.DM_NAME, dm_factory)
        for config, runtime in self.runtimes.items():
            self.args[config] = [(objs[config], *a) for a in program.tick_args]
            self.calls[config] = runtime.call if t is None \
                else t.wrap(tracing.TICK, runtime.call)

    def shutdown(self) -> None:
        for runtime in self.runtimes.values():
            runtime.shutdown()


def tick_window(side: Side, config: str, program: programs.TickProgram,
                seconds: float, cursor: int, counters: Counters,
                t: Optional[tracing.Tracer] = None):
    """Closed loop for ``seconds`` of wall time.

    Returns (ticks, wall seconds, reference seconds, new cursor).
    """
    call, args, expected = side.calls[config], side.args[config], program.expected
    n = len(args)
    failed = 0
    timeouts = 0
    ticks = 0
    gc.collect()
    with hostspeed.Stopwatch() as watch:
        start = time.perf_counter()
        deadline = start + seconds
        while True:
            j = cursor % n
            if t is not None:
                t.tick += 1
            try:
                if call("tick", args[j]) != expected[j]:
                    failed += 1
            except DecisionTimeoutError:
                failed += 1
                timeouts += 1
            except CongoError:
                failed += 1
            cursor += 1
            ticks += 1
            if ticks & 7 == 0 and time.perf_counter() >= deadline:
                break
        elapsed = time.perf_counter() - start
    counters.attempted += ticks
    counters.failed += failed
    counters.timeouts[config] += timeouts
    return ticks, elapsed, watch.seconds, cursor


def compile_window(module: programs.TickProgram, counters: Counters,
                   t: Optional[tracing.Tracer] = None):
    """One checked compile of the large module; returns (tokens, decls, reference seconds)."""
    gc.collect()
    with hostspeed.Stopwatch() as watch:
        try:
            tokens, ast, lowered = compile_program(module.source, t)
        except CongoError:
            tokens, ast, lowered = (), None, None
    counters.attempted += 1
    if lowered is None or programs.check_tables(lowered, module.tables):
        counters.failed += 1
    return len(tokens), len(ast.decls) if ast else 0, watch.seconds


def measure(workload: str, seed: int, seconds: float, trace: bool,
            dm_factory: Callable = DefaultDecisionMaker) -> dict:
    """Run one workload; returns the full record (metrics with their spread)."""
    churn = WORKLOADS[workload]
    programs.register_gauges()
    program = programs.tick_program(seed, churn)
    module = programs.tick_program(seed, churn, filler_decls=FRONTEND_DECLS, ticks=0)
    counters = Counters()

    setup_seconds = []
    side = traced = tracer = None
    try:
        for _ in range(SETUPS):
            if side is not None:
                side.shutdown()
            side = Side(program, dm_factory)
            setup_seconds.append(side.seconds)
        if trace:
            tracer = tracing.Tracer()
            traced = Side(program, dm_factory, tracer)

        # warm-up round, not recorded
        cursors = {c: 0 for c in CONFIGS}
        for config in CONFIGS:
            _, _, _, cursors[config] = tick_window(
                side, config, program, WARMUP_WINDOW, cursors[config], Counters())
            if trace:
                tracer.validating(True)
                tick_window(traced, config, program, WARMUP_WINDOW, cursors[config],
                            Counters(), tracer)
                tracer.validating(False)
        tokens, decls, _ = compile_window(module, Counters())

        rates: Dict[str, List[float]] = {c: [] for c in CONFIGS}
        traced_rates: Dict[str, List[float]] = {c: [] for c in CONFIGS}
        compile_rates: List[float] = []
        windows = []
        rounds, passes = 0, 0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or rounds < 3:
            for _ in range(PASSES):
                order = CONFIGS if passes % 2 == 0 else CONFIGS[::-1]
                for config in order:
                    sides = [(side, rates)]
                    if trace:
                        sides.append((traced, traced_rates))
                        if passes % 2:
                            sides.reverse()
                    for s, into in sides:
                        if s is traced:
                            tracer.validating(True)
                            first = tracer.tick + 1
                        ticks, elapsed, ref, cursors[config] = tick_window(
                            s, config, program, TICK_WINDOW, cursors[config], counters,
                            tracer if s is traced else None)
                        if s is traced:
                            tracer.validating(False)
                            windows.append((config, first, tracer.tick + 1, elapsed))
                        into[config].append(ticks / ref)
                gc.collect()
                extra = Side(program, dm_factory)
                extra.shutdown()
                setup_seconds.append(extra.seconds)
                passes += 1
            _, _, busy = compile_window(module, counters, tracer)
            compile_rates.append(tokens / busy)
            rounds += 1
    finally:
        for s in (side, traced):
            if s is not None:
                s.shutdown()

    stats: Dict[str, dict] = {}
    if not trace:
        stats["setup_s"] = dict(summary(setup_seconds), unit="s")
        for config in CONFIGS:
            stats[f"ticks_per_s.{config}"] = dict(summary(rates[config]), unit="ticks/ref_s")
        stats["compile_tokens_per_s"] = dict(summary(compile_rates), unit="tokens/ref_s")
        stats["peak_rss_mb"] = dict(
            summary([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]), unit="MB")
    else:
        layers = tracing.layer_stats(tracer, windows, program.contextual_calls_per_tick)
        for config in CONFIGS:
            for name, value in layers[config].items():
                if config.startswith("direct") and name in EVENT_ONLY:
                    continue
                stats[f"{name}.{config}"] = {"value": value, "unit": UNITS[name]}
            stats[f"bus.timeouts.{config}"] = {
                "value": counters.timeouts[config], "unit": "count"}
            stats[f"trace.overhead_ratio.{config}"] = {
                "value": statistics.median(rates[config])
                / statistics.median(traced_rates[config]),
                "unit": "ratio"}
        for name, value in tracing.compile_stats(tracer, tokens, decls).items():
            stats[name] = {"value": value, "unit": UNITS[name]}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload}-{seed}.tsv.gz")

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "rounds": rounds,
        "program": {"compiled_tokens": tokens, "compiled_declarations": decls,
                    "contextual_calls_per_tick": program.contextual_calls_per_tick},
        "host": {"python": platform.python_version(), "nproc": os.cpu_count(),
                 "affinity": len(os.sched_getaffinity(0)), "platform": platform.platform()},
        "attempted": counters.attempted,
        "failed": counters.failed,
        "ops_failed_ratio": counters.failed / counters.attempted,
        "metrics": stats,
    }


# a direct-mode runtime never uses the bus for decisions
EVENT_ONLY = ("bus.handoff.us", "bus.request_reply.us")

UNITS = {
    "bus.handoff.us": "us", "bus.request_reply.us": "us", "bus.publish.us": "us",
    "bus.publish.per_tick": "count", "context.snapshot_meta.us": "us",
    "context.snapshot_meta.per_tick": "count", "context.store_set.us": "us",
    "decision.decide.us": "us", "decision.decide.per_tick": "count",
    "decision.validate.us": "us", "interpreter.self.us_per_tick": "us",
    "interpreter.guard_hit_ratio": "ratio", "interpreter.tick_us_p99": "us",
    "trace.stage_sum_ratio": "ratio", "lexer.tokens_per_s": "tokens/s",
    "parser.tokens_per_s": "tokens/s", "lowering.decls_per_s": "decls/s",
}


def report(record: dict) -> dict:
    """Print every metric by name with its unit; return the JSON result line."""
    print(f"# {record['workload']} seed={record['seed']} trace={int(record['trace'])} "
          f"rounds={record['rounds']} host={record['host']}")
    print(f"ops_failed_ratio {record['ops_failed_ratio']:.6g} failed/attempted "
          f"({record['failed']}/{record['attempted']})")
    for name, s in record["metrics"].items():
        spread = f"  q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}" if "q1" in s else ""
        print(f"{name} {s['value']:.6g} {s['unit']}{spread}")
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": s["value"], "unit": s["unit"]}
                    for name, s in record["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        worst = 0
        for name in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            worst = max(worst, subprocess.run(cmd, check=False).returncode)
        return worst

    pin_to_one_cpu()
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1)
    line = report(record)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
