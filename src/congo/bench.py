"""Micro-benchmark harness for plain vs contextual call throughput.

Five generated programs are measured: a single plain function, a single
one-layer contextual function, ten nested plain functions, one function
with ten stacked always-eligible layers chained via a bare proceed(), and
the same ten layers computing around their proceed(x + k), so that the
cost of running a chain shows too.
Each benchmark gets a fresh runtime; scores are operations per
millisecond (median over the measurement iterations) with the relative
error reported alongside.  Runs whose relative error reaches 10% are
flagged unstable, never failed.
"""

from __future__ import annotations

import gc
import os
import platform
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .context import ContextDescriptor, StoreView, register_context
from .errors import BenchHarnessError
from .interpreter import CachePolicy, DispatchMode, RunConfig, Runtime
from .lowering import LoweredModule, compile_source

BENCHMARK_NAMES = (
    "plain_single",
    "contextual_single",
    "plain_layered10",
    "contextual_layered10",
    "contextual_compute10",
)

UNSTABLE_THRESHOLD = 0.10

# calls per drive() invocation; one clock read per chunk keeps timer noise low
_CHUNK = 64


class BenchStackContext(ContextDescriptor):
    """Emits L1..L10 unconditionally so every stacked layer stays eligible."""

    name = "BenchStack"
    _METAS = frozenset(f"L{i}" for i in range(1, 11))

    def evaluate(self, view: StoreView) -> frozenset:
        return self._METAS


def ensure_bench_context() -> None:
    register_context(BenchStackContext.name, BenchStackContext)


def _plain_single_source() -> str:
    return "module bench.plain_single\n\nfunction work = |x| -> x + 1\n"


def _contextual_single_source() -> str:
    return (
        "module bench.contextual_single\n\n"
        "contexts = [BenchStack()]\n\n"
        "function work = |x| -> x + 1\n\n"
        "function work = |x| @(BenchStack=L1) -> x + 2\n"
    )


def _plain_layered10_source() -> str:
    lines = ["module bench.plain_layered10", ""]
    lines.append("function work = |x| -> work1(x)")
    for depth in range(1, 10):
        target = f"work{depth + 1}(x)" if depth < 9 else "x + 1"
        lines.append(f"function work{depth} = |x| -> {target}")
    return "\n".join(lines) + "\n"


def _contextual_layered10_source() -> str:
    lines = ["module bench.contextual_layered10", "", "contexts = [BenchStack()]", ""]
    lines.append("function work = |x| -> x + 1")
    for layer in range(1, 11):
        lines.append(f"function work = |x| @(BenchStack=L{layer}) -> proceed()")
    return "\n".join(lines) + "\n"


def _contextual_compute10_source() -> str:
    lines = ["module bench.contextual_compute10", "", "contexts = [BenchStack()]", ""]
    lines.append("function work = |x| -> x * x + 1")
    for layer in range(1, 11):
        lines.append(
            f"function work = |x| @(BenchStack=L{layer}) -> proceed(x + {layer}) * 2 - x"
        )
    return "\n".join(lines) + "\n"


_SOURCES = {
    "plain_single": _plain_single_source,
    "contextual_single": _contextual_single_source,
    "plain_layered10": _plain_layered10_source,
    "contextual_layered10": _contextual_layered10_source,
    "contextual_compute10": _contextual_compute10_source,
}


def benchmark_source(name: str) -> str:
    return _SOURCES[name]()


def compile_benchmark(name: str) -> LoweredModule:
    return compile_source(benchmark_source(name), file=f"<bench:{name}>")


@dataclass
class BenchConfig:
    warmup_iters: int = 5
    measure_iters: int = 10
    iter_duration: float = 1.0
    mode: DispatchMode = DispatchMode.EVENT
    cache: CachePolicy = CachePolicy.NONE
    benchmarks: Tuple[str, ...] = BENCHMARK_NAMES

    def __post_init__(self) -> None:
        if self.warmup_iters < 1:
            raise ValueError("warmup_iters must be >= 1")
        if self.measure_iters < 3:
            raise ValueError("measure_iters must be >= 3")
        if self.iter_duration <= 0:
            raise ValueError("iter_duration must be positive")
        unknown = [b for b in self.benchmarks if b not in BENCHMARK_NAMES]
        if unknown:
            raise ValueError(f"unknown benchmarks: {', '.join(unknown)}")


@dataclass(frozen=True)
class BenchResult:
    benchmark: str
    mode: DispatchMode
    cache: CachePolicy
    throughput: float  # ops/ms, median over measurement iterations
    relative_error: float

    @property
    def unstable(self) -> bool:
        return self.relative_error >= UNSTABLE_THRESHOLD


def _run_iteration(runtime: Runtime, duration: float) -> float:
    """One timed window; returns ops/ms.

    The harness loops, so the measured operation is exactly one call of
    the benchmarked function (the loop is not interpreted program text).
    """
    call = runtime.call
    chunk_range = range(_CHUNK)
    ops = 0
    elapsed = 0.0
    while elapsed < duration:
        start = time.perf_counter()
        for _ in chunk_range:
            call("work", (7,))
        elapsed += time.perf_counter() - start
        ops += _CHUNK
    return ops / (elapsed * 1000.0)


def _measure_all(plan: Dict[str, Tuple[str, DispatchMode, CachePolicy]],
                 config: BenchConfig) -> Dict[str, BenchResult]:
    """Measure each (benchmark, mode, cache) of ``plan`` on a runtime of its own.

    The runtimes start once and take their windows in turn, so a drift of
    the host's speed during the run falls on every entry alike instead of
    on whichever ran last.  One CPU serves this thread and the bus threads
    it starts; left free, they wake on any CPU and event-mode scores swing
    from window to window.
    """
    pinned = hasattr(os, "sched_setaffinity")
    if pinned:
        old_mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(old_mask)})
    runtimes: Dict[str, Runtime] = {}
    scores: Dict[str, List[float]] = {key: [] for key in plan}
    try:
        for key, (name, mode, cache) in plan.items():
            runtimes[key] = Runtime(compile_benchmark(name), RunConfig(
                dispatch_mode=mode, cache_policy=cache)).start()
        for _ in range(config.warmup_iters):
            for runtime in runtimes.values():
                _run_iteration(runtime, config.iter_duration)
        for _ in range(config.measure_iters):
            for key, runtime in runtimes.items():
                gc.collect()  # so no window pays for garbage an earlier one left
                scores[key].append(_run_iteration(runtime, config.iter_duration))
    finally:
        for runtime in runtimes.values():
            runtime.shutdown()
        if pinned:
            os.sched_setaffinity(0, old_mask)
    results = {}
    for key, (name, mode, cache) in plan.items():
        mean = statistics.fmean(scores[key])
        rel_err = statistics.stdev(scores[key]) / mean if mean > 0 else 0.0
        results[key] = BenchResult(name, mode, cache, statistics.median(scores[key]), rel_err)
    return results


def _measure(name: str, config: BenchConfig) -> BenchResult:
    return _measure_all({name: (name, config.mode, config.cache)}, config)[name]


def run_benchmarks(config: Optional[BenchConfig] = None) -> List[BenchResult]:
    config = config or BenchConfig()
    ensure_bench_context()
    results = []
    for name in config.benchmarks:
        try:
            results.append(_measure(name, config))
        except Exception as exc:
            raise BenchHarnessError(
                f"benchmark '{name}' failed: {type(exc).__name__}: {exc}"
            ) from exc
    return results


def format_table(results: List[BenchResult]) -> str:
    header = f"{'Test':<22} {'Mode':<7} {'Cache':<6} {'Score(ops/ms)':>14} {'RelErr':>8}"
    lines = [header, "-" * len(header)]
    for r in results:
        flag = "  UNSTABLE" if r.unstable else ""
        lines.append(
            f"{r.benchmark:<22} {r.mode.value:<7} {r.cache.value:<6} "
            f"{r.throughput:>14.3f} {r.relative_error:>7.1%}{flag}"
        )
    return "\n".join(lines)


def results_payload(
    results: List[BenchResult], checks: Optional[List["PropertyCheck"]] = None
) -> Dict:
    """The JSON record of a run; with ``checks``, also each ordering's verdict."""
    payload = {
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "results": [
            {
                "benchmark": r.benchmark,
                "mode": r.mode.value,
                "cache": r.cache.value,
                "throughput_ops_per_ms": r.throughput,
                "relative_error": r.relative_error,
            }
            for r in results
        ],
    }
    if checks is not None:
        payload["checks"] = [
            {"name": c.name, "verdict": "PASS" if c.passed else "FAIL", "detail": c.detail}
            for c in checks
        ]
    return payload


# --- throughput ordering checks -------------------------------------------------


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    passed: bool
    detail: str


@dataclass
class PropertyReport:
    checks: List[PropertyCheck] = field(default_factory=list)
    results: Dict[str, BenchResult] = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def format(self) -> str:
        lines = []
        for check in self.checks:
            status = "PASS" if check.passed else "FAIL"
            lines.append(f"{status}  {check.name}: {check.detail}")
        return "\n".join(lines)


def run_property_checks(
    iter_duration: float = 1.0,
    warmup_iters: int = 2,
    measure_iters: int = 4,
) -> PropertyReport:
    """Measure the five configurations the ordering checks compare."""
    config = BenchConfig(warmup_iters, measure_iters, iter_duration)
    ensure_bench_context()
    plan = {
        "plain": ("plain_single", DispatchMode.EVENT, CachePolicy.NONE),
        "ctx_event": ("contextual_single", DispatchMode.EVENT, CachePolicy.NONE),
        "ctx_direct": ("contextual_single", DispatchMode.DIRECT, CachePolicy.NONE),
        "ctx_guard": ("contextual_single", DispatchMode.EVENT, CachePolicy.EPOCH_GUARD),
        "ctx_layered": ("contextual_layered10", DispatchMode.EVENT, CachePolicy.NONE),
    }
    report = PropertyReport()
    try:
        report.results = _measure_all(plan, config)
    except Exception as exc:
        raise BenchHarnessError(
            f"benchmark checks failed: {type(exc).__name__}: {exc}"
        ) from exc

    r = {key: result.throughput for key, result in report.results.items()}

    def add(name, passed, detail):
        report.checks.append(PropertyCheck(name, passed, detail))

    add(
        "plain >= 5x contextual (event, none)",
        r["plain"] >= 5.0 * r["ctx_event"],
        f"plain={r['plain']:.2f} contextual={r['ctx_event']:.2f} ops/ms",
    )
    add(
        "direct >= 1.2x event (contextual single)",
        r["ctx_direct"] >= 1.2 * r["ctx_event"],
        f"direct={r['ctx_direct']:.2f} event={r['ctx_event']:.2f} ops/ms",
    )
    add(
        "epoch guard >= 10x no cache (static context)",
        r["ctx_guard"] >= 10.0 * r["ctx_event"],
        f"guard={r['ctx_guard']:.2f} none={r['ctx_event']:.2f} ops/ms",
    )
    add(
        "layered-10 slower than single (contextual)",
        r["ctx_layered"] < r["ctx_event"],
        f"layered10={r['ctx_layered']:.2f} single={r['ctx_event']:.2f} ops/ms",
    )
    return report
