import itertools
import json
import os

import pytest

from congo.bench import (
    BENCHMARK_NAMES,
    BenchConfig,
    BenchResult,
    benchmark_source,
    compile_benchmark,
    ensure_bench_context,
    format_table,
    results_payload,
    run_benchmarks,
)
from congo.errors import BenchHarnessError
from congo.interpreter import CachePolicy, DispatchMode, RunConfig, Runtime

TINY = dict(warmup_iters=1, measure_iters=3, iter_duration=0.02)


def tiny_config(**kw):
    merged = {**TINY, **kw}
    return BenchConfig(**merged)


def test_benchmark_sources_compile_and_run():
    ensure_bench_context()
    for name in BENCHMARK_NAMES:
        lowered = compile_benchmark(name)
        with Runtime(lowered, RunConfig(dispatch_mode=DispatchMode.DIRECT)) as rt:
            value = rt.call("work", (7,))
        assert isinstance(value, int)


def test_workloads_compute_distinct_values():
    ensure_bench_context()

    def result_of(name):
        lowered = compile_benchmark(name)
        with Runtime(lowered, RunConfig(dispatch_mode=DispatchMode.DIRECT)) as rt:
            return rt.call("work", (7,))

    assert result_of("plain_single") == 8
    assert result_of("contextual_single") == 9  # layered variant wins
    assert result_of("plain_layered10") == 8
    assert result_of("contextual_layered10") == 8  # every layer proceeds to base


@pytest.mark.parametrize(
    "kw",
    [
        dict(warmup_iters=0),
        dict(measure_iters=2),
        dict(iter_duration=0.0),
        dict(iter_duration=-1.0),
        dict(benchmarks=("nope",)),
    ],
)
def test_config_validation(kw):
    with pytest.raises(ValueError):
        tiny_config(**kw)


def test_unknown_source_name():
    with pytest.raises(KeyError):
        benchmark_source("nope")


def test_results_have_positive_throughput():
    results = run_benchmarks(tiny_config(benchmarks=("plain_single",)))
    assert len(results) == 1
    r = results[0]
    assert r.benchmark == "plain_single"
    assert r.throughput > 0
    assert r.relative_error >= 0.0


def test_unstable_flag_threshold():
    base = dict(
        benchmark="b",
        mode=DispatchMode.EVENT,
        cache=CachePolicy.NONE,
        throughput=1.0,
    )
    assert BenchResult(relative_error=0.10, **base).unstable
    assert BenchResult(relative_error=0.25, **base).unstable
    assert not BenchResult(relative_error=0.09, **base).unstable


@pytest.mark.parametrize(
    "scores, unstable", [((1.0, 2.0), True), ((1.0, 1.0), False)], ids=["noisy", "steady"]
)
def test_measure_flags_noisy_windows(monkeypatch, scores, unstable):
    import congo.bench as bench_mod

    windows = itertools.cycle(scores)
    monkeypatch.setattr(bench_mod, "_run_iteration", lambda runtime, duration: next(windows))
    ensure_bench_context()
    result = bench_mod._measure("plain_single", tiny_config(measure_iters=4))
    assert result.throughput == pytest.approx(sum(scores) / 2)
    assert result.unstable is unstable


def test_measure_reports_the_median_and_collects_before_each_window(monkeypatch):
    import congo.bench as bench_mod

    events = []
    windows = iter([5.0, 1.0, 1.0, 10.0])  # one warmup, three measured

    def window(runtime, duration):
        events.append("window")
        return next(windows)

    monkeypatch.setattr(bench_mod, "_run_iteration", window)
    monkeypatch.setattr(bench_mod.gc, "collect", lambda: events.append("gc"))
    ensure_bench_context()
    result = bench_mod._measure("plain_single", tiny_config(measure_iters=3))
    assert result.throughput == 1.0
    assert result.unstable  # relative error is still stdev over mean
    assert events == ["window"] + ["gc", "window"] * 3


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform"
)
def test_benchmarks_run_on_one_cpu_and_restore_the_mask(monkeypatch):
    import congo.bench as bench_mod

    masks = []

    def window(runtime, duration):
        masks.append(os.sched_getaffinity(0))
        return 1.0

    monkeypatch.setattr(bench_mod, "_run_iteration", window)
    before = os.sched_getaffinity(0)
    run_benchmarks(tiny_config(benchmarks=("plain_single",)))
    assert os.sched_getaffinity(0) == before
    assert masks and all(mask == {max(before)} for mask in masks)
    # also restored when a benchmark fails
    monkeypatch.setattr(bench_mod, "_run_iteration", lambda runtime, duration: 1 / 0)
    with pytest.raises(BenchHarnessError):
        run_benchmarks(tiny_config(benchmarks=("plain_single",)))
    assert os.sched_getaffinity(0) == before


def test_format_table_layout():
    steady = BenchResult(
        benchmark="plain_single",
        mode=DispatchMode.EVENT,
        cache=CachePolicy.NONE,
        throughput=10.0,
        relative_error=0.01,
    )
    noisy = BenchResult(
        benchmark="contextual_single",
        mode=DispatchMode.DIRECT,
        cache=CachePolicy.EPOCH_GUARD,
        throughput=6.0,
        relative_error=0.30,
    )
    table = format_table([steady, noisy])
    lines = table.splitlines()
    assert "Score(ops/ms)" in lines[0]
    assert "plain_single" in lines[2] and "UNSTABLE" not in lines[2]
    assert "contextual_single" in lines[3] and lines[3].endswith("UNSTABLE")
    assert "guard" in lines[3]


def test_payload_schema_is_json_ready():
    results = run_benchmarks(
        tiny_config(
            benchmarks=("plain_single", "contextual_single"),
            mode=DispatchMode.DIRECT,
            cache=CachePolicy.EPOCH_GUARD,
        )
    )
    payload = results_payload(results)
    parsed = json.loads(json.dumps(payload))
    assert set(parsed) == {"host", "results"}
    assert set(parsed["host"]) == {"python", "platform", "cpu_count"}
    entries = parsed["results"]
    assert [e["benchmark"] for e in entries] == ["plain_single", "contextual_single"]
    for e in entries:
        assert e["mode"] == "direct"
        assert e["cache"] == "guard"
        assert e["throughput_ops_per_ms"] > 0
        assert 0.0 <= e["relative_error"]


def test_run_order_follows_request_order():
    names = ("contextual_single", "plain_single")
    results = run_benchmarks(tiny_config(benchmarks=names))
    assert tuple(r.benchmark for r in results) == names


def test_harness_errors_are_wrapped(monkeypatch):
    import congo.bench as bench_mod

    def boom(name):
        raise RuntimeError("sabotaged")

    monkeypatch.setattr(bench_mod, "compile_benchmark", boom)
    with pytest.raises(BenchHarnessError) as err:
        run_benchmarks(tiny_config(benchmarks=("plain_single",)))
    assert "plain_single" in str(err.value)


def test_direct_mode_not_slower_than_event_for_plain_code():
    # plain workloads never touch the dispatcher, so mode must not matter much
    event = run_benchmarks(tiny_config(mode=DispatchMode.EVENT, benchmarks=("plain_single",)))
    direct = run_benchmarks(tiny_config(mode=DispatchMode.DIRECT, benchmarks=("plain_single",)))
    hi = max(event[0].throughput, direct[0].throughput)
    lo = min(event[0].throughput, direct[0].throughput)
    assert hi / lo < 5.0  # generous: tiny iterations are noisy
