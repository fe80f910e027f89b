"""Self-tests of the benchmark: its checks can fail, and its stages add up.

Run from the root of a checkout::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import shutil
import subprocess
import sys

import pytest

import run  # first: puts this checkout's src/ on the path

import hostspeed
import programs
import tracing
from congo import DecisionMaker, DecisionResponse, compile_source


class BaseOnly(DecisionMaker):
    """Wrong on purpose: always answers with the base alone."""

    def decide(self, request):
        base = next(s.variant_id for s in request.variants if not s.constraints)
        return DecisionResponse(request.request_id, (base,), request.snapshot_epoch)


def test_wrong_decision_maker_is_counted_as_failures():
    record = run.measure("steady_context", 3, 0.5, False, dm_factory=BaseOnly)
    assert record["failed"] > 0
    assert record["ops_failed_ratio"] > 0
    assert run.report(record)["correct"] is False


@pytest.fixture(scope="module")
def traced():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(run, "TICK_WINDOW", 0.25)
        mp.setattr(run, "PASSES", 1)
        return {w: run.measure(w, 5, 0.5, True) for w in run.WORKLOADS}


@pytest.mark.parametrize("workload", ["steady_context", "context_churn"])
@pytest.mark.parametrize("config", ["event_none", "direct_none"])
def test_traced_stages_sum_to_the_tick(traced, workload, config):
    record = traced[workload]
    assert record["failed"] == 0
    ratio = record["metrics"][f"trace.stage_sum_ratio.{config}"]["value"]
    assert 0.9 <= ratio <= 1.1
    assert record["metrics"][f"trace.overhead_ratio.{config}"]["value"] > 0


@pytest.mark.parametrize("workload,hit", [("steady_context", 1.0), ("context_churn", 0.0)])
def test_counts_split_as_designed(traced, workload, hit):
    metrics = traced[workload]["metrics"]
    calls = traced[workload]["program"]["contextual_calls_per_tick"]
    for config in ("event_none", "direct_none"):
        assert metrics[f"decision.decide.per_tick.{config}"]["value"] == calls
        assert metrics[f"interpreter.guard_hit_ratio.{config}"]["value"] == 0.0
    for config in ("event_guard", "direct_guard"):
        assert metrics[f"interpreter.guard_hit_ratio.{config}"]["value"] == hit
    publishes = 2.0 if workload == "context_churn" else 0.0
    assert metrics["bus.publish.per_tick.direct_none"]["value"] == publishes


def _synthetic_event_tick(wall_ns: int):
    """One event-mode tick: snapshot, request_reply carrying a decide, validate."""
    t = tracing.Tracer()
    client = [
        (tracing.TICK, 0, 1000, -1, 0, None),
        (tracing.SNAPSHOT, 10, 110, 0, 0, None),
        (tracing.REQUEST_REPLY, 200, 700, 0, 0, 1),
        (tracing.PUBLISH_REQUEST, 210, 230, 2, 0, None),
        (tracing.VALIDATE, 710, 760, 0, 0, None),
    ]
    bus = [(tracing.DECIDE, 300, 500, -1, 0, 1)]
    t.threads = [("main", client), ("congo-bus", bus)]
    return tracing.layer_stats(t, [("event_none", 0, 1, wall_ns / 1e9)], 1)["event_none"]


def test_stage_arithmetic_and_the_check_can_fail():
    stats = _synthetic_event_tick(1000)
    assert stats["bus.handoff.us"] == pytest.approx(0.3)
    assert stats["decision.decide.us"] == pytest.approx(0.2)
    assert stats["interpreter.self.us_per_tick"] == pytest.approx(0.35)
    assert stats["trace.stage_sum_ratio"] == pytest.approx(1.0)
    # time the spans do not cover (here, half the wall time) fails the 10% check
    assert _synthetic_event_tick(2000)["trace.stage_sum_ratio"] == pytest.approx(0.5)


def test_frontend_oracle_catches_a_wrong_table():
    program = programs.tick_program(4, False, filler_decls=300)
    lowered = compile_source(program.source)
    assert programs.check_tables(lowered, program.tables) == 0
    table = next(t for t in lowered.tables.values() if len(t.layers) > 1)
    table.layers.reverse()
    assert programs.check_tables(lowered, program.tables) == 1
    del lowered.tables[table.function_name]
    assert programs.check_tables(lowered, program.tables) == 2


@pytest.mark.parametrize("churn", [False, True])
def test_every_tick_of_every_seed_runs_the_same_layers(monkeypatch, churn):
    lengths = []
    chain = programs.Function.chain

    def counting(self, metas):
        layers = chain(self, metas)
        lengths.append(len(layers))
        return layers

    monkeypatch.setattr(programs.Function, "chain", counting)
    for seed in (1, 2, 3, 4):
        program = programs.tick_program(seed, churn)
        # four layered calls per tick; their chains hold 19 variants in all
        assert len(lengths) == 4 * len(program.tick_args)
        assert {sum(lengths[i:i + 4]) for i in range(0, len(lengths), 4)} == {19}
        lengths.clear()


def test_host_speed_reference_is_fixed_and_checked(monkeypatch):
    assert hostspeed.one_pass() == hostspeed.CHECKSUM
    assert hostspeed.speed() > 0
    monkeypatch.setattr(hostspeed, "CHECKSUM", hostspeed.CHECKSUM + 1)
    with pytest.raises(AssertionError):
        hostspeed.speed()


def test_inputs_come_from_the_seed():
    a, b = programs.tick_program(7, True), programs.tick_program(7, True)
    assert (a.source, a.tick_args, a.expected) == (b.source, b.tick_args, b.expected)
    assert programs.tick_program(8, True).source != a.source


def test_refuses_to_run_without_the_program():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "steady_context",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
