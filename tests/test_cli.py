import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import congo
from congo.cli import main

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


HELLO = 'module m\nfunction main = || { println("hi " + 2) }\n'

LAYERED = (
    "module m\n"
    "contexts = [Weather()]\n"
    "function f = |x| -> x\n"
    "function f = |x| @(Weather=RAINY) -> proceed(x + 100)\n"
    "function main = || { println(f(1)) }\n"
)


def test_run_prints_program_output(tmp_path, capsys):
    code = main(["run", write(tmp_path, "p.congo", HELLO)])
    assert code == 0
    assert capsys.readouterr().out == "hi 2\n"


def test_missing_file_is_an_io_error(tmp_path, capsys):
    code = main(["run", str(tmp_path / "absent.congo")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR Io: cannot read")


def test_parse_errors_carry_file_and_span(tmp_path, capsys):
    code = main(["run", write(tmp_path, "bad.congo", "module m\nlet x = 1\n")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR Parse at ")
    assert "bad.congo:2:1" in err


def test_runtime_errors_report_kind(tmp_path, capsys):
    src = "module m\nfunction main = || -> 1 / 0\n"
    code = main(["run", write(tmp_path, "div.congo", src)])
    assert code == 1
    assert "ERROR DivisionByZero at " in capsys.readouterr().err


def cli(*argv):
    """A ``congo`` subprocess: its stack and stderr are the ones a user gets."""
    env = dict(os.environ, PYTHONPATH=str(Path(congo.__file__).parent.parent))
    return subprocess.run(
        [sys.executable, "-m", "congo.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def cli_error_line(*argv):
    """The one stderr line of a ``congo`` subprocess that must fail."""
    proc = cli(*argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "Traceback" not in proc.stderr
    return lines[0]


def test_deep_recursion_is_one_error_line(tmp_path):
    src = (
        "module m\n"
        "function f = |n| { if n == 0 { return 0 } return 1 + f(n - 1) }\n"
        "function main = || { println(f(5000)) }\n"
    )
    path = write(tmp_path, "deep.congo", src)
    assert cli_error_line("run", path).startswith(f"ERROR StackOverflow at {path}:")


def test_recursion_reaches_depth_190(tmp_path):
    src = (
        "module m\n"
        "function f = |n| { if n == 0 { return 0 } return 1 + f(n - 1) }\n"
        "function main = || { println(f(190)) }\n"
    )
    proc = cli("run", write(tmp_path, "depth.congo", src))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "190\n", "")


def test_recursion_reaches_depth_240(tmp_path):
    # holds at up to four Python frames per call, which reach f(245); the
    # next test pins the depth of two
    src = (
        "module m\n"
        "function f = |n| { if n == 0 { return 0 } return 1 + f(n - 1) }\n"
        "function main = || { println(f(240)) }\n"
    )
    proc = cli("run", write(tmp_path, "depth.congo", src))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "240\n", "")


def test_recursion_reaches_depth_480(tmp_path):
    # a call costs two Python frames, _invoke and the body's generated
    # function, which reaches f(493) under the default recursion limit; a
    # third frame per call stops near f(330)
    src = (
        "module m\n"
        "function f = |n| { if n == 0 { return 0 } return 1 + f(n - 1) }\n"
        "function main = || { println(f(480)) }\n"
    )
    proc = cli("run", write(tmp_path, "depth.congo", src))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "480\n", "")


def test_deep_nesting_is_one_parse_error_line(tmp_path):
    src = "module m\nfunction main = || -> " + "(" * 300 + "1" + ")" * 300 + "\n"
    path = write(tmp_path, "nested.congo", src)
    line = cli_error_line("run", path)
    assert line.startswith(f"ERROR Parse at {path}:2:")
    assert line.endswith(": nesting too deep")


def test_blocks_too_deep_to_compile_are_one_error_line(tmp_path):
    src = "module m\nfunction main = || " + "{ " * 400 + "println(1)" + " }" * 400 + "\n"
    path = write(tmp_path, "blocks.congo", src)
    line = cli_error_line("run", path)
    assert line == f"ERROR StackOverflow at {path}:2:17: block nesting too deep to compile"


def test_integer_literal_past_the_digit_limit_is_one_lex_error_line(tmp_path):
    src = "module m\nfunction main = || { println(" + "7" * 5000 + ") }\n"
    path = write(tmp_path, "long.congo", src)
    line = cli_error_line("run", path)
    assert line.startswith(f"ERROR Lex at {path}:2:30: integer literal has more than ")


@pytest.mark.parametrize("use,column", [("println(x)", 3), ('println("n=" + x)', 16)])
def test_integer_too_long_to_print_is_one_runtime_error_line(tmp_path, use, column):
    src = (
        "module m\n"
        "function main = || {\n"
        "  let x = 1\n"
        "  let i = 0\n"
        "  while i < 5000 {\n"
        "    x = x * 10\n"
        "    i = i + 1\n"
        "  }\n"
        f"  {use}\n"
        "}\n"
    )
    path = write(tmp_path, "huge.congo", src)
    line = cli_error_line("run", path)
    assert line.startswith(f"ERROR Runtime at {path}:9:{column}: integer has more than ")


@pytest.mark.parametrize("op", ["+", "-", "*", "/", "%"])
def test_huge_integer_mixed_with_a_float_is_one_runtime_error_line(tmp_path, op):
    src = (
        "module m\n"
        "function main = || {\n"
        "  let big = 1\n"
        "  while big < 1" + "0" * 400 + " { big = big * 10 }\n"
        f"  println(big {op} 0.5)\n"
        "}\n"
    )
    path = write(tmp_path, "mixed.congo", src)
    line = cli_error_line("run", path)
    assert line == (
        f"ERROR Runtime at {path}:5:15: integer operand of '{op}' is too large "
        "to mix with a float"
    )


@pytest.mark.parametrize("dispatch", ["event", "direct"])
def test_set_concrete_on_an_illegal_context_name_is_one_error_line(tmp_path, dispatch):
    src = 'module m\nfunction main = || { setConcrete("a/b", "k", 1) }\n'
    path = write(tmp_path, "topic.congo", src)
    line = cli_error_line("run", path, "--dispatch", dispatch)
    assert line.startswith(f"ERROR Type at {path}:2:22: setConcrete context name 'a/b'")


def test_undecodable_program_is_one_io_error_line(tmp_path):
    path = tmp_path / "binary.congo"
    path.write_bytes(b"module m\nfunction main = || -> 1 \xff\n")
    line = cli_error_line("run", str(path))
    assert line.startswith(f"ERROR Io: cannot read {path}: not UTF-8 text")


def test_undecodable_feed_is_one_io_error_line(tmp_path):
    feed = tmp_path / "binary.feed"
    feed.write_bytes(b"Weather.rainfall_mm=\xff\n")
    line = cli_error_line("run", write(tmp_path, "p.congo", LAYERED), "--feed", str(feed))
    assert line.startswith(f"ERROR Io: cannot read {feed}: not UTF-8 text")


# registers a descriptor that always raises, then runs the CLI on argv[1:]
_EXPLODING_CLI = """
import sys
from congo.cli import main
from congo.context import register_context

class Exploding:
    name = "Exploding"

    def evaluate(self, view):
        raise RuntimeError("sensor offline")

register_context("Exploding", Exploding)
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("dispatch", ["event", "direct"])
def test_raising_descriptor_in_current_meta_is_one_error_line(tmp_path, dispatch):
    src = (
        "module m\n"
        "contexts = [Exploding()]\n"
        "function main = || { println(currentMeta(\"Exploding\")) }\n"
    )
    path = write(tmp_path, "meta.congo", src)
    env = dict(os.environ, PYTHONPATH=str(Path(congo.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", _EXPLODING_CLI, "run", path, "--dispatch", dispatch],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "Traceback" not in proc.stderr
    assert lines[0].startswith(f"ERROR ContextEvaluation at {path}:3:30: ")
    assert "sensor offline" in lines[0]


def test_entry_override(tmp_path, capsys):
    src = 'module m\nfunction greet = || { println("from greet") }\n'
    code = main(["run", write(tmp_path, "p.congo", src), "--entry", "greet"])
    assert code == 0
    assert capsys.readouterr().out == "from greet\n"


def test_set_seeds_concrete_values(tmp_path, capsys):
    path = write(tmp_path, "p.congo", LAYERED)
    assert main(["run", path]) == 0
    assert capsys.readouterr().out == "1\n"
    assert main(["run", path, "--set", "Weather.rainfall_mm=9.0"]) == 0
    assert capsys.readouterr().out == "101\n"


def test_malformed_set_is_a_usage_error(tmp_path, capsys):
    path = write(tmp_path, "p.congo", HELLO)
    assert main(["run", path, "--set", "no-equals-here"]) == 2
    assert "Ctx.key=val" in capsys.readouterr().err


def test_feed_file_applies_lines(tmp_path, capsys):
    program = write(tmp_path, "p.congo", LAYERED)
    feed = write(
        tmp_path, "values.feed", "# comment\n\nWeather.rainfall_mm=9.0\n"
    )
    assert main(["run", program, "--feed", feed]) == 0
    assert capsys.readouterr().out == "101\n"


def test_bad_feed_line_reports_feed_error(tmp_path, capsys):
    program = write(tmp_path, "p.congo", HELLO)
    feed = write(tmp_path, "values.feed", "garbage\n")
    assert main(["run", program, "--feed", feed]) == 1
    assert capsys.readouterr().err.startswith("ERROR Feed")


def test_dispatch_and_cache_flags(tmp_path, capsys):
    path = write(tmp_path, "p.congo", LAYERED)
    for extra in (
        ["--dispatch", "direct"],
        ["--cache", "guard"],
        ["--dispatch", "direct", "--cache", "guard"],
    ):
        assert main(["run", path, "--set", "Weather.rainfall_mm=9.0", *extra]) == 0
        assert capsys.readouterr().out == "101\n"


def test_trace_bus_goes_to_stderr(tmp_path, capsys):
    path = write(tmp_path, "p.congo", LAYERED)
    assert main(["run", path, "--trace-bus"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "1\n"
    trace_lines = [l for l in captured.err.splitlines() if l.startswith("SEQ ")]
    assert any("InvocationRequest" in l for l in trace_lines)
    assert any("DecisionResponse" in l for l in trace_lines)


def test_trace_bus_lines_of_the_weather_demo_are_pinned(capsys):
    # one decision per report(), one ContextChanged per setConcrete, in order
    assert main(["run", str(DEMOS / "weather.congo"), "--trace-bus"]) == 0
    trace_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("SEQ ")]
    assert trace_lines == [
        "SEQ 1 congo/decision/request/demo/weather InvocationRequest",
        "SEQ 2 congo/decision/reply/1 DecisionResponse",
        "SEQ 3 congo/context/changed/Weather ContextChanged",
        "SEQ 4 congo/decision/request/demo/weather InvocationRequest",
        "SEQ 5 congo/decision/reply/2 DecisionResponse",
        "SEQ 6 congo/context/changed/Battery ContextChanged",
        "SEQ 7 congo/decision/request/demo/weather InvocationRequest",
        "SEQ 8 congo/decision/reply/3 DecisionResponse",
    ]


def test_emit_ir_skips_execution(tmp_path, capsys):
    path = write(tmp_path, "p.congo", LAYERED)
    assert main(["run", path, "--emit-ir"]) == 0
    out = capsys.readouterr().out
    assert "f__$context$__Weather_RAINY" in out
    assert "101" not in out  # program did not run


def test_unknown_decision_maker_flag(tmp_path, capsys):
    path = write(tmp_path, "p.congo", HELLO)
    assert main(["run", path, "--decision-maker", "missing"]) == 1
    assert "ERROR UnknownDecisionMaker" in capsys.readouterr().err


@pytest.mark.parametrize("demo", sorted(DEMOS.glob("*.congo")), ids=lambda p: p.stem)
def test_demos_run_clean(demo, capsys):
    assert main(["run", str(demo)]) == 0
    assert capsys.readouterr().out != ""


# the --set seeds the README shows
README_SEEDS = ((), ("ConfusedHero.confused=true",), ("Weather.rainfall_mm=7.0",))


@pytest.mark.parametrize("demo", sorted(DEMOS.glob("*.congo")), ids=lambda p: p.stem)
def test_demos_print_the_same_lines_in_every_configuration(demo, capsys):
    for seed in README_SEEDS:
        flags = [arg for assignment in seed for arg in ("--set", assignment)]
        outputs = {}
        for dispatch in ("event", "direct"):
            for cache in ("none", "guard"):
                argv = ["run", str(demo), "--dispatch", dispatch, "--cache", cache]
                assert main(argv + flags) == 0
                outputs[dispatch, cache] = capsys.readouterr().out
        expected = outputs["event", "none"]
        assert expected != ""
        assert outputs == dict.fromkeys(outputs, expected), seed


def test_bench_table_and_json(tmp_path, capsys):
    out_file = tmp_path / "results.json"
    code = main(
        [
            "bench",
            "--benchmarks", "plain_single",
            "--warmup", "1",
            "--measure", "3",
            "--duration", "0.02",
            "--json", str(out_file),
        ]
    )
    assert code == 0
    table = capsys.readouterr().out
    assert "plain_single" in table and "Score(ops/ms)" in table
    payload = json.loads(out_file.read_text(encoding="utf-8"))
    assert payload["results"][0]["benchmark"] == "plain_single"
    assert payload["results"][0]["throughput_ops_per_ms"] > 0


def test_bench_json_to_an_unwritable_path_is_one_io_error_line(tmp_path, capsys):
    out_file = tmp_path / "missing" / "results.json"
    code = main([
        "bench", "--benchmarks", "plain_single", "--warmup", "1", "--measure", "3",
        "--duration", "0.02", "--json", str(out_file),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"ERROR Io: cannot write {out_file}: No such file or directory\n"


CHECK_ARGS = ("bench", "--check", "--warmup", "1", "--measure", "3", "--duration", "0.02")


def test_bench_check_writes_measurements_and_verdicts_to_json(tmp_path, capsys):
    out_file = tmp_path / "check.json"
    code = main([*CHECK_ARGS, "--json", str(out_file)])
    printed = capsys.readouterr().out
    payload = json.loads(out_file.read_text(encoding="utf-8"))
    configurations = [(r["benchmark"], r["mode"], r["cache"]) for r in payload["results"]]
    assert configurations == [
        ("plain_single", "event", "none"),
        ("contextual_single", "event", "none"),
        ("contextual_single", "direct", "none"),
        ("contextual_single", "event", "guard"),
        ("contextual_layered10", "event", "none"),
    ]
    assert all(r["throughput_ops_per_ms"] > 0 for r in payload["results"])
    checks = payload["checks"]
    assert len(checks) == 4
    for check in checks:
        assert check["verdict"] in ("PASS", "FAIL")
        assert f"{check['verdict']}  {check['name']}: {check['detail']}" in printed
    assert code == (0 if all(c["verdict"] == "PASS" for c in checks) else 1)


def test_bench_check_json_to_an_unwritable_path_is_one_io_error_line(tmp_path, capsys):
    out_file = tmp_path / "missing" / "check.json"
    assert main([*CHECK_ARGS, "--json", str(out_file)]) == 1
    err = capsys.readouterr().err
    assert err == f"ERROR Io: cannot write {out_file}: No such file or directory\n"


def test_python_dash_m_congo_runs_a_demo():
    demo = str(DEMOS / "weather.congo")
    env = dict(os.environ, PYTHONPATH=str(Path(congo.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "congo", "run", demo],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout != "" and proc.stdout == cli("run", demo).stdout


def test_bench_rejects_bad_settings(capsys):
    assert main(["bench", "--warmup", "0"]) == 2
    assert capsys.readouterr().err.startswith("ERROR BenchConfig:")


@pytest.mark.parametrize("setting", [("--warmup", "0"), ("--measure", "2")],
                         ids=["warmup", "measure"])
def test_bench_check_rejects_the_settings_bench_rejects(capsys, setting):
    assert main(["bench", "--check", *setting, "--duration", "0.01"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("ERROR BenchConfig:")
    assert captured.out == ""  # refused before any window ran


def test_bench_rejects_unknown_benchmark_name(capsys):
    assert main(["bench", "--benchmarks", "nope"]) == 2
    assert "invalid choice: 'nope' (choose from 'plain_single', " in capsys.readouterr().err


def test_importing_the_cli_loads_no_bench_harness():
    env = dict(os.environ, PYTHONPATH=str(Path(congo.__file__).parent.parent))
    probe = (
        "import sys, congo.cli\n"
        "print([m for m in ('congo.bench', 'statistics', 'fractions', 'platform')"
        " if m in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_missing_subcommand_is_a_usage_error(capsys):
    assert main([]) == 2
