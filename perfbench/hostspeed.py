"""How fast the shared host runs Python right now, from a fixed reference workload.

The benchmark's VM shares its physical cores, caches and memory bandwidth
with other guests, and their load changes the speed of the same code by
20-40% over tens of seconds, in CPU time as well as in wall time.  The
reference is a small tree-walking interpreter in pure Python: slotted node
objects, method dispatch, dict lookups and small-int arithmetic, the same
kind of work as ConGo's evaluator, but without any ConGo code, so no
change to the program under test can change it.  Measured right before
and right after a timed window, it gives the host's speed during that
window, and the benchmark divides that speed out.

``speed()`` is the reference rate over ``NOMINAL_PASSES_PER_S``: 1.0 on the
host the benchmark was calibrated on, lower when the host is slower.  A
*reference second* is one CPU second times that factor, so a rate in
``ticks/ref_s`` is what the program would reach at the calibrated speed.
``Stopwatch`` times a block in reference seconds.
"""

from __future__ import annotations

import random
import time

# reference passes per CPU second on the calibration host (2-vCPU VM,
# Python 3.11.7), the median of 1000 passes
NOMINAL_PASSES_PER_S = 660.0
# passes per measurement: about 9 ms of CPU time
PASSES = 6
TREES = 40
DEPTH = 9
VARS = 8


class Num:
    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v

    def ev(self, env: dict) -> int:
        return self.v


class Var:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def ev(self, env: dict) -> int:
        return env[self.name]


class Bin:
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left, right):
        self.op, self.left, self.right = op, left, right

    def ev(self, env: dict) -> int:
        a, b = self.left.ev(env), self.right.ev(env)
        if self.op == "+":
            return (a + b) & 0xFFFF
        if self.op == "*":
            return (a * b) & 0xFFFF
        return a ^ b


def _tree(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.2:
        return Var(f"v{rng.randrange(VARS)}") if rng.random() < 0.5 \
            else Num(rng.randrange(100))
    return Bin(rng.choice("+*^"), _tree(rng, depth - 1), _tree(rng, depth - 1))


# fixed, whatever the benchmark's seed: every run measures the same work
_rng = random.Random(0)
_TREES = [_tree(_rng, DEPTH) for _ in range(TREES)]
_ENV = {f"v{i}": i + 3 for i in range(VARS)}
CHECKSUM = 0
for _t in _TREES:
    CHECKSUM ^= _t.ev(_ENV)


def one_pass() -> int:
    """Evaluate every tree once; returns the XOR of their values."""
    acc = 0
    for tree in _TREES:
        acc ^= tree.ev(_ENV)
    return acc


def speed() -> float:
    """The host's current speed relative to the calibration host."""
    start = time.process_time()
    for _ in range(PASSES):
        if one_pass() != CHECKSUM:
            raise AssertionError("hostspeed: the reference workload computed a wrong value")
    return PASSES / ((time.process_time() - start) * NOMINAL_PASSES_PER_S)


class Stopwatch:
    """Times a block in reference seconds: its CPU time, every thread of
    the process counted, times the host's speed measured right before and
    right after it."""

    seconds = 0.0

    def __enter__(self) -> "Stopwatch":
        self._speed = speed()
        self._start = time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        cpu = time.process_time() - self._start
        self.seconds = cpu * (self._speed + speed()) / 2
