"""Seeded ConGo programs for the benchmark, each with an independent oracle.

The generator writes the program text and, from the same random draws,
computes in Python what every tick must return.  It never asks ConGo for
an answer: the expected value comes from inlining the LIFO chain by hand
(eligible layers in reverse declaration order, base innermost,
before/after values discarded) over the meta state the generator itself
drives.  For the front end it lists every table and mangled variant name
that lowering must produce.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from congo import ContextDescriptor, register_context

GAUGE_THRESHOLD = 50.0
GAUGES = tuple(f"Gauge{i}" for i in range(5))
# context name -> (concrete key, the two meta symbols it can produce)
CONTEXTS = {
    "Weather": ("rainfall_mm", ("RAINY", "CLEAR")),
    "Battery": ("charge_pct", ("LOW", "OK")),
    "ConfusedHero": ("confused", ("TRUE", "FALSE")),
    **{g: ("level", ("HIGH", "LOW")) for g in GAUGES},
}
# the churn trace writes these two, both on every tick
DRIVEN = ("Gauge0", "Gauge1")
CONCRETE_KEYS = 64
MANGLE_MARKER = "__$context$__"
DM_NAME = "perfbench.dm"


class GaugeContext(ContextDescriptor):
    """``HIGH`` when ``<name>.level`` is a number at or above 50, else ``LOW``."""

    def __init__(self, name: str):
        self.name = name

    def evaluate(self, store) -> frozenset:
        level = store.get(self.name, "level")
        if isinstance(level, (int, float)) and not isinstance(level, bool) \
                and level >= GAUGE_THRESHOLD:
            return frozenset({"HIGH"})
        return frozenset({"LOW"})


def register_gauges() -> None:
    for name in GAUGES:
        register_context(name, lambda name=name: GaugeContext(name))


def concrete_for(context: str, meta: str, rng: random.Random):
    """A concrete value that the context maps to ``meta``."""
    if context == "Weather":
        return round(rng.uniform(1.0, 30.0), 2) if meta == "RAINY" \
            else round(rng.uniform(0.0, 0.9), 2)
    if context == "Battery":
        return round(rng.uniform(1.0, 19.0), 2) if meta == "LOW" \
            else round(rng.uniform(21.0, 100.0), 2)
    if context == "ConfusedHero":
        return meta == "TRUE"
    return round(rng.uniform(50.0, 99.0), 2) if meta == "HIGH" \
        else round(rng.uniform(0.0, 49.0), 2)


def mangled(name: str, constraints) -> str:
    pairs = sorted(constraints)
    return name + MANGLE_MARKER + "__".join(f"{c}_{m}" for c, m in pairs)


# --- layered functions ------------------------------------------------------------

# A variant is (constraints, mode, source body, python step).  A step takes
# the argument and ``nxt`` (the rest of the chain, a function of its
# argument) and returns the variant's value; ``state`` is the receiver's
# ``n`` property, which before/after layers update.


@dataclass
class Variant:
    constraints: Tuple[Tuple[str, str], ...]
    mode: str  # "REPLACE" | "BEFORE_BASE" | "AFTER_BASE"
    source: str
    step: Callable


@dataclass
class Function:
    name: str
    params: str
    variants: List[Variant]  # declaration order; the base is first

    def chain(self, metas: Dict[str, str]) -> List[Variant]:
        layers = [v for v in self.variants[1:]
                  if all(metas[c] == m for c, m in v.constraints)]
        return list(reversed(layers)) + [self.variants[0]]

    def call(self, metas: Dict[str, str], x: int, state: List[int]) -> int:
        chain = self.chain(metas)

        def run(i: int, arg: int) -> int:
            return chain[i].step(arg, lambda a: run(i + 1, a), state)

        return run(0, x)


def _constraint_sets(rng, metas, eligible: int, total: int, contexts, twins=()):
    """``total`` distinct constraint sets of which ``eligible`` match ``metas``.

    Each context in ``twins`` gives two of the sets, one for each of its
    metas, so exactly one of the two is eligible whatever that context's
    meta is.  The other sets use only ``contexts``.
    """
    chosen: List[Tuple[Tuple[str, str], ...]] = [
        ((ctx, meta),) for ctx in twins for meta in CONTEXTS[ctx][1]]
    eligible += len(twins)
    seen = set(frozenset(c) for c in chosen)
    while len(chosen) < total:
        want_match = len(chosen) < eligible
        # sizes alternate 1, 2 so that the seed does not change how many
        # constraints a decision checks
        picked = rng.sample(contexts, 1 + len(chosen) % 2)
        pairs = []
        for i, ctx in enumerate(sorted(picked)):
            current = metas[ctx]
            other = next(m for m in CONTEXTS[ctx][1] if m != current)
            pairs.append((ctx, current if want_match or i else other))
        key = frozenset(pairs)
        if key in seen:
            continue
        seen.add(key)
        chosen.append(tuple(pairs))
    order = list(range(total))
    rng.shuffle(order)
    return [chosen[i] for i in order]


def _annot(constraints, mode: str) -> str:
    body = "@(" + ", ".join(f"{c}={m}" for c, m in constraints) + ")"
    return {"REPLACE": body, "BEFORE_BASE": body + "+", "AFTER_BASE": "+" + body}[mode]


def _make_functions(rng: random.Random, metas: Dict[str, str], contexts) -> List[Function]:
    """The four layered functions.

    Only twinned sets name a driven context, so the churn trace changes
    which layers run but never how many: every seed and every tick runs
    the same number of layers.
    """
    fns = []
    free = [c for c in contexts if c not in DRIVEN]

    # f4: four replace layers that rewrite the argument with proceed(args)
    b0 = rng.randint(1, 9)
    variants = [Variant((), "REPLACE", f"x + {b0}", lambda x, nxt, s, b0=b0: x + b0)]
    for cons in _constraint_sets(rng, metas, 3, 4, free, twins=DRIVEN[:1]):
        a, c, d = rng.randint(2, 5), rng.randint(1, 50), rng.randint(1, 50)
        variants.append(Variant(
            cons, "REPLACE", f"proceed(x * {a} + {c}) + {d}",
            lambda x, nxt, s, a=a, c=c, d=d: nxt(x * a + c) + d))
    fns.append(Function("f4", "x", variants))

    # s10: ten stacked layers forwarding the original argument
    variants = [Variant((), "REPLACE", "x % 97", lambda x, nxt, s: x % 97)]
    for cons in _constraint_sets(rng, metas, 8, 10, free, twins=DRIVEN):
        c = rng.randint(1, 9)
        variants.append(Variant(
            cons, "REPLACE", f"proceed() * 3 + {c}",
            lambda x, nxt, s, c=c: nxt(x) * 3 + c))
    fns.append(Function("s10", "x", variants))

    # ba: a before and an after layer around the base; their values are
    # discarded, so they show only through the receiver's n property
    k = rng.randint(2, 9)
    before, after = _constraint_sets(rng, metas, 2, 2, free)

    def before_step(x, nxt, s):
        s[0] += x
        return nxt(x)

    def after_step(x, nxt, s):
        value = nxt(x)
        s[0] = s[0] * 2 + 1
        return value

    fns.append(Function("ba", "o, x", [
        Variant((), "REPLACE", f"x * {k}", lambda x, nxt, s, k=k: x * k),
        Variant(before, "BEFORE_BASE", "{ o: n(o: n() + x) }", before_step),
        Variant(after, "AFTER_BASE", "{ o: n(o: n() * 2 + 1) }", after_step),
    ]))

    # m: a method on the object, decided by the object's own decision maker
    e0, e1, e2 = (rng.randint(1, 30) for _ in range(3))
    c1, c2 = _constraint_sets(rng, metas, 2, 2, free)
    fns.append(Function("m", "this, x", [
        Variant((), "REPLACE", f"x + {e0}", lambda x, nxt, s, e0=e0: x + e0),
        Variant(c1, "REPLACE", f"proceed(x + {e1}) * 2",
                lambda x, nxt, s, e1=e1: nxt(x + e1) * 2),
        Variant(c2, "REPLACE", f"proceed() + {e2}",
                lambda x, nxt, s, e2=e2: nxt(x) + e2),
    ]))
    return fns


@dataclass
class TickProgram:
    """Source, set-up values, per-tick inputs with answers, and expected tables."""

    source: str
    initial_values: Tuple[Tuple[str, str, object], ...]
    tick_args: List[tuple]  # arguments after the object
    expected: List[int]
    contextual_calls_per_tick: int
    tables: Dict[str, List[Tuple[str, int, str]]]


def _tables_of(fns: List[Function]) -> Dict[str, List[Tuple[str, int, str]]]:
    """Expected lowered tables: name -> [(mangled name, index, mode)]."""
    tables = {}
    for fn in fns:
        rows = []
        for i, v in enumerate(fn.variants):
            rows.append((mangled(fn.name, v.constraints) if v.constraints else fn.name,
                         i, v.mode))
        tables[fn.name] = rows
    return tables


def _initial_values(rng, metas) -> Tuple[Tuple[str, str, object], ...]:
    values = [(ctx, CONTEXTS[ctx][0], concrete_for(ctx, metas[ctx], rng))
              for ctx in CONTEXTS]
    for i in range(CONCRETE_KEYS - len(values)):
        values.append(("Aux", f"k{i:02d}", round(rng.uniform(-1e3, 1e3), 3)))
    return tuple(values)


def tick_program(seed: int, churn: bool, filler_decls: int = 0,
                 ticks: int = 512) -> TickProgram:
    """The runtime workload program, with ``filler_decls`` front-end
    declarations appended.

    Each tick resets the object's ``n``, makes one call to each of the
    four layered functions (one of them a method) and two plain calls.
    With ``churn`` it first writes both driven gauges from a seeded
    trace whose metas hold for 2 to 6 ticks.
    """
    rng = random.Random(seed)
    contexts = sorted(CONTEXTS)
    metas = {ctx: rng.choice(CONTEXTS[ctx][1]) for ctx in contexts}
    fns = _make_functions(rng, metas, contexts)
    f4, s10, ba, m = fns
    p1a, p1b = rng.randint(2, 9), rng.randint(1, 99)
    p2c = rng.randint(1, 50)

    lines = [f"module perfbench.{'churn' if churn else 'steady'}{seed}", "",
             "contexts = [" + ", ".join(f"{c}()" for c in contexts) + "]", ""]
    lines.append(f"function p1 = |x| -> x * {p1a} + {p1b}")
    lines.append(f"function p2 = |x| {{\n  let y = x + {p2c}\n  return y * y % 1009\n}}")
    for fn in (f4, s10, ba):
        for v in fn.variants:
            ann = _annot(v.constraints, v.mode) + " " if v.constraints else ""
            arrow = "" if v.source.startswith("{") else "-> "
            lines.append(f"function {fn.name} = |{fn.params}| {ann}{arrow}{v.source}")
    lines.append("function setup = || {")
    lines.append("  let o = DynamicObject(): n(0)")
    for v in m.variants:
        ann = _annot(v.constraints, v.mode) + " " if v.constraints else ""
        lines.append(f'  o: define("m", |{m.params}| {ann}-> {v.source})')
    lines.append(f'  o: decisionmaker(decisionMaker("{DM_NAME}"))')
    lines.append("  return o")
    lines.append("}")
    params = "o, x, c1, k1, v1, c2, k2, v2" if churn else "o, x"
    lines.append(f"function tick = |{params}| {{")
    if churn:
        lines.append("  setConcrete(c1, k1, v1)")
        lines.append("  setConcrete(c2, k2, v2)")
    lines.append("  o: n(0)")
    lines.append("  let r = f4(x) + s10(x) + ba(o, x) + o: m(x) + p1(x) + p2(x)")
    lines.append("  return r + o: n()")
    lines.append("}")

    filler = frontend_filler(rng, filler_decls, contexts) if filler_decls else []
    for fn in filler:
        lines.extend(fn.source_lines)

    tick_args: List[tuple] = []
    expected: List[int] = []
    state_metas = dict(metas)
    runs = {ctx: 0 for ctx in DRIVEN}
    for _ in range(ticks):
        x = rng.randint(1, 1000)
        args: tuple = (x,)
        if churn:
            writes = []
            for ctx in DRIVEN:
                if runs[ctx] == 0:
                    state_metas[ctx] = rng.choice(CONTEXTS[ctx][1])
                    runs[ctx] = rng.randint(2, 6)
                runs[ctx] -= 1
                writes.append((ctx, "level", concrete_for(ctx, state_metas[ctx], rng)))
            args += writes[0] + writes[1]
        state = [0]
        value = (f4.call(state_metas, x, state) + s10.call(state_metas, x, state)
                 + ba.call(state_metas, x, state) + m.call(state_metas, x, state)
                 + (x * p1a + p1b) + (x + p2c) * (x + p2c) % 1009)
        tick_args.append(args)
        expected.append(value + state[0])

    tables = _tables_of([f4, s10, ba])
    tables["p1"] = [("p1", 0, "REPLACE")]
    tables["p2"] = [("p2", 0, "REPLACE")]
    tables["setup"] = [("setup", 0, "REPLACE")]
    tables["tick"] = [("tick", 0, "REPLACE")]
    for fn in filler:
        tables[fn.name] = fn.table
    return TickProgram(
        source="\n".join(lines) + "\n",
        initial_values=_initial_values(rng, metas),
        tick_args=tick_args,
        expected=expected,
        contextual_calls_per_tick=4,
        tables=tables,
    )


# --- front-end filler -------------------------------------------------------------


@dataclass
class FillerFunction:
    name: str
    source_lines: List[str]
    table: List[Tuple[str, int, str]]


_OPS = ("+", "-", "*")


def _expr(rng: random.Random, names: List[str], depth: int) -> str:
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(names) if rng.random() < 0.6 else str(rng.randint(0, 999))
    left, right = _expr(rng, names, depth - 1), _expr(rng, names, depth - 1)
    if rng.random() < 0.2:
        return f"({left} {rng.choice(_OPS)} {right})"
    return f"{left} {rng.choice(_OPS)} {right}"


def _block(rng: random.Random, params: List[str]) -> str:
    names = list(params)
    stmts = []
    for i in range(rng.randint(1, 3)):
        stmts.append(f"  let t{i} = {_expr(rng, names, 3)}")
        names.append(f"t{i}")
    if rng.random() < 0.5:
        stmts.append(f"  if {rng.choice(names)} > {rng.randint(0, 500)} {{\n"
                     f"    {names[-1]} = {_expr(rng, names, 2)}\n  }} else {{\n"
                     f"    {names[-1]} = {names[-1]} + 1\n  }}")
    if rng.random() < 0.2:
        stmts.append(f'  println("f " + {rng.choice(names)})')
    stmts.append(f"  return {_expr(rng, names, 2)}")
    return "{\n" + "\n".join(stmts) + "\n}"


def frontend_filler(rng: random.Random, decls: int, contexts) -> List[FillerFunction]:
    """About ``decls`` declarations: bases with compact or block bodies and
    replace, before and after layers over the module's contexts."""
    out: List[FillerFunction] = []
    count = 0
    while count < decls:
        name = f"g{len(out)}"
        params = [f"a{i}" for i in range(rng.randint(1, 3))]
        head = f"function {name} = |{', '.join(params)}|"
        body = _block(rng, params) if rng.random() < 0.5 else "-> " + _expr(rng, params, 4)
        lines = [f"{head} {body}"]
        table = [(name, 0, "REPLACE")]
        layers = rng.choice((0, 0, 1, 1, 2, 3))
        # filler is compiled, never run: any meta state gives distinct sets
        metas = {c: rng.choice(CONTEXTS[c][1]) for c in contexts}
        for i, cons in enumerate(_constraint_sets(rng, metas, layers, layers, contexts)):
            mode = rng.choice(("REPLACE", "REPLACE", "BEFORE_BASE", "AFTER_BASE"))
            if mode == "REPLACE":
                args = ", ".join(_expr(rng, params, 1) for _ in params)
                lbody = f"-> proceed({args}) + {rng.randint(1, 9)}"
            else:
                lbody = f'{{\n  println("{name} " + {rng.choice(params)})\n}}'
            lines.append(f"{head} {_annot(cons, mode)} {lbody}")
            table.append((mangled(name, cons), i + 1, mode))
        out.append(FillerFunction(name, lines, table))
        count += 1 + layers
    return out


def check_tables(lowered, tables: Dict[str, List[Tuple[str, int, str]]]) -> int:
    """Count mismatches between a lowered module and the generator's list."""
    bad = 0 if set(lowered.tables) == set(tables) else 1
    for name, rows in tables.items():
        table = lowered.tables.get(name)
        if table is None:
            bad += 1
            continue
        got = [(v.variant_id.mangled_name, v.variant_id.declaration_index, v.mode.name)
               for v in table.variants()]
        bad += got != rows
    return bad
