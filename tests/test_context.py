from __future__ import annotations

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congo.context import (
    _MAX_STATES,
    BatteryContext,
    ConcreteValueStore,
    ConfusedHeroContext,
    ContextDescriptor,
    ContextManager,
    StoreView,
    WeatherContext,
    create_context,
    parse_concrete_assignment,
    parse_feed,
    parse_scalar,
    register_context,
    unregister_context,
)
from congo.errors import ContextEvaluationError, FeedError, UnknownContextCtorError


def view(entries):
    return StoreView(dict(entries))


# --- built-in context rules --------------------------------------------------


def test_confused_hero_requires_boolean_true():
    ctx = ConfusedHeroContext()
    assert ctx.evaluate(view({})) == {"FALSE"}
    assert ctx.evaluate(view({("ConfusedHero", "confused"): True})) == {"TRUE"}
    assert ctx.evaluate(view({("ConfusedHero", "confused"): False})) == {"FALSE"}
    # the string "true" and the number 1 are not boolean true
    assert ctx.evaluate(view({("ConfusedHero", "confused"): "true"})) == {"FALSE"}
    assert ctx.evaluate(view({("ConfusedHero", "confused"): 1})) == {"FALSE"}


def test_weather_threshold_is_one_millimetre():
    ctx = WeatherContext()
    assert ctx.evaluate(view({})) == {"CLEAR"}
    assert ctx.evaluate(view({("Weather", "rainfall_mm"): 7.0})) == {"RAINY"}
    assert ctx.evaluate(view({("Weather", "rainfall_mm"): 1.0})) == {"RAINY"}
    assert ctx.evaluate(view({("Weather", "rainfall_mm"): 0.99})) == {"CLEAR"}
    assert ctx.evaluate(view({("Weather", "rainfall_mm"): 2})) == {"RAINY"}
    # booleans never count as rainfall readings
    assert ctx.evaluate(view({("Weather", "rainfall_mm"): True})) == {"CLEAR"}


def test_battery_low_below_twenty_percent():
    ctx = BatteryContext()
    assert ctx.evaluate(view({})) == {"OK"}
    assert ctx.evaluate(view({("Battery", "charge_pct"): 5.0})) == {"LOW"}
    assert ctx.evaluate(view({("Battery", "charge_pct"): 20.0})) == {"OK"}
    assert ctx.evaluate(view({("Battery", "charge_pct"): 19.999})) == {"LOW"}


def test_factory_constructs_builtins():
    assert create_context("Weather").name == "Weather"
    with pytest.raises(UnknownContextCtorError):
        create_context("Nonexistent")


# --- concrete value store -----------------------------------------------------


def test_epochs_strictly_increase():
    store = ConcreteValueStore()
    assert store.epoch == 0
    epochs = [store.set("C", "k", i) for i in range(5)]
    assert epochs == [1, 2, 3, 4, 5]
    assert store.get("C", "k") == 4


def test_store_rejects_non_scalars():
    store = ConcreteValueStore()
    with pytest.raises(ValueError):
        store.set("C", "k", [1, 2])


_scalars = st.one_of(st.booleans(), st.integers(), st.floats(allow_nan=False), st.text())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from("AB"), st.sampled_from("xyz"), _scalars),
                max_size=12))
def test_a_store_given_its_initial_values_equals_one_written_by_set(triples):
    written = ConcreteValueStore()
    for context, key, value in triples:
        written.set(context, key, value)
    built = ConcreteValueStore(triples)
    assert built._entries == written._entries
    assert built._stamps == written._stamps
    assert built.epoch == written.epoch == len(triples)
    assert built.set("A", "x", 1) == len(triples) + 1


@pytest.mark.parametrize("value", [[1, 2], None, b"raw"])
def test_an_initial_non_scalar_raises_what_set_raises(value):
    with pytest.raises(ValueError) as by_set:
        ConcreteValueStore().set("C", "k", value)
    with pytest.raises(ValueError) as by_constructor:
        ConcreteValueStore((("C", "j", 1), ("C", "k", value)))
    assert str(by_constructor.value) == str(by_set.value)


def test_threaded_writes_never_share_an_epoch():
    store = ConcreteValueStore()
    per_thread = 200
    collected = [[] for _ in range(4)]

    def writer(idx):
        for i in range(per_thread):
            collected[idx].append(store.set(f"T{idx}", "k", i))

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    everything = sorted(e for chunk in collected for e in chunk)
    assert everything == list(range(1, 4 * per_thread + 1))
    for chunk in collected:
        assert chunk == sorted(chunk)  # each writer sees increasing epochs


@settings(max_examples=80, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from(["confused", "rainfall_mm", "charge_pct", "other"]),
        st.one_of(st.booleans(), st.integers(-5, 30), st.floats(0, 30)),
        max_size=4,
    )
)
def test_evaluation_is_deterministic(values):
    a = ConcreteValueStore()
    b = ConcreteValueStore()
    for key, value in values.items():
        for ctx in ("ConfusedHero", "Weather", "Battery"):
            a.set(ctx, key, value)
            b.set(ctx, key, value)
    ctors = ("ConfusedHero", "Weather", "Battery")
    snap_a, _ = ContextManager(a, ctors).snapshot_meta()
    snap_b, _ = ContextManager(b, ctors).snapshot_meta()
    assert snap_a == snap_b


# --- context manager ------------------------------------------------------------


def test_registration_order_and_readback():
    manager = ContextManager(ConcreteValueStore(), ("ConfusedHero", "Weather"))
    assert list(manager.snapshot_meta()[0]) == ["ConfusedHero", "Weather"]


def test_empty_registration():
    store = ConcreteValueStore()
    store.set("C", "k", 1)
    assert ContextManager(store, ()).snapshot_meta() == ({}, 1)


def test_unknown_ctor_is_reported_by_name():
    with pytest.raises(UnknownContextCtorError) as err:
        ContextManager(ConcreteValueStore(), ("Nonexistent",))
    assert "Nonexistent" in str(err.value)


def test_snapshot_meta_built_in_rules():
    store = ConcreteValueStore()
    manager = ContextManager(store, ("ConfusedHero", "Weather"))
    store.set("Weather", "rainfall_mm", 7.0)
    snap, epoch = manager.snapshot_meta()
    assert snap == {"ConfusedHero": {"FALSE"}, "Weather": {"RAINY"}}
    assert epoch == 1


def test_snapshot_purity_without_mutations():
    store = ConcreteValueStore()
    manager = ContextManager(store, ("Battery",))
    store.set("Battery", "charge_pct", 12.0)
    assert manager.snapshot_meta() == manager.snapshot_meta()


class _Exploding:
    name = "Exploding"

    def evaluate(self, view):
        raise RuntimeError("sensor offline")


def test_descriptor_failure_wrapped_and_named():
    register_context("Exploding", _Exploding)
    try:
        manager = ContextManager(ConcreteValueStore(), ("Exploding",))
        with pytest.raises(ContextEvaluationError) as err:
            manager.snapshot_meta()
        assert err.value.context == "Exploding"
        assert "sensor offline" in str(err.value)
    finally:
        unregister_context("Exploding")


class _BadSymbols:
    name = "BadSymbols"

    def evaluate(self, view):
        return {"not an identifier!"}


def test_meta_symbols_must_be_identifiers():
    register_context("BadSymbols", _BadSymbols)
    try:
        manager = ContextManager(ConcreteValueStore(), ("BadSymbols",))
        with pytest.raises(ContextEvaluationError):
            manager.snapshot_meta()
    finally:
        unregister_context("BadSymbols")


# --- per-epoch memo ---------------------------------------------------------------


class _Counting:
    name = "Counting"
    evaluations = 0

    def evaluate(self, view):
        _Counting.evaluations += 1
        return {"HIGH"} if view.get("Counting", "level", 0) > 5 else {"LOW"}


@pytest.fixture
def store():
    return ConcreteValueStore()


@pytest.fixture
def counting():
    _Counting.evaluations = 0
    register_context("Counting", _Counting)
    yield
    unregister_context("Counting")


@pytest.fixture
def counting_manager(counting, store):
    return ContextManager(store, ("Counting",))


def test_descriptors_evaluate_once_per_store_epoch(counting_manager, store):
    store.set("Counting", "level", 1)
    for _ in range(100):
        snap, epoch = counting_manager.snapshot_meta()
        assert (snap, epoch) == ({"Counting": {"LOW"}}, 1)
    assert _Counting.evaluations == 1
    store.set("Counting", "level", 9)
    assert counting_manager.snapshot_meta() == ({"Counting": {"HIGH"}}, 2)
    assert counting_manager.snapshot_meta() == ({"Counting": {"HIGH"}}, 2)
    assert _Counting.evaluations == 2


def test_snapshot_object_is_kept_across_meta_neutral_writes(counting_manager, store):
    store.set("Counting", "level", 1)
    low, epoch = counting_manager.snapshot_meta()
    store.set("Counting", "level", 2)  # still LOW
    same, neutral_epoch = counting_manager.snapshot_meta()
    assert same is low
    assert neutral_epoch == epoch + 1
    store.set("Counting", "level", 9)
    high, changed_epoch = counting_manager.snapshot_meta()
    assert high is not low
    assert changed_epoch == neutral_epoch + 1
    assert (low, high) == ({"Counting": {"LOW"}}, {"Counting": {"HIGH"}})
    assert _Counting.evaluations == 3


def test_narrowed_snapshot_is_one_view_per_snapshot_object(counting, store):
    manager = ContextManager(store, ("Counting", "Weather"))
    store.set("Counting", "level", 1)
    full, epoch = manager.snapshot_meta()
    low, low_epoch = manager.snapshot_meta(("Counting",))
    assert (low, low_epoch) == ({"Counting": {"LOW"}}, epoch)
    assert manager.snapshot_meta(("Counting",))[0] is low
    with pytest.raises(TypeError):
        low["Weather"] = frozenset({"CLEAR"})
    store.set("Counting", "level", 2)  # still LOW
    same, neutral_epoch = manager.snapshot_meta(("Counting",))
    assert same is low
    assert neutral_epoch == epoch + 1
    store.set("Counting", "level", 9)
    high, _ = manager.snapshot_meta(("Counting",))
    assert high is not low
    assert high == {"Counting": {"HIGH"}}
    assert manager.snapshot_meta(("Weather",))[0] == {"Weather": {"CLEAR"}}
    assert manager.snapshot_meta()[0] == {"Counting": {"HIGH"}, "Weather": {"CLEAR"}}
    assert full == {"Counting": {"LOW"}, "Weather": {"CLEAR"}}
    assert _Counting.evaluations == 3


def test_a_meta_state_seen_before_is_the_same_snapshot_object(counting, store):
    manager = ContextManager(store, ("Counting", "Weather"))
    store.set("Counting", "level", 1)
    low, _ = manager.snapshot_meta()
    narrow_low, _ = manager.snapshot_meta(("Counting",))
    store.set("Counting", "level", 9)
    high, _ = manager.snapshot_meta()
    store.set("Counting", "level", 3)  # LOW again, two epochs on
    again, epoch = manager.snapshot_meta()
    assert (again is low, high is low, epoch) == (True, False, 3)
    assert manager.snapshot_meta(("Counting",))[0] is narrow_low
    assert _Counting.evaluations == 3


class _Echo:
    name = "Echo"

    def evaluate(self, view):
        return {"V%d" % view.get("Echo", "v", 0)}


def test_state_table_is_emptied_when_it_reaches_its_cap(store):
    register_context("Echo", _Echo)
    try:
        manager = ContextManager(store, ("Echo",))
        first, _ = manager.snapshot_meta()
        for v in range(1, _MAX_STATES):
            store.set("Echo", "v", v)
            manager.snapshot_meta()
        assert len(manager._states) == _MAX_STATES
        store.set("Echo", "v", 0)
        assert manager.snapshot_meta()[0] is first
        store.set("Echo", "v", _MAX_STATES)  # one state too many: start afresh
        assert manager.snapshot_meta()[0] == {"Echo": {"V%d" % _MAX_STATES}}
        assert len(manager._states) == 1
        store.set("Echo", "v", 0)
        again, _ = manager.snapshot_meta()
        assert again == first and again is not first
    finally:
        unregister_context("Echo")


def test_raising_descriptor_raises_on_every_call():
    register_context("Exploding", _Exploding)
    try:
        manager = ContextManager(ConcreteValueStore(), ("Exploding",))
        for _ in range(3):
            with pytest.raises(ContextEvaluationError):
                manager.snapshot_meta()
    finally:
        unregister_context("Exploding")


def test_memoised_snapshot_is_read_only(counting_manager):
    snap, _ = counting_manager.snapshot_meta()
    with pytest.raises(TypeError):
        snap["Counting"] = frozenset({"HIGH"})
    with pytest.raises(TypeError):
        del snap["Counting"]
    assert counting_manager.snapshot_meta()[0] == {"Counting": {"LOW"}}


# --- re-evaluation of only the descriptors a write touched --------------------


class _Rule:
    """A descriptor whose metas are ``rule(view)``; counts its runs in ``_RUNS``."""

    def __init__(self, name, rule):
        self.name, self.rule = name, rule

    def evaluate(self, view):
        _RUNS[self.name] = _RUNS.get(self.name, 0) + 1
        return self.rule(view)


_RUNS = {}


def _level(view, context, key):
    value = view.get(context, key)
    return {"HIGH"} if isinstance(value, int) and value >= 5 else {"LOW"}


def _cross(view):
    # reads another context's key as well as its own
    total = view.get("IncA", "x", 0) + view.get("IncB", "y", 0)
    return {"OVER"} if total >= 10 else {"UNDER"}


def _switching(view):
    # which key it reads depends on a value it read
    if view.get("IncC", "sel") is True:
        return _level(view, "IncA", "x")
    return _level(view, "IncB", "y")


def _present(view):
    return {"SET"} if view.get("IncE", "k") is not None else {"UNSET"}


def _raising(view):
    if view.get("IncD", "v") is True:
        raise RuntimeError("sensor offline")
    return _level(view, "IncD", "v")


_RULES = {
    "IncA": lambda view: _level(view, "IncA", "x"),
    "IncB": _cross,
    "IncC": _switching,
    "IncD": _raising,
    "IncE": _present,
}


@pytest.fixture
def rules():
    _RUNS.clear()
    for name, rule in _RULES.items():
        register_context(name, lambda name=name, rule=rule: _Rule(name, rule))
    yield
    for name in _RULES:
        unregister_context(name)


def _runs_after(manager, *writes):
    """Write, take the snapshot, and return the descriptors that ran."""
    _RUNS.clear()
    for context, key, value in writes:
        manager._store.set(context, key, value)
    manager.snapshot_meta()
    return sorted(_RUNS)


def test_a_write_re_runs_only_the_descriptors_that_read_it(rules, store):
    manager = ContextManager(store, ("IncA", "IncE"))
    assert _runs_after(manager) == ["IncA", "IncE"]
    assert _runs_after(manager, ("IncA", "x", 1)) == ["IncA"]
    low = manager.snapshot_meta()[0]
    assert _runs_after(manager, ("IncA", "unread", 1), ("Other", "x", 9)) == []
    assert manager.snapshot_meta() == (low, 3)  # same object, new epoch
    assert _runs_after(manager, ("IncA", "x", 7)) == ["IncA"]
    assert manager.snapshot_meta()[0] == {"IncA": {"HIGH"}, "IncE": {"UNSET"}}


def test_a_descriptor_re_runs_when_another_contexts_key_it_read_changes(rules, store):
    manager = ContextManager(store, ("IncA", "IncB"))
    manager.snapshot_meta()
    assert _runs_after(manager, ("IncB", "y", 6)) == ["IncB"]
    assert manager.snapshot_meta()[0]["IncB"] == {"UNDER"}
    assert _runs_after(manager, ("IncA", "x", 4)) == ["IncA", "IncB"]
    assert manager.snapshot_meta()[0] == {"IncA": {"LOW"}, "IncB": {"OVER"}}


def test_a_descriptor_whose_read_set_changes_stays_correct(rules, store):
    manager = ContextManager(store, ("IncC",))
    store.set("IncA", "x", 9)
    assert manager.snapshot_meta()[0] == {"IncC": {"LOW"}}  # read IncB.y
    assert _runs_after(manager, ("IncA", "x", 1)) == []  # not read this time
    assert _runs_after(manager, ("IncC", "sel", True)) == ["IncC"]
    assert manager.snapshot_meta()[0] == {"IncC": {"LOW"}}  # now reads IncA.x
    assert _runs_after(manager, ("IncB", "y", 9)) == []  # no longer read
    assert _runs_after(manager, ("IncA", "x", 8)) == ["IncC"]
    assert manager.snapshot_meta()[0] == {"IncC": {"HIGH"}}


def test_a_key_read_while_absent_re_runs_its_descriptor_once_written(rules, store):
    manager = ContextManager(store, ("IncE",))
    assert manager.snapshot_meta()[0] == {"IncE": {"UNSET"}}
    assert _runs_after(manager, ("IncE", "k", "here")) == ["IncE"]
    assert manager.snapshot_meta()[0] == {"IncE": {"SET"}}


def test_a_pass_cut_short_by_a_raise_commits_no_metas(rules, store):
    manager = ContextManager(store, ("IncA", "IncD"))
    before, _ = manager.snapshot_meta()
    store.set("IncA", "x", 9)  # IncA re-runs first and flips to HIGH ...
    store.set("IncD", "v", True)  # ... then IncD raises
    for _ in range(2):
        with pytest.raises(ContextEvaluationError):
            manager.snapshot_meta()
    store.set("IncD", "v", 0)  # IncD back to its old metas
    snap, _ = manager.snapshot_meta()
    assert snap == {"IncA": {"HIGH"}, "IncD": {"LOW"}}
    assert snap is not before


class _Writer(ContextDescriptor):
    """Writes the store it was built over while evaluating, unless fixed."""

    name = "Writer"
    store = None
    fixed = False

    def evaluate(self, view):
        if not self.fixed:
            self.store.set("Writer", "k", 1)
        return frozenset({"HIGH" if view.get("Writer", "k") == 1 else "LOW"})


def test_a_descriptor_that_writes_the_store_raises_instead_of_hanging(store):
    writer = _Writer()
    writer.store = store
    register_context("Writer", lambda: writer)
    try:
        manager = ContextManager(store, ("Writer",))
        store.set("Other", "k", 0)
        outcome = []

        def probe():
            try:
                manager.snapshot_meta()
            except ContextEvaluationError as exc:
                outcome.append(exc)

        thread = threading.Thread(target=probe, daemon=True)
        thread.start()
        thread.join(timeout=1.0)
        assert not thread.is_alive(), "snapshot_meta blocked on the store's lock"
        (exc,) = outcome
        assert exc.context == "Writer"
        assert "must not write the store" in exc.message
        assert store.epoch == 1  # the write never happened
        assert store.get("Writer", "k") is None
        writer.fixed = True
        assert manager.snapshot_meta() == ({"Writer": {"LOW"}}, 1)
        assert store.set("Writer", "k", 1) == 2  # writes outside a pass still go through
        assert manager.snapshot_meta() == ({"Writer": {"HIGH"}}, 2)
    finally:
        unregister_context("Writer")


class _StoreReader(ContextDescriptor):
    """Reads the store it was built over, not its view, while evaluating."""

    name = "StoreReader"
    store = None
    read = None

    def evaluate(self, view):
        self.read(self.store)
        return frozenset({"SEEN"})


@pytest.mark.parametrize("read", [
    lambda store: store.get("Other", "k"),
    lambda store: ContextManager(store, ("Weather",)).snapshot_meta(),
], ids=["get", "pass"])
def test_a_descriptor_that_reads_the_store_raises_instead_of_hanging(store, read):
    reader = _StoreReader()
    reader.store, reader.read = store, read
    register_context("StoreReader", lambda: reader)
    try:
        manager = ContextManager(store, ("StoreReader",))
        store.set("Other", "k", 0)
        outcome = []

        def probe():
            try:
                manager.snapshot_meta()
            except ContextEvaluationError as exc:
                outcome.append(exc)

        thread = threading.Thread(target=probe, daemon=True)
        thread.start()
        thread.join(timeout=1.0)
        assert not thread.is_alive(), "snapshot_meta blocked on the store's lock"
        (exc,) = outcome
        assert exc.context == "StoreReader"
        assert "must read the view it is handed, not the store" in exc.message
        assert store.epoch == 1  # the store is unchanged
        assert store.get("Other", "k") == 0  # reads outside a pass still go through
    finally:
        unregister_context("StoreReader")


class _Slow(ContextDescriptor):
    """Sleeps inside every evaluation, so concurrent passes overlap."""

    name = "Slow"
    runs = []

    def evaluate(self, view):
        _Slow.runs.append(threading.get_ident())
        time.sleep(0.05)
        return {"HIGH" if view.get("Slow", "level", 0) > 5 else "LOW"}


def test_concurrent_passes_at_one_new_epoch_run_a_descriptor_once(store):
    register_context("Slow", _Slow)
    try:
        manager = ContextManager(store, ("Slow",))
        for level, metas in ((1, {"LOW"}), (9, {"HIGH"})):
            epoch = store.set("Slow", "level", level)
            _Slow.runs = []
            barrier = threading.Barrier(4)
            results = []

            def probe():
                barrier.wait(timeout=5.0)
                results.append(manager.snapshot_meta())

            threads = [threading.Thread(target=probe) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=5.0)
            assert not any(thread.is_alive() for thread in threads)
            assert len(_Slow.runs) == 1
            assert len(results) == 4
            snapshot = results[0][0]
            assert snapshot == {"Slow": metas}
            assert all(snap is snapshot and at == epoch for snap, at in results)
    finally:
        unregister_context("Slow")


def _outcome(manager):
    try:
        snap, epoch = manager.snapshot_meta()
    except ContextEvaluationError as exc:
        return ("raises", exc.context)
    return dict(snap), epoch


_KEYS = [("IncA", "x"), ("IncB", "y"), ("IncC", "sel"), ("IncD", "v"), ("IncE", "k"),
         ("IncA", "unread")]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.lists(  # batches of writes, with a snapshot taken after each batch
        st.lists(
            st.tuples(st.sampled_from(_KEYS), st.one_of(st.integers(0, 9), st.booleans())),
            min_size=1,
            max_size=3,
        ),
        max_size=12,
    )
)
def test_incremental_snapshots_equal_a_fresh_managers(batches):
    for name, rule in _RULES.items():
        register_context(name, lambda name=name, rule=rule: _Rule(name, rule))
    try:
        store = ConcreteValueStore()
        manager = ContextManager(store, tuple(_RULES))
        assert _outcome(manager) == _outcome(ContextManager(store, tuple(_RULES)))
        for batch in batches:
            for (context, key), value in batch:
                store.set(context, key, value)
            assert _outcome(manager) == _outcome(ContextManager(store, tuple(_RULES)))
    finally:
        for name in _RULES:
            unregister_context(name)


# --- ingestion parsing ------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("true", True),
        ("false", False),
        ("7", 7),
        ("-3", -3),
        ("7.5", 7.5),
        ("1e3", 1000.0),
        ("dry", "dry"),
        ("7up", "7up"),
    ],
)
def test_scalar_parse_order(text, expected):
    value = parse_scalar(text)
    assert value == expected
    assert type(value) is type(expected)


def test_assignment_parsing():
    assert parse_concrete_assignment("Weather.rainfall_mm=7.0") == (
        "Weather", "rainfall_mm", 7.0,
    )
    for bad in ("Weather=1", "Weather.x", "=3", "a.b=", ".b=1"):
        with pytest.raises(ValueError):
            parse_concrete_assignment(bad)


def test_feed_parsing_with_comments_and_blanks():
    text = "# readings\nWeather.rainfall_mm=7.0\n\nBattery.charge_pct=15\n"
    assert parse_feed(text) == [
        ("Weather", "rainfall_mm", 7.0),
        ("Battery", "charge_pct", 15),
    ]


def test_feed_error_carries_line_number():
    with pytest.raises(FeedError) as err:
        parse_feed("Weather.rainfall_mm=7.0\ngarbage line\n")
    assert "2" in str(err.value)
