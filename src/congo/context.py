"""Two-level context model: concrete sensed values and symbolic meta values.

A :class:`ConcreteValueStore` holds raw scalars keyed by (context, key)
and stamps every write with a strictly increasing epoch.  Context
descriptors map a consistent snapshot of those scalars to sets of meta
symbols; a :class:`ContextManager` holds one module's descriptors over
one store.  A meta snapshot is a pure function of the store's contents,
so at a new store epoch the store runs one pass under its lock, and the
pass re-runs only the descriptors that read a key written since they last ran.
"""

from __future__ import annotations

import re
import threading
import types
from abc import ABC, abstractmethod
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Mapping, NamedTuple, Optional, Set, Tuple,
    Union,
)

from .errors import ContextEvaluationError, FeedError, UnknownContextCtorError

Scalar = Union[bool, int, float, str]

_META_SYMBOL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_MAX_STATES = 256  # the most meta states one ContextManager keeps snapshots of
_READ_THE_VIEW = "a context descriptor must read the view it is handed, not the store"
_SCALARS = (bool, int, float, str)


def is_scalar(value: object) -> bool:
    return isinstance(value, _SCALARS)


def is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_scalar(value: object) -> None:
    if not isinstance(value, _SCALARS):
        raise ValueError(
            f"concrete values must be bool/int/float/str, got {type(value).__name__}"
        )


class ConcreteValueStore:
    """Shared mutable map of raw values; every mutation bumps the epoch.

    The store runs each evaluation pass under its own lock (``run_pass``),
    so a ``set``, ``get`` or pass started from inside one raises at once.
    """

    def __init__(self, initial: Iterable[Tuple[str, str, Scalar]] = ()) -> None:
        """A store holding ``initial``'s (context, key, value) triples, as if
        each were ``set`` in turn: epoch n after n of them."""
        self._entries: Dict[Tuple[str, str], Scalar] = {}
        # (context, key) -> the epoch of its last write; absent if never written
        self._stamps: Dict[Tuple[str, str], int] = {}
        epoch = 0
        for context, key, value in initial:
            _check_scalar(value)
            epoch += 1
            self._entries[(context, key)] = value
            self._stamps[(context, key)] = epoch
        # read lock-free (int loads are atomic, and guard re-checks only
        # compare); only set() writes it, under _lock
        self.epoch = epoch
        self._lock = threading.Lock()
        # the ident of the thread running a pass under _lock, or None
        self._evaluating: Optional[int] = None

    def set(self, context: str, key: str, value: Scalar) -> int:
        """Store one value and return the new epoch."""
        _check_scalar(value)
        self._refuse_from_a_pass("a context descriptor must not write the store")
        with self._lock:
            self.epoch += 1
            self._entries[(context, key)] = value
            self._stamps[(context, key)] = self.epoch
            return self.epoch

    def get(self, context: str, key: str, default: Optional[Scalar] = None):
        self._refuse_from_a_pass(_READ_THE_VIEW)
        with self._lock:
            return self._entries.get((context, key), default)

    def run_pass(self, evaluate: Callable[[Mapping, Mapping, int], object]):
        """Return ``evaluate(entries, stamps, epoch)`` over the live maps, under the lock."""
        self._refuse_from_a_pass(_READ_THE_VIEW)
        with self._lock:
            self._evaluating = threading.get_ident()
            try:
                return evaluate(self._entries, self._stamps, self.epoch)
            finally:
                self._evaluating = None

    def _refuse_from_a_pass(self, message: str) -> None:
        # the pass holds _lock, so a call from its thread would wait forever
        if self._evaluating is not None and self._evaluating == threading.get_ident():
            raise RuntimeError(message)


class StoreView:
    """Read-only view over the store's live entries, handed to descriptors.

    It records in ``reads`` every ``(context, key)`` asked for, present
    or not: the keys whose writes must re-run the descriptor that read them.
    """

    __slots__ = ("_entries", "reads")

    def __init__(self, entries: Mapping[Tuple[str, str], Scalar]):
        self._entries = entries
        self.reads: Set[Tuple[str, str]] = set()

    def get(self, context: str, key: str, default: Optional[Scalar] = None):
        self.reads.add((context, key))
        return self._entries.get((context, key), default)


class ContextDescriptor(ABC):
    """Maps concrete values to the meta values currently in force."""

    name: str

    @abstractmethod
    def evaluate(self, store) -> FrozenSet[str]:
        """Return the active meta symbols.

        ``store`` is a :class:`StoreView`.  Read concrete values only through
        it, be deterministic in what you read, and never call the store: the
        store runs the pass under its lock, so a call to it from here raises,
        and it repeats this only after a write to a key read last time.
        """


class ConfusedHeroContext(ContextDescriptor):
    name = "ConfusedHero"

    def evaluate(self, store) -> FrozenSet[str]:
        confused = store.get(self.name, "confused")
        return frozenset({"TRUE"}) if confused is True else frozenset({"FALSE"})


class WeatherContext(ContextDescriptor):
    name = "Weather"
    RAINFALL_THRESHOLD_MM = 1.0

    def evaluate(self, store) -> FrozenSet[str]:
        rainfall = store.get(self.name, "rainfall_mm")
        if is_number(rainfall) and rainfall >= self.RAINFALL_THRESHOLD_MM:
            return frozenset({"RAINY"})
        return frozenset({"CLEAR"})


class BatteryContext(ContextDescriptor):
    name = "Battery"
    LOW_CHARGE_PCT = 20.0

    def evaluate(self, store) -> FrozenSet[str]:
        charge = store.get(self.name, "charge_pct")
        if is_number(charge) and charge < self.LOW_CHARGE_PCT:
            return frozenset({"LOW"})
        return frozenset({"OK"})


_FACTORY: Dict[str, Callable[[], ContextDescriptor]] = {}


def register_context(name: str, factory: Callable[[], ContextDescriptor]) -> None:
    """Register (or replace) a context constructor by name."""
    _FACTORY[name] = factory


def unregister_context(name: str) -> None:
    _FACTORY.pop(name, None)


def create_context(name: str) -> ContextDescriptor:
    factory = _FACTORY.get(name)
    if factory is None:
        raise UnknownContextCtorError(f"unknown context constructor '{name}'")
    return factory()


register_context("ConfusedHero", ConfusedHeroContext)
register_context("Weather", WeatherContext)
register_context("Battery", BatteryContext)


class ContextChanged(NamedTuple):
    """Bus payload published whenever a concrete value is written."""

    context: str
    key: str
    value: Scalar
    epoch: int


class ContextManager:
    """One module's context descriptors, evaluated over one store."""

    def __init__(self, store: ConcreteValueStore, ctor_names) -> None:
        self._store = store
        self._descriptors = tuple(create_context(n) for n in ctor_names)
        self._names = tuple(d.name for d in self._descriptors)
        # per descriptor, from its last evaluation: its metas and the keys it
        # read, None before the first; all of them current at the memo's epoch
        self._metas: List[Optional[FrozenSet[str]]] = [None] * len(self._descriptors)
        self._reads: List[Optional[Set[Tuple[str, str]]]] = [None] * len(self._descriptors)
        # meta state (the evaluated frozensets, in descriptor order) ->
        # (read-only snapshot, {only: read-only view}): one entry per state,
        # the current state's among them
        self._states: Dict[Tuple[FrozenSet[str], ...], Tuple[Mapping, Dict]] = {}
        # (epoch, snapshot, views) of the last pass, or None before the first
        self._memo: Optional[Tuple[int, Mapping, Dict]] = None

    def snapshot_meta(
        self, only: Optional[Tuple[str, ...]] = None
    ) -> Tuple[Mapping[str, FrozenSet[str]], int]:
        """The meta snapshot of the store and the epoch it was taken at.

        At a new store epoch the store runs one pass (``run_pass``) that
        re-runs only the descriptors that read a key (present or absent)
        written since they last ran; a second pass at that epoch re-runs
        none.  A pass that raises commits nothing, so it is repeated, and
        raises again, on the next call.  Equal meta states are one
        read-only snapshot object, whatever the epochs between them, so
        snapshot identity changes only when some meta does.  So does that
        of the view narrowed to ``only`` (a receiver's ``contexts(...)``):
        each snapshot object keeps one view per ``only``.
        """
        memo = self._memo
        if memo is None or memo[0] != self._store.epoch:
            memo = self._store.run_pass(self._reevaluate)
        if only is None:
            return memo[1], memo[0]
        views = memo[2]
        if only not in views:
            views[only] = types.MappingProxyType(
                {name: metas for name, metas in memo[1].items() if name in only}
            )
        return views[only], memo[0]

    def _reevaluate(self, entries, stamps, epoch: int) -> Tuple[int, Mapping, Dict]:
        # the store runs this under its lock: the memo is the last committed pass
        memo = self._memo
        seen = 0 if memo is None else memo[0]
        updates = []
        for i, descriptor in enumerate(self._descriptors):
            reads = self._reads[i]
            if reads is not None:
                for key in reads:
                    if stamps.get(key, 0) > seen:
                        break
                else:
                    continue
            view = StoreView(entries)
            try:
                metas = frozenset(descriptor.evaluate(view))
            except RecursionError:
                raise  # the caller's stack ran out; the interpreter reports it
            except Exception as exc:
                raise ContextEvaluationError(
                    descriptor.name,
                    f"context '{descriptor.name}' failed to evaluate: {exc}",
                ) from exc
            if metas != self._metas[i]:
                for symbol in metas:
                    if not isinstance(symbol, str) or not _META_SYMBOL_RE.match(symbol):
                        raise ContextEvaluationError(
                            descriptor.name,
                            f"context '{descriptor.name}' produced an invalid meta "
                            f"symbol: {symbol!r}",
                        )
            updates.append((i, metas, view.reads))
        # commit only now: a pass cut short by a raise leaves all as it was
        for i, metas, reads in updates:
            self._metas[i], self._reads[i] = metas, reads
        state = tuple(self._metas)
        entry = self._states.get(state)
        if entry is None:
            if len(self._states) >= _MAX_STATES:
                self._states = {}
            entry = self._states[state] = (
                types.MappingProxyType(dict(zip(self._names, state))), {}
            )
        self._memo = memo = (epoch, *entry)
        return memo


# --- concrete-value ingestion (CLI --set flags and feed files) -------------

_INT_RE = re.compile(r"[+-]?[0-9]+\Z")
_FLOAT_RE = re.compile(r"[+-]?([0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)([eE][+-]?[0-9]+)?\Z")


def parse_scalar(text: str) -> Scalar:
    """Parse a value as boolean, integer, float, or string, in that order."""
    if text == "true":
        return True
    if text == "false":
        return False
    if _INT_RE.match(text):
        return int(text)
    if _FLOAT_RE.match(text) and any(c in text for c in ".eE"):
        return float(text)
    return text


def parse_concrete_assignment(text: str) -> Tuple[str, str, Scalar]:
    """Parse ``Ctx.key=value`` as used by the CLI ``--set`` flag."""
    lhs, sep, raw = text.partition("=")
    if not sep:
        raise ValueError(f"expected Ctx.key=value, got {text!r}")
    context, dot, key = lhs.partition(".")
    if not dot or not context or not key or not raw:
        raise ValueError(f"expected Ctx.key=value, got {text!r}")
    return context, key, parse_scalar(raw)


def parse_feed(text: str) -> List[Tuple[str, str, Scalar]]:
    """Parse a feed file: one ``Ctx.key=value`` per line, ``#`` comments."""
    out: List[Tuple[str, str, Scalar]] = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            out.append(parse_concrete_assignment(line))
        except ValueError as exc:
            raise FeedError(f"line {lineno}: {exc}") from exc
    return out
