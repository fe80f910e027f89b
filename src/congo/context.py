"""Two-level context model: concrete sensed values and symbolic meta values.

A :class:`ConcreteValueStore` holds raw scalars keyed by (context, key)
and stamps every write with a strictly increasing epoch.  Context
descriptors map a consistent snapshot of those scalars to sets of meta
symbols; a :class:`ContextManager` holds one module's descriptors over
one store.  A meta snapshot is a pure function of the store's contents,
so at a new store epoch the manager re-runs only the descriptors that
read a key written since they last ran.
"""

from __future__ import annotations

import re
import threading
import types
from abc import ABC, abstractmethod
from typing import (
    Callable, Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Set, Tuple, Union
)

from .errors import ContextEvaluationError, FeedError, UnknownContextCtorError

Scalar = Union[bool, int, float, str]

_META_SYMBOL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_MAX_STATES = 256  # the most meta states one ContextManager keeps snapshots of


def is_scalar(value: object) -> bool:
    return isinstance(value, (bool, int, float, str))


def is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class ConcreteValueStore:
    """Shared mutable map of raw values; every mutation bumps the epoch."""

    def __init__(self) -> None:
        self._entries: Dict[Tuple[str, str], Scalar] = {}
        # (context, key) -> the epoch of its last write; absent if never written
        self._stamps: Dict[Tuple[str, str], int] = {}
        self._epoch = 0
        self._lock = threading.Lock()
        # the ident of the thread running a descriptor under _lock, or None
        self._evaluating: Optional[int] = None

    @property
    def epoch(self) -> int:
        # lock-free: int loads are atomic, and guard re-checks only compare
        return self._epoch

    def set(self, context: str, key: str, value: Scalar) -> int:
        """Store one value and return the new epoch."""
        if not is_scalar(value):
            raise ValueError(
                f"concrete values must be bool/int/float/str, got {type(value).__name__}"
            )
        if self._evaluating is not None and self._evaluating == threading.get_ident():
            raise RuntimeError("a context descriptor must not write the store")
        with self._lock:
            self._epoch += 1
            self._entries[(context, key)] = value
            self._stamps[(context, key)] = self._epoch
            return self._epoch

    def get(self, context: str, key: str, default: Optional[Scalar] = None):
        with self._lock:
            return self._entries.get((context, key), default)

    def snapshot(self) -> Tuple[Dict[Tuple[str, str], Scalar], int]:
        """Consistent copy of (entries, epoch)."""
        with self._lock:
            return dict(self._entries), self._epoch


class StoreView:
    """Read-only view over store entries, handed to descriptors.

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
        it, be deterministic in what you read, and never write the store:
        evaluation runs under the store's lock, so a write from it raises,
        and it is repeated only after a write to a key read last time.
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
        # read, None before the first; all of them current at store epoch _seen
        self._metas: List[Optional[FrozenSet[str]]] = [None] * len(self._descriptors)
        self._reads: List[Optional[Set[Tuple[str, str]]]] = [None] * len(self._descriptors)
        self._seen = 0
        # meta state (the evaluated frozensets, in descriptor order) ->
        # (read-only snapshot, {only: read-only view}): one entry per state
        self._states: Dict[Tuple[FrozenSet[str], ...], Tuple[Mapping, Dict]] = {}
        # (epoch, snapshot, views) of the last evaluation, or None before the first
        self._memo: Optional[Tuple[int, Mapping, Dict]] = None

    def snapshot_meta(
        self, only: Optional[Tuple[str, ...]] = None
    ) -> Tuple[Mapping[str, FrozenSet[str]], int]:
        """The meta snapshot of the store and the epoch it was taken at.

        At most one pass per store epoch.  A pass re-runs only the
        descriptors that read a key (present or absent) written since they
        last ran, over the live store under its lock, and keeps the current
        snapshot object when none of their metas changed.  A pass that
        raises commits nothing, so it is repeated, and raises again, on
        the next call.  Equal meta states are one read-only snapshot
        object, whatever the epochs between them, so snapshot identity
        changes only when some meta does.  So does that of the view
        narrowed to ``only`` (a receiver's ``contexts(...)``): each
        snapshot object keeps one view per ``only``.
        """
        memo = self._memo
        if memo is None or memo[0] != self._store.epoch:
            memo = self._reevaluate()
        if only is None:
            return memo[1], memo[0]
        views = memo[2]
        if only not in views:
            views[only] = types.MappingProxyType(
                {name: metas for name, metas in memo[1].items() if name in only}
            )
        return views[only], memo[0]

    def _reevaluate(self) -> Tuple[int, Mapping, Dict]:
        store = self._store
        with store._lock:
            epoch, memo = store._epoch, self._memo
            if memo is not None and memo[0] == epoch:
                return memo  # another thread's pass got here first
            entries, stamps, seen = store._entries, store._stamps, self._seen
            updates = []
            changed = memo is None
            for i, descriptor in enumerate(self._descriptors):
                reads = self._reads[i]
                if reads is not None:
                    for key in reads:
                        if stamps.get(key, 0) > seen:
                            break
                    else:
                        continue
                view = StoreView(entries)
                store._evaluating = threading.get_ident()  # so a set() raises, not hangs
                try:
                    metas = frozenset(descriptor.evaluate(view))
                except RecursionError:
                    raise  # the caller's stack ran out; the interpreter reports it
                except Exception as exc:
                    raise ContextEvaluationError(
                        descriptor.name,
                        f"context '{descriptor.name}' failed to evaluate: {exc}",
                    ) from exc
                finally:
                    store._evaluating = None
                if metas != self._metas[i]:
                    for symbol in metas:
                        if not isinstance(symbol, str) or not _META_SYMBOL_RE.match(symbol):
                            raise ContextEvaluationError(
                                descriptor.name,
                                f"context '{descriptor.name}' produced an invalid meta "
                                f"symbol: {symbol!r}",
                            )
                    changed = True
                updates.append((i, metas, view.reads))
            # commit only now: a pass cut short by a raise leaves all as it was
            for i, metas, reads in updates:
                self._metas[i], self._reads[i] = metas, reads
            self._seen = epoch
            if changed:
                state = tuple(self._metas)
                entry = self._states.get(state)
                if entry is None:
                    if len(self._states) >= _MAX_STATES:
                        self._states = {}
                    entry = self._states[state] = (
                        types.MappingProxyType(dict(zip(self._names, state))), {}
                    )
                memo = (epoch, *entry)
            else:
                memo = (epoch, memo[1], memo[2])
            self._memo = memo
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
