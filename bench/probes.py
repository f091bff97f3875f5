"""Layer probes: the layers are measured from outside.

Nothing here edits ``src/``.  Store layers are timed by handing the engines
a *timing subclass* of the store through their public ``store=`` argument;
engine layers are read from the events a ``Tracer(ListTraceSink())`` passed
as the public ``tracer=`` argument collects.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Mapping

from repro.core.instances import Instance
from repro.obs import Clock
from repro.storage.sqlbackend import SqliteAtomStore

Event = Mapping[str, object]


class _CallLedger:
    """Per-method call counts and accumulated seconds."""

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self.calls: Dict[str, int] = defaultdict(int)
        self.seconds: Dict[str, float] = defaultdict(float)

    def timed(self, method: str, function, *args):
        started = self.clock.now()
        try:
            return function(*args)
        finally:
            self.seconds[method] += self.clock.now() - started
            self.calls[method] += 1


class TimedInstance(Instance):
    """``core.instances``: an :class:`Instance` that times its store protocol.

    ``has_atom`` is only counted — it runs once per candidate head atom, and
    two clock reads around a set lookup would measure the clock.
    """

    def __init__(self, clock: Clock) -> None:
        super().__init__()
        self.ledger = _CallLedger(clock)

    def add_atom(self, atom):
        return self.ledger.timed("add_atom", super().add_atom, atom)

    def atoms_matching(self, predicate, bindings=None):
        return self.ledger.timed("atoms_matching", super().atoms_matching, predicate, bindings)

    def has_atom(self, atom):
        self.ledger.calls["has_atom"] += 1
        return super().has_atom(atom)

    def metrics(self) -> Dict[str, float]:
        ledger = self.ledger
        return {
            "core.instances.add_atom_calls": ledger.calls["add_atom"],
            "core.instances.add_atom_s": ledger.seconds["add_atom"],
            "core.instances.atoms_matching_calls": ledger.calls["atoms_matching"],
            "core.instances.atoms_matching_s": ledger.seconds["atoms_matching"],
            "core.instances.has_atom_calls": ledger.calls["has_atom"],
        }

    def store_seconds(self) -> float:
        return self.ledger.seconds["add_atom"] + self.ledger.seconds["atoms_matching"]


class TimedSqliteStore(SqliteAtomStore):
    """``storage.sqlbackend.store``: write path and flushes, timed.

    ``add_atom_calls`` counts atoms written: one per ``add_atom`` call plus
    every atom of a bulk ``add_atoms`` load.
    """

    def __init__(self, clock: Clock, path: str) -> None:
        super().__init__(path=path)
        self.ledger = _CallLedger(clock)

    def add_atom(self, atom):
        return self.ledger.timed("add_atom", super().add_atom, atom)

    def add_atoms(self, atoms):
        batch = list(atoms)
        added = self.ledger.timed("add_atom", super().add_atoms, batch)
        self.ledger.calls["add_atom"] += len(batch) - 1
        return added

    def flush(self):
        return self.ledger.timed("flush", super().flush)

    def metrics(self) -> Dict[str, float]:
        ledger = self.ledger
        return {
            "storage.sqlbackend.store.add_atom_calls": ledger.calls["add_atom"],
            "storage.sqlbackend.store.add_atom_s": ledger.seconds["add_atom"],
            "storage.sqlbackend.store.flush_calls": ledger.calls["flush"],
            "storage.sqlbackend.store.flush_s": ledger.seconds["flush"],
        }

    def store_seconds(self) -> float:
        return self.ledger.seconds["add_atom"] + self.ledger.seconds["flush"]


def events_of(events: Iterable[Event], event_type: str) -> List[Event]:
    return [event for event in events if event["type"] == event_type]


def round_metrics(events: Iterable[Event]) -> Dict[str, float]:
    """``chase.engine`` round accounting from the ``round`` events."""
    rounds = events_of(events, "round")
    considered = sum(int(event["considered"]) for event in rounds)
    fired = sum(int(event["fired"]) for event in rounds)
    return {
        "chase.engine.fired_per_considered": fired / considered if considered else 0.0,
        "chase.engine.round_max_s": max((float(event["dur"]) for event in rounds), default=0.0),
    }


def pushdown_metrics(events: Iterable[Event]) -> Dict[str, float]:
    """``storage.sqlbackend.pushdown`` from the ``sql_family`` events."""
    families = {str(event["family"]): event for event in events_of(events, "sql_family")}

    def seconds(family: str) -> float:
        return float(families[family]["seconds_total"]) if family in families else 0.0

    pushdown = [event for name, event in families.items() if name.startswith("pushdown-")]
    return {
        "storage.sqlbackend.pushdown.stage_s": seconds("pushdown-stage"),
        "storage.sqlbackend.pushdown.record_s": seconds("pushdown-record"),
        "storage.sqlbackend.pushdown.apply_s": seconds("pushdown-apply"),
        "storage.sqlbackend.pushdown.statements": sum(int(e["statements"]) for e in pushdown),
        "storage.sqlbackend.pushdown.rows_changed": sum(int(e["rows_changed"]) for e in pushdown),
    }


def sql_seconds(events: Iterable[Event]) -> float:
    """Seconds spent inside compiled SQL statements (every family)."""
    return sum(float(event["seconds_total"]) for event in events_of(events, "sql_family"))


def worker_metrics(events: Iterable[Event]) -> Dict[str, float]:
    """``chase.parallel`` load balance from ``worker_round`` and ``round`` events.

    A round waits for its slowest worker, so the load that sets wall time is
    the per-round maximum; ``worker_busy_max_over_mean`` is that critical
    path ÷ the perfectly balanced one (Σ rounds max ÷ Σ rounds mean) — the
    max-load ÷ fair-share quantity of the MPC model.  ``coordinator_s`` is
    what is left of each round once its slowest worker has reported.
    """
    by_round: Dict[int, List[float]] = defaultdict(list)
    for event in events_of(events, "worker_round"):
        by_round[int(event["round"])].append(float(event["dur"]))
    round_durations = {int(e["round"]): float(e["dur"]) for e in events_of(events, "round")}
    busy = sum(sum(durations) for durations in by_round.values())
    slowest = sum(max(durations) for durations in by_round.values())
    fair = sum(sum(durations) / len(durations) for durations in by_round.values())
    coordinator = sum(
        round_durations[index] - max(durations)
        for index, durations in by_round.items()
        if index in round_durations
    )
    return {
        "chase.parallel.worker_busy_s": busy,
        "chase.parallel.worker_busy_max_over_mean": slowest / fair if fair else 0.0,
        "chase.parallel.coordinator_s": coordinator,
    }


def exchange_metrics(events: Iterable[Event]) -> Dict[str, float]:
    """``chase.exchange`` routing volumes from ``exchange``/``repartition`` events."""
    exchanges = events_of(events, "exchange")
    return {
        "chase.exchange.keys_routed": sum(int(e["keys_routed"]) for e in exchanges),
        "chase.exchange.atoms_routed": sum(int(e["atoms_routed"]) for e in exchanges),
        "chase.exchange.work_routed": sum(int(e["work_routed"]) for e in exchanges),
        "chase.exchange.exchange_s": sum(float(e["dur"]) for e in exchanges),
        "chase.exchange.repartitions": len(events_of(events, "repartition")),
    }
