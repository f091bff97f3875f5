"""The chase-path workloads: ``chase_join``, ``chase_join_pushdown``,
``chase_linear_file``, ``chase_skew_par2``.

Operation = text in → closed store out: ``parse_rules`` + ``parse_database``
+ ``chase`` (or ``parallel_chase``).  Every result is checked against a
closed-form atom count and against the fingerprint — null names included —
of the serial ``indexed``/``instance`` chase computed in set-up.
"""

from __future__ import annotations

import os
import pickle
import random
import resource
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.chase import ChaseLimits, chase
from repro.chase.exchange import EXCHANGES
from repro.chase.matching import make_trigger_source
from repro.chase.parallel import parallel_chase, worker_seed_atoms
from repro.core import (
    Atom,
    Constant,
    Database,
    Instance,
    Predicate,
    TGD,
    TGDSet,
    Variable,
    parse_database,
    parse_rules,
    serialize_database,
    serialize_rules,
)
from repro.generators import generate_skew_workload
from repro.obs import Clock, ListTraceSink, Tracer
from repro.storage.sqlbackend import MEMORY_PATH, SqliteAtomStore

from . import probes
from .spec import ROOT
from .workload import Traced, scaled

LIMITS = ChaseLimits(max_atoms=1_000_000, max_rounds=None)
VARIANT = "semi-oblivious"

#: Persistent stores are written under the checkout, never outside it.
SCRATCH = ROOT / ".bench_tmp"

Generated = Tuple[Database, TGDSet, int]  # database, rules, atoms the chase creates


def join_chains(seed: int, chains: int, rows: int, fan_out: int) -> Generated:
    """iBench STB/ONT-style mapping chains with two-atom join bodies.

    Per chain: ``A(x,y), B(y,z) -> C(x,z,w)`` then
    ``C(x,z,w), B2(z,u) -> D(x,u,v)``; each ``B2`` join key matches
    *fan_out* ``C`` rows, so round 2 derives *fan_out* atoms per source row
    and every head invents a null.  (The ``benchmarks/bench_sql_pushdown.py``
    generator, re-homed.)
    """
    x, y, z, w, u, v = (Variable(name) for name in "xyzwuv")
    tgds = TGDSet()
    database = Database()
    out_keys = max(1, rows // fan_out)
    for chain in range(chains):
        a, b, b2 = (Predicate(f"{name}{chain}", 2) for name in ("A", "B", "B2_"))
        c, d = (Predicate(f"{name}{chain}", 3) for name in ("C", "D"))
        tgds.add(TGD((Atom(a, (x, y)), Atom(b, (y, z))), (Atom(c, (x, z, w)),)))
        tgds.add(TGD((Atom(c, (x, z, w)), Atom(b2, (z, u))), (Atom(d, (x, u, v)),)))
        for row in range(rows):
            join_key = Constant(f"j{seed}_{chain}_{row}")
            out_key = Constant(f"b{seed}_{chain}_{row % out_keys}")
            database.add(Atom(a, (Constant(f"a{seed}_{chain}_{row}"), join_key)))
            database.add(Atom(b, (join_key, out_key)))
            database.add(Atom(b2, (out_key, Constant(f"u{seed}_{chain}_{row}"))))
    # One C atom per source row; one D atom per (C row, B2 row) pair sharing
    # an out key, and key k is shared by len(range(k, rows, out_keys)) rows.
    pairs = sum(len(range(key, rows, out_keys)) ** 2 for key in range(out_keys))
    return database, tgds, chains * (rows + pairs)


def linear_chain(seed: int, length: int, rows: int) -> Generated:
    """A copy chain ``P0 -> P1 -> ... -> Pn`` with one existential per hop."""
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    predicates = [Predicate(f"P{index}", 2) for index in range(length + 1)]
    tgds = TGDSet(
        TGD((Atom(source, (x, y)),), (Atom(target, (y, z)),))
        for source, target in zip(predicates, predicates[1:])
    )
    database = Database(
        Atom(predicates[0], (Constant(f"a{seed}_{row}"), Constant(f"b{seed}_{row}")))
        for row in range(rows)
    )
    return database, tgds, length * rows


def skew_star(seed: int, n_keys: int, rows: int, skew: float, fan_out: int, depth: int) -> Generated:
    workload = generate_skew_workload(
        n_keys=n_keys, rows=rows, skew=skew, fan_out=fan_out, depth=depth, seed=seed
    )
    return workload.database, workload.tgds, workload.expected_atoms


Fingerprint = Tuple[bool, str, int, int, int, Tuple[str, ...]]


def fingerprint(result, store) -> Fingerprint:
    """Everything the cross-engine determinism claim covers, null names included."""
    return (
        result.terminated,
        result.stop_reason,
        result.rounds,
        result.triggers_fired,
        result.atoms_created,
        tuple(sorted(str(atom) for atom in store.iter_atoms())),
    )


@dataclass
class ChaseInputs:
    rules_text: str
    facts_text: str
    n_facts: int
    expected_atoms: int
    reference: Fingerprint
    #: Holds the fresh store files of ``sqlite-file`` runs; removed with the inputs.
    scratch: Optional[tempfile.TemporaryDirectory] = None
    _files: int = field(default=0, repr=False)

    @property
    def units(self) -> int:
        return self.expected_atoms

    def fresh_path(self) -> str:
        assert self.scratch is not None
        self._files += 1
        return os.path.join(self.scratch.name, f"chase-{self._files}.db")


class ChaseWorkload:
    """One chase configuration over one generated program.

    *backend* is ``"instance"``, ``"sqlite"`` (in-memory) or ``"sqlite-file"``
    (a fresh file per operation, closed inside the operation).
    """

    unit = "atoms"

    def __init__(
        self,
        name: str,
        generator: Callable[..., Generated],
        sizes: Dict[str, object],
        scaled_size: str,
        backend: str = "instance",
        strategy: str = "indexed",
        materialize: bool = True,
        workers: int = 1,
    ) -> None:
        self.name = name
        self._generator = generator
        self._sizes = sizes
        self._scaled_size = scaled_size
        self._backend = backend
        self._strategy = strategy
        self._materialize = materialize
        self._workers = workers

    def params(self, scale: float) -> Dict[str, object]:
        sizes = dict(self._sizes)
        sizes[self._scaled_size] = scaled(int(sizes[self._scaled_size]), scale)
        return {
            **sizes,
            "backend": self._backend,
            "strategy": self._strategy,
            "materialize": self._materialize,
            "workers": self._workers,
        }

    # -------------------------------------------------------------- #
    # Set-up

    def setup(self, seed: int, scale: float) -> ChaseInputs:
        params = self.params(scale)
        database, tgds, expected_atoms = self._generator(
            seed, **{name: params[name] for name in self._sizes}
        )
        rules_text = serialize_rules(tgds)
        fact_lines = serialize_database(database).splitlines()
        random.Random(seed).shuffle(fact_lines)
        facts_text = "\n".join(fact_lines) + "\n"
        reference = chase(parse_database(facts_text), parse_rules(rules_text), limits=LIMITS)
        scratch = None
        if self._backend == "sqlite-file":
            SCRATCH.mkdir(exist_ok=True)
            scratch = tempfile.TemporaryDirectory(dir=SCRATCH)
        return ChaseInputs(
            rules_text=rules_text,
            facts_text=facts_text,
            n_facts=len(fact_lines),
            expected_atoms=expected_atoms,
            reference=fingerprint(reference, reference.store),
            scratch=scratch,
        )

    # -------------------------------------------------------------- #
    # The operation

    def _chase(self, database, tgds, **store_or_backend):
        """The configured engine call, on a ``backend=`` name or a ``store=``."""
        if self._workers > 1:
            # No exchange= on purpose: the library default, whatever it becomes.
            return parallel_chase(
                database,
                tgds,
                limits=LIMITS,
                workers=self._workers,
                executor="process",
                **store_or_backend,
            )
        return chase(database, tgds, limits=LIMITS, strategy=self._strategy, **store_or_backend)

    def operate(self, inputs: ChaseInputs):
        tgds = parse_rules(inputs.rules_text)
        database = parse_database(inputs.facts_text)
        backend = self._backend
        if backend == "sqlite-file":
            backend = "sqlite:" + inputs.fresh_path()
        result = self._chase(database, tgds, backend=backend, materialize=self._materialize)
        if self._backend == "sqlite-file":
            result.store.close()
        return result

    def check(self, inputs: ChaseInputs, result) -> List[str]:
        store = result.store
        if self._backend == "sqlite-file":
            store = SqliteAtomStore(path=store.path)
        try:
            observed = fingerprint(result, store)
        finally:
            if isinstance(store, SqliteAtomStore):
                store.close()
                if store.is_persistent:
                    os.unlink(store.path)
        problems = []
        if not result.terminated:
            problems.append(f"no fixpoint: stopped on {result.stop_reason}")
        if result.atoms_created != inputs.expected_atoms:
            problems.append(
                f"atoms_created={result.atoms_created}, closed form says {inputs.expected_atoms}"
            )
        if observed != inputs.reference:
            problems.append(
                "fingerprint differs from the serial indexed/instance chase "
                f"(counts {observed[:5]} vs {inputs.reference[:5]})"
            )
        return problems

    # -------------------------------------------------------------- #
    # The traced operation

    def _timed_store(self, inputs: ChaseInputs, clock: Clock):
        if self._backend == "instance":
            return probes.TimedInstance(clock)
        path = inputs.fresh_path() if self._backend == "sqlite-file" else MEMORY_PATH
        return probes.TimedSqliteStore(clock, path)

    def trace(self, inputs: ChaseInputs, clock: Clock, warm_wall_s: float) -> Traced:
        now = clock.now
        started = now()
        tgds = parse_rules(inputs.rules_text)
        rules_parsed = now()
        database = parse_database(inputs.facts_text)
        facts_parsed = now()
        store = self._timed_store(inputs, clock)
        sink = ListTraceSink()
        tracer = Tracer(sink, clock=clock)
        run_started = now()
        result = self._chase(database, tgds, store=store, materialize=False, tracer=tracer)
        run_ended = now()
        if self._materialize:
            result.materialize()
        materialized = now()
        atoms_stored = result.size()
        if self._backend == "sqlite-file":
            store.close()
        ended = now()

        wall_s = ended - started
        parse_rules_s = rules_parsed - started
        parse_database_s = facts_parsed - rules_parsed
        run_s = run_ended - run_started
        materialize_s = materialized - run_ended
        close_s = ended - materialized
        events = sink.events
        unattributed = wall_s - (parse_rules_s + parse_database_s + run_s + materialize_s + close_s)
        layers: Dict[str, float] = {
            "core.parser.parse_rules_s": parse_rules_s,
            "core.parser.parse_rules_bytes_per_s": len(inputs.rules_text.encode("utf-8"))
            / parse_rules_s,
            "core.parser.parse_database_s": parse_database_s,
            "core.parser.facts_per_s": inputs.n_facts / parse_database_s,
            "chase.engine.run_s": run_s,
            "chase.engine.rounds": result.rounds,
            "chase.engine.triggers_fired": result.triggers_fired,
            "chase.engine.atoms_created": result.atoms_created,
            "chase.engine.self_s": run_s - store.store_seconds() - probes.sql_seconds(events),
            **probes.round_metrics(events),
            **store.metrics(),
            "chase.result.materialize_s": materialize_s,
            "chase.unattributed_s": unattributed,
            "chase.unattributed_ratio": unattributed / wall_s,
        }
        if self._strategy == "sql-pushdown":
            layers.update(probes.pushdown_metrics(events))
        if self._backend == "sqlite-file":
            file_bytes = os.path.getsize(store.path)
            layers["storage.sqlbackend.store.close_s"] = close_s
            layers["storage.sqlbackend.store.file_bytes"] = file_bytes
            layers["storage.sqlbackend.store.bytes_per_atom"] = file_bytes / atoms_stored
        problems = self.check(inputs, result)

        if self._strategy == "indexed":
            layers.update(self._initial_match(database, tgds, clock))
        if self._workers > 1:
            layers.update(probes.worker_metrics(events))
            parallel_layers, parallel_problems = self._parallel_extras(
                inputs, database, tgds, clock, warm_wall_s
            )
            layers.update(parallel_layers)
            problems.extend(parallel_problems)
        return Traced(wall_s=wall_s, layers=layers, problems=problems)

    @staticmethod
    def _initial_match(database, tgds, clock: Clock) -> Dict[str, float]:
        """``chase.matching`` alone: exhaust round 0's triggers on the seed database."""
        seed_store = Instance(database.atoms())
        source = make_trigger_source(tuple(tgds))
        started = clock.now()
        enumerated = sum(1 for _ in source.initial(seed_store))
        seconds = clock.now() - started
        return {
            "chase.matching.initial_match_s": seconds,
            "chase.matching.triggers_enumerated": enumerated,
            "chase.matching.triggers_per_s": enumerated / seconds,
        }

    def _parallel_extras(
        self, inputs: ChaseInputs, database, tgds, clock: Clock, warm_wall_s: float
    ) -> Tuple[Dict[str, float], List[str]]:
        """What only a parallel run has: the serial baseline, what crosses the
        worker pipes, and one traced run per explicit exchange topology."""
        now = clock.now
        problems: List[str] = []
        started = now()
        chase(
            parse_database(inputs.facts_text),
            parse_rules(inputs.rules_text),
            limits=LIMITS,
            materialize=False,
        )
        serial_wall_s = now() - started
        seed_store = Instance(database.atoms())
        layers: Dict[str, float] = {
            "chase.engine.serial_wall_s": serial_wall_s,
            "chase.parallel.speedup_over_serial": serial_wall_s / warm_wall_s,
            "chase.parallel.seed_pickle_bytes": sum(
                len(
                    pickle.dumps(
                        worker_seed_atoms(
                            seed_store, tuple(tgds), VARIANT, self._workers, worker
                        )
                    )
                )
                for worker in range(self._workers)
            ),
        }
        wall_names = {
            "coordinator": "chase.parallel.coordinator_wall_s",
            "shuffle": "chase.exchange.shuffle_wall_s",
        }
        for exchange, wall_name in wall_names.items():
            if exchange not in EXCHANGES:
                continue  # the topology has been deleted; its metrics read 0
            sink = ListTraceSink()
            started = now()
            result = self._chase(
                parse_database(inputs.facts_text),
                parse_rules(inputs.rules_text),
                backend="instance",
                materialize=False,
                tracer=Tracer(sink, clock=clock),
                exchange=exchange,
            )
            layers[wall_name] = now() - started
            if exchange == "shuffle":
                layers.update(probes.exchange_metrics(sink.events))
            if result.atoms_created != inputs.expected_atoms:
                problems.append(
                    f"exchange={exchange}: atoms_created={result.atoms_created}, "
                    f"closed form says {inputs.expected_atoms}"
                )
        # Pool workers are this process's only children, and every pool has
        # been joined by now.  Linux reports ru_maxrss in KiB.
        layers["chase.parallel.worker_peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        )
        return layers, problems


CHASE_JOIN_SIZES = {"chains": 8, "rows": 200, "fan_out": 8}

CHASE_WORKLOADS = (
    ChaseWorkload("chase_join", join_chains, CHASE_JOIN_SIZES, "rows"),
    ChaseWorkload(
        "chase_join_pushdown",
        join_chains,
        CHASE_JOIN_SIZES,
        "rows",
        backend="sqlite",
        strategy="sql-pushdown",
        materialize=False,
    ),
    ChaseWorkload(
        "chase_linear_file",
        linear_chain,
        {"length": 12, "rows": 1500},
        "rows",
        backend="sqlite-file",
        materialize=False,
    ),
    ChaseWorkload(
        "chase_skew_par2",
        skew_star,
        {"n_keys": 12, "rows": 300, "skew": 1.4, "fan_out": 8, "depth": 6},
        "rows",
        materialize=False,
        workers=2,
    ),
)
