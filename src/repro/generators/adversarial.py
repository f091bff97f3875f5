"""Adversarial chase-workload families for the differential fuzzing harness.

The shape-controlled generator of :mod:`.tgd_generator` reproduces the
paper's *friendly* grid; every family here is built to sit where the five
execution engines are most likely to disagree:

``termination_boundary``
    Rule cycles one position away from non-termination: flipping whether the
    cycle-closing rule recurses through a frontier variable or through a
    fresh existential flips the ``IsChaseFinite`` verdict.  Exercises the
    checkers against the materialization oracle right at the boundary.
``guarded``
    Guarded TGDs — one body atom (the guard) contains every universally
    quantified variable; side atoms join through guard positions.
``sticky``
    Sticky-style joins: the join variable of a multi-atom body propagates
    into every head atom, so firing chains share constants aggressively.
``heavy_skew``
    Two-atom join bodies over hub-skewed data: almost every atom joins
    through one hub constant, so hash-partitioned execution
    (``JoinPlan.partition_positions``) concentrates nearly all work in a
    single partition — exactly where the byte-identity guarantee of the
    parallel executor is least comfortable.
``self_join``
    Bodies using one predicate in every slot (including the
    one-delta-atom-in-both-slots shape) over small dense digraphs.
``null_churn``
    Chains whose existentials feed the next rule, so nulls beget nulls and
    multi-atom heads reuse the same existential — stressing content-addressed
    null naming (``NullFactory``) and the in-SQL skolem tier byte-for-byte.
``nullary_gate``
    Rules gated by (and deriving) nullary predicates, the arity-0 corner the
    conformance vocabulary never covered.

Every family is a pure function of ``(seed, scale)``: two calls with the
same arguments produce identical rule sets and databases, which is what
makes fuzzing runs replayable.  Databases occasionally draw constants from
:data:`GNARLY_CONSTANTS` — names with comment prefixes, quotes, whitespace,
and null-marker shapes — so the parser/serializer round-trip oracle and the
store encodings are stressed by the same corpus.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.atoms import Atom
from ..core.instances import Database
from ..core.predicates import Predicate
from ..core.rules import CompiledRule, compile_rule
from ..core.terms import Constant
from ..core.tgds import TGDSet
from ..exceptions import ExperimentConfigError

#: Constant names chosen to break naive quoting, comment stripping, store
#: encodings (null-marker shapes), and hash partitioning (shared prefixes).
GNARLY_CONSTANTS: Tuple[str, ...] = (
    "a%b",
    "x#y",
    "p//q",
    'qu"ote',
    "qu'ote",
    "a b",
    "_:n1",
    "_e:x",
    "?mark",
    "a,b",
    "(paren)",
    "dot.",
    "",  # replaced by "empty" below; kept out of the pool
)[:-1]

_X = [f"x{i}" for i in range(1, 6)]
_Z = [f"z{i}" for i in range(1, 4)]


@dataclass(frozen=True)
class AdversarialCase:
    """One generated adversarial workload."""

    family: str
    seed: int
    scale: float
    tgds: TGDSet
    database: Database
    notes: str

    @property
    def name(self) -> str:
        return f"{self.family}-s{self.seed}"


def _constants(rng: random.Random, count: int, gnarly: bool = True) -> List[Constant]:
    """Draw *count* distinct constants, occasionally from the gnarly pool."""
    names: List[str] = []
    for index in range(count):
        if gnarly and rng.random() < 0.25:
            names.append(rng.choice(GNARLY_CONSTANTS))
        else:
            names.append(f"c{index + 1}")
    # Distinctness is not required (joins through repeated constants are
    # interesting), only non-emptiness, which the pool guarantees.
    return [Constant(name) for name in names]


def _scaled(base: int, scale: float, minimum: int = 1) -> int:
    return max(minimum, int(round(base * scale)))


# --------------------------------------------------------------------- #
# Families

#: What a family builder returns: its rules, its database and its notes.
_Family = Tuple[List[CompiledRule], Database, str]
_BUILDERS: Dict[str, Callable[[random.Random, float], _Family]] = {}


def _family(name: str):
    def register(builder):
        _BUILDERS[name] = builder
        return builder

    return register


@_family("termination_boundary")
def _termination_boundary(rng: random.Random, scale: float):
    """A rule cycle whose closing rule decides finite vs infinite."""
    length = _scaled(3, scale, minimum=2)
    predicates = [Predicate(f"B{i}", 2) for i in range(length)]
    x, y = _X[0], _X[1]
    rules = [
        compile_rule([(predicates[i], (x, y))], [(predicates[i + 1], (y, x))], f"cycle{i}")
        for i in range(length - 1)
    ]
    finite = rng.random() < 0.5
    if finite:
        closing_head = (predicates[0], (y, x))
        notes = "finite twin: the closing rule permutes frontier variables"
    else:
        closing_head = (predicates[0], (y, _Z[0]))
        notes = (
            "infinite twin: the closing rule recurses through a fresh "
            "existential, so every lap of the cycle invents a new null"
        )
    rules.append(compile_rule([(predicates[-1], (x, y))], [closing_head], "closing"))
    # A drain distractor: removing it never changes the verdict, keeping the
    # boundary attributable to the closing rule alone.
    drain = Predicate("Drain", 1)
    rules.append(compile_rule([(predicates[0], (x, y))], [(drain, (x,))], "drain"))
    constants = _constants(rng, 3)
    database = Database()
    database.add(Atom(predicates[0], (constants[0], constants[1])))
    if rng.random() < 0.5:
        database.add(Atom(predicates[0], (constants[1], constants[2])))
    return rules, database, notes


@_family("guarded")
def _guarded(rng: random.Random, scale: float):
    """Guarded TGDs: one body atom contains every body variable."""
    guard = Predicate("G", 3)
    side_a = Predicate("Sa", 2)
    side_b = Predicate("Sb", 2)
    head_p = Predicate("H", 2)
    x1, x2, x3 = _X[0], _X[1], _X[2]
    rules = [
        compile_rule(
            [(guard, (x1, x2, x3)), (side_a, (x1, x2))], [(head_p, (x2, _Z[0]))], "guarded-invent"
        ),
        compile_rule(
            [(guard, (x1, x2, x3)), (side_b, (x2, x3)), (side_a, (x3, x1))],
            [(guard, (x3, x2, x1))],
            "guard-permute",
        ),
        compile_rule([(head_p, (x1, x2))], [(side_a, (x1, x2))], "feed-side"),
    ]
    n = _scaled(3, scale)
    constants = _constants(rng, n + 2)
    database = Database()
    for i in range(n):
        a, b, c = constants[i], constants[(i + 1) % len(constants)], constants[(i + 2) % len(constants)]
        database.add(Atom(guard, (a, b, c)))
        database.add(Atom(side_a, (a, b)))
        if rng.random() < 0.7:
            database.add(Atom(side_b, (b, c)))
    notes = "guarded class: every rule's guard atom covers all body variables"
    return rules, database, notes


@_family("sticky")
def _sticky(rng: random.Random, scale: float):
    """Sticky-style joins: the join variable reaches every head atom."""
    r, s, t, u = Predicate("R", 2), Predicate("S", 2), Predicate("T", 2), Predicate("U", 1)
    x, y, z = _X[0], _X[1], _X[2]
    rules = [
        compile_rule([(r, (x, y)), (s, (y, z))], [(t, (y, _Z[0])), (u, (y,))], "sticky-join"),
        compile_rule([(t, (x, y))], [(s, (x, y))], "feed-back"),
    ]
    n = _scaled(4, scale)
    constants = _constants(rng, n + 1)
    database = Database()
    for i in range(n):
        database.add(Atom(r, (constants[i], constants[(i + 1) % len(constants)])))
        database.add(Atom(s, (constants[(i + 1) % len(constants)], constants[i])))
    notes = "sticky-style: join variables propagate into every head atom"
    return rules, database, notes


@_family("heavy_skew")
def _heavy_skew(rng: random.Random, scale: float):
    """Hub-skewed joins: nearly all join work lands in one hash partition."""
    r, t = Predicate("R", 2), Predicate("T", 2)
    x, y, z = _X[0], _X[1], _X[2]
    rules = [compile_rule([(r, (x, y)), (r, (y, z))], [(t, (x, z))], "hub-join")]
    if rng.random() < 0.5:
        rules.append(compile_rule([(t, (x, y)), (r, (y, z))], [(t, (x, z))], "hub-close"))
    hub = Constant(rng.choice(("hub",) + GNARLY_CONSTANTS[:4]))
    fan_in = _scaled(8, scale, minimum=3)
    fan_out = _scaled(3, scale, minimum=2)
    database = Database()
    for i in range(fan_in):
        database.add(Atom(r, (Constant(f"in{i}"), hub)))
    for j in range(fan_out):
        database.add(Atom(r, (hub, Constant(f"out{j}"))))
    # Sparse background edges keep other partitions non-empty.
    for k in range(_scaled(2, scale)):
        database.add(Atom(r, (Constant(f"bg{k}"), Constant(f"bg{k + 1}"))))
    notes = (
        f"join key skew: {fan_in}-in/{fan_out}-out hub {hub.name!r} drives "
        "almost every trigger through one partition of partition_positions"
    )
    return rules, database, notes


@_family("self_join")
def _self_join(rng: random.Random, scale: float):
    """One predicate in every body slot, dense cyclic data."""
    r = Predicate("R", 2)
    x, y, z = _X[0], _X[1], _X[2]
    pool = [
        compile_rule([(r, (x, y)), (r, (y, z))], [(r, (x, z))], "transitive"),
        compile_rule([(r, (x, x))], [(r, (x, _Z[0]))], "loop-invent"),
        compile_rule([(r, (x, y)), (r, (x, z))], [(r, (y, z))], "sibling"),
        compile_rule([(r, (x, y))], [(r, (y, x))], "flip"),
    ]
    count = rng.randint(2, min(3, len(pool)))
    # Slots number x, y, z in name order, so slot order is the atoms' order.
    rules = sorted(rng.sample(pool, count), key=lambda rule: (rule.body, rule.head))
    n = _scaled(4, scale, minimum=3)
    constants = _constants(rng, n, gnarly=False)
    database = Database()
    for i in range(n):
        database.add(Atom(r, (constants[i], constants[(i + 1) % n])))
    if rng.random() < 0.5:
        database.add(Atom(r, (constants[0], constants[0])))
    notes = "self-joins: the same delta atom can fill several body slots"
    return rules, database, notes


@_family("null_churn")
def _null_churn(rng: random.Random, scale: float):
    """Existential chains: nulls invented by one rule join the next."""
    length = _scaled(3, scale, minimum=2)
    chain = [Predicate(f"C{i}", 2) for i in range(length)]
    d, e = Predicate("D", 2), Predicate("E", 1)
    x, y = _X[0], _X[1]
    z1, z2 = _Z[0], _Z[1]
    rules = [
        compile_rule([(chain[i], (x, y))], [(chain[i + 1], (y, z1))], f"chain{i}")
        for i in range(length - 1)
    ]
    # Multi-atom head reusing one existential twice: both occurrences must
    # decode to the *same* content-addressed null on every engine.
    rules.append(compile_rule([(chain[-1], (x, y))], [(d, (y, z2)), (e, (z2,))], "shared-null"))
    if rng.random() < 0.5:
        rules.append(compile_rule([(d, (x, y))], [(chain[0], (y, z1))], "churn-back"))
    constants = _constants(rng, 2)
    database = Database()
    database.add(Atom(chain[0], (constants[0], constants[1])))
    notes = "null churn: invented nulls feed further existential rules"
    return rules, database, notes


@_family("nullary_gate")
def _nullary_gate(rng: random.Random, scale: float):
    """Arity-0 predicates gating (and derived by) ordinary rules."""
    gate, done = Predicate("Gate", 0), Predicate("Done", 0)
    r, s, t = Predicate("R", 2), Predicate("S", 2), Predicate("T", 1)
    x, y = _X[0], _X[1]
    rules = [
        compile_rule([(gate, ()), (r, (x, y))], [(s, (y, _Z[0]))], "gated"),
        compile_rule([(s, (x, y))], [(done, ())], "derive-nullary"),
        compile_rule([(done, ()), (s, (x, y))], [(t, (x,))], "gated-by-derived"),
    ]
    n = _scaled(3, scale)
    constants = _constants(rng, n + 1)
    database = Database()
    database.add(Atom(gate, ()))
    for i in range(n):
        database.add(Atom(r, (constants[i], constants[(i + 1) % len(constants)])))
    notes = "nullary gates: arity-0 atoms both gate and get derived"
    return rules, database, notes


#: Stable, sorted family registry.
FAMILY_NAMES: Tuple[str, ...] = tuple(sorted(_BUILDERS))


def generate_case(family: str, seed: int = 0, scale: float = 1.0) -> AdversarialCase:
    """Generate one adversarial case; a pure function of ``(family, seed, scale)``."""
    try:
        builder = _BUILDERS[family]
    except KeyError:
        raise ExperimentConfigError(
            f"unknown adversarial family {family!r}; expected one of {FAMILY_NAMES}"
        ) from None
    if scale <= 0:
        raise ExperimentConfigError("adversarial scale must be positive")
    rng = random.Random(f"adversarial:{family}:{seed}:{scale}")
    rules, database, notes = builder(rng, scale)
    tgds = TGDSet()
    for rule in rules:
        tgds.add_rule(rule)
    return AdversarialCase(
        family=family, seed=seed, scale=scale, tgds=tgds, database=database, notes=notes
    )


def adversarial_cases(
    seed: int = 0,
    scale: float = 1.0,
    families: Optional[Sequence[str]] = None,
    per_family: int = 1,
) -> List[AdversarialCase]:
    """Generate *per_family* cases for every requested family (sorted order)."""
    if per_family < 1:
        raise ExperimentConfigError("per_family must be >= 1")
    selected = FAMILY_NAMES if families is None else tuple(families)
    cases: List[AdversarialCase] = []
    for family in selected:
        for offset in range(per_family):
            cases.append(generate_case(family, seed=seed + offset, scale=scale))
    return cases
