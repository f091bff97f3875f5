"""Greedy shrinker: minimize a diverging program while keeping it diverging.

The shrinker takes a program and an *interestingness* predicate (typically
"the oracle battery still reports a divergence") and repeatedly attempts
reductions in a fixed pass order, restarting after every success until no
reduction applies:

1. drop whole rules;
2. drop whole facts;
3. drop head atoms (multi-atom heads only);
4. drop body atoms (multi-atom bodies only);
5. canonicalize constant names to ``c1, c2, …`` (one constant at a time,
   so a divergence caused by a *specific* gnarly name survives with exactly
   that name and nothing else exotic).

Every candidate is strictly smaller under :func:`program_size` (or, for the
rename pass, lexicographically simpler at equal size), so the loop always
terminates.  Candidates that fail structural validation are skipped — the
shrinker never proposes a program the parser or :class:`TGD` would reject.
"""

from __future__ import annotations

from typing import Callable, Iterator, Tuple

from ..core.atoms import Atom
from ..core.instances import Database
from ..core.terms import Constant
from ..core.tgds import TGD, TGDSet
from ..exceptions import ValidationError

Program = Tuple[Database, TGDSet]
Predicate_ = Callable[[Database, TGDSet], bool]


def program_size(database: Database, tgds: TGDSet) -> int:
    """Shrink metric: total atoms across rules and facts."""
    rule_atoms = sum(len(tgd.body) + len(tgd.head) for tgd in tgds)
    return rule_atoms + len(database)


def _database_from(atoms) -> Database:
    fresh = Database()
    for atom in atoms:
        fresh.add(atom)
    return fresh


def _drop_rules(database: Database, tgds: TGDSet) -> Iterator[Program]:
    rules = list(tgds)
    if len(rules) <= 1:
        return
    for index in range(len(rules)):
        yield database, TGDSet(rules[:index] + rules[index + 1 :])


def _drop_facts(database: Database, tgds: TGDSet) -> Iterator[Program]:
    facts = sorted(database, key=str)
    if len(facts) <= 1:
        return
    for index in range(len(facts)):
        yield _database_from(facts[:index] + facts[index + 1 :]), tgds


def _drop_rule_atoms(database: Database, tgds: TGDSet, part: str) -> Iterator[Program]:
    rules = list(tgds)
    for rule_index, rule in enumerate(rules):
        atoms = rule.head if part == "head" else rule.body
        if len(atoms) <= 1:
            continue
        for atom_index in range(len(atoms)):
            reduced = tuple(a for i, a in enumerate(atoms) if i != atom_index)
            try:
                if part == "head":
                    candidate = TGD(rule.body, reduced, label=rule.label)
                else:
                    candidate = TGD(reduced, rule.head, label=rule.label)
            except (ValidationError, ValueError):
                continue
            yield database, TGDSet(
                rules[:rule_index] + [candidate] + rules[rule_index + 1 :]
            )


def _canonicalize_constants(database: Database, tgds: TGDSet) -> Iterator[Program]:
    constants = sorted(
        {term for atom in database for term in atom.terms if isinstance(term, Constant)},
        key=lambda c: c.name,
    )
    taken = {constant.name for constant in constants}
    for target in constants:
        replacement = None
        for index in range(1, len(constants) + 2):
            name = f"c{index}"
            if name == target.name:
                replacement = None
                break
            if name not in taken:
                replacement = Constant(name)
                break
        if replacement is None:
            continue
        fresh = Database()
        changed = False
        for atom in database:
            terms = tuple(
                replacement if term == target else term for term in atom.terms
            )
            changed = changed or terms != atom.terms
            fresh.add(Atom(atom.predicate, terms))
        if changed and len(fresh) == len(database):
            yield fresh, tgds


_PASSES = (
    _drop_rules,
    _drop_facts,
    lambda db, tgds: _drop_rule_atoms(db, tgds, "head"),
    lambda db, tgds: _drop_rule_atoms(db, tgds, "body"),
    _canonicalize_constants,
)


def shrink(
    database: Database,
    tgds: TGDSet,
    is_interesting: Predicate_,
    max_checks: int = 500,
) -> Program:
    """Return the smallest program found that still satisfies *is_interesting*.

    *max_checks* bounds predicate evaluations (each one may run the whole
    oracle battery); when exhausted the best program so far is returned.
    """
    current: Program = (database, tgds)
    checks = 0
    improved = True
    while improved and checks < max_checks:
        improved = False
        for make_candidates in _PASSES:
            for candidate in make_candidates(*current):
                if checks >= max_checks:
                    return current
                checks += 1
                if is_interesting(*candidate):
                    current = candidate
                    improved = True
                    break
            if improved:
                break
    return current
