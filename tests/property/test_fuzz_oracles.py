"""Property-based reuse of the fuzzing oracles and mutators.

The conformance suite (``test_conformance.py``) already pins cross-engine
byte identity over random programs; this file closes the remaining gaps by
reusing the fuzz harness's own machinery over the same strategies:

* the **round-trip oracle** over random programs whose constants are
  renamed into the adversarial "gnarly" pool (comment prefixes, embedded
  quotes, spaces — the conformance strategies only use ``a``/``b``/``c``);
* the **budget-accounting oracle** over every random program's reference
  chase;
* the **mutators as program transformers**: a mutated descendant of a
  valid random program must itself be a valid, round-trippable program —
  the property that makes hypothesis strategies usable as mutation seeds.

Run with ``HYPOTHESIS_PROFILE=ci`` for the pinned CI sweep.
"""

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.core.atoms import Atom
from repro.core.instances import Database
from repro.core.terms import Constant
from repro.core.tgds import TGDSet
from repro.fuzz import (
    DEFAULT_LIMITS,
    MutationFailed,
    check_budget_accounting,
    check_round_trip,
    mutate_many,
    reference_chase,
)
from repro.generators.adversarial import GNARLY_CONSTANTS

from tests.property.strategies import chase_programs, databases, describe_program

_EMPTY_TGDS = TGDSet([])


@st.composite
def gnarly_renamed_programs(draw):
    """A random program with its constants renamed into the gnarly pool."""
    database, tgds = draw(chase_programs())
    names = draw(
        st.lists(st.sampled_from(GNARLY_CONSTANTS), min_size=1, max_size=3, unique=True)
    )
    constants = sorted({t for atom in database for t in atom.terms}, key=str)
    mapping = {c: Constant(names[i % len(names)]) for i, c in enumerate(constants)}
    renamed = Database(
        Atom(atom.predicate, tuple(mapping.get(t, t) for t in atom.terms))
        for atom in database
    )
    return renamed, tgds


@given(gnarly_renamed_programs())
def test_round_trip_oracle_is_clean_on_gnarly_programs(program):
    database, tgds = program
    divergences = check_round_trip(database, tgds)
    assert not divergences, "\n".join(
        [str(d) for d in divergences] + [describe_program(database, tgds)]
    )


@given(chase_programs())
def test_budget_accounting_oracle_is_clean_on_random_programs(program):
    database, tgds = program
    result = reference_chase(database, tgds, limits=DEFAULT_LIMITS)
    divergences = check_budget_accounting(
        result, len(database), DEFAULT_LIMITS, "reference/instance"
    )
    assert not divergences, "\n".join(
        [str(d) for d in divergences] + [describe_program(database, tgds)]
    )


@given(chase_programs(), st.integers(min_value=0, max_value=2**16))
def test_mutated_programs_stay_valid_and_round_trippable(program, seed):
    database, tgds = program
    rng = random.Random(f"property-mutate:{seed}")
    try:
        (mutated_db, mutated_tgds), applied = mutate_many(rng, database, tgds, count=2)
    except MutationFailed:
        return  # no applicable operator for this program; nothing to check
    divergences = check_round_trip(mutated_db, mutated_tgds)
    assert not divergences, "\n".join(
        [str(d) for d in divergences]
        + [f"applied: {'+'.join(applied)}", describe_program(mutated_db, mutated_tgds)]
    )


@given(databases())
def test_gnarly_pool_itself_round_trips(database):
    # Sanity anchor: the pool the renamer draws from is fully serializable.
    for name in GNARLY_CONSTANTS:
        renamed = Database(
            Atom(atom.predicate, tuple(Constant(name) for _ in atom.terms))
            for atom in database
        )
        assert not check_round_trip(renamed, tgds=_EMPTY_TGDS)
