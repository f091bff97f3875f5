"""The serial chase runs on value rows: no ``Atom`` between seeding and the result.

Stores, matching and firing trade ``(predicate, row)`` tuples; an
:class:`~repro.core.atoms.Atom` is built only at the public API edge
(``iter_atoms``, ``ChaseResult.instance``/``view``, parsing single atoms).
This pins it by counting ``Atom.__init__`` calls around a
``materialize=False`` chase, for every variant on both backends.
"""

import pytest

from repro.chase.engine import chase
from repro.core.atoms import Atom
from repro.core.parser import parse_database, parse_rules

#: Joins, a repeated body variable, existentials, a second round fed by
#: nulls, and (for the restricted variant) heads that are already satisfied.
RULES = """
R(x,y), S(y,z) -> T(x,z,w)
T(x,z,w) -> R(z,w)
R(x,x) -> U(x)
S(x,y) -> R(x,v)
U(x) -> S(x,x)
"""
FACTS = "R(a,b).\nR(b,b).\nS(b,c).\nS(c,a).\nS(a,d).\n"


@pytest.fixture
def atoms_built(monkeypatch):
    built = []
    original = Atom.__init__

    def counting(self, predicate, terms):
        built.append(predicate.name)
        original(self, predicate, terms)

    monkeypatch.setattr(Atom, "__init__", counting)
    return built


@pytest.mark.parametrize("backend", ("instance", "sqlite"))
@pytest.mark.parametrize("variant", ("oblivious", "semi-oblivious", "restricted"))
def test_the_serial_chase_builds_no_atom(atoms_built, variant, backend):
    tgds = parse_rules(RULES)  # rules are atoms
    atoms_built.clear()
    database = parse_database(FACTS)
    assert atoms_built == []  # a fact file is read into rows
    result = chase(database, tgds, variant=variant, backend=backend, materialize=False)
    assert atoms_built == []
    assert result.terminated and result.rounds >= 2 and result.atoms_created > 0
    # The API edge is where atoms appear.
    assert len(list(result.iter_atoms())) == result.size()
    assert len(atoms_built) == result.size()
