"""The LUBM family (LUBM-1 / LUBM-10 / LUBM-100 / LUBM-1K).

LUBM is the Lehigh University Benchmark: an EL ontology (Univ-Bench) over a
university domain plus a data generator (UBA) that scales with the number of
universities.  The paper keeps only the axioms expressible as linear TGDs
(which turn out to be simple-linear): 137 rules over 104 predicates of arity
1 and 2, with 30 distinct shapes in the data regardless of scale.

The synthetic builder reproduces that structure:

* 104 predicates: unary "classes" (University, Department, Professor,
  Student, Course, ...) and binary "properties" (memberOf, worksFor,
  advisor, takesCourse, ...), padded with numbered classes/properties to
  reach the exact predicate count;
* 137 simple-linear rules of the DL-Lite / EL kinds that survive the
  paper's filtering: subclass axioms ``C(x) -> D(x)``, domain and range
  axioms ``P(x,y) -> C(x)`` / ``P(x,y) -> C(y)``, subproperty and inverse
  axioms ``P(x,y) -> Q(x,y)`` / ``P(x,y) -> Q(y,x)``, and existential
  axioms ``C(x) -> ∃y P(x,y)``;
* a data generator that emits universities, departments, people and course
  facts; the ``universities`` knob plays the role of the LUBM scale factor
  (1, 10, 100, 1000), and the default builders shrink the per-university
  population so the scenarios stay laptop-sized (the schema, rules and
  shapes — what the algorithms' cost follows — are those of
  :data:`~repro.scenarios.base.PAPER_TABLE_1`; only the tuple count shrinks).

The resulting rule set is weakly acyclic w.r.t. the generated data — as in
the original LUBM ontology, whose chase terminates — so the expected
``IsChaseFinite`` answer is *finite*.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from ..core.atoms import Atom
from ..core.predicates import Predicate
from ..core.terms import Variable
from ..core.tgds import TGD, TGDSet
from ..exceptions import ExperimentConfigError
from ..storage.database import RelationalDatabase
from .base import PAPER_TABLE_1, Scenario

#: Number of predicates (Table 1).
LUBM_PREDICATES = 104

#: Number of rules (Table 1).
LUBM_RULES = 137

#: LUBM scale factor (number of universities) per member name.
LUBM_UNIVERSITIES = {"LUBM-1": 1, "LUBM-10": 10, "LUBM-100": 100, "LUBM-1K": 1000}

_CORE_CLASSES = [
    "University", "Department", "Faculty", "Professor", "FullProfessor",
    "AssociateProfessor", "AssistantProfessor", "Lecturer", "Student",
    "UndergraduateStudent", "GraduateStudent", "Course", "GraduateCourse",
    "Publication", "ResearchGroup", "Person", "Employee", "Chair",
    "TeachingAssistant", "ResearchAssistant", "Organization", "Work",
]

_CORE_PROPERTIES = [
    "memberOf", "subOrganizationOf", "worksFor", "headOf", "advisor",
    "takesCourse", "teacherOf", "publicationAuthor", "undergraduateDegreeFrom",
    "mastersDegreeFrom", "doctoralDegreeFrom", "affiliatedOrganizationOf",
    "teachingAssistantOf", "researchInterest",
]


def lubm_schema() -> Tuple[List[Predicate], List[Predicate]]:
    """Return the (classes, properties) predicate lists, 104 predicates in total."""
    classes = [Predicate(name, 1) for name in _CORE_CLASSES]
    properties = [Predicate(name, 2) for name in _CORE_PROPERTIES]
    index = 0
    while len(classes) + len(properties) < LUBM_PREDICATES:
        index += 1
        if index % 2:
            classes.append(Predicate(f"Class{index}", 1))
        else:
            properties.append(Predicate(f"Property{index}", 2))
    return classes, properties


def lubm_rules(seed: int = 11) -> TGDSet:
    """Build the 137 simple-linear rules of the (filtered) Univ-Bench ontology."""
    rng = random.Random(seed)
    classes, properties = lubm_schema()
    x, y = Variable("x"), Variable("y")
    tgds = TGDSet()

    def subclass(sub: Predicate, sup: Predicate):
        tgds.add(TGD((Atom(sub, (x,)),), (Atom(sup, (x,)),), label=f"sub_{sub.name}_{sup.name}"))

    def domain_axiom(prop: Predicate, cls: Predicate):
        tgds.add(TGD((Atom(prop, (x, y)),), (Atom(cls, (x,)),), label=f"dom_{prop.name}"))

    def range_axiom(prop: Predicate, cls: Predicate):
        tgds.add(TGD((Atom(prop, (x, y)),), (Atom(cls, (y,)),), label=f"rng_{prop.name}"))

    def subproperty(sub: Predicate, sup: Predicate, inverse: bool = False):
        head_args = (y, x) if inverse else (x, y)
        tgds.add(TGD((Atom(sub, (x, y)),), (Atom(sup, head_args),), label=f"subp_{sub.name}_{sup.name}"))

    def existential(cls: Predicate, prop: Predicate):
        z = Variable("z")
        tgds.add(TGD((Atom(cls, (x,)),), (Atom(prop, (x, z)),), label=f"ex_{cls.name}_{prop.name}"))

    by_name = {p.name: p for p in classes + properties}

    # Hand-written core of the Univ-Bench hierarchy (kept stable across seeds).
    subclass(by_name["FullProfessor"], by_name["Professor"])
    subclass(by_name["AssociateProfessor"], by_name["Professor"])
    subclass(by_name["AssistantProfessor"], by_name["Professor"])
    subclass(by_name["Professor"], by_name["Faculty"])
    subclass(by_name["Lecturer"], by_name["Faculty"])
    subclass(by_name["Faculty"], by_name["Employee"])
    subclass(by_name["Employee"], by_name["Person"])
    subclass(by_name["Student"], by_name["Person"])
    subclass(by_name["UndergraduateStudent"], by_name["Student"])
    subclass(by_name["GraduateStudent"], by_name["Student"])
    subclass(by_name["TeachingAssistant"], by_name["Person"])
    subclass(by_name["ResearchAssistant"], by_name["Person"])
    subclass(by_name["GraduateCourse"], by_name["Course"])
    subclass(by_name["Course"], by_name["Work"])
    subclass(by_name["Publication"], by_name["Work"])
    subclass(by_name["University"], by_name["Organization"])
    subclass(by_name["Department"], by_name["Organization"])
    subclass(by_name["ResearchGroup"], by_name["Organization"])
    subclass(by_name["Chair"], by_name["Professor"])

    domain_axiom(by_name["memberOf"], by_name["Person"])
    range_axiom(by_name["memberOf"], by_name["Organization"])
    domain_axiom(by_name["worksFor"], by_name["Employee"])
    range_axiom(by_name["worksFor"], by_name["Organization"])
    domain_axiom(by_name["headOf"], by_name["Chair"])
    range_axiom(by_name["headOf"], by_name["Department"])
    domain_axiom(by_name["advisor"], by_name["Student"])
    range_axiom(by_name["advisor"], by_name["Professor"])
    domain_axiom(by_name["takesCourse"], by_name["Student"])
    range_axiom(by_name["takesCourse"], by_name["Course"])
    domain_axiom(by_name["teacherOf"], by_name["Faculty"])
    range_axiom(by_name["teacherOf"], by_name["Course"])
    domain_axiom(by_name["subOrganizationOf"], by_name["Organization"])
    range_axiom(by_name["subOrganizationOf"], by_name["Organization"])
    domain_axiom(by_name["publicationAuthor"], by_name["Publication"])
    range_axiom(by_name["publicationAuthor"], by_name["Person"])
    domain_axiom(by_name["teachingAssistantOf"], by_name["TeachingAssistant"])
    range_axiom(by_name["teachingAssistantOf"], by_name["Course"])
    domain_axiom(by_name["undergraduateDegreeFrom"], by_name["Person"])
    range_axiom(by_name["undergraduateDegreeFrom"], by_name["University"])
    domain_axiom(by_name["mastersDegreeFrom"], by_name["Person"])
    range_axiom(by_name["mastersDegreeFrom"], by_name["University"])
    domain_axiom(by_name["doctoralDegreeFrom"], by_name["Person"])
    range_axiom(by_name["doctoralDegreeFrom"], by_name["University"])

    subproperty(by_name["headOf"], by_name["worksFor"])
    subproperty(by_name["worksFor"], by_name["memberOf"])
    subproperty(by_name["affiliatedOrganizationOf"], by_name["subOrganizationOf"], inverse=True)

    existential(by_name["GraduateStudent"], by_name["advisor"])
    existential(by_name["Professor"], by_name["worksFor"])
    existential(by_name["Department"], by_name["subOrganizationOf"])
    existential(by_name["Student"], by_name["takesCourse"])
    existential(by_name["Faculty"], by_name["teacherOf"])

    # Padding axioms over the numbered classes/properties, generated
    # deterministically and *forward only* (Class_i -> Class_j with i < j) so
    # that the rule set stays weakly acyclic like the original ontology.
    numbered_classes = [p for p in classes if p.name.startswith("Class")]
    numbered_properties = [p for p in properties if p.name.startswith("Property")]
    while len(tgds) < LUBM_RULES:
        if numbered_classes and rng.random() < 0.5:
            sub, sup = sorted(rng.sample(range(len(numbered_classes)), 2))
            subclass(numbered_classes[sub], numbered_classes[sup])
        elif numbered_properties:
            prop = rng.choice(numbered_properties)
            cls = rng.choice(numbered_classes or classes)
            if rng.random() < 0.5:
                domain_axiom(prop, cls)
            else:
                range_axiom(prop, cls)
    return tgds


def lubm_data(
    universities: int,
    departments_per_university: int = 3,
    people_per_department: int = 20,
    courses_per_department: int = 5,
    seed: int = 13,
) -> RelationalDatabase:
    """Generate LUBM-style data (UBA stand-in) for *universities* universities."""
    if universities < 1:
        raise ExperimentConfigError("universities must be >= 1")
    rng = random.Random(seed)
    classes, properties = lubm_schema()
    store = RelationalDatabase(name=f"lubm_{universities}")
    for predicate in classes + properties:
        store.create_relation(predicate)

    for u in range(universities):
        university = f"univ{u}"
        store.insert("University", (university,))
        store.insert("Organization", (university,))
        for d in range(departments_per_university):
            department = f"{university}_dept{d}"
            store.insert("Department", (department,))
            store.insert("subOrganizationOf", (department, university))
            for c in range(courses_per_department):
                course = f"{department}_course{c}"
                store.insert("Course", (course,))
            for p in range(people_per_department):
                person = f"{department}_person{p}"
                role = rng.random()
                if role < 0.2:
                    store.insert("FullProfessor", (person,))
                    store.insert("worksFor", (person, department))
                    course = f"{department}_course{rng.randrange(courses_per_department)}"
                    store.insert("teacherOf", (person, course))
                elif role < 0.5:
                    store.insert("GraduateStudent", (person,))
                    store.insert("memberOf", (person, department))
                    advisor = f"{department}_person{rng.randrange(people_per_department)}"
                    store.insert("advisor", (person, advisor))
                else:
                    store.insert("UndergraduateStudent", (person,))
                    store.insert("memberOf", (person, department))
                    course = f"{department}_course{rng.randrange(courses_per_department)}"
                    store.insert("takesCourse", (person, course))
    return store


def build_lubm(name: str = "LUBM-1", scale: float = 1.0, seed: int = 13) -> Scenario:
    """Build a synthetic LUBM scenario.

    ``scale`` multiplies the number of universities of the member (LUBM-1 has
    1 university, LUBM-10 has 10, ...); the per-university population is kept
    small so even LUBM-1K stays laptop-sized (the paper's absolute atom
    counts are recorded in ``paper_stats`` for comparison).
    """
    if name not in LUBM_UNIVERSITIES:
        raise ExperimentConfigError(f"unknown LUBM member {name!r}")
    if scale <= 0:
        raise ExperimentConfigError("scale must be positive")
    universities = max(1, round(LUBM_UNIVERSITIES[name] * scale))
    store = lubm_data(universities, seed=seed)
    return Scenario(
        name=name,
        family="LUBM",
        tgds=lubm_rules(seed=seed),
        store=store,
        paper_stats=PAPER_TABLE_1[name],
        scale=scale,
    )
