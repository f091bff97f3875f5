"""``determinism``: no unordered iteration or ambient inputs on result paths.

The conformance suite pins byte-identical ``ChaseResult``s across strategies,
backends, and worker counts.  Two things silently break that property:

* **Unordered ``set`` iteration** feeding anything order-sensitive — store
  insertion (seq watermarks!), returned lists, serialized output.  Sets hash
  by ``PYTHONHASHSEED``-salted ``hash()`` for str-bearing keys, so the same
  program can emit differently ordered results run to run.
* **Ambient inputs** — wall clock, randomness, object addresses (``id()``),
  environment variables — anywhere in ``core``/``chase``/``storage``/
  ``fuzz``/``obs``.

The checker runs in two tiers.  Modules under the result-path fragments
(:data:`DeterminismChecker.FULL_SCOPE`) get every check.  Every *other*
module in the tree gets the clock-only tier: wall-clock reads (``time.*``
calls, ``from time import ...`` call sites, ``datetime.now/utcnow/today``)
are flagged with a pointer at :mod:`repro.obs.clock` — the observability
layer is the single module allowed to touch the wall clock (its two reads
carry justified waivers), so every duration in the tree flows through one
injectable, testable seam.  Randomness, ``id()``, environment reads, and
set iteration stay legal outside the result paths (the experiment harness
seeds its own RNGs deliberately).

The full tier flags iteration constructs whose iterable is (statically) a set:
``for`` loops, ``list()``/``tuple()``/``enumerate()`` conversions, and list/
generator/dict comprehensions.  Order-insensitive consumers are exempt: a
set comprehension, membership tests, and arguments of
``sorted``/``min``/``max``/``sum``/``len``/``any``/``all``/``set``/
``frozenset`` — wrapping the iterable in ``sorted()`` is the canonical fix.

Set-ness is inferred per scope from set literals, ``set()``/``frozenset()``
calls, set comprehensions, set-algebra operators, and ``Set[...]`` /
``FrozenSet[...]`` annotations on assignments and parameters.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set

from ..framework import Checker, Finding, ModuleSource

#: Calls whose result does not depend on argument order.
ORDER_INSENSITIVE_CALLS = frozenset(
    {"sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset"}
)
#: Modules whose call surface is inherently run-dependent.
BANNED_MODULES = frozenset({"time", "random", "uuid", "secrets"})
#: ``from <module> import <name>`` combinations that are run-dependent.
BANNED_FROM_IMPORTS = frozenset(
    {
        ("time", "time"),
        ("time", "monotonic"),
        ("time", "perf_counter"),
        ("time", "time_ns"),
        ("random", "random"),
        ("random", "randint"),
        ("random", "choice"),
        ("random", "shuffle"),
        ("uuid", "uuid4"),
        ("uuid", "uuid1"),
        ("os", "getenv"),
        ("os", "urandom"),
    }
)
SET_ANNOTATIONS = frozenset({"Set", "FrozenSet", "set", "frozenset", "MutableSet", "AbstractSet"})


def _annotation_is_set(annotation: Optional[ast.expr]) -> bool:
    if annotation is None:
        return False
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr in SET_ANNOTATIONS
    if isinstance(node, ast.Name):
        return node.id in SET_ANNOTATIONS
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.split("[", 1)[0].rsplit(".", 1)[-1].strip()
        return text in SET_ANNOTATIONS
    return False


class _SetEnv:
    """Names statically known to hold sets within one scope."""

    def __init__(self, parent: Optional["_SetEnv"] = None) -> None:
        self.parent = parent
        self.set_names: Set[str] = set()
        self.nonset_names: Set[str] = set()

    def mark(self, name: str, is_set: bool) -> None:
        (self.set_names if is_set else self.nonset_names).add(name)
        (self.nonset_names if is_set else self.set_names).discard(name)

    def is_set(self, name: str) -> bool:
        if name in self.set_names:
            return True
        if name in self.nonset_names:
            return False
        return self.parent.is_set(name) if self.parent else False


def _is_set_expr(node: ast.expr, env: _SetEnv) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return env.is_set(node.id)
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
            return True
        if isinstance(func, ast.Attribute) and func.attr in {
            "union",
            "intersection",
            "difference",
            "symmetric_difference",
            "copy",
        }:
            return _is_set_expr(func.value, env)
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left, env) or _is_set_expr(node.right, env)
    if isinstance(node, ast.IfExp):
        return _is_set_expr(node.body, env) or _is_set_expr(node.orelse, env)
    return False


class _ScopeChecker(ast.NodeVisitor):
    """Check one function (or the module top level) with its own name env."""

    def __init__(
        self,
        checker: "DeterminismChecker",
        module: ModuleSource,
        env: _SetEnv,
        findings: List[Finding],
        clock_only: bool = False,
    ) -> None:
        self.checker = checker
        self.module = module
        self.env = env
        self.findings = findings
        #: Clock-only tier (modules off the result paths): only wall-clock
        #: reads are flagged; set iteration, randomness, id(), and
        #: environment reads stay legal there.
        self.clock_only = clock_only
        #: Nodes exempt from iteration flagging (args of order-insensitive
        #: calls, membership-test operands).
        self.exempt: Set[int] = set()

    # -- scope boundaries -------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.checker.check_function(
            self.module, node, self.env, self.findings, self.clock_only
        )

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.checker.check_function(
            self.module, node, self.env, self.findings, self.clock_only
        )

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for stmt in node.body:
            self.visit(stmt)

    # -- set-ness environment --------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        is_set = _is_set_expr(node.value, self.env)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self.env.mark(target.id, is_set)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        if isinstance(node.target, ast.Name):
            if _annotation_is_set(node.annotation):
                self.env.mark(node.target.id, True)
            elif node.value is not None:
                self.env.mark(node.target.id, _is_set_expr(node.value, self.env))

    # -- exemptions -------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id in ORDER_INSENSITIVE_CALLS:
            for arg in node.args:
                self.exempt.add(id(arg))
        self._check_banned_call(node)
        self._check_conversion(node)
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        for op, comparator in zip(node.ops, node.comparators):
            if isinstance(op, (ast.In, ast.NotIn)):
                self.exempt.add(id(comparator))
        self.generic_visit(node)

    # -- flag sites -------------------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        self._flag_if_set_iter(node.iter, "for-loop iterates")
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.expr, kind: str) -> None:
        if id(node) not in self.exempt:
            for generator in node.generators:  # type: ignore[attr-defined]
                self._flag_if_set_iter(generator.iter, f"{kind} iterates")
        for generator in node.generators:  # type: ignore[attr-defined]
            self.visit(generator.iter)
            for cond in generator.ifs:
                self.visit(cond)
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.comprehension):
                self.visit(child)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension(node, "list comprehension")

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comprehension(node, "generator expression")

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comprehension(node, "dict comprehension")

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # Output is itself a set: order-insensitive by construction.
        self.generic_visit(node)

    def _check_conversion(self, node: ast.Call) -> None:
        if id(node) in self.exempt:  # e.g. sorted(list(s))
            return
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "join" and node.args:
            self._flag_if_set_iter(node.args[0], "str.join() serialises")
            return
        if not isinstance(func, ast.Name) or func.id not in {"list", "tuple", "enumerate"}:
            return
        for arg in node.args[:1]:
            self._flag_if_set_iter(arg, f"{func.id}() materialises")

    def _flag_if_set_iter(self, iterable: ast.expr, action: str) -> None:
        if self.clock_only or id(iterable) in self.exempt:
            return
        if _is_set_expr(iterable, self.env):
            self.findings.append(
                Finding(
                    rule=self.checker.name,
                    path=self.module.rel,
                    line=iterable.lineno,
                    col=iterable.col_offset,
                    message=(
                        f"{action} a set in unordered (hash) order; wrap it in "
                        "sorted(...) so downstream seq assignment / output is "
                        "run-independent"
                    ),
                )
            )

    # -- ambient inputs ---------------------------------------------------
    def _check_banned_call(self, node: ast.Call) -> None:
        func = node.func
        imports = self.checker.module_imports
        if isinstance(func, ast.Name):
            if func.id == "id" and len(node.args) == 1 and not self.clock_only:
                self._ban(node, "id() exposes interpreter addresses")
            origin = imports.from_names.get(func.id)
            if origin is not None and (origin == "time" or not self.clock_only):
                self._ban(node, f"{origin}.{func.id}() is run-dependent")
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            base = imports.module_aliases.get(func.value.id)
            if base == "time":
                self._ban(node, f"time.{func.attr}() is run-dependent")
            elif base == "datetime" and func.attr in {"now", "utcnow", "today"}:
                self._ban(node, f"datetime.{func.attr}() is run-dependent")
            elif self.clock_only:
                return
            elif base in BANNED_MODULES:
                self._ban(node, f"{base}.{func.attr}() is run-dependent")
            elif base == "os" and func.attr in {"getenv", "urandom"}:
                self._ban(node, f"os.{func.attr}() is run-dependent")

    def _ban(self, node: ast.Call, why: str) -> None:
        if self.clock_only:
            remedy = (
                "route timing through repro.obs.clock (perf_counter_s, "
                "monotonic_s, or an injectable Clock) — the obs layer is the "
                "only module allowed to read the wall clock"
            )
        else:
            remedy = (
                "chase results must be a pure function of the rules and the "
                "database"
            )
        self.findings.append(
            Finding(
                rule=self.checker.name,
                path=self.module.rel,
                line=node.lineno,
                col=node.col_offset,
                message=f"{why}; {remedy}",
            )
        )

    def visit_Subscript(self, node: ast.Subscript) -> None:
        imports = self.checker.module_imports
        if (
            not self.clock_only
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "environ"
            and isinstance(node.value.value, ast.Name)
            and imports.module_aliases.get(node.value.value.id) == "os"
        ):
            self.findings.append(
                Finding(
                    rule=self.checker.name,
                    path=self.module.rel,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        "os.environ read is run-dependent; chase results must be "
                        "a pure function of the rules and the database"
                    ),
                )
            )
        self.generic_visit(node)


class _Imports:
    def __init__(self, tree: ast.Module) -> None:
        self.module_aliases: Dict[str, str] = {}  # local name -> module
        self.from_names: Dict[str, str] = {}  # local name -> origin module
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in BANNED_MODULES | {"os", "datetime"}:
                        self.module_aliases[alias.asname or root] = root
            elif isinstance(node, ast.ImportFrom) and node.module:
                root = node.module.split(".")[0]
                for alias in node.names:
                    if (root, alias.name) in BANNED_FROM_IMPORTS:
                        self.from_names[alias.asname or alias.name] = root


class DeterminismChecker(Checker):
    name = "determinism"
    description = (
        "no unordered set iteration and no clock/randomness/address/"
        "environment dependence on chase result paths; wall-clock reads "
        "everywhere else must go through repro.obs.clock"
    )
    include = ()
    #: Result-path fragments getting every check; all other modules get the
    #: clock-only tier.
    FULL_SCOPE = ("core/", "chase/", "storage/", "fuzz/", "obs/")

    def __init__(self) -> None:
        self.module_imports = _Imports(ast.parse(""))

    def _clock_only(self, rel: str) -> bool:
        return not any(fragment in rel for fragment in self.FULL_SCOPE)

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        findings: List[Finding] = []
        self.module_imports = _Imports(module.tree)
        clock_only = self._clock_only(module.rel)
        scope = _ScopeChecker(self, module, _SetEnv(), findings, clock_only)
        for stmt in module.tree.body:
            scope.visit(stmt)
        return findings

    def check_function(
        self,
        module: ModuleSource,
        node: ast.AST,
        parent_env: _SetEnv,
        findings: List[Finding],
        clock_only: bool = False,
    ) -> None:
        env = _SetEnv(parent_env)
        args = node.args  # type: ignore[attr-defined]
        all_args = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        for arg in all_args:
            if _annotation_is_set(arg.annotation):
                env.mark(arg.arg, True)
        scope = _ScopeChecker(self, module, env, findings, clock_only)
        for stmt in node.body:  # type: ignore[attr-defined]
            scope.visit(stmt)
