"""``sql-identifier``: interpolated SQL identifiers go through the escapers.

Values in ``storage/sqlbackend/`` travel as ``?``/named parameters, but
*identifiers* (table and column names) cannot — SQLite has no identifier
parameters — so the backend builds statements with f-strings.  The contract:
every identifier interpolated into SQL text is produced by the case-escaping
helpers (``_quote``, which double-quotes and doubles embedded quotes, over
``table_name``, which lower-cases with ``^`` escapes) or is a precomputed
attribute that already went through them.  Raw ``predicate.name`` — which is
user-controlled input from rule files — must never reach statement text.

The checker finds string-building expressions (f-strings, ``%`` formatting,
``str.format``, ``+`` concatenation) whose literal fragments look like SQL,
then taints each interpolated expression:

* ``<anything>.name`` is tainted (the raw predicate/variable name);
* calls to ``table_name`` are tainted (case-escaped but *unquoted*);
* calls to ``_quote`` (and the SQL-emitting helpers ``stage_sql``,
  ``record_sql``, ``firing_sql``, ``_sql_string``, ``encode_term``) are
  safe regardless of their arguments;
* local names inherit the taint of what was assigned to them;
* subscripts take the taint of the container (a dict of precomputed quoted
  names indexed by a raw name is safe);
* anything else unions the taint of its parts.

The helpers themselves (``_quote``, ``table_name``, ``_sql_string``) are
skipped — their bodies legitimately manipulate raw identifier text.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional

from ..framework import Checker, Finding, ModuleSource

# Strong statement keywords only: words like EXISTS/TABLE/INTO also occur in
# prose (exception messages say "already exists"), but real statement text
# always carries at least one of these.
SQL_KEYWORD_RE = re.compile(
    r"\b(SELECT|INSERT|UPDATE|DELETE|CREATE|DROP|ALTER|ATTACH|PRAGMA|FROM|"
    r"WHERE|UNION|VALUES|EXPLAIN)\b",
    re.IGNORECASE,
)
#: Calls that return SQL-safe text regardless of their arguments.
SAFE_CALLS = frozenset(
    {
        "_quote",
        "quote_identifier",
        "stage_sql",
        "record_sql",
        "firing_sql",
        "_sql_string",
        "encode_term",
        "encode_value",
        "join",  # ", ".join(parts): taint comes from the parts, checked below
        "format",  # handled explicitly as a string-building site
        "len",
        "str",
        "int",
        "repr",
        "sql",
    }
)
#: Calls whose result is raw (unquoted) identifier text.
TAINT_CALLS = frozenset({"table_name"})
#: Function bodies to skip entirely: they implement the escaping itself.
HELPER_BODIES = frozenset({"_quote", "quote_identifier", "table_name", "_sql_string"})


def _call_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


class _TaintEnv:
    def __init__(self, parent: Optional["_TaintEnv"] = None) -> None:
        self.parent = parent
        self.taint: Dict[str, bool] = {}

    def get(self, name: str) -> bool:
        if name in self.taint:
            return self.taint[name]
        return self.parent.get(name) if self.parent else False

    def set(self, name: str, tainted: bool) -> None:
        self.taint[name] = tainted


def _expr_taint(node: ast.expr, env: _TaintEnv) -> bool:
    if isinstance(node, ast.Constant):
        return False
    if isinstance(node, ast.Name):
        return env.get(node.id)
    if isinstance(node, ast.Attribute):
        # ``predicate.name`` / ``variable.name`` is the raw identifier; other
        # attributes are precomputed (quoted) state.
        if node.attr == "name":
            return True
        return False
    if isinstance(node, ast.Call):
        name = _call_name(node)
        if name in TAINT_CALLS:
            return True
        if name in SAFE_CALLS:
            if name == "join":
                return any(_expr_taint(arg, env) for arg in node.args)
            return False
        return any(_expr_taint(arg, env) for arg in node.args) or any(
            _expr_taint(keyword.value, env)
            for keyword in node.keywords
            if keyword.value is not None
        )
    if isinstance(node, ast.Subscript):
        return _expr_taint(node.value, env)
    if isinstance(node, ast.BinOp):
        return _expr_taint(node.left, env) or _expr_taint(node.right, env)
    if isinstance(node, ast.IfExp):
        return _expr_taint(node.body, env) or _expr_taint(node.orelse, env)
    if isinstance(node, ast.JoinedStr):
        return any(
            _expr_taint(value.value, env)
            for value in node.values
            if isinstance(value, ast.FormattedValue)
        )
    if isinstance(node, (ast.Tuple, ast.List)):
        return any(_expr_taint(element, env) for element in node.elts)
    if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
        return _expr_taint(node.elt, env)
    if isinstance(node, ast.Starred):
        return _expr_taint(node.value, env)
    return False


def _literal_fragments(node: ast.expr) -> List[str]:
    """The constant string pieces of a string-building expression."""
    if isinstance(node, ast.JoinedStr):
        return [
            value.value
            for value in node.values
            if isinstance(value, ast.Constant) and isinstance(value.value, str)
        ]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _literal_fragments(node.left) + _literal_fragments(node.right)
    return []


def _interpolations(node: ast.expr) -> List[ast.expr]:
    """The non-literal expressions spliced into a string-building expression."""
    if isinstance(node, ast.JoinedStr):
        return [
            value.value for value in node.values if isinstance(value, ast.FormattedValue)
        ]
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _interpolations(node.left) + _interpolations(node.right)
    if isinstance(node, ast.Constant):
        return []
    return [node]


class SqlIdentifierChecker(Checker):
    name = "sql-identifier"
    description = (
        "string-built SQL in sqlbackend/ interpolates identifiers only via the "
        "case-escaping helpers (_quote over table_name)"
    )
    include = ("storage/sqlbackend/", "sqlbackend/")

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        findings: List[Finding] = []
        self._check_scope(module, module.tree.body, _TaintEnv(), findings)
        # Nested f-strings / concat chains are reachable along more than one
        # walk path; keep one finding per location.
        unique: Dict[tuple, Finding] = {}
        for finding in findings:
            unique.setdefault((finding.line, finding.col), finding)
        return list(unique.values())

    def _check_scope(
        self,
        module: ModuleSource,
        body: List[ast.stmt],
        env: _TaintEnv,
        findings: List[Finding],
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if stmt.name in HELPER_BODIES:
                    continue
                self._check_scope(module, stmt.body, _TaintEnv(env), findings)
            elif isinstance(stmt, ast.ClassDef):
                self._check_scope(module, stmt.body, _TaintEnv(env), findings)
            else:
                self._check_statement(module, stmt, env, findings)

    def _check_statement(
        self,
        module: ModuleSource,
        stmt: ast.stmt,
        env: _TaintEnv,
        findings: List[Finding],
    ) -> None:
        # Nested defs inside plain statements (e.g. a function defined in a
        # with-block) still need scope handling.
        for node in ast.walk(stmt):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name not in HELPER_BODIES:
                    self._check_scope(module, node.body, _TaintEnv(env), findings)

        for node in self._walk_skipping_defs(stmt):
            built = None
            if isinstance(node, ast.JoinedStr):
                built = node
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
                if _literal_fragments(node.left):
                    self._check_built(
                        module,
                        node,
                        _literal_fragments(node.left),
                        self._mod_args(node.right),
                        env,
                        findings,
                    )
                continue
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr == "format" and _literal_fragments(node.func.value):
                    args = list(node.args) + [
                        keyword.value
                        for keyword in node.keywords
                        if keyword.value is not None
                    ]
                    self._check_built(
                        module,
                        node,
                        _literal_fragments(node.func.value),
                        args,
                        env,
                        findings,
                    )
                continue
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
                # Only the outermost + of a concat chain.
                built = node
            if built is not None:
                self._check_built(
                    module,
                    built,
                    _literal_fragments(built),
                    _interpolations(built),
                    env,
                    findings,
                )

        # Track local assignment taint after checking the statement so the
        # string itself is validated before its name is reused.
        if isinstance(stmt, ast.Assign):
            tainted = _expr_taint(stmt.value, env)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.set(target.id, tainted)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if isinstance(stmt.target, ast.Name):
                env.set(stmt.target.id, _expr_taint(stmt.value, env))
        elif isinstance(stmt, ast.AugAssign) and isinstance(stmt.target, ast.Name):
            if _expr_taint(stmt.value, env):
                env.set(stmt.target.id, True)
        elif isinstance(stmt, ast.For):
            # ``for column in columns:`` — the loop variable inherits the
            # taint of the iterable's elements (approximated by the iterable).
            if isinstance(stmt.target, ast.Name):
                env.set(stmt.target.id, _expr_taint(stmt.iter, env))
            for sub in stmt.body + stmt.orelse:
                self._check_statement(module, sub, env, findings)
        if isinstance(stmt, (ast.If, ast.While)):
            for sub in stmt.body + stmt.orelse:
                self._check_statement(module, sub, env, findings)
        elif isinstance(stmt, ast.With):
            for sub in stmt.body:
                self._check_statement(module, sub, env, findings)
        elif isinstance(stmt, ast.Try):
            for sub in stmt.body + stmt.orelse + stmt.finalbody:
                self._check_statement(module, sub, env, findings)
            for handler in stmt.handlers:
                for sub in handler.body:
                    self._check_statement(module, sub, env, findings)

    @staticmethod
    def _walk_skipping_defs(stmt: ast.stmt) -> Iterable[ast.AST]:
        """Walk a statement without descending into nested def/class bodies
        or into compound-statement bodies handled recursively above."""
        if isinstance(stmt, (ast.If, ast.While)):
            roots: List[ast.AST] = [stmt.test]
        elif isinstance(stmt, ast.For):
            roots = [stmt.iter]
        elif isinstance(stmt, ast.With):
            roots = [item.context_expr for item in stmt.items]
        elif isinstance(stmt, ast.Try):
            roots = []
        else:
            roots = [stmt]
        stack: List[ast.AST] = list(roots)
        while stack:
            node = stack.pop()
            yield node
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    continue
                stack.append(child)

    @staticmethod
    def _mod_args(node: ast.expr) -> List[ast.expr]:
        if isinstance(node, ast.Tuple):
            return list(node.elts)
        return [node]

    def _check_built(
        self,
        module: ModuleSource,
        site: ast.expr,
        fragments: List[str],
        interpolations: List[ast.expr],
        env: _TaintEnv,
        findings: List[Finding],
    ) -> None:
        text = " ".join(fragments)
        if not SQL_KEYWORD_RE.search(text):
            return
        for expr in interpolations:
            if _expr_taint(expr, env):
                findings.append(
                    Finding(
                        rule=self.name,
                        path=module.rel,
                        line=expr.lineno,
                        col=expr.col_offset,
                        message=(
                            "raw identifier interpolated into SQL text; route it "
                            "through self._quote(self.table_name(...)) — only the "
                            "case-escaping helpers may feed identifier positions"
                        ),
                    )
                )
