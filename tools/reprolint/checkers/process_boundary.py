"""``process-boundary``: only picklable values cross into worker processes.

``chase/parallel.py`` ships work to processes three ways: pipe messages
(``conn.send(...)``, or the process pool's ``self._send(worker_id, ...)``
wrapper that maps a dead pipe to the documented error), pool submissions
(``pool.submit(fn, *args)``), and the ``Process(target=..., args=(...))``
constructor.  No live store ever crosses: a worker builds its own in-memory
replica from the rows streamed to it.  This checker keeps unpicklables out
of those crossings:

* ``lambda`` and generator expressions anywhere in a payload — both fail to
  pickle at runtime, but only when that code path fires under the process
  pool (the in-process pool masks the bug).
* Names or attributes that look like live handles: ``*store``, ``*pool``,
  ``*lock``, ``*conn``/``*connection``, ``*cursor``.  The designed
  exception: connection-suffixed names are allowed inside
  ``Process(args=...)`` because handing the child its pipe end through
  process inheritance is exactly how the pipe is established.
* A ``lambda`` as the callable of ``submit`` (bound methods and functions
  pickle; lambdas never do).
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Tuple

from ..framework import Checker, Finding, ModuleSource

BANNED_SUFFIXES: Tuple[str, ...] = (
    "store",
    "pool",
    "lock",
    "conn",
    "connection",
    "cursor",
)
#: Suffixes additionally allowed inside ``Process(args=...)``: the child's
#: pipe end is *meant* to cross via fork/spawn inheritance.
PROCESS_ARG_ALLOWED_SUFFIXES: Tuple[str, ...] = ("conn", "connection")


def _handle_suffix(name: str, allowed: Tuple[str, ...] = ()) -> Optional[str]:
    lowered = name.lower()
    for suffix in BANNED_SUFFIXES:
        if lowered == suffix or lowered.endswith("_" + suffix) or lowered.endswith(suffix):
            if suffix in allowed:
                return None
            return suffix
    return None


class ProcessBoundaryChecker(Checker):
    name = "process-boundary"
    description = (
        "values crossing pipe sends, pool submissions, and Process() must be "
        "picklable: no lambdas, generators, or live store/connection/lock handles"
    )
    include = ("chase/parallel.py", "parallel.py")

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in ("send", "_send"):
                for arg in node.args:
                    self._scan_payload(module, arg, "pipe send", (), findings)
            elif isinstance(func, ast.Attribute) and func.attr == "submit":
                if node.args:
                    self._check_submit_callable(module, node.args[0], findings)
                for arg in node.args[1:]:
                    self._scan_payload(module, arg, "pool submission", (), findings)
                for keyword in node.keywords:
                    if keyword.value is not None:
                        self._scan_payload(
                            module, keyword.value, "pool submission", (), findings
                        )
            elif isinstance(func, ast.Name) and func.id == "Process":
                for keyword in node.keywords:
                    if keyword.arg == "args" and keyword.value is not None:
                        self._scan_payload(
                            module,
                            keyword.value,
                            "Process args",
                            PROCESS_ARG_ALLOWED_SUFFIXES,
                            findings,
                        )
                    elif keyword.arg == "target" and isinstance(
                        keyword.value, ast.Lambda
                    ):
                        findings.append(
                            self._finding(
                                module,
                                keyword.value,
                                "Process target is a lambda; lambdas cannot be "
                                "pickled for spawn-based start methods — use a "
                                "module-level function",
                            )
                        )
        return findings

    def _check_submit_callable(
        self, module: ModuleSource, callee: ast.expr, findings: List[Finding]
    ) -> None:
        if isinstance(callee, ast.Lambda):
            findings.append(
                self._finding(
                    module,
                    callee,
                    "lambda submitted to a pool; lambdas cannot be pickled, so "
                    "this only works until the pool is process-backed — use a "
                    "module-level function or a bound method",
                )
            )

    def _scan_payload(
        self,
        module: ModuleSource,
        payload: ast.expr,
        crossing: str,
        allowed_suffixes: Tuple[str, ...],
        findings: List[Finding],
    ) -> None:
        for node in ast.walk(payload):
            if isinstance(node, ast.Lambda):
                findings.append(
                    self._finding(
                        module,
                        node,
                        f"lambda inside a {crossing} payload; lambdas cannot be "
                        "pickled across the process boundary",
                    )
                )
            elif isinstance(node, ast.GeneratorExp):
                findings.append(
                    self._finding(
                        module,
                        node,
                        f"generator expression inside a {crossing} payload; "
                        "generators cannot be pickled — materialise with "
                        "tuple(sorted(...)) first",
                    )
                )
            elif isinstance(node, ast.Name):
                suffix = _handle_suffix(node.id, allowed_suffixes)
                if suffix is not None:
                    findings.append(
                        self._finding(
                            module,
                            node,
                            f"name '{node.id}' (suffix '{suffix}') inside a "
                            f"{crossing} payload looks like a live handle; send "
                            "plain values (rows, int frames) and rebuild the "
                            "handle inside the worker",
                        )
                    )
            elif isinstance(node, ast.Attribute):
                suffix = _handle_suffix(node.attr, allowed_suffixes)
                if suffix is not None:
                    findings.append(
                        self._finding(
                            module,
                            node,
                            f"attribute '.{node.attr}' (suffix '{suffix}') inside "
                            f"a {crossing} payload looks like a live handle; send "
                            "plain values (rows, int frames) and rebuild the "
                            "handle inside the worker",
                        )
                    )

    def _finding(self, module: ModuleSource, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.name,
            path=module.rel,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
        )
