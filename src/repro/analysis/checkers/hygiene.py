"""REP5xx — resource hygiene: spans, admission tickets, and journals.

The chaos suites kill services mid-request; a span that is opened but not
closed on every path corrupts the trace tree, and an admission ticket
that is not released leaks lane capacity until the portal wedges.  The
rule: a handle acquired in a function must be released *crash-safely* in
that function — via ``with``, via ``finally``, or via the house
tail-end pattern (released in the except handler that re-raises *and* on
the normal path) — unless ownership is transferred out (returned, stored
on ``self``, yielded).

Acquire/release vocabulary::

    span   = <...>tracer.start(...)   ->  <...>tracer.end(span, ...)
    ticket = <...>.admit(...)         ->  <...>.release(ticket)

``Journal(...)`` handles are long-lived by design (they are handed to the
service that owns them), so only the outright *dropped* journal — built
as a bare expression statement, recoverable by nobody — is flagged.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable

from repro.analysis.astutil import AstIndex, dotted_name
from repro.analysis.core import (
    Checker,
    Finding,
    Project,
    SourceModule,
    register_checker,
)

_COMPOUND = (ast.Try, ast.If, ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith)
_NESTED_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclass
class _Acquired:
    var: str
    node: ast.AST
    kind: str  # "span" | "ticket" | "journal"
    release_attr: str
    releases: set[str] = field(default_factory=set)  # contexts seen
    transferred: bool = False


def _acquire_kind(call: ast.Call) -> tuple[str, str] | None:
    """(kind, release_attr) when *call* acquires a tracked handle."""
    func = call.func
    if isinstance(func, ast.Name):
        if func.id == "Journal":
            return ("journal", "close")
        return None
    if not isinstance(func, ast.Attribute):
        return None
    receiver = dotted_name(func.value)
    if func.attr == "start" and "tracer" in receiver:
        return ("span", "end")
    if func.attr == "admit":
        return ("ticket", "release")
    if func.attr == "Journal":
        return ("journal", "close")
    return None


@register_checker
class ResourceHygieneChecker(Checker):
    name = "hygiene"
    description = (
        "spans and admission tickets are released on every path, including "
        "crashes"
    )
    codes = {
        "REP501": "handle acquired without a crash-safe release path",
        "REP502": "handle acquired and immediately dropped",
    }

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.parsed():
            for func in module.index.walk(module.tree, ast.FunctionDef):
                yield from self._check_function(module, func)

    def _check_function(
        self, module: SourceModule, func: ast.FunctionDef
    ) -> Iterable[Finding]:
        acquired: dict[str, _Acquired] = {}
        dropped: list[tuple[ast.AST, str]] = []
        self._visit(module.index, func.body, "normal", acquired, dropped)

        for node, kind in dropped:
            yield module.finding(
                "REP502",
                f"{kind} handle acquired and dropped — the return value "
                "must be kept so the handle can be released",
                node,
                checker=self.name,
                symbol=func.name,
            )
        for info in acquired.values():
            if info.kind == "journal":
                continue  # long-lived by design; only drops are flagged
            if info.transferred:
                continue
            if "finally" in info.releases:
                continue
            if "except" in info.releases and "normal" in info.releases:
                continue  # house tail-end pattern: handler re-raises, tail ends
            yield module.finding(
                "REP501",
                f"{info.kind} {info.var!r} is not released crash-safely: "
                f"no `with`, no `finally`, and no except+tail "
                f"`{info.release_attr}` pair — a fault here leaks the "
                f"{info.kind}",
                info.node,
                checker=self.name,
                symbol=func.name,
            )

    def _visit(
        self,
        index: AstIndex,
        stmts: list[ast.stmt],
        context: str,
        acquired: dict[str, _Acquired],
        dropped: list[tuple[ast.AST, str]],
    ) -> None:
        for stmt in stmts:
            if isinstance(stmt, _NESTED_SCOPES):
                continue  # separate scope, checked on its own
            if isinstance(stmt, ast.Try):
                self._visit(index, stmt.body, context, acquired, dropped)
                for handler in stmt.handlers:
                    self._visit(index, handler.body, "except", acquired, dropped)
                self._visit(index, stmt.orelse, context, acquired, dropped)
                self._visit(index, stmt.finalbody, "finally", acquired, dropped)
            elif isinstance(stmt, (ast.If, ast.While)):
                self._scan_expr(index, stmt.test, context, acquired)
                self._visit(index, stmt.body, context, acquired, dropped)
                self._visit(index, stmt.orelse, context, acquired, dropped)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._scan_expr(index, stmt.iter, context, acquired)
                self._visit(index, stmt.body, context, acquired, dropped)
                self._visit(index, stmt.orelse, context, acquired, dropped)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                # handles acquired as context managers are safe by construction
                self._visit(index, stmt.body, context, acquired, dropped)
            else:
                self._scan_simple(index, stmt, context, acquired, dropped)

    def _scan_simple(
        self,
        index: AstIndex,
        stmt: ast.stmt,
        context: str,
        acquired: dict[str, _Acquired],
        dropped: list[tuple[ast.AST, str]],
    ) -> None:
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call):
            kind = _acquire_kind(stmt.value)
            if kind is not None:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    acquired[target.id] = _Acquired(
                        var=target.id,
                        node=stmt,
                        kind=kind[0],
                        release_attr=kind[1],
                    )
                # stored straight onto an attribute/subscript: transferred
                return
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            kind = _acquire_kind(stmt.value)
            if kind is not None:
                dropped.append((stmt, kind[0]))
                return
        # ownership transfers out of the function / onto an object
        if isinstance(stmt, ast.Return):
            if isinstance(stmt.value, ast.Name) and stmt.value.id in acquired:
                acquired[stmt.value.id].transferred = True
                return
        if isinstance(stmt, ast.Assign):
            if (
                isinstance(stmt.value, ast.Name)
                and stmt.value.id in acquired
                and any(
                    isinstance(t, (ast.Attribute, ast.Subscript))
                    for t in stmt.targets
                )
            ):
                acquired[stmt.value.id].transferred = True
                return
        if isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, (ast.Yield, ast.YieldFrom)
        ):
            value = stmt.value.value
            if isinstance(value, ast.Name) and value.id in acquired:
                acquired[value.id].transferred = True
                return
        self._scan_expr(index, stmt, context, acquired)

    @staticmethod
    def _scan_expr(
        index: AstIndex,
        node: ast.AST,
        context: str,
        acquired: dict[str, _Acquired],
    ) -> None:
        """Record release calls (``<recv>.<release_attr>(var, ...)`` or
        ``var.<release_attr>()``) appearing anywhere under *node*."""
        for sub in index.walk(node, ast.Call):
            if not isinstance(sub.func, ast.Attribute):
                continue
            candidates = [a for a in sub.args if isinstance(a, ast.Name)]
            receiver = sub.func.value
            if isinstance(receiver, ast.Name):
                candidates.append(receiver)
            for arg in candidates:
                info = acquired.get(arg.id)
                if info is not None and sub.func.attr == info.release_attr:
                    info.releases.add(context)
