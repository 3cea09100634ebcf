"""REP2xx — fault taxonomy: SOAP-reachable errors speak ``Portal.*``.

§3 of the paper: services "must define and relay a common set of error
messages".  The SOAP layer maps :class:`repro.faults.PortalError` onto
faults with a stable code/detail convention; anything else dispatched out
of a service method degrades into an opaque ``Server`` fault that no
client can classify or retry correctly.

Reachability comes from the whole-program call graph
(:mod:`repro.analysis.graph`): dispatch roots are the
``soap.expose(impl.method)`` / ``soap.expose_object(impl)`` surface, and
the REP201 closure follows ``self.helper()`` edges (through resolved base
classes) and same-module function calls.  Cross-module calls are left to
REP901 — wrapping foreign errors at the service boundary is exactly the
discipline that split enforces.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.astutil import dotted_name
from repro.analysis.core import (
    Checker,
    Finding,
    Project,
    SourceModule,
    register_checker,
)
from repro.analysis.graph.dataflow import reachable

#: exception names always permitted in a dispatch path
ALLOWED_RAISES = {
    "NotImplementedError",  # abstract operations
    "ServiceCrash",  # the simulation's process-death primitive
    "StopIteration",
}

FAULT_ROOT = "PortalError"

#: dotted-module prefix that marks an import as part of the taxonomy
FAULT_MODULE = "repro.faults"


def _same_module_filter(edge) -> bool:
    """The REP201 closure follows dispatch *within* the service: method
    calls on the object itself, and function calls that stay inside the
    defining module.  (``self`` edges may land in a base class defined in
    another module — inheritance is one service, so they count.)"""
    if edge.kind == "self":
        return True
    return edge.kind == "name" and not edge.cross_module


def rep201_closure(project: Project) -> set[tuple[str, str, str]]:
    """(module, class, function) triples in the same-module dispatch
    closure REP201 covers.  REP901 reports exactly the complement, so
    both rules derive it from the same graph walk."""
    calls = project.graph().calls
    reach = reachable(
        calls,
        calls.dispatch_roots,
        follow_guarded=True,
        edge_filter=_same_module_filter,
    )
    return {
        (calls.nodes[node_id].module, calls.nodes[node_id].cls,
         calls.nodes[node_id].name)
        for node_id in reach
    }


@register_checker
class FaultTaxonomyChecker(Checker):
    name = "faults"
    description = (
        "SOAP-dispatched errors carry Portal.* fault codes and an explicit "
        "retryable classification"
    )
    codes = {
        "REP201": "raise of a non-PortalError reachable from SOAP dispatch",
        "REP202": "PortalError subclass without an explicit `code`",
        "REP203": "PortalError subclass without an explicit `retryable` classification",
    }

    def check(self, project: Project) -> Iterable[Finding]:
        portal_classes = project.subclasses_of({FAULT_ROOT})
        yield from self._check_subclasses(project, portal_classes)
        yield from self._check_reachable_raises(project, portal_classes)

    # -- REP202/REP203: the taxonomy itself -----------------------------------

    def _check_subclasses(
        self, project: Project, portal_classes: set[str]
    ) -> Iterable[Finding]:
        for name in sorted(portal_classes - {FAULT_ROOT}):
            module, node = project.class_index()[name]
            assigned = {
                target.id
                for item in node.body
                if isinstance(item, ast.Assign)
                for target in item.targets
                if isinstance(target, ast.Name)
            }
            if "code" not in assigned:
                yield module.finding(
                    "REP202",
                    f"PortalError subclass {name} does not set a fault "
                    "`code` — every vocabulary member needs a stable code",
                    node,
                    checker=self.name,
                    symbol=name,
                )
            if "retryable" not in assigned:
                yield module.finding(
                    "REP203",
                    f"PortalError subclass {name} does not classify "
                    "`retryable` explicitly — clients retry on this flag, "
                    "so inheriting it silently is drift waiting to happen",
                    node,
                    checker=self.name,
                    symbol=name,
                )

    # -- REP201: reachable raises ----------------------------------------------

    def _check_reachable_raises(
        self, project: Project, portal_classes: set[str]
    ) -> Iterable[Finding]:
        calls = project.graph().calls
        by_module = {
            m.module_name: m
            for m in project.parsed()
            if project.graph().modules.modules.get(m.module_name) == m.rel
        }
        reach = reachable(
            calls,
            calls.dispatch_roots,
            follow_guarded=True,
            edge_filter=_same_module_filter,
        )
        for node_id in sorted(reach):
            node = calls.nodes[node_id]
            module = by_module.get(node.module)
            if module is None:
                continue
            yield from self._check_raises(
                module,
                calls.funcs[node_id],
                node.cls,
                portal_classes,
                self._fault_imports(module),
            )

    @staticmethod
    def _fault_imports(module: SourceModule) -> set[str]:
        """Local names bound by imports to ``repro.faults`` members —
        portal errors even when the class is defined outside the run."""
        return {
            local
            for local, origin in module.index.import_aliases.items()
            if origin.startswith(FAULT_MODULE + ".")
        }

    def _check_raises(
        self,
        module: SourceModule,
        func: ast.FunctionDef,
        cls_name: str,
        portal_classes: set[str],
        fault_imports: set[str],
    ) -> Iterable[Finding]:
        symbol = f"{cls_name}.{func.name}" if cls_name else func.name
        for node in module.index.walk(func, ast.Raise):
            verdict = self._raise_target(
                node, portal_classes | fault_imports
            )
            if verdict is None:
                continue
            yield module.finding(
                "REP201",
                f"{symbol} raises {verdict} on a SOAP-dispatched path — "
                "raise a PortalError subclass so the fault carries a "
                "Portal.* code and retryable classification",
                node,
                checker=self.name,
                symbol=symbol,
            )

    @staticmethod
    def _raise_target(node: ast.Raise, portal_classes: set[str]) -> str | None:
        """The offending exception name, or ``None`` when the raise is
        acceptable (portal error, re-raise, unresolvable variable)."""
        exc = node.exc
        if exc is None:
            return None  # bare re-raise
        if isinstance(exc, ast.Call):
            exc = exc.func
        name = dotted_name(exc)
        if not name:
            return None  # dynamic construction: out of static reach
        head = name.split(".")[0]
        if head and head[0].islower() and head != "self":
            return None  # a variable being re-raised (e.g. `raise err`)
        for part in name.split("."):
            if part in portal_classes or part in ALLOWED_RAISES:
                return None
        return name
