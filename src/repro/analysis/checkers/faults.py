"""REP2xx — fault taxonomy: the ``Portal.*`` vocabulary itself.

§3 of the paper: services "must define and relay a common set of error
messages".  The SOAP layer maps :class:`repro.faults.PortalError` onto
faults with a stable code/detail convention, and clients retry on each
class's ``retryable`` flag, so every member of the vocabulary must spell
out both (REP202/REP203).

Whether a raise on a SOAP-dispatched path is classified is one
whole-program rule, REP901 (:mod:`repro.analysis.checkers.propagation`);
the names below are the taxonomy facts it shares with this checker.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import Checker, Finding, Project, register_checker

#: exception names always permitted in a dispatch path
ALLOWED_RAISES = {
    "NotImplementedError",  # abstract operations
    "ServiceCrash",  # the simulation's process-death primitive
    "StopIteration",
    # the modelled network failure: SoapService._dispatch answers it with
    # a retryable Portal.ServiceUnavailable fault
    "TransportError",
}

FAULT_ROOT = "PortalError"

#: dotted-module prefix that marks an import as part of the taxonomy
FAULT_MODULE = "repro.faults"


@register_checker
class FaultTaxonomyChecker(Checker):
    name = "faults"
    description = (
        "SOAP-dispatched errors carry Portal.* fault codes and an explicit "
        "retryable classification"
    )
    codes = {
        "REP202": "PortalError subclass without an explicit `code`",
        "REP203": "PortalError subclass without an explicit `retryable` classification",
    }

    def check(self, project: Project) -> Iterable[Finding]:
        portal_classes = project.subclasses_of({FAULT_ROOT})
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
