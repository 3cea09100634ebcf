"""REP8xx — workflow stages: explicit idempotency, sealed provenance.

Crash-resume only replays byte-identically when a re-driven stage hits the
server-side dedup cache, and that cache is keyed by the stage's idempotency
key.  A stage class that implements ``execute`` without declaring its own
``idempotency_key`` would silently inherit the base's ``NotImplementedError``
— or worse, a sibling's key — so REP801 makes the declaration a lint-time
contract rather than a first-crash surprise.

Provenance records are content-addressed: their identity *is* their bytes.
Mutating a record fetched back from the store (``store.record(addr)``)
breaks the hash chain the ``workflow-provenance`` oracle and offline
``verify()`` both walk.  REP802 flags in-place mutation of any name bound
from a record accessor.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import (
    Checker,
    Finding,
    Project,
    SourceModule,
    register_checker,
)

#: root of the stage hierarchy (matched by name, project-wide)
STAGE_ROOT = "WorkflowStage"

#: accessor methods whose return value is a sealed provenance record
SEALED_ACCESSORS = ("record", "get_record")

#: dict-mutating method calls that would rewrite a sealed record in place
MUTATING_METHODS = ("update", "pop", "popitem", "setdefault", "clear")


def _defines(cls: ast.ClassDef, method: str) -> bool:
    return any(
        isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and item.name == method
        for item in cls.body
    )


@register_checker
class WorkflowChecker(Checker):
    name = "workflow"
    description = (
        "workflow stages declare explicit idempotency keys; sealed "
        "provenance records are never mutated after retrieval"
    )
    codes = {
        "REP801": (
            "workflow stage implements execute without declaring an "
            "idempotency_key"
        ),
        "REP802": "sealed provenance record mutated after retrieval",
    }

    def check(self, project: Project) -> Iterable[Finding]:
        index = project.class_index()
        stages = project.subclasses_of({STAGE_ROOT}) - {STAGE_ROOT}
        for name in sorted(stages):
            module, node = index[name]
            yield from self._check_stage(module, node, index)
        for module in project.parsed():
            yield from self._check_sealed_mutations(module)

    # -- REP801: every concrete stage names its own dedup key -----------------------

    def _check_stage(
        self,
        module: SourceModule,
        cls: ast.ClassDef,
        index: dict[str, tuple[SourceModule, ast.ClassDef]],
    ) -> Iterable[Finding]:
        if not _defines(cls, "execute"):
            return  # an abstract stem; its concrete children are checked
        if self._inherits_key(cls, index):
            return
        yield module.finding(
            "REP801",
            f"workflow stage {cls.name} implements execute() but never "
            "declares idempotency_key — re-driven attempts after a crash "
            "would not hit the server-side dedup cache, so resume could "
            "not replay byte-identically",
            cls,
            checker=self.name,
            symbol=cls.name,
        )

    def _inherits_key(
        self,
        cls: ast.ClassDef,
        index: dict[str, tuple[SourceModule, ast.ClassDef]],
    ) -> bool:
        """Does *cls* (or an ancestor below the root) define the key?"""
        seen: set[str] = set()
        stack = [cls.name]
        while stack:
            name = stack.pop()
            if name in seen or name == STAGE_ROOT:
                continue  # the root's definition only raises; it doesn't count
            seen.add(name)
            entry = index.get(name)
            if entry is None:
                continue
            node = entry[1]
            if _defines(node, "idempotency_key"):
                return True
            for base in node.bases:
                base_name = base.id if isinstance(base, ast.Name) else (
                    base.attr if isinstance(base, ast.Attribute) else ""
                )
                if base_name:
                    stack.append(base_name)
        return False

    # -- REP802: records are immutable once sealed ----------------------------------

    def _check_sealed_mutations(
        self, module: SourceModule
    ) -> Iterable[Finding]:
        index = module.index
        for scope in index.walk(
            module.tree, ast.FunctionDef, ast.AsyncFunctionDef
        ):
            sealed = self._sealed_names(index, scope)
            if sealed:
                yield from self._mutations(module, scope, sealed)

    @staticmethod
    def _sealed_names(index, scope: ast.AST) -> set[str]:
        """Names in *scope* bound from a record-accessor call."""
        sealed: set[str] = set()
        for node in index.walk(scope, ast.Assign):
            if len(node.targets) != 1:
                continue
            target = node.targets[0]
            value = node.value
            if (
                isinstance(target, ast.Name)
                and isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr in SEALED_ACCESSORS
            ):
                sealed.add(target.id)
        return sealed

    def _mutations(
        self, module: SourceModule, scope: ast.AST, sealed: set[str]
    ) -> Iterable[Finding]:
        for node in module.index.walk(
            scope, ast.Assign, ast.AugAssign, ast.Delete, ast.Call
        ):
            target = None
            how = ""
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for tgt in targets:
                    if (
                        isinstance(tgt, ast.Subscript)
                        and isinstance(tgt.value, ast.Name)
                        and tgt.value.id in sealed
                    ):
                        target, how = tgt.value.id, "assigns into"
                        break
            elif isinstance(node, ast.Delete):
                for tgt in node.targets:
                    if (
                        isinstance(tgt, ast.Subscript)
                        and isinstance(tgt.value, ast.Name)
                        and tgt.value.id in sealed
                    ):
                        target, how = tgt.value.id, "deletes from"
                        break
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATING_METHODS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in sealed
            ):
                target = node.func.value.id
                how = f"calls .{node.func.attr}() on"
            if target:
                yield module.finding(
                    "REP802",
                    f"{how} {target!r}, a sealed provenance record — "
                    "records are content-addressed, so in-place mutation "
                    "breaks the hash chain verify() and the "
                    "workflow-provenance oracle both walk",
                    node,
                    checker=self.name,
                    symbol=target,
                )
